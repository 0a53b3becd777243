"""Serialization of fitted models and pre-processed indexes.

Profiling a room takes hours of wall-clock time on real hardware (15
minutes per power level alone), so a production deployment profiles once
and reuses the coefficients.  This module round-trips a fitted
:class:`~repro.core.model.SystemModel` through a versioned JSON document.

The format is deliberately flat and explicit — every coefficient appears
under its paper name — so a saved model doubles as a human-readable
profiling report.

The consolidation pre-processing (Algorithm 1) is the other expensive
once-per-deployment artifact: O(n^3 log n) offline work that is pure
function of ``(pairs, w2, rho, theta0, t_min, t_max, capacities)``.
:func:`save_consolidation_index` / :func:`load_consolidation_index`
round-trip the event list and the order rows (the ``allStatus`` table
is derived from them on demand and never stored) through a compressed
``.npz`` document stamped with a format tag, a version, and the
parameters' content hash (:func:`repro.core.consolidation.consolidation_cache_key`),
so a loaded index is verifiably the one its parameters would rebuild.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Optional, Union

import numpy as np

from repro.core.model import (
    CoolerModel,
    NodeCoefficients,
    PowerModel,
    SystemModel,
)
from repro.errors import ConfigurationError

#: Format version written into every document.
FORMAT_VERSION = 1

#: Format tag/version stamped into every persisted consolidation index.
INDEX_FORMAT = "repro-consolidation-index"
INDEX_FORMAT_VERSION = 2


def system_model_to_dict(model: SystemModel) -> dict[str, Any]:
    """The JSON-ready dictionary form of a fitted system model."""
    return {
        "format": "repro-system-model",
        "version": FORMAT_VERSION,
        "t_max": model.t_max,
        "power": {"w1": model.power.w1, "w2": model.power.w2},
        "cooler": {
            "c_f_ac": model.cooler.c_f_ac,
            "actuation_offset": model.cooler.actuation_offset,
            "actuation_t_ac": model.cooler.actuation_t_ac,
            "actuation_power": model.cooler.actuation_power,
            "t_ac_min": model.cooler.t_ac_min,
            "t_ac_max": model.cooler.t_ac_max,
            "idle_power": model.cooler.idle_power,
        },
        "nodes": [
            {
                "alpha": node.alpha,
                "beta": node.beta,
                "gamma": node.gamma,
                "capacity": capacity,
            }
            for node, capacity in zip(model.nodes, model.capacities)
        ],
    }


def system_model_from_dict(data: dict[str, Any]) -> SystemModel:
    """Rebuild a fitted system model from its dictionary form.

    Raises
    ------
    ConfigurationError
        On wrong format tags, unsupported versions, or missing fields —
        a clear error beats a half-loaded model.
    """
    if not isinstance(data, dict):
        raise ConfigurationError("model document must be a JSON object")
    if data.get("format") != "repro-system-model":
        raise ConfigurationError(
            f"not a repro system model (format={data.get('format')!r})"
        )
    if data.get("version") != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported model version {data.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    try:
        power = PowerModel(**data["power"])
        cooler = CoolerModel(**data["cooler"])
        nodes = tuple(
            NodeCoefficients(
                alpha=entry["alpha"],
                beta=entry["beta"],
                gamma=entry["gamma"],
            )
            for entry in data["nodes"]
        )
        capacities = tuple(entry["capacity"] for entry in data["nodes"])
        t_max = float(data["t_max"])
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed model document: {exc}") from exc
    return SystemModel(
        power=power,
        nodes=nodes,
        cooler=cooler,
        t_max=t_max,
        capacities=capacities,
    )


def save_system_model(
    model: SystemModel, path: Union[str, pathlib.Path]
) -> None:
    """Write a fitted model to ``path`` as JSON."""
    document = json.dumps(system_model_to_dict(model), indent=2)
    pathlib.Path(path).write_text(document + "\n")


def load_system_model(path: Union[str, pathlib.Path]) -> SystemModel:
    """Read a fitted model previously written by :func:`save_system_model`."""
    file = pathlib.Path(path)
    if not file.exists():
        raise ConfigurationError(f"model file not found: {file}")
    try:
        data = json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"model file {file} is not valid JSON: {exc}"
        ) from exc
    return system_model_from_dict(data)


# ---------------------------------------------------------------------- #
# Consolidation index persistence
# ---------------------------------------------------------------------- #


def save_consolidation_index(index, path: Union[str, pathlib.Path]):
    """Serialize a pre-processed consolidation index to ``path``.

    Writes a compressed ``.npz`` holding the construction parameters,
    the event list, and the order rows, stamped with
    the format tag, version, and the parameters' content hash.  Returns
    the written :class:`pathlib.Path`.
    """
    file = pathlib.Path(path)
    if file.parent and not file.parent.exists():
        raise ConfigurationError(
            f"directory does not exist: {file.parent}"
        )
    nan = float("nan")
    arrays = {
        "format": np.array(INDEX_FORMAT),
        "version": np.array(INDEX_FORMAT_VERSION),
        "cache_key": np.array(index.cache_key),
        "pairs": np.asarray(index.pairs, dtype=np.float64),
        "params": np.array(
            [
                index.w2,
                index.rho,
                index.theta0,
                nan if index.t_min is None else index.t_min,
                nan if index.t_max is None else index.t_max,
            ],
            dtype=np.float64,
        ),
        "has_capacities": np.array(index.capacities is not None),
        "capacities": np.asarray(
            [] if index.capacities is None else index.capacities,
            dtype=np.float64,
        ),
        "event_t": index._event_t,
        "event_p": index._event_p,
        "event_q": index._event_q,
        "times": index._times,
        "orders_mat": index._orders_mat,
    }
    with file.open("wb") as handle:
        np.savez_compressed(handle, **arrays)
    return file


def load_consolidation_index(
    path: Union[str, pathlib.Path], expected_key: Optional[str] = None
):
    """Load an index written by :func:`save_consolidation_index`.

    Parameters
    ----------
    path:
        The ``.npz`` document to read.
    expected_key:
        Optional :func:`~repro.core.consolidation.consolidation_cache_key`
        the caller expects; a mismatch (stale file for different
        parameters) raises :class:`ConfigurationError` instead of
        silently answering queries for the wrong room.

    Raises
    ------
    ConfigurationError
        On missing files, wrong format tags, unsupported versions, key
        mismatches, or structurally inconsistent tables.
    """
    from repro.core.consolidation import ConsolidationIndex

    file = pathlib.Path(path)
    if not file.exists():
        raise ConfigurationError(f"index file not found: {file}")
    try:
        with np.load(file, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"index file {file} is not a readable npz document: {exc}"
        ) from exc
    required = {
        "format", "version", "cache_key", "pairs", "params",
        "has_capacities", "capacities", "event_t", "event_p", "event_q",
        "times", "orders_mat",
    }
    missing = required - set(arrays)
    if missing:
        raise ConfigurationError(
            f"index file {file} is missing fields: {sorted(missing)}"
        )
    if str(arrays["format"]) != INDEX_FORMAT:
        raise ConfigurationError(
            f"not a consolidation index (format={arrays['format']!r})"
        )
    if int(arrays["version"]) != INDEX_FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported index version {int(arrays['version'])} "
            f"(this build reads version {INDEX_FORMAT_VERSION})"
        )
    stored_key = str(arrays["cache_key"])
    if expected_key is not None and stored_key != expected_key:
        raise ConfigurationError(
            f"index file {file} was built for different parameters "
            f"(stored key {stored_key[:12]}…, expected "
            f"{expected_key[:12]}…)"
        )
    params = np.asarray(arrays["params"], dtype=np.float64)
    if params.shape != (5,):
        raise ConfigurationError(
            f"index file {file} has a malformed parameter block"
        )
    w2, rho, theta0, t_min, t_max = (float(v) for v in params)
    pairs = [
        (float(a), float(b))
        for a, b in np.asarray(arrays["pairs"], dtype=np.float64).reshape(
            -1, 2
        )
    ]
    capacities = (
        [float(c) for c in arrays["capacities"]]
        if bool(arrays["has_capacities"])
        else None
    )
    index = ConsolidationIndex._from_tables(
        pairs=pairs,
        w2=w2,
        rho=rho,
        theta0=theta0,
        t_min=None if np.isnan(t_min) else t_min,
        t_max=None if np.isnan(t_max) else t_max,
        capacities=capacities,
        event_t=arrays["event_t"],
        event_p=arrays["event_p"],
        event_q=arrays["event_q"],
        times=arrays["times"],
        orders_mat=arrays["orders_mat"],
    )
    if index.cache_key != stored_key:
        raise ConfigurationError(
            f"index file {file} is corrupt: stored cache key does not "
            "match its own parameters"
        )
    return index
