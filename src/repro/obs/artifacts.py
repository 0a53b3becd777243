"""Artifact specs: one declaration per benchmark artifact kind.

Every machine-readable artifact the benches and campaign CLIs write
into ``benchmarks/results/`` is declared exactly once, in
:data:`ARTIFACTS`.  Everything that reads an artifact's contract reads
that table:

- :func:`validate_artifact` checks a document against its spec;
- :func:`write_artifact` validates, then writes canonical JSON (sorted
  keys, no NaN or infinity);
- :func:`evaluate_claims` tests the results an artifact certifies, such
  as MPC dominating the reactive controller on a flash crowd;
- :mod:`repro.analysis.benchcheck` takes identity keys, workload
  context and gated metrics from the same spec, and ``repro
  bench-check`` fails on an invalid result or a failed claim.

A spec is a tree.  Its leaves are :class:`Field` s: ``int``, ``number``,
``bool`` or (non-empty) ``str``, with optional open or closed lower and
closed upper bounds, ``nullable`` and must-be-``true``.  Numbers are finite, and a bool is
never accepted where an int or number is required.  Its inner nodes are
:class:`Section` s: a non-empty list of records, a map of name to
record (or to scalar), or one nested record.  What the vocabulary cannot
express is a named :class:`Check` predicate: per record on a section,
cross-record on the spec (``invariants``), or a certified result
(``claims``).  ``docs/observability.md`` ("Artifact specs") walks
through the vocabulary.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import SCHEMA_VERSION

#: Degradation ratio a gated metric may reach before the gate fails.
DEFAULT_TOLERANCE = 2.5


def is_number(value) -> bool:
    """An int or float, but not a bool (``bool`` subclasses ``int``)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Field:
    """One scalar: its type, its range, and whether it may be null."""

    type: str  # "int", "number", "bool" or "str"
    ge: Optional[float] = None  # closed lower bound
    gt: Optional[float] = None  # open lower bound
    le: Optional[float] = None  # closed upper bound
    nullable: bool = False
    true: bool = False  # a stamp that must be exactly ``true``

    def accepts(self, value) -> bool:
        if value is None:
            return self.nullable
        if self.true:
            return value is True
        if self.type == "bool":
            return isinstance(value, bool)
        if self.type == "str":
            return isinstance(value, str) and bool(value)
        if not is_number(value):
            return False
        if self.type == "int" and not isinstance(value, int):
            return False
        if isinstance(value, float) and not math.isfinite(value):
            return False
        return (
            (self.ge is None or value >= self.ge)
            and (self.gt is None or value > self.gt)
            and (self.le is None or value <= self.le)
        )

    def __str__(self) -> str:
        if self.true:
            text = "true"
        else:
            text = {
                "int": "an int", "number": "a finite number",
                "bool": "a bool", "str": "a non-empty str",
            }[self.type]
            bounds = [
                f"{op} {bound:g}"
                for op, bound in ((">=", self.ge), (">", self.gt),
                                  ("<=", self.le))
                if bound is not None
            ]
            if bounds:
                text += " " + " and ".join(bounds)
        return text + (" or null" if self.nullable else "")


def nullable(field: Field) -> Field:
    return dataclasses.replace(field, nullable=True)


INT = Field("int")
COUNT = Field("int", ge=0)
POSITIVE_INT = Field("int", ge=1)
NUMBER = Field("number")
NONNEG = Field("number", ge=0.0)
POSITIVE = Field("number", gt=0.0)
FRACTION = Field("number", gt=0.0, le=1.0)
BOOL = Field("bool")
TEXT = Field("str")
TRUE = Field("bool", true=True)


@dataclass(frozen=True)
class Check:
    """A named predicate; ``message`` says what a failure means."""

    name: str
    message: str
    holds: Callable[[Mapping], bool]


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric: its name, better-direction, and tolerance."""

    name: str
    direction: str  # "lower" (latencies, seconds) or "higher" (rates)
    tolerance: float = DEFAULT_TOLERANCE
    #: How to treat a zero/negative baseline: "skip" (ratios are
    #: meaningless for noisy timings) or "strict" — a zero baseline is
    #: a *promise* (e.g. zero violation-seconds) and any nonzero
    #: current value of a lower-is-better metric is a regression.
    zero_baseline: str = "skip"

    def verdict(self, baseline: float, current: float) -> str:
        if not math.isfinite(current):
            return "regression"
        if not math.isfinite(baseline):
            return "skipped"
        if baseline <= 0.0:
            if self.zero_baseline == "strict" and self.direction == "lower":
                return "regression" if current > baseline + 1e-9 else "ok"
            return "skipped"
        ratio = current / baseline
        if self.direction == "lower":
            return "regression" if ratio > self.tolerance else "ok"
        return "regression" if ratio < 1.0 / self.tolerance else "ok"


Entry = Union[Field, "Section"]


@dataclass(frozen=True)
class Section:
    """A nested part of a document.

    ``form`` is ``"list"`` (a non-empty list of records), ``"map"``
    (name to record, or name to scalar when ``fields`` is one
    :class:`Field`) or ``"record"`` (one nested record).  A list with
    ``metrics`` is gated by bench-check, entries matched on
    ``identity``.
    """

    fields: Union[Mapping[str, Entry], Field]
    form: str = "list"
    optional: bool = False
    required: tuple[str, ...] = ()  # map keys that must be present
    checks: tuple[Check, ...] = ()  # per-record predicates
    identity: tuple[str, ...] = ()
    metrics: tuple[MetricSpec, ...] = ()


@dataclass(frozen=True)
class ArtifactSpec:
    """The whole contract of one artifact kind."""

    kind: str
    file: str
    fields: Mapping[str, Entry]
    context: tuple[str, ...] = ()  # top-level keys bench-check must match
    invariants: tuple[Check, ...] = ()
    claims: tuple[Check, ...] = ()
    stamped: bool = True  # carries ``"kind"``; observability does not

    def gated(self) -> list[tuple[str, Section]]:
        """The gated entry lists, in declaration order."""
        return [
            (key, entry) for key, entry in self.fields.items()
            if isinstance(entry, Section) and entry.metrics
        ]


# ---------------------------------------------------------------------- #
# Predicates the field vocabulary cannot express
# ---------------------------------------------------------------------- #


#: Exactness budget for the per-site linearization-gap stamp.  The
#: tangent re-linearization of Eq. 10 is *exact* at its operating point
#: (the chiller's power curve is smooth there); a gap beyond float
#: round-off means the seam between the plant and the optimizer leaks.
_LINEARIZATION_GAP_TOLERANCE = 1e-6

#: Controllers every campaign scenario must report.
_RESILIENCE_CONTROLLERS = ("naive", "resilient", "oracle")
_MPC_CONTROLLERS = ("reactive", "resilient", "mpc", "oracle")

_CLIMATE_PRESETS = {"coastal-temperate", "hot-humid", "cold-continental"}


def _baseline_stamps(entry: Mapping) -> bool:
    stamps = (entry["baseline_build_seconds"], entry["speedup"],
              entry["identical_answers"])
    return len({stamp is None for stamp in stamps}) == 1


def _exact_gaps(document: Mapping) -> bool:
    gaps = [
        entry["exact_gap"] for entry in document.get("sharded", ())
        if entry["exact_gap"] is not None
    ]
    return bool(gaps) and all(abs(gap) <= 0.05 for gap in gaps)


def _histogram_keys(entry: Mapping) -> bool:
    return all(
        isinstance(size, str) and size.isdigit() and int(size) >= 1
        for size in entry["batch_size_histogram"]
    )


def _histogram_sum(entry: Mapping) -> bool:
    histogram = entry["batch_size_histogram"]
    accounted = sum(int(size) * count for size, count in histogram.items())
    return accounted == entry["requests"]


def _paired_batching(document: Mapping) -> bool:
    modes: dict = {}
    for entry in document["entries"]:
        modes.setdefault(entry["clients"], []).append(entry["batching"])
    return all(sorted(pair) == [False, True] for pair in modes.values())


def _crash_derate_resilience(document: Mapping) -> bool:
    crashes = [
        scenario["controllers"] for scenario in document["scenarios"]
        if scenario["name"].startswith("crash-derate")
    ]
    return bool(crashes) and all(
        rows["naive"]["violation_seconds_after_grace"] > 0.0
        and rows["resilient"]["violation_seconds_after_grace"] == 0.0
        for rows in crashes
    )


def _names(document: Mapping) -> list:
    return [scenario["name"] for scenario in document["scenarios"]]


def _known_scenarios(document: Mapping) -> bool:
    names = set(_names(document))
    return all(
        entry["scenario"] in names and entry["controller"] in _MPC_CONTROLLERS
        for entry in document["entries"]
    )


def _entry_product(document: Mapping) -> bool:
    seen = {(e["scenario"], e["controller"]) for e in document["entries"]}
    return seen == {
        (name, controller)
        for name in _names(document) for controller in _MPC_CONTROLLERS
    }


def _dominance_per_scenario(document: Mapping) -> bool:
    rows = sorted(row["scenario"] for row in document["dominance"])
    return rows == sorted(_names(document))


def _dominance_flag(row: Mapping) -> bool:
    implied = (
        row["mpc_violation_seconds"] < row["reactive_violation_seconds"]
        and row["mpc_energy_joules"] <= row["reactive_energy_joules"]
    )
    return row["dominates"] == implied


def _flash_crowd_dominance(document: Mapping) -> bool:
    return any(
        row["dominates"] for row in document["dominance"]
        if row["flash_crowd"]
    )


def _sites(document: Mapping) -> dict:
    return {entry["site"]: entry for entry in document["entries"]}


def _cold_beats_hot(key: str, better: Callable) -> Callable:
    """Claim: the cold-continental site's ``key`` beats hot-humid's."""

    def holds(document: Mapping) -> bool:
        sites = _sites(document)
        cold, hot = sites.get("cold-continental"), sites.get("hot-humid")
        return cold is not None and hot is not None and better(
            cold[key], hot[key]
        )

    return holds


def _unique(section: str, key: str) -> Callable[[Mapping], bool]:
    def holds(document: Mapping) -> bool:
        values = [entry[key] for entry in document[section]]
        return len(set(values)) == len(values)

    return holds


def _fields(type_: Field, *names: str) -> dict[str, Field]:
    return dict.fromkeys(names, type_)


# ---------------------------------------------------------------------- #
# The table
# ---------------------------------------------------------------------- #

_MPC_ROW = {
    **_fields(NONNEG, "violation_seconds", "energy_joules",
              "offered_task_seconds", "served_task_seconds",
              "shed_task_seconds"),
    **_fields(COUNT, "reconfigurations", "suppressed", "on_set_changes",
              "horizon_solves", "fallbacks", "precools"),
    "max_t_cpu": NUMBER,
    "energy_overhead_vs_oracle": nullable(NUMBER),
}

_SERVED_WITHIN_OFFERED = Check(
    "served_within_offered", "served task-seconds exceed offered",
    lambda row: (row["served_task_seconds"]
                 <= row["offered_task_seconds"] + 1e-6),
)

_SCALE_METRICS = (
    MetricSpec("build_seconds", "lower"),
    MetricSpec("query_seconds_batched", "lower"),
)

_SPECS = (
    # benchmarks/conftest.py, at the end of every bench session.
    ArtifactSpec(
        kind="observability",
        file="observability.json",
        stamped=False,
        fields={
            "stages": Section(
                {"count": COUNT,
                 **_fields(NUMBER, "total", "mean", "min", "max")},
                form="map",
                checks=(Check(
                    "mean_within_range", "mean outside [min, max]",
                    lambda s: not s["count"]
                    or s["min"] - 1e-12 <= s["mean"] <= s["max"] + 1e-12,
                ),),
            ),
            "counters": Section(NUMBER, form="map"),
            "gauges": Section(NUMBER, form="map"),
            "runs": COUNT,
            "trace": Section(
                _fields(COUNT, "schema", "spans", "events",
                        "dropped_spans", "dropped_events", "violations"),
                form="record",
                optional=True,
            ),
        },
    ),
    # benchmarks/bench_consolidation_scale.py.
    ArtifactSpec(
        kind="consolidation-scale",
        file="consolidation_scale.json",
        fields={
            "seed": INT,
            "entries": Section(
                {
                    "n": POSITIVE_INT,
                    **_fields(COUNT, "events", "statuses", "queries"),
                    **_fields(NONNEG, "build_seconds",
                              "query_seconds_single",
                              "query_seconds_batched"),
                    "baseline_build_seconds": nullable(NONNEG),
                    "speedup": nullable(NONNEG),
                    "identical_answers": nullable(TRUE),
                },
                checks=(Check(
                    "baseline_stamps",
                    "'baseline_build_seconds', 'speedup' and "
                    "'identical_answers' must all be null (baseline "
                    "skipped) or all set, with identical_answers true "
                    "(baseline ran)",
                    _baseline_stamps,
                ),),
                identity=("n",),
                metrics=_SCALE_METRICS,
            ),
            "sharded": Section(
                {
                    **_fields(POSITIVE_INT, "n", "pods", "statuses",
                              "queries"),
                    **_fields(NONNEG, "build_seconds",
                              "query_seconds_single",
                              "query_seconds_batched", "max_load_seconds",
                              "anneal_seconds"),
                    "exact_gap": nullable(NUMBER),
                    "anneal_gap": NUMBER,
                },
                optional=True,
                checks=(Check("pods_within_n", "'pods' cannot exceed 'n'",
                              lambda e: e["pods"] <= e["n"]),),
                identity=("n", "pods"),
                metrics=_SCALE_METRICS,
            ),
        },
        claims=(Check(
            "exact_gap",
            "every measured sharded exact_gap is within 5% of the "
            "monolithic scan, and at least one was measured",
            _exact_gaps,
        ),),
    ),
    # benchmarks/bench_simulation_speed.py.
    ArtifactSpec(
        kind="simulation-speed",
        file="simulation_speed.json",
        fields={
            "seed": INT,
            "dt": POSITIVE,
            "entries": Section(
                {
                    **_fields(POSITIVE_INT, "n", "steps_numpy",
                              "steps_python"),
                    **_fields(POSITIVE, "seconds_numpy", "seconds_python",
                              "steps_per_second_numpy",
                              "steps_per_second_python", "speedup"),
                    "identical_trajectory": TRUE,
                },
                identity=("n",),
                metrics=(MetricSpec("steps_per_second_numpy", "higher"),),
            ),
        },
    ),
    # benchmarks/bench_serving.py.
    ArtifactSpec(
        kind="serving",
        file="serving.json",
        context=("machines",),
        fields={
            "seed": INT,
            **_fields(POSITIVE_INT, "machines", "index_statuses", "levels"),
            "warm_start_seconds": NONNEG,
            "entries": Section(
                {
                    "batching": BOOL,
                    **_fields(POSITIVE_INT, "clients", "requests",
                              "batches", "max_batch", "max_batch_size"),
                    **_fields(COUNT, "errors", "coalesced"),
                    **_fields(POSITIVE, "duration_seconds",
                              "requests_per_second", "latency_mean_ms",
                              "latency_p50_ms", "latency_p99_ms"),
                    "batch_window_seconds": NONNEG,
                    "mean_batch_size": Field("number", ge=1.0),
                    "identical_answers": TRUE,
                    "batch_size_histogram": Section(POSITIVE_INT,
                                                    form="map"),
                },
                checks=(
                    Check("p50_within_p99", "p50 latency exceeds p99",
                          lambda e: e["latency_p50_ms"]
                          <= e["latency_p99_ms"] + 1e-9),
                    Check("histogram_keys",
                          "'batch_size_histogram' keys must be positive "
                          "integer strings",
                          _histogram_keys),
                    Check("histogram_sum",
                          "'batch_size_histogram' does not account for "
                          "every request",
                          _histogram_sum),
                ),
                identity=("clients", "batching"),
                metrics=(
                    MetricSpec("latency_p50_ms", "lower"),
                    MetricSpec("latency_p99_ms", "lower"),
                    MetricSpec("requests_per_second", "higher"),
                ),
            ),
        },
        invariants=(Check(
            "paired_batching",
            "every clients level must appear exactly twice "
            "(batching on and off)",
            _paired_batching,
        ),),
        claims=(Check(
            "no_errors", "every entry served its requests without errors",
            lambda d: all(entry["errors"] == 0 for entry in d["entries"]),
        ),),
    ),
    # repro faults (repro.faults.campaign.run_campaign).
    ArtifactSpec(
        kind="resilience",
        file="resilience.json",
        fields={
            **_fields(INT, "seed", "machines", "grace_steps"),
            **_fields(POSITIVE, "control_dt", "sim_dt"),
            "scenarios": Section({
                "name": TEXT,
                "load_fraction": FRACTION,
                "duration": POSITIVE,
                "fault_transitions": COUNT,
                "controllers": Section(
                    {
                        **_fields(NONNEG, "violation_seconds",
                                  "violation_seconds_after_grace",
                                  "energy_joules", "offered_task_seconds",
                                  "served_task_seconds",
                                  "shed_task_seconds"),
                        **_fields(COUNT, "reconfigurations", "suppressed",
                                  "safe_mode_entries",
                                  "sensors_quarantined"),
                        "max_t_cpu": NUMBER,
                        "recovery_seconds": nullable(NONNEG),
                        "energy_overhead_vs_oracle": nullable(NUMBER),
                    },
                    form="map",
                    required=_RESILIENCE_CONTROLLERS,
                    checks=(Check(
                        "grace_within_raw",
                        "grace-filtered violations exceed the raw count",
                        lambda row: row["violation_seconds_after_grace"]
                        <= row["violation_seconds"] + 1e-9,
                    ),),
                ),
            }),
        },
        claims=(Check(
            "crash_derate_resilience",
            "in every crash-derate scenario the naive controller violates "
            "after the grace window and the resilient one does not",
            _crash_derate_resilience,
        ),),
    ),
    # repro mpc, benchmarks/bench_mpc.py (run_mpc_campaign).
    ArtifactSpec(
        kind="mpc",
        file="mpc.json",
        context=("machines", "horizon"),
        fields={
            "seed": INT,
            **_fields(POSITIVE_INT, "machines", "horizon"),
            **_fields(POSITIVE, "control_dt", "sim_dt"),
            "scenarios": Section({
                "name": TEXT,
                "flash_crowd": BOOL,
                "duration": POSITIVE,
                "peak_load_fraction": nullable(POSITIVE),
                "controllers": Section(
                    _MPC_ROW, form="map", required=_MPC_CONTROLLERS,
                    checks=(_SERVED_WITHIN_OFFERED,),
                ),
            }),
            "entries": Section(
                {"scenario": TEXT, "controller": TEXT, **_MPC_ROW},
                checks=(_SERVED_WITHIN_OFFERED,),
                identity=("scenario", "controller"),
                metrics=(
                    MetricSpec("violation_seconds", "lower"),
                    MetricSpec("energy_joules", "lower"),
                    MetricSpec("served_task_seconds", "higher"),
                ),
            ),
            # The acceptance gate rides here: the committed baseline has
            # MPC at zero violation-seconds on every scenario, so the
            # strict zero-baseline rule turns *any* nonzero
            # mpc_violation_seconds into a failure.
            "dominance": Section(
                {
                    "scenario": TEXT,
                    **_fields(BOOL, "flash_crowd", "dominates"),
                    **_fields(NONNEG, "mpc_violation_seconds",
                              "reactive_violation_seconds",
                              "mpc_energy_joules", "reactive_energy_joules"),
                },
                checks=(Check(
                    "dominates_flag",
                    "'dominates' flag disagrees with its own numbers",
                    _dominance_flag,
                ),),
                identity=("scenario",),
                metrics=(
                    MetricSpec("mpc_violation_seconds", "lower",
                               zero_baseline="strict"),
                    MetricSpec("mpc_energy_joules", "lower"),
                ),
            ),
        },
        invariants=(
            Check("unique_scenarios", "scenario names must be unique",
                  _unique("scenarios", "name")),
            Check("known_scenarios",
                  "an entry references an unknown scenario or controller",
                  _known_scenarios),
            Check("entry_product",
                  "'entries' must cover exactly the scenario x controller "
                  "product",
                  _entry_product),
            Check("dominance_per_scenario",
                  "'dominance' must list one row per scenario",
                  _dominance_per_scenario),
        ),
        claims=(
            Check("flash_crowd_dominance",
                  "MPC strictly dominates the reactive controller on some "
                  "flash-crowd scenario",
                  _flash_crowd_dominance),
            Check("mpc_horizon_solves",
                  "the MPC's horizon solver ran in every scenario",
                  lambda d: all(
                      s["controllers"]["mpc"]["horizon_solves"] > 0
                      for s in d["scenarios"]
                  )),
        ),
    ),
    # repro weather, benchmarks/bench_cooling_plant.py
    # (repro.experiments.weather.WeatherStudyResult.document).
    ArtifactSpec(
        kind="cooling-plant",
        file="cooling_plant.json",
        context=("machines", "load_fraction"),
        fields={
            "seed": INT,
            "machines": POSITIVE_INT,
            "load_fraction": FRACTION,
            "quick": BOOL,
            "entries": Section(
                {
                    **_fields(TEXT, "site", "description"),
                    "buckets": POSITIVE_INT,
                    "mode_switches": COUNT,
                    **_fields(POSITIVE, "bucket_seconds",
                              "it_energy_joules", "cooling_energy_joules",
                              "total_energy_joules", "mean_cop"),
                    "pue": Field("number", ge=1.0),
                    "economizer_fraction": Field("number", ge=0.0, le=1.0),
                    "water_liters": nullable(NONNEG),
                    "wue_l_per_kwh": nullable(NONNEG),
                    "linearization_gap": NONNEG,
                },
                checks=(
                    Check("energy_closure",
                          "total energy does not equal IT + cooling",
                          lambda e: abs(
                              e["it_energy_joules"]
                              + e["cooling_energy_joules"]
                              - e["total_energy_joules"]
                          ) <= 1e-6 * max(e["it_energy_joules"]
                                          + e["cooling_energy_joules"],
                                          1.0)),
                    Check("water_wue_paired",
                          "'water_liters' and 'wue_l_per_kwh' must be both "
                          "present or both null",
                          lambda e: (e["water_liters"] is None)
                          == (e["wue_l_per_kwh"] is None)),
                    Check("linearization_gap",
                          f"'linearization_gap' exceeds "
                          f"{_LINEARIZATION_GAP_TOLERANCE:g} — the "
                          "re-linearized Eq. 10 no longer matches the "
                          "plant at its operating point",
                          lambda e: e["linearization_gap"]
                          <= _LINEARIZATION_GAP_TOLERANCE),
                ),
                identity=("site",),
                metrics=(
                    MetricSpec("pue", "lower"),
                    MetricSpec("total_energy_joules", "lower"),
                    MetricSpec("economizer_fraction", "higher"),
                ),
            ),
            "heat_wave": Section(
                {
                    "site": TEXT,
                    **_fields(POSITIVE, "amplitude_k", "baseline_pue",
                              "wave_pue", "baseline_peak_w", "wave_peak_w"),
                    "pue_penalty": NUMBER,
                },
                checks=(Check(
                    "penalty_matches",
                    "'pue_penalty' disagrees with its own PUE numbers",
                    lambda w: abs(w["pue_penalty"] - (
                        w["wave_pue"] - w["baseline_pue"]
                    )) <= 1e-9,
                ),),
                identity=("site",),
                metrics=(
                    MetricSpec("wave_pue", "lower"),
                    MetricSpec("wave_peak_w", "lower"),
                ),
            ),
        },
        invariants=(
            Check("unique_sites", "entry sites must be unique",
                  _unique("entries", "site")),
            Check("known_wave_sites",
                  "a heat-wave row references an unknown site",
                  lambda d: {w["site"] for w in d["heat_wave"]}
                  <= set(_sites(d))),
        ),
        claims=(
            Check("climate_presets",
                  "the sweep covers the three climate presets",
                  lambda d: set(_sites(d)) == _CLIMATE_PRESETS),
            Check("cold_site_free_cools_more",
                  "the cold site's economizer fraction beats the hot "
                  "site's",
                  _cold_beats_hot("economizer_fraction",
                                  lambda cold, hot: cold > hot)),
            Check("cold_site_pue",
                  "the cold site's PUE is no worse than the hot site's",
                  _cold_beats_hot("pue", lambda cold, hot: cold <= hot)),
            Check("heat_wave_penalty",
                  "the heat-wave day costs PUE at every site",
                  lambda d: all(w["pue_penalty"] > 0.0
                                for w in d["heat_wave"])),
        ),
    ),
)

#: Every artifact kind, keyed by kind.
ARTIFACTS: dict[str, ArtifactSpec] = {spec.kind: spec for spec in _SPECS}


# ---------------------------------------------------------------------- #
# Readers and writer
# ---------------------------------------------------------------------- #


def artifact_spec(
    document: Mapping, name: Optional[str] = None
) -> Optional[ArtifactSpec]:
    """The spec ``document`` declares by its ``kind``.

    An unstamped artifact (observability) is recognized by its file
    ``name`` instead.  Returns ``None`` for anything undeclared.
    """
    kind = document.get("kind")
    if kind is not None:
        return ARTIFACTS.get(kind) if isinstance(kind, str) else None
    return next(
        (spec for spec in _SPECS if not spec.stamped and spec.file == name),
        None,
    )


def _check_record(record: Mapping, fields: Mapping[str, Entry],
                  where: str) -> None:
    missing = [
        key for key, entry in fields.items()
        if key not in record
        and not (isinstance(entry, Section) and entry.optional)
    ]
    if missing:
        raise ConfigurationError(f"{where or 'document'} missing {missing}")
    prefix = f"{where}." if where else ""
    for key, entry in fields.items():
        if key not in record:
            continue
        value = record[key]
        if isinstance(entry, Section):
            _check_section(value, entry, prefix + key)
        elif not entry.accepts(value):
            raise ConfigurationError(
                f"{prefix}{key} must be {entry}, got {value!r}"
            )


def _check_section(value, section: Section, where: str) -> None:
    if section.form == "list":
        if not isinstance(value, list) or not value:
            raise ConfigurationError(f"'{where}' must be a non-empty list")
        items = [(f"{where}[{i}]", item) for i, item in enumerate(value)]
    elif not isinstance(value, Mapping):
        raise ConfigurationError(f"'{where}' must be a map")
    elif section.form == "record":
        items = [(where, value)]
    else:
        missing = [key for key in section.required if key not in value]
        if missing:
            raise ConfigurationError(f"'{where}' missing {missing}")
        items = [(f"{where}[{key}]", item) for key, item in value.items()]
    for label, item in items:
        if isinstance(section.fields, Field):
            if not section.fields.accepts(item):
                raise ConfigurationError(
                    f"{label} must be {section.fields}, got {item!r}"
                )
            continue
        if not isinstance(item, Mapping):
            raise ConfigurationError(f"{label} must be a map")
        _check_record(item, section.fields, label)
        for check in section.checks:
            if not check.holds(item):
                raise ConfigurationError(f"{label}: {check.message}")


def _spec(kind: str) -> ArtifactSpec:
    spec = ARTIFACTS.get(kind)
    if spec is None:
        raise ConfigurationError(
            f"unknown artifact kind {kind!r} (known: {sorted(ARTIFACTS)})"
        )
    return spec


def validate_artifact(kind: str, document: Mapping) -> None:
    """Raise :class:`ConfigurationError` unless ``document`` is a valid
    ``kind`` artifact: schema stamp, kind stamp, every declared field,
    section and per-record check, then the cross-record invariants."""
    spec = _spec(kind)
    if not isinstance(document, Mapping):
        raise ConfigurationError(f"{kind} document must be a mapping")
    if document.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported {kind} schema {document.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if spec.stamped and document.get("kind") != kind:
        raise ConfigurationError(
            f"not a {kind} record (kind={document.get('kind')!r})"
        )
    _check_record(document, spec.fields, "")
    for check in spec.invariants:
        if not check.holds(document):
            raise ConfigurationError(check.message)


def evaluate_claims(
    kind: str, document: Mapping
) -> list[tuple[Check, bool]]:
    """Each named claim of ``kind`` with whether a *valid* ``document``
    bears it out."""
    return [(claim, bool(claim.holds(document)))
            for claim in _spec(kind).claims]


def write_artifact(
    path: Union[str, pathlib.Path], document: Mapping
) -> pathlib.Path:
    """Validate ``document`` against its spec and write it to ``path``.

    The kind comes from the document's ``kind`` stamp (or, for an
    unstamped artifact, from the file name).  The JSON is canonical:
    indented, sorted keys, and no NaN or infinity anywhere.
    """
    target = pathlib.Path(path)
    if not isinstance(document, Mapping):
        raise ConfigurationError("artifact document must be a mapping")
    spec = artifact_spec(document, target.name)
    if spec is None:
        raise ConfigurationError(
            f"no artifact spec for kind {document.get('kind')!r} "
            f"({target.name})"
        )
    validate_artifact(spec.kind, document)
    try:
        text = json.dumps(document, indent=2, sort_keys=True,
                          allow_nan=False)
    except ValueError as exc:
        raise ConfigurationError(
            f"{spec.kind} document is not finite JSON: {exc}"
        ) from exc
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text + "\n")
    return target
