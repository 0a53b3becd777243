"""Exporter glue: the bench observability document and Prometheus text.

The benchmark harness (``benchmarks/conftest.py``) enables observability
for the whole session and, at teardown, writes
``benchmarks/results/observability.json``: :func:`bench_observability`
builds the document and :func:`repro.obs.artifacts.write_artifact`
validates and writes it.  The file is the machine-readable side of the
perf trajectory: a ``stages`` map of wall-clock summaries for every
instrumented span, plus the counter/gauge totals of the run.  Its
contract, like every other bench artifact's, is declared once in
:data:`repro.obs.artifacts.ARTIFACTS`.

:func:`render_prometheus` and :func:`validate_prometheus` produce and
check the text exposition the serving daemon's ``telemetry`` op serves.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBuffer


def bench_observability(
    registry: MetricsRegistry, trace: Optional[TraceBuffer] = None
) -> dict:
    """The bench-results observability document for ``registry``.

    Shape (see ``docs/observability.md`` for the worked schema)::

        {
          "schema": 1,
          "stages": {"<span path>": {count,total,mean,min,max}, ...},
          "counters": {"<name>": <total>, ...},
          "gauges": {"<name>": <value>, ...},
          "runs": <number of completed run records>,
          "trace": {schema, spans, events, dropped_spans,
                    dropped_events, violations}        # when traced
        }

    The ``trace`` section appears only when a non-empty
    :class:`~repro.obs.trace.TraceBuffer` is passed — the bench session
    includes it when any bench ran with tracing on.
    """
    snapshot = registry.snapshot()
    document = {
        "schema": snapshot["schema"],
        "stages": registry.timings(),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "runs": len(snapshot["records"]),
    }
    if trace is not None and len(trace):
        document["trace"] = trace.summary()
    return document


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #

#: Legal Prometheus metric-name shape.
_PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_LABEL = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: Metric types the renderer/validator accept (exposition-format v0.0.4).
_PROM_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")
#: One sample line: name, optional {labels}, value.
_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[^{}]*\})?"
    r" (NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)$"
)


def _prom_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if value != int(value) else str(int(value))


def _prom_labels(labels: Mapping) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        if not _PROM_LABEL.match(str(key)):
            raise ConfigurationError(
                f"invalid Prometheus label name {key!r}"
            )
        escaped = (
            str(labels[key])
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def render_prometheus(families: Iterable[Mapping]) -> str:
    """Render metric families in the Prometheus text format (v0.0.4).

    Each family is ``{"name", "type", "help", "samples"}`` where
    ``samples`` is a list of ``{"labels": {...}, "value": <number>}``
    (``labels`` optional, ``suffix`` optional for summary series like
    ``_count``/``_sum``).  Output passes :func:`validate_prometheus` by
    construction; the serving ``telemetry`` op serves this text so any
    Prometheus scraper can ingest the daemon's live metrics.
    """
    lines = []
    for family in families:
        name = family.get("name")
        if not isinstance(name, str) or not _PROM_NAME.match(name):
            raise ConfigurationError(
                f"invalid Prometheus metric name {name!r}"
            )
        kind = family.get("type", "untyped")
        if kind not in _PROM_TYPES:
            raise ConfigurationError(
                f"invalid Prometheus metric type {kind!r} for {name}"
            )
        help_text = str(family.get("help", "")).replace("\n", " ")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family.get("samples", []):
            suffix = sample.get("suffix", "")
            series = name + suffix
            if not _PROM_NAME.match(series):
                raise ConfigurationError(
                    f"invalid Prometheus series name {series!r}"
                )
            lines.append(
                f"{series}{_prom_labels(sample.get('labels', {}))} "
                f"{_prom_value(sample['value'])}"
            )
    return "\n".join(lines) + "\n"


def validate_prometheus(text: str) -> dict:
    """Structural check of Prometheus text-format output.

    Verifies that every non-comment line is a well-formed sample, that
    every sample's family was declared with a ``# TYPE`` line first, and
    that type declarations are legal.  Returns
    ``{"families": <int>, "samples": <int>}`` so callers (the CI smoke
    job) can also assert the exposition is non-trivial.  Raises
    :class:`ConfigurationError` on any malformed line.
    """
    families: dict[str, str] = {}
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ConfigurationError(
                    f"line {lineno}: malformed comment {line!r}"
                )
            if not _PROM_NAME.match(parts[2]):
                raise ConfigurationError(
                    f"line {lineno}: invalid metric name {parts[2]!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _PROM_TYPES:
                    raise ConfigurationError(
                        f"line {lineno}: invalid TYPE declaration {line!r}"
                    )
                families[parts[2]] = parts[3]
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            raise ConfigurationError(
                f"line {lineno}: malformed sample {line!r}"
            )
        series = match.group(1)
        declared = any(
            series == name or series.startswith(name + "_")
            for name in families
        )
        if not declared:
            raise ConfigurationError(
                f"line {lineno}: sample {series!r} has no TYPE declaration"
            )
        samples += 1
    if not families:
        raise ConfigurationError("no metric families declared")
    return {"families": len(families), "samples": samples}
