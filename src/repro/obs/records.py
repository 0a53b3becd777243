"""Structured records of individual optimization / simulation runs.

A :class:`RunRecord` captures one unit of work end to end — one
:meth:`~repro.core.optimizer.JointOptimizer.solve` call, one profiling
campaign, one controller trace — with its inputs, the selection method
used, disjoint per-stage wall-clock timings, solver-iteration counters
(active-set repair rounds, refined queries and memo hits, bisection
steps), and the outcome.  Records are created by
:func:`repro.obs.runtime.record_run` and collected on the active
:class:`~repro.obs.metrics.MetricsRegistry`.

Two exporters are provided: JSON (one record or the whole registry via
``snapshot()``) and CSV (one row per record, nested maps JSON-encoded in
their cells so the round-trip is lossless).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

#: Column order of the CSV exporter.
CSV_FIELDS = (
    "kind",
    "method",
    "total_seconds",
    "inputs",
    "stages",
    "counters",
    "outcome",
)


@dataclass
class RunRecord:
    """One instrumented run.

    Attributes
    ----------
    kind:
        What ran: ``"optimizer.solve"``, ``"optimizer.max_load"``,
        ``"profiling.campaign"``, ``"controller.trace"``, or any caller
        supplied label.
    inputs:
        The run's inputs (load, budget, machine count, ...), JSON-safe.
    method:
        Selection method for optimizer runs (``"index"``, ``"exact"``,
        ``"brute"``, ``"explicit"``, ``"all"``); ``None`` otherwise.
    stages:
        Wall-clock seconds per stage.  Top-level stages (no ``/`` in the
        key) are disjoint and together cover essentially the whole run;
        nested spans appear under ``parent/child`` keys and are already
        included in their parent's time.
    counters:
        Per-run counter increments (e.g.
        ``closed_form.active_set_rounds``), a run-scoped view of the
        same names the global registry accumulates.
    outcome:
        What the run produced (ON-set size, commanded set point,
        predicted power, error type on failure), JSON-safe.
    total_seconds:
        Wall-clock duration of the whole run.
    """

    kind: str
    inputs: dict = field(default_factory=dict)
    method: Optional[str] = None
    stages: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    outcome: dict = field(default_factory=dict)
    total_seconds: float = 0.0

    def add_stage(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` under stage ``name``."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def add_count(self, name: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` under counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @property
    def stage_seconds(self) -> float:
        """Sum of the disjoint top-level stages (keys without ``/``)."""
        return sum(
            seconds
            for name, seconds in self.stages.items()
            if "/" not in name
        )

    # ------------------------------------------------------------------ #
    # JSON
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """JSON-safe dictionary (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "method": self.method,
            "total_seconds": self.total_seconds,
            "inputs": dict(self.inputs),
            "stages": dict(self.stages),
            "counters": dict(self.counters),
            "outcome": dict(self.outcome),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunRecord":
        return cls(
            kind=data["kind"],
            method=data.get("method"),
            total_seconds=float(data.get("total_seconds", 0.0)),
            inputs=dict(data.get("inputs", {})),
            stages=dict(data.get("stages", {})),
            counters=dict(data.get("counters", {})),
            outcome=dict(data.get("outcome", {})),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------- #
# CSV
# ---------------------------------------------------------------------- #


def records_to_csv(records: Iterable[RunRecord]) -> str:
    """Render records as CSV, one row per record.

    Nested maps (``inputs``/``stages``/``counters``/``outcome``) are
    JSON-encoded inside their cells, so
    :func:`records_from_csv` recovers the records exactly.
    """
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        row = record.to_dict()
        writer.writerow(
            {
                "kind": row["kind"],
                "method": "" if row["method"] is None else row["method"],
                "total_seconds": repr(row["total_seconds"]),
                "inputs": json.dumps(row["inputs"]),
                "stages": json.dumps(row["stages"]),
                "counters": json.dumps(row["counters"]),
                "outcome": json.dumps(row["outcome"]),
            }
        )
    return out.getvalue()


def records_from_csv(text: str) -> list[RunRecord]:
    """Parse :func:`records_to_csv` output back into records."""
    reader = csv.DictReader(io.StringIO(text))
    records = []
    for row in reader:
        records.append(
            RunRecord(
                kind=row["kind"],
                method=row["method"] or None,
                total_seconds=float(row["total_seconds"]),
                inputs=json.loads(row["inputs"]),
                stages=json.loads(row["stages"]),
                counters=json.loads(row["counters"]),
                outcome=json.loads(row["outcome"]),
            )
        )
    return records
