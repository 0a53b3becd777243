"""Bench-regression gate: compare result artifacts against baselines.

The benchmarks under ``benchmarks/`` write machine-readable JSON
artifacts into ``benchmarks/results/`` (each self-describing via a
``kind`` field).  This module compares a fresh results directory
against the committed snapshots in ``benchmarks/baselines/`` and
renders a per-metric verdict table — the ``repro bench-check`` CLI
target, run in CI right after the smoke benches.  What to compare
(identity keys, workload context, gated metrics) and what each result
must satisfy (its schema and named claims) come from the artifact's
spec in :data:`repro.obs.artifacts.ARTIFACTS`.

Design choices, in decreasing order of importance:

- **Generous ratio tolerances.**  CI machines are noisy and shared;
  the gate exists to catch order-of-magnitude regressions (an
  accidentally quadratic path, a lost vectorization), not 10% jitter.
  The default tolerance lets a metric degrade up to 2.5x before
  failing.
- **Context-gated comparison.**  A result is only compared against a
  baseline measured under the same workload shape (same ``machines``
  for serving, matching entry identity keys everywhere).  A CI smoke
  run at ``machines=20`` is *skipped* against the committed
  ``machines=500`` baseline rather than producing meaningless ratios.
- **New artifacts pass.**  A result with no committed baseline (or a
  kind with no metric spec) is reported as ``new``/``skipped``, never
  failed — the gate must not punish adding benchmarks.
- **Results must be well-formed and true.**  A result that breaks its
  spec, or fails one of its claims (e.g. MPC no longer dominating on
  the flash crowd), fails the gate whatever its baseline.

``--update`` snapshots the current results as the new baselines.
"""

from __future__ import annotations

import json
import pathlib
import shutil
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.obs.artifacts import (
    MetricSpec,
    artifact_spec,
    evaluate_claims,
    is_number,
    validate_artifact,
)

#: Verdicts, in the order the summary counts them.
VERDICTS = ("ok", "regression", "new", "skipped")


@dataclass
class CheckRow:
    """One verdict line of the bench-check table."""

    artifact: str
    subject: str
    metric: str
    verdict: str
    baseline: Optional[float] = None
    current: Optional[float] = None
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if not self.baseline or self.current is None:
            return None
        return self.current / self.baseline


@dataclass
class CheckReport:
    """All rows of one ``bench-check`` run plus the overall verdict."""

    rows: list[CheckRow] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return any(row.verdict == "regression" for row in self.rows)

    def counts(self) -> dict[str, int]:
        out = {verdict: 0 for verdict in VERDICTS}
        for row in self.rows:
            out[row.verdict] = out.get(row.verdict, 0) + 1
        return out


def _load_json(path: pathlib.Path) -> dict:
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"cannot read benchmark artifact {path}: {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise ConfigurationError(
            f"benchmark artifact {path} is not a JSON object"
        )
    return document


def _entry_key(entry: dict, identity: tuple[str, ...]) -> tuple:
    return tuple(entry.get(key) for key in identity)


def _subject(entry: dict, identity: tuple[str, ...]) -> str:
    return ",".join(f"{key}={entry.get(key)}" for key in identity)


def _compare_entries(
    artifact: str,
    baseline_list: list,
    current_list: list,
    identity: tuple[str, ...],
    metrics: tuple[MetricSpec, ...],
    prefix: str = "",
) -> list[CheckRow]:
    """Verdict rows for one identity-keyed entry list (or section)."""
    baseline_entries = {
        _entry_key(entry, identity): entry for entry in baseline_list
    }
    rows: list[CheckRow] = []
    for entry in current_list:
        subject = prefix + _subject(entry, identity)
        base_entry = baseline_entries.get(_entry_key(entry, identity))
        if base_entry is None:
            rows.append(
                CheckRow(artifact, subject, "-", "new",
                         note="no baseline entry")
            )
            continue
        for metric in metrics:
            base_value = base_entry.get(metric.name)
            value = entry.get(metric.name)
            if not is_number(base_value) or not is_number(value):
                rows.append(
                    CheckRow(artifact, subject, metric.name, "skipped",
                             note="metric missing")
                )
                continue
            verdict = metric.verdict(float(base_value), float(value))
            note = ""
            if verdict == "regression":
                note = (f"{metric.direction}-is-better beyond "
                        f"{metric.tolerance:g}x tolerance")
            rows.append(
                CheckRow(artifact, subject, metric.name, verdict,
                         baseline=float(base_value),
                         current=float(value), note=note)
            )
    return rows


def compare_documents(
    artifact: str, baseline: dict, current: dict
) -> list[CheckRow]:
    """Per-metric verdict rows for one (baseline, result) artifact pair.

    Identity keys, workload context and gated metrics come from the
    artifact's spec in :data:`repro.obs.artifacts.ARTIFACTS`.
    """
    kind = current.get("kind")
    spec = artifact_spec(current, artifact)
    if spec is None or not spec.gated():
        return [
            CheckRow(artifact, "-", "-", "skipped",
                     note=f"no gate spec for kind {kind!r}")
        ]
    if baseline.get("kind") != kind:
        return [
            CheckRow(artifact, "-", "-", "skipped",
                     note=f"baseline kind {baseline.get('kind')!r} "
                          f"!= result kind {kind!r}")
        ]
    for key in spec.context:
        if baseline.get(key) != current.get(key):
            return [
                CheckRow(
                    artifact, "-", "-", "skipped",
                    note=(f"incomparable workload: {key} "
                          f"{current.get(key)!r} vs baseline "
                          f"{baseline.get(key)!r}"),
                )
            ]
    rows = []
    for key, section in spec.gated():
        current_list = current.get(key)
        if not isinstance(current_list, list):
            continue  # result has no such section — nothing to gate
        baseline_list = baseline.get(key)
        if not isinstance(baseline_list, list):
            baseline_list = []  # baseline predates it: rows come out "new"
        rows.extend(
            _compare_entries(
                artifact, baseline_list, current_list,
                section.identity, section.metrics,
                prefix="" if key == "entries" else f"{key}:",
            )
        )
    if not rows:
        rows.append(
            CheckRow(artifact, "-", "-", "skipped", note="no entries")
        )
    return rows


def check_benchmarks(
    results_dir: Union[str, pathlib.Path],
    baselines_dir: Union[str, pathlib.Path],
) -> CheckReport:
    """Validate every ``*.json`` result, compare it against its
    committed baseline, and evaluate its claims.

    A result that breaks its artifact spec yields one ``schema``
    regression row and is not compared; a failed claim is a
    regression row of its own (subject ``claim``).
    """
    results_dir = pathlib.Path(results_dir)
    baselines_dir = pathlib.Path(baselines_dir)
    if not results_dir.is_dir():
        raise ConfigurationError(
            f"results directory does not exist: {results_dir}"
        )
    report = CheckReport()
    result_paths = sorted(results_dir.glob("*.json"))
    if not result_paths:
        raise ConfigurationError(
            f"no *.json benchmark artifacts in {results_dir}"
        )
    for path in result_paths:
        current = _load_json(path)
        spec = artifact_spec(current, path.name)
        if spec is not None:
            try:
                validate_artifact(spec.kind, current)
            except ConfigurationError as exc:
                report.rows.append(
                    CheckRow(path.name, "-", "schema", "regression",
                             note=str(exc))
                )
                continue
        baseline_path = baselines_dir / path.name
        if baseline_path.is_file():
            report.rows.extend(
                compare_documents(
                    path.name, _load_json(baseline_path), current
                )
            )
        else:
            report.rows.append(
                CheckRow(path.name, "-", "-", "new",
                         note="no committed baseline")
            )
        if spec is not None:
            report.rows.extend(
                CheckRow(path.name, "claim", claim.name,
                         "ok" if held else "regression",
                         note="" if held else claim.message)
                for claim, held in evaluate_claims(spec.kind, current)
            )
    return report


def update_baselines(
    results_dir: Union[str, pathlib.Path],
    baselines_dir: Union[str, pathlib.Path],
) -> list[str]:
    """Snapshot current ``*.json`` results as the new baselines."""
    results_dir = pathlib.Path(results_dir)
    baselines_dir = pathlib.Path(baselines_dir)
    if not results_dir.is_dir():
        raise ConfigurationError(
            f"results directory does not exist: {results_dir}"
        )
    baselines_dir.mkdir(parents=True, exist_ok=True)
    copied = []
    for path in sorted(results_dir.glob("*.json")):
        shutil.copyfile(path, baselines_dir / path.name)
        copied.append(path.name)
    return copied


def render_report(report: CheckReport) -> str:
    """The human verdict table ``repro bench-check`` prints."""
    headers = ["artifact", "subject", "metric", "baseline", "current",
               "ratio", "verdict"]
    widths = [len(h) for h in headers]
    body = []
    for row in report.rows:
        ratio = row.ratio
        cells = [
            row.artifact,
            row.subject,
            row.metric,
            "-" if row.baseline is None else f"{row.baseline:.4g}",
            "-" if row.current is None else f"{row.current:.4g}",
            "-" if ratio is None else f"{ratio:.2f}x",
            row.verdict + (f" ({row.note})" if row.note else ""),
        ]
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        body.append(cells)
    lines = []
    lines.append("  ".join(
        h.ljust(w) for h, w in zip(headers, widths)
    ).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for cells in body:
        lines.append("  ".join(
            c.ljust(w) for c, w in zip(cells, widths)
        ).rstrip())
    counts = report.counts()
    summary = ", ".join(
        f"{counts[v]} {v}" for v in VERDICTS if counts.get(v)
    )
    lines.append("")
    lines.append(
        ("FAIL: benchmark regression detected" if report.regressed
         else "OK: no benchmark regressions")
        + (f" ({summary})" if summary else "")
    )
    return "\n".join(lines) + "\n"
