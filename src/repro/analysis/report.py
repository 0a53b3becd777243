"""One-shot reproduction report and the runtime trace dashboard.

``build_report`` runs every figure driver against a shared context and
assembles a single markdown document — the regenerated counterpart of
the paper's whole evaluation section, suitable for committing next to
EXPERIMENTS.md after a re-run on new parameters.

``render_dashboard`` is the terminal-facing counterpart for one *run*:
given a trace buffer (live, or re-read from a ``repro trace`` JSONL
file) it renders the per-stage timeline, the constraint-headroom table,
and the violation summary that ``repro dashboard`` prints.

``render_top`` is the serving counterpart: one frame of the ``repro
top`` live view, built from a running daemon's ``telemetry`` and
``stats`` snapshots — windowed req/s and latency quantiles per horizon,
the batch-size histogram, queue/stall state, and SLO headroom.
"""

from __future__ import annotations

import pathlib
from typing import Mapping, Optional, Union

from repro.obs.trace import TraceBuffer, TraceSpan
from repro.obs.watchdog import WatchdogSet

from repro import __version__
from repro.experiments.algorithms import run_algorithm_study
from repro.experiments.common import EvaluationContext, default_context
from repro.experiments.fig1_particle_example import run_fig1
from repro.experiments.fig2_power_profiling import run_fig2
from repro.experiments.fig3_temperature_profiling import run_fig3
from repro.experiments.fig5_consolidation_effect import run_fig5
from repro.experiments.fig6_all_methods import run_fig6
from repro.experiments.fig7_no_consolidation import run_fig7
from repro.experiments.fig8_with_consolidation import run_fig8
from repro.experiments.fig9_bottomup_vs_optimal import run_fig9
from repro.experiments.fig10_average_power import run_fig10
from repro.experiments.headline import run_headline


def build_report(context: Optional[EvaluationContext] = None) -> str:
    """Regenerate every figure and return the markdown report text."""
    ctx = context or default_context()
    sections: list[tuple[str, str]] = []
    sections.append(("Fig. 1 — particle system", run_fig1().table()))
    sections.append(("Fig. 2 — power model accuracy", run_fig2(ctx).table()))
    sections.append(
        ("Fig. 3 — thermal model accuracy", run_fig3(ctx).table())
    )
    sections.append(
        ("Fig. 5 — consolidation effect", run_fig5(ctx).table())
    )
    sections.append(("Fig. 6 — all methods", run_fig6(ctx).table()))
    sections.append(
        ("Fig. 7 — strategies without consolidation", run_fig7(ctx).table())
    )
    sections.append(
        ("Fig. 8 — strategies with consolidation", run_fig8(ctx).table())
    )
    sections.append(
        ("Fig. 9 — bottom-up vs optimal", run_fig9(ctx).table())
    )
    sections.append(("Fig. 10 — average power", run_fig10(ctx).table()))
    sections.append(("Headline claims", run_headline(ctx).table()))
    sections.append(
        ("Section III-B algorithms", run_algorithm_study().table())
    )

    model = ctx.model
    header = [
        "# Reproduction report",
        "",
        f"Generated by repro {__version__} on a simulated "
        f"{ctx.testbed.n_machines}-machine testbed "
        f"({ctx.testbed.total_capacity:.0f} tasks/s capacity).",
        "",
        f"Fitted power law: P = {model.power.w1:.4f}·L + "
        f"{model.power.w2:.2f} W  "
        f"(R² = {ctx.profiling.power_report.r_squared:.4f})",
        f"Fitted cooler: c·f_ac = {model.cooler.c_f_ac:.0f} W/K, "
        f"blower floor {model.cooler.idle_power:.0f} W",
        "",
    ]
    body = []
    for title, table in sections:
        body.append(f"## {title}")
        body.append("")
        body.append("```")
        body.append(table)
        body.append("```")
        body.append("")
    return "\n".join(header + body)


def write_report(
    path: Union[str, pathlib.Path],
    context: Optional[EvaluationContext] = None,
) -> pathlib.Path:
    """Build the report and write it to ``path``; returns the path."""
    target = pathlib.Path(path)
    target.write_text(build_report(context))
    return target


# ---------------------------------------------------------------------- #
# Trace dashboard (``repro dashboard``)
# ---------------------------------------------------------------------- #


def _format_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Plain fixed-width table (left-aligned first column, right rest)."""
    widths = [
        max(len(headers[c]), max((len(r[c]) for r in rows), default=0))
        for c in range(len(headers))
    ]

    def fmt(cells: list[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [cells[c].rjust(widths[c]) for c in range(1, len(cells))]
        return "  ".join(parts).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def _span_attr_note(span: TraceSpan) -> str:
    """Compact ``k=v`` rendering of a span's most telling attributes."""
    parts = []
    for key, value in list(span.attributes.items())[:4]:
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return f"  [{', '.join(parts)}]" if parts else ""


def _render_serving_section(serving: dict) -> list[str]:
    """The ``## Serving`` dashboard lines for a serving.json document.

    One row per load-generation run (clients × batching on/off):
    throughput, p50/p99 latency, and the batch-size distribution —
    the operator's view of the micro-batching win.
    """
    lines = ["## Serving", ""]
    lines.append(
        f"n={serving.get('machines', '?')} machines, "
        f"{serving.get('index_statuses', '?')} index statuses, "
        f"{serving.get('levels', '?')} load levels, "
        f"warm start {serving.get('warm_start_seconds', 0.0):.3f} s"
    )
    lines.append("")
    rows = []
    for entry in serving.get("entries", []):
        sizes = entry.get("mean_batch_size", 0.0)
        rows.append(
            [
                str(entry.get("clients", "?")),
                "on" if entry.get("batching") else "off",
                f"{entry.get('requests_per_second', 0.0):.0f}",
                f"{entry.get('latency_p50_ms', 0.0):.2f}",
                f"{entry.get('latency_p99_ms', 0.0):.2f}",
                str(entry.get("batches", 0)),
                f"{sizes:.1f}",
                str(entry.get("max_batch_size", 0)),
            ]
        )
    lines.extend(
        _format_table(
            ["clients", "batching", "req/s", "p50 ms", "p99 ms",
             "batches", "mean size", "max size"],
            rows,
        )
    )
    histogram: dict[int, int] = {}
    for entry in serving.get("entries", []):
        if entry.get("batching"):
            for size, count in entry.get(
                "batch_size_histogram", {}
            ).items():
                histogram[int(size)] = histogram.get(int(size), 0) + count
    if histogram:
        lines.append("")
        lines.append("Batch sizes (batched runs):")
        peak = max(histogram.values())
        for size in sorted(histogram):
            bar = "#" * max(1, round(24 * histogram[size] / peak))
            lines.append(f"  {size:>6d}  {bar} {histogram[size]}")
    lines.append("")
    return lines


def _render_mpc_section(mpc: dict) -> list[str]:
    """The ``## MPC campaign`` dashboard lines for an mpc.json document.

    One block per demand scenario: the per-controller scoreboard
    (violation-seconds, energy, shed work, reconfigurations, horizon
    solver counters) followed by the dominance verdict line the CI gate
    checks — MPC strictly beating the reactive controller on
    violation-seconds at equal-or-lower energy.
    """
    lines = ["## MPC campaign", ""]
    lines.append(
        f"n={mpc.get('machines', '?')} machines, "
        f"horizon {mpc.get('horizon', '?')} x "
        f"{mpc.get('control_dt', 0.0):g} s, "
        f"seed {mpc.get('seed', '?')}"
    )
    for scenario in mpc.get("scenarios", []):
        lines.append("")
        peak = scenario.get("peak_load_fraction")
        tag = " [flash crowd]" if scenario.get("flash_crowd") else ""
        lines.append(
            f"### {scenario.get('name', '?')}{tag} — "
            f"{scenario.get('duration', 0.0):g} s, peak "
            + (f"{peak:.2f}x capacity" if peak is not None else "n/a")
        )
        lines.append("")
        rows = []
        for name, row in scenario.get("controllers", {}).items():
            overhead = row.get("energy_overhead_vs_oracle")
            rows.append(
                [
                    name,
                    f"{row.get('violation_seconds', 0.0):.0f}",
                    f"{row.get('energy_joules', 0.0) / 1e6:.3f}",
                    "-" if overhead is None else f"{overhead * 100:+.2f}%",
                    f"{row.get('shed_task_seconds', 0.0):.0f}",
                    f"{row.get('max_t_cpu', 0.0):.1f}",
                    str(row.get("on_set_changes", 0)),
                    str(row.get("horizon_solves", 0)),
                    str(row.get("fallbacks", 0)),
                    str(row.get("precools", 0)),
                ]
            )
        lines.extend(
            _format_table(
                ["controller", "viol s", "MJ", "vs oracle", "shed",
                 "max K", "moves", "solves", "fallbacks", "precools"],
                rows,
            )
        )
    dominance = mpc.get("dominance", [])
    if dominance:
        lines.append("")
        lines.append("Dominance (MPC vs reactive):")
        for row in dominance:
            verdict = "DOMINATES" if row.get("dominates") else "no"
            lines.append(
                f"  {row.get('scenario', '?')}: {verdict} "
                f"(viol {row.get('mpc_violation_seconds', 0.0):.0f} vs "
                f"{row.get('reactive_violation_seconds', 0.0):.0f} s, "
                f"energy {row.get('mpc_energy_joules', 0.0) / 1e6:.3f} vs "
                f"{row.get('reactive_energy_joules', 0.0) / 1e6:.3f} MJ)"
            )
    lines.append("")
    return lines


def _render_telemetry_section(telemetry: Mapping) -> list[str]:
    """The ``## Telemetry`` lines for one live windowed snapshot.

    One row per horizon (the shape the serving ``telemetry`` op
    returns): request rate, error count, latency quantiles (a ``~``
    marks reservoir-sampled, i.e. approximate, quantiles), mean batch
    size, and peak queue depth.
    """
    lines = ["## Telemetry", ""]
    horizons = [f"{float(h):g}" for h in telemetry.get("horizons", [])]
    rows = []
    for horizon in horizons:
        requests = telemetry.get("requests", {}).get(horizon, {})
        errors = telemetry.get("errors", {}).get(horizon, {})
        latency = telemetry.get("latency_ms", {}).get(horizon, {})
        batch = telemetry.get("batch_size", {}).get(horizon, {})
        queue = telemetry.get("queue_depth", {}).get(horizon, {})
        approx = "~" if latency.get("sampled") else ""
        rows.append(
            [
                f"{horizon} s",
                f"{requests.get('rate', 0.0):.1f}",
                f"{errors.get('total', 0.0):.0f}",
                f"{latency.get('p50', 0.0):.2f}{approx}",
                f"{latency.get('p99', 0.0):.2f}{approx}",
                f"{batch.get('mean', 0.0):.1f}",
                f"{queue.get('max', 0.0):.0f}",
            ]
        )
    lines.extend(
        _format_table(
            ["window", "req/s", "errors", "p50 ms", "p99 ms",
             "mean batch", "peak queue"],
            rows,
        )
    )
    slo = telemetry.get("slo", {})
    violations = slo.get("violations", {})
    headroom = slo.get("worst_headroom", {})
    if violations or headroom:
        lines.append("")
        lines.append("SLO headroom (negative = budget burned):")
        rows = [
            [metric, f"{float(worst):+.4g}"]
            for metric, worst in sorted(headroom.items())
        ]
        rows.extend(
            [f"{monitor} violations", str(count)]
            for monitor, count in sorted(violations.items())
        )
        lines.extend(_format_table(["metric", "value"], rows))
    if slo.get("failure"):
        lines.append("")
        lines.append(f"SLO FAILURE (raise policy): {slo['failure']}")
    lines.append("")
    return lines


def render_top(
    telemetry: Mapping, stats: Optional[Mapping] = None
) -> str:
    """One frame of the ``repro top`` live serving view.

    ``telemetry`` is the daemon's ``telemetry`` op result (JSON form);
    ``stats``, when given, adds the lifetime counters, the batch-size
    histogram, and watchdog stall state.  ``repro top`` polls both and
    reprints this frame every interval.
    """
    lines = ["# repro top", ""]
    uptime = float(telemetry.get("uptime_seconds", 0.0))
    head = f"uptime {uptime:.1f} s"
    if stats is not None:
        head += (
            f" | requests {sum(stats.get('requests', {}).values())}"
            f" | errors {sum(stats.get('errors', {}).values())}"
            f" | inflight {stats.get('inflight', 0)}"
            f" | queue {stats.get('queue_depth', 0)}"
            f" | stalls {stats.get('watchdog', {}).get('stalls', 0)}"
        )
        cache_key = stats.get("cache_key")
        if cache_key:
            head += f" | index {str(cache_key)[:12]}"
    lines.append(head)
    lines.append("")
    lines.extend(_render_telemetry_section(telemetry))
    if stats is not None:
        histogram = {
            int(size): int(count)
            for size, count in stats.get(
                "batch_size_histogram", {}
            ).items()
        }
        if histogram:
            lines.append("Batch sizes (lifetime):")
            peak = max(histogram.values())
            for size in sorted(histogram):
                bar = "#" * max(1, round(24 * histogram[size] / peak))
                lines.append(f"  {size:>6d}  {bar} {histogram[size]}")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_dashboard(
    buffer: TraceBuffer,
    watchdog: Optional[WatchdogSet] = None,
    max_timeline_rows: int = 30,
    serving: Optional[dict] = None,
    telemetry: Optional[dict] = None,
    mpc: Optional[dict] = None,
) -> str:
    """Render a terminal dashboard for one traced run.

    Four sections: per-stage timing statistics aggregated over all
    closed spans, a chronological timeline of the top-level spans, a
    count of suppressed replans and ``fault.*``/``recovery.*`` events,
    and the constraint view (worst-case headroom per watchdog metric
    plus every recorded violation).  The headroom table comes from the live
    ``watchdog`` when given, else from the ``watchdog.headroom`` summary
    events :meth:`~repro.obs.watchdog.WatchdogSet.emit_summary` writes
    into exported traces — so a trace *file* is self-contained.

    When a ``serving`` benchmark document (the validated shape of
    ``benchmarks/results/serving.json``) is given, a ``## Serving``
    section renders its throughput/latency rows and the batch-size
    distribution — ``repro dashboard`` passes it automatically when the
    artifact exists.  A live ``telemetry`` snapshot (the daemon's
    ``telemetry`` op result) likewise adds the windowed ``## Telemetry``
    section, and an ``mpc`` campaign document (the validated shape of
    ``benchmarks/results/mpc.json``) adds the per-scenario controller
    scoreboard and dominance verdicts.
    """
    lines: list[str] = ["# Trace dashboard", ""]
    summary = buffer.summary()
    lines.append(
        f"{summary['spans']} spans ({summary['dropped_spans']} dropped), "
        f"{summary['events']} events ({summary['dropped_events']} dropped)"
    )
    lines.append("")

    # -- per-stage timings ------------------------------------------------
    stages: dict[str, list[float]] = {}
    for span in buffer.spans:
        if span.duration is not None:
            stages.setdefault(span.name, []).append(span.duration)
    lines.append("## Per-stage timings")
    lines.append("")
    if stages:
        rows = []
        for name in sorted(stages, key=lambda n: -sum(stages[n])):
            durations = stages[name]
            total = sum(durations)
            rows.append(
                [
                    name,
                    str(len(durations)),
                    f"{total * 1e3:.3f}",
                    f"{total / len(durations) * 1e3:.3f}",
                    f"{max(durations) * 1e3:.3f}",
                ]
            )
        lines.extend(
            _format_table(
                ["stage", "count", "total ms", "mean ms", "max ms"], rows
            )
        )
    else:
        lines.append("(no closed spans recorded)")
    lines.append("")

    # -- timeline of top-level spans --------------------------------------
    # A span whose parent is not in the buffer (dropped, or recorded by
    # another buffer such as the serving daemon's tail) is top-level here.
    span_ids = {s.span_id for s in buffer.spans}
    roots = [s for s in buffer.spans if s.parent_id not in span_ids]
    lines.append("## Timeline (top-level spans)")
    lines.append("")
    if roots:
        t0 = min(s.start for s in roots)
        rows = []
        for span in roots[:max_timeline_rows]:
            dur = (
                "open"
                if span.duration is None
                else f"{span.duration * 1e3:.3f}"
            )
            rows.append(
                [
                    span.name + _span_attr_note(span),
                    f"{(span.start - t0) * 1e3:.3f}",
                    dur,
                ]
            )
        lines.extend(_format_table(["span", "at ms", "dur ms"], rows))
        if len(roots) > max_timeline_rows:
            lines.append(f"... {len(roots) - max_timeline_rows} more")
    else:
        lines.append("(no top-level spans)")
    lines.append("")

    # -- constraint headroom ----------------------------------------------
    lines.append("## Constraint headroom")
    lines.append("")
    headroom: dict[str, float] = {}
    metric_violations: dict[str, int] = {}
    if watchdog is not None:
        headroom = watchdog.headroom_table()
        for violation in watchdog.violations:
            metric_violations[violation.metric] = (
                metric_violations.get(violation.metric, 0) + 1
            )
    else:
        for event in buffer.events_named("watchdog.headroom"):
            metric = event.attributes.get("metric")
            if metric is None:
                continue
            headroom[str(metric)] = float(event.attributes.get("headroom", 0.0))
            metric_violations[str(metric)] = int(
                event.attributes.get("violations", 0)
            )
    violation_events = buffer.events_named("constraint.violation")
    if headroom:
        rows = [
            [
                metric,
                f"{worst:+.6g}",
                str(metric_violations.get(metric, 0)),
            ]
            for metric, worst in sorted(headroom.items())
        ]
        lines.extend(
            _format_table(["metric", "worst headroom", "violations"], rows)
        )
    else:
        lines.append("(no watchdog data in this trace)")
    lines.append("")

    # -- faults and recoveries ---------------------------------------------
    lines.append("## Faults and recoveries")
    lines.append("")
    fault_counts: dict[str, int] = {}
    for event in buffer.events:
        if event.name == "replan.suppressed" or event.name.startswith(
            ("fault.", "recovery.")
        ):
            fault_counts[event.name] = fault_counts.get(event.name, 0) + 1
    if fault_counts:
        rows = [
            [name, str(count)] for name, count in sorted(fault_counts.items())
        ]
        lines.extend(_format_table(["event", "count"], rows))
    else:
        lines.append("(no suppressed replans or fault/recovery events)")
    lines.append("")

    # -- serving benchmark --------------------------------------------------
    if serving is not None:
        lines.extend(_render_serving_section(serving))

    # -- MPC campaign -------------------------------------------------------
    if mpc is not None:
        lines.extend(_render_mpc_section(mpc))

    # -- live serving telemetry ---------------------------------------------
    if telemetry is not None:
        lines.extend(_render_telemetry_section(telemetry))

    # -- violations --------------------------------------------------------
    lines.append("## Violations")
    lines.append("")
    if violation_events:
        rows = [
            [
                str(event.attributes.get("monitor", "?")),
                str(event.attributes.get("metric", "?")),
                str(event.attributes.get("message", ""))[:72],
            ]
            for event in violation_events
        ]
        lines.extend(_format_table(["monitor", "metric", "message"], rows))
    else:
        lines.append("none recorded")
    return "\n".join(lines) + "\n"
