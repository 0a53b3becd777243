"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same table (plus
the regression bound of each end-to-end metric); a test keeps the two
in step.  Every workload reports every metric: a layer that does no
work on a workload reports 0, so one table describes all outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: End-to-end metrics, measured with tracing off: name -> (unit, better).
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "cold_ms": ("ms", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "peak_rps": ("req/s", "higher"),
    "control_steps_per_s": ("1/s", "higher"),
}

#: Phases of the serving workloads, each with its own layer ledger.
SERVE_PHASES = ("cold", "open", "burst")

#: Per-phase layer metrics of serve-quantized: suffix -> (unit, better).
SERVE_LAYERS: dict[str, tuple[str, str]] = {
    "protocol.decode.self_s": ("s", "lower"),
    "protocol.encode.self_s": ("s", "lower"),
    "protocol.encode.bytes": ("bytes", "lower"),
    "batcher.batches": ("count", "lower"),
    "batcher.mean_batch": ("count", "higher"),
    "batcher.coalesced_ratio": ("ratio", "higher"),
    "batcher.wait_p50_ms": ("ms", "lower"),
    "batcher.wait_p99_ms": ("ms", "lower"),
    "server.dispatch.self_s": ("s", "lower"),
    "server.loop_lag_max_ms": ("ms", "lower"),
    "consolidation.query_many.calls": ("count", "lower"),
    "consolidation.query_many.self_s": ("s", "lower"),
    "consolidation.query_many.distinct": ("count", "lower"),
    "consolidation.query_many.ms_per_distinct": ("ms", "lower"),
    "consolidation.query_refined.calls": ("count", "lower"),
    "consolidation.query_refined.self_s": ("s", "lower"),
    "closed_form.calls": ("count", "lower"),
    "closed_form.self_s": ("s", "lower"),
    "loadgen.sched_lag_p99_ms": ("ms", "lower"),
    "loadgen.sent": ("count", "higher"),
    "loadgen.completed": ("count", "higher"),
    "loadgen.failed": ("count", "lower"),
    "loop.idle_s": ("s", "higher"),
    "loop.unaccounted_s": ("s", "lower"),
    "compute.idle_s": ("s", "higher"),
    "wall_s": ("s", "lower"),
}

#: Layer metrics of the control replay, prefixed ``replay.``.
REPLAY_LAYERS: dict[str, tuple[str, str]] = {
    "consolidation.query_many.calls": ("count", "lower"),
    "consolidation.query_many.self_s": ("s", "lower"),
    "consolidation.query_many.distinct": ("count", "lower"),
    "consolidation.query_many.ms_per_distinct": ("ms", "lower"),
    "consolidation.query_refined.calls": ("count", "lower"),
    "consolidation.query_refined.self_s": ("s", "lower"),
    "closed_form.calls": ("count", "lower"),
    "closed_form.self_s": ("s", "lower"),
    "optimizer.solve.calls": ("count", "lower"),
    "optimizer.solve.self_s": ("s", "lower"),
    "optimizer.index_build.self_s": ("s", "lower"),
    "simulation.step.calls": ("count", "lower"),
    "simulation.step.self_s": ("s", "lower"),
    "simulation.steady_state.self_s": ("s", "lower"),
    "mpc.observe.calls": ("count", "lower"),
    "mpc.observe.self_s": ("s", "lower"),
    "mpc.horizon_solves": ("count", "lower"),
    "mpc.fallbacks": ("count", "lower"),
    "plant.matrices.calls": ("count", "lower"),
    "plant.matrices.self_s": ("s", "lower"),
    "controller.observe.calls": ("count", "lower"),
    "controller.observe.self_s": ("s", "lower"),
    "traces.load_at.calls": ("count", "lower"),
    "traces.load_at.self_s": ("s", "lower"),
    "campaign.loop.self_s": ("s", "lower"),
    "unaccounted_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
}

#: Set-up layers (medians over the run's set-ups), prefixed ``setup.``.
SETUP_LAYERS: dict[str, tuple[str, str]] = {
    "optimizer.index_build_s": ("s", "lower"),
    "testbed.build_s": ("s", "lower"),
    "profiling.fit_s": ("s", "lower"),
    "plant.linearize_s": ("s", "lower"),
}

#: Whole-run figures of the traced run.
RUN_LAYERS: dict[str, tuple[str, str]] = {
    "trace_overhead": ("ratio", "lower"),
    # Median pass of the hostspeed calibration kernel over the run.
    "host.pass_ms": ("ms", "lower"),
    "fail_share": ("ratio", "lower"),
}


def per_layer() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    table: dict[str, tuple[str, str]] = {}
    for phase in SERVE_PHASES:
        for suffix, spec in SERVE_LAYERS.items():
            table[f"{phase}.{suffix}"] = spec
    for suffix, spec in REPLAY_LAYERS.items():
        table[f"replay.{suffix}"] = spec
    for suffix, spec in SETUP_LAYERS.items():
        table[f"setup.{suffix}"] = spec
    table.update(RUN_LAYERS)
    return table


@dataclass
class Outcome:
    """What one workload run measured and how many answers were wrong."""

    attempted: int
    failed: int
    values: dict[str, float]
    problems: list[str] = field(default_factory=list)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted


def report(
    values: dict[str, float],
    table: dict[str, tuple[str, str]],
    fill_zero: bool,
) -> dict:
    """``{name: {"value", "unit"}}`` for every name of ``table``.

    With ``fill_zero``, names the workload did not measure report 0
    (the layer did no work there); otherwise each must be measured.  A
    value for a name outside the table is a bug either way.
    """
    unknown = sorted(set(values) - set(table))
    missing = sorted(set(table) - set(values))
    if unknown or (missing and not fill_zero):
        raise KeyError(f"unknown metrics {unknown}, missing {missing}")
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, (unit, _better) in table.items()
    }
