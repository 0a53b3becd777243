"""Command-line interface: regenerate any paper figure from the terminal.

Usage::

    repro list                      # what can be regenerated
    repro fig2                      # one figure
    repro fig6 --seed 7 --machines 20 --plot
    repro all                       # every figure + headline numbers
    repro profile --save model.json # profile and persist the fitted model
    repro solve --load 400          # run the optimizer on a profiled rack
    repro solve --load 400 --model model.json   # ... on a saved model
    repro metrics --load 400        # instrumented run + registry dump (JSON)
    repro index --machines 20 --save idx.npz   # build + persist Algorithm 1
    repro index --cache-dir .repro-cache       # warm a reusable index cache
    repro index --machines 5000 --pods 100     # pod-sharded index at scale
    repro trace --out trace.jsonl   # traced + watched controller scenario
    repro trace --chrome trace.json # ... also export for chrome://tracing
    repro dashboard --trace trace.jsonl   # render a recorded trace
    repro dashboard                 # run the scenario and render it live
    repro faults --machines 6       # fault campaign -> resilience.json
    repro faults --quick --seed 7   # two-scenario smoke campaign
    repro mpc --machines 6          # MPC demand campaign -> mpc.json
    repro mpc --quick --horizon 4   # shortened traces, 4-step lookahead
    repro weather                   # seasonal sweep -> cooling_plant.json
    repro weather --quick --site hot-humid   # one site, daily buckets
    repro serve --socket repro.sock # allocation daemon on a unix socket
    repro serve --port 7077 --model model.json  # ... over TCP, saved model
    repro serve --socket repro.sock --pods 24   # ... on a sharded index
    repro serve --socket repro.sock --trace-path traces/serve.jsonl \\
        --slo-p99-ms 50   # ... with span export and a latency SLO
    repro top --socket repro.sock   # live windowed view of a daemon
    repro top --socket repro.sock --iterations 1   # one frame (CI smoke)
    repro bench-check               # gate results/ against baselines/
    repro bench-check --update      # snapshot results/ as new baselines

Heavy contexts (profiling campaigns) are cached per process, so ``repro
all`` profiles the testbed once.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from repro.experiments.algorithms import run_algorithm_study
from repro.experiments.common import default_context
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


def _context_figures() -> dict[str, Callable]:
    """Figure drivers that take the shared evaluation context."""
    return {
        "fig2": run_fig2,
        "fig3": run_fig3,
        "fig5": run_fig5,
        "fig6": run_fig6,
        "fig7": run_fig7,
        "fig8": run_fig8,
        "fig9": run_fig9,
        "fig10": run_fig10,
        "headline": run_headline,
    }


def _standalone_figures() -> dict[str, Callable]:
    """Drivers that need no profiled testbed."""
    return {
        "fig1": run_fig1,
        "algorithms": run_algorithm_study,
    }


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the figures of 'Joint Optimization of Computing "
            "and Cooling Energy' (ICDCS 2012) on a simulated testbed."
        ),
    )
    parser.add_argument(
        "target",
        help="figure id (fig1..fig10, headline, algorithms), 'all', "
        "'list', 'profile', 'solve', 'index', 'metrics', 'trace', "
        "'dashboard', 'faults', 'mpc', 'weather', 'serve', 'top', or "
        "'bench-check'",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=2012,
        help="the single determinism seed: testbed build, profiling "
        "noise, fault schedules, and harness sensors all derive from it "
        "(see docs/resilience.md for the contract)",
    )
    parser.add_argument(
        "--machines", type=int, default=20, help="machines on the rack"
    )
    parser.add_argument(
        "--load",
        type=float,
        default=None,
        help="total load in tasks/s (solve target only)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="power budget in W: solve for the maximum servable load "
        "instead of a given load (solve target only)",
    )
    parser.add_argument(
        "--model",
        default=None,
        help="path to a saved fitted model (solve target only)",
    )
    parser.add_argument(
        "--save",
        default=None,
        help="where to write the fitted model (profile target) or the "
        "pre-processed index .npz (index target)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of persisted consolidation indexes; the index "
        "target loads a matching index from here instead of rebuilding, "
        "and writes fresh builds back (index target only)",
    )
    parser.add_argument(
        "--pods",
        type=int,
        default=None,
        help="shard the consolidation index into this many contiguous "
        "pods: per-pod Algorithm-1 tables with a shared-ratio "
        "cross-pod query, the scaling path beyond n≈500 "
        "(index and serve targets; see docs/algorithms.md)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render figure targets as ASCII charts instead of tables",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path: the JSONL trace (trace target; default "
        "trace.jsonl) or the campaign document (faults target; default "
        "benchmarks/results/resilience.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the two-scenario smoke campaign instead of the full "
        "reference set (faults target), time-compressed demand "
        "traces (mpc target), or daily instead of 3-hour weather "
        "buckets (weather target)",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=6,
        help="MPC lookahead depth in control intervals (mpc target only)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="path to a scenario JSON spec to run instead of the "
        "built-in reference scenarios (faults target only)",
    )
    parser.add_argument(
        "--load-fraction",
        type=float,
        default=0.7,
        help="operating point for a --scenario campaign, as a fraction "
        "of cluster capacity (faults target only)",
    )
    parser.add_argument(
        "--site",
        action="append",
        default=None,
        help="climate preset for the seasonal sweep; repeatable, "
        "defaults to every preset (weather target only)",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        help="directory for per-scenario fault-event JSONL exports — "
        "the byte-identical determinism artifact (faults target only)",
    )
    parser.add_argument(
        "--chrome",
        default=None,
        help="also export the trace in Chrome trace-event format to this "
        "path (trace target only)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        help="render this recorded JSONL trace instead of running a new "
        "scenario (dashboard target only)",
    )
    parser.add_argument(
        "--policy",
        choices=("warn", "raise"),
        default="warn",
        help="watchdog violation policy for the traced scenario "
        "(trace/dashboard targets only)",
    )
    parser.add_argument(
        "--socket",
        default=None,
        help="serve on this unix domain socket path (serve target only)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address for --port (serve target only)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve on this TCP port; 0 binds an ephemeral port "
        "(serve target only)",
    )
    parser.add_argument(
        "--batch-window",
        type=float,
        default=0.005,
        help="micro-batching collection window in seconds: how long the "
        "first request of a batch waits for concurrent company "
        "(serve target only; see docs/serving.md for tuning)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=512,
        help="requests per batched dispatch, at most (serve target only)",
    )
    parser.add_argument(
        "--no-batching",
        action="store_true",
        help="disable micro-batching: dispatch every request alone "
        "(the benchmark baseline; serve target only)",
    )
    parser.add_argument(
        "--trace-path",
        default=None,
        help="export serving request/batch spans to this rotating JSONL "
        "file (serve target only; see docs/observability.md)",
    )
    parser.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        help="latency SLO: windowed p99 must stay below this many "
        "milliseconds (serve target only)",
    )
    parser.add_argument(
        "--slo-queue-depth",
        type=int,
        default=None,
        help="queue-depth SLO: peak batcher depth over the SLO horizon "
        "must stay at or below this (serve target only)",
    )
    parser.add_argument(
        "--slo-error-rate",
        type=float,
        default=None,
        help="error-rate SLO: windowed errors/requests must stay at or "
        "below this fraction (serve target only)",
    )
    parser.add_argument(
        "--slo-max-loop-lag",
        type=float,
        default=None,
        help="event-loop stall SLO: peak watchdog tick lag in seconds "
        "(serve target only)",
    )
    parser.add_argument(
        "--slo-policy",
        choices=("warn", "raise"),
        default="warn",
        help="SLO violation policy: 'warn' records violations and keeps "
        "serving, 'raise' marks the daemon failed after the first "
        "(serve target only)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (top target only)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render this many frames then exit instead of looping "
        "forever (top target only)",
    )
    parser.add_argument(
        "--results",
        default="benchmarks/results",
        help="directory of fresh benchmark artifacts to gate "
        "(bench-check target only)",
    )
    parser.add_argument(
        "--baselines",
        default="benchmarks/baselines",
        help="directory of committed baseline artifacts "
        "(bench-check target only)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="snapshot the results directory as the new baselines "
        "instead of gating (bench-check target only)",
    )
    parser.add_argument(
        "--serving",
        default=None,
        help="serving benchmark document to render in the dashboard's "
        "Serving section (dashboard target only; default "
        "benchmarks/results/serving.json when it exists)",
    )
    parser.add_argument(
        "--mpc",
        default=None,
        help="MPC campaign document to render in the dashboard's MPC "
        "section (dashboard target only; default "
        "benchmarks/results/mpc.json when it exists)",
    )
    return parser


def _run_traced_scenario(
    seed: int,
    machines: int,
    load: Optional[float],
    policy: str,
):
    """One fully observed controller run: metrics + tracing + watchdogs.

    Drives a :class:`~repro.core.controller.RuntimeController` over a
    diurnal day (peaking at ``load``, default 70% of capacity), then
    stamps the watchdog's headroom summary into the trace so the
    exported file is self-contained.  Returns ``(buffer, watchdog)``
    and restores every observability switch to its prior state.
    """
    from repro import obs
    from repro.core.controller import RuntimeController
    from repro.workload.traces import diurnal_trace

    ctx = default_context(seed=seed, n_machines=machines)
    capacity = sum(ctx.model.capacities)
    peak = load if load is not None else 0.7 * capacity
    trace = diurnal_trace(base=0.3 * peak, peak=peak, duration=86400.0)

    was_enabled = obs.enabled()
    was_tracing = obs.tracing_enabled()
    previous_buffer = obs.get_trace_buffer()
    previous_watchdog = obs.watchdog.active()
    obs.enable()
    buffer = obs.enable_tracing(obs.TraceBuffer())
    wd = obs.watchdog.install(
        obs.WatchdogSet(policy=policy, t_max=ctx.model.t_max)
    )
    try:
        controller = RuntimeController(ctx.optimizer, min_dwell=1800.0)
        controller.run_trace(trace, dt=300.0)
        wd.emit_summary(buffer)
    finally:
        obs.enable_tracing(previous_buffer)
        if not was_tracing:
            obs.disable_tracing()
        if previous_watchdog is not None:
            obs.watchdog.install(previous_watchdog)
        else:
            obs.watchdog.uninstall()
        if not was_enabled:
            obs.disable()
    return buffer, wd


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    contextual = _context_figures()
    standalone = _standalone_figures()

    if args.target == "list":
        for name in [*standalone, *contextual, "all", "profile", "solve",
                     "index", "report", "metrics", "trace", "dashboard",
                     "faults", "mpc", "weather", "serve", "top",
                     "bench-check"]:
            print(name)
        return 0

    if args.target == "bench-check":
        from repro.analysis.benchcheck import (
            check_benchmarks,
            render_report,
            update_baselines,
        )

        if args.update:
            copied = update_baselines(args.results, args.baselines)
            for name in copied:
                print(f"baseline updated: {args.baselines}/{name}")
            return 0
        report = check_benchmarks(args.results, args.baselines)
        print(render_report(report), end="")
        return 1 if report.regressed else 0

    if args.target == "top":
        import time

        from repro.analysis.report import render_top
        from repro.errors import ServingUnavailableError
        from repro.serving import ServingClient

        if args.socket is None and args.port is None:
            print(
                "top requires --socket <path> or --port <n>",
                file=sys.stderr,
            )
            return 2
        frames = 0
        try:
            # One short-lived connection per frame: a daemon drain or
            # restart between refreshes costs one "unavailable" frame,
            # never the session.
            while args.iterations is None or frames < args.iterations:
                try:
                    with ServingClient(
                        socket_path=args.socket,
                        host=None if args.socket else args.host,
                        port=None if args.socket else args.port,
                    ) as client:
                        frame = render_top(
                            client.telemetry(), client.stats()
                        )
                except ServingUnavailableError:
                    frame = "server unavailable (draining?)"
                if sys.stdout.isatty() and frames:
                    # Repaint in place between frames.
                    print("\x1b[2J\x1b[H", end="")
                print(frame, flush=True)
                frames += 1
                if args.iterations is None or frames < args.iterations:
                    time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
        return 0

    if args.target == "serve":
        import asyncio

        from repro.core.optimizer import JointOptimizer
        from repro.serving import AllocationServer, ServingConfig

        if args.socket is None and args.port is None:
            print(
                "serve requires --socket <path> or --port <n>",
                file=sys.stderr,
            )
            return 2
        if args.model:
            from repro.core.serialization import load_system_model

            model = load_system_model(args.model)
        else:
            ctx = default_context(seed=args.seed, n_machines=args.machines)
            model = ctx.model
        optimizer = JointOptimizer(
            model, pods=args.pods, index_cache_dir=args.cache_dir
        )
        config = ServingConfig(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            batch_window=args.batch_window,
            max_batch=args.max_batch,
            batching=not args.no_batching,
            trace_path=args.trace_path,
            slo_p99_ms=args.slo_p99_ms,
            slo_queue_depth=args.slo_queue_depth,
            slo_error_rate=args.slo_error_rate,
            slo_max_loop_lag=args.slo_max_loop_lag,
            slo_policy=args.slo_policy,
        )
        server = AllocationServer(optimizer, config)

        async def _serve() -> None:
            await server.start()
            mode = "off" if args.no_batching else (
                f"on, window {1e3 * config.batch_window:.1f} ms, "
                f"max {config.max_batch}"
            )
            print(
                f"warm index ready: {server.index_statuses} statuses over "
                f"{model.node_count} machines (batching {mode})"
            )
            if args.trace_path:
                print(f"exporting serving spans to {args.trace_path}")
            if server.address[0] == "unix":
                print(f"serving on unix socket {server.address[1]}",
                      flush=True)
            else:
                print(
                    f"serving on {server.address[1]}:{server.address[2]}",
                    flush=True,
                )
            await server.serve_forever()

        asyncio.run(_serve())
        print("drained cleanly")
        return 0

    if args.target == "faults":
        import pathlib

        from repro.faults import run_campaign
        from repro.faults.campaign import CONTROLLERS, ReferenceScenario
        from repro.faults.scenario import FaultScenario, events_to_jsonl
        from repro.obs import write_artifact

        scenarios = None
        if args.scenario:
            spec = FaultScenario.from_json(
                pathlib.Path(args.scenario).read_text()
            )
            scenarios = [
                ReferenceScenario(
                    scenario=spec.with_seed(args.seed),
                    load_fraction=args.load_fraction,
                    description=f"custom scenario from {args.scenario}",
                )
            ]
        results, document = run_campaign(
            seed=args.seed,
            n_machines=args.machines,
            quick=args.quick,
            scenarios=scenarios,
        )
        for entry in document["scenarios"]:
            print(f"{entry['name']} (load {entry['load_fraction']:.0%}):")
            for controller in CONTROLLERS:
                row = entry["controllers"][controller]
                overhead = row["energy_overhead_vs_oracle"]
                print(
                    f"  {controller:10s} "
                    f"violation={row['violation_seconds']:7.0f} s "
                    f"(graced {row['violation_seconds_after_grace']:6.0f} s) "
                    f"energy={row['energy_joules'] / 1e6:7.2f} MJ "
                    + (
                        f"(+{overhead:.1%} vs oracle)"
                        if overhead is not None and controller != "oracle"
                        else ""
                    )
                )
        out = pathlib.Path(args.out or "benchmarks/results/resilience.json")
        write_artifact(out, document)
        print(f"campaign document written to {out}")
        if args.events_out:
            events_dir = pathlib.Path(args.events_out)
            events_dir.mkdir(parents=True, exist_ok=True)
            for result in results:
                path = events_dir / f"{result.name}.events.jsonl"
                path.write_text(
                    events_to_jsonl(result.runs["resilient"].fault_events)
                )
                print(f"fault events written to {path}")
        return 0

    if args.target == "mpc":
        import pathlib

        from repro.control import MPC_CONTROLLERS, run_mpc_campaign
        from repro.obs import write_artifact

        results, document = run_mpc_campaign(
            seed=args.seed,
            n_machines=args.machines,
            quick=args.quick,
            horizon=args.horizon,
        )
        for entry in document["scenarios"]:
            peak = entry["peak_load_fraction"]
            tag = " [flash crowd]" if entry["flash_crowd"] else ""
            print(
                f"{entry['name']}{tag} "
                f"(peak {peak:.0%} of capacity):"
                if peak is not None
                else f"{entry['name']}{tag}:"
            )
            for controller in MPC_CONTROLLERS:
                row = entry["controllers"][controller]
                overhead = row["energy_overhead_vs_oracle"]
                print(
                    f"  {controller:10s} "
                    f"violation={row['violation_seconds']:7.0f} s "
                    f"energy={row['energy_joules'] / 1e6:7.2f} MJ "
                    f"moves={row['on_set_changes']:3d} "
                    + (
                        f"(+{overhead:.1%} vs oracle)"
                        if overhead is not None and controller != "oracle"
                        else ""
                    )
                )
        for row in document["dominance"]:
            if row["flash_crowd"]:
                verdict = "yes" if row["dominates"] else "NO"
                print(
                    f"MPC dominates reactive on {row['scenario']}: "
                    f"{verdict}"
                )
        out = pathlib.Path(args.out or "benchmarks/results/mpc.json")
        write_artifact(out, document)
        print(f"campaign document written to {out}")
        return 0

    if args.target == "weather":
        import pathlib

        from repro.experiments.weather import run_weather_study
        from repro.obs import write_artifact

        study = run_weather_study(
            seed=args.seed,
            n_machines=args.machines,
            quick=args.quick,
            sites=args.site,
        )
        print(study.table())
        out = pathlib.Path(
            args.out or "benchmarks/results/cooling_plant.json"
        )
        write_artifact(out, study.document())
        print(f"seasonal study written to {out}")
        return 0

    if args.target == "index":
        import time

        from repro.core.optimizer import JointOptimizer

        if args.model:
            from repro.core.serialization import load_system_model

            model = load_system_model(args.model)
        else:
            ctx = default_context(seed=args.seed, n_machines=args.machines)
            model = ctx.model
        if args.pods is not None and args.save:
            print(
                "--save writes one monolithic .npz and cannot persist a "
                "sharded index; use --cache-dir (pods are cached there "
                "per content key)",
                file=sys.stderr,
            )
            return 2
        optimizer = JointOptimizer(
            model, pods=args.pods, index_cache_dir=args.cache_dir
        )
        start = time.perf_counter()
        index = optimizer.query_index
        elapsed = time.perf_counter() - start
        sharding = (
            f" in {index.pod_count} pods"
            if args.pods is not None
            else ""
        )
        print(
            f"consolidation index for {len(index.pairs)} machines"
            f"{sharding}: {index.event_count} events, "
            f"{index.status_count} statuses "
            f"({1e3 * elapsed:.1f} ms, key {index.cache_key[:12]})"
        )
        if args.save:
            path = index.save(args.save)
            print(
                f"index written to {path} ({path.stat().st_size} bytes)"
            )
        return 0

    if args.target == "trace":
        import json
        import pathlib

        buffer, wd = _run_traced_scenario(
            args.seed, args.machines, args.load, args.policy
        )
        out = pathlib.Path(args.out or "trace.jsonl")
        out.write_text(buffer.to_jsonl())
        summary = buffer.summary()
        print(
            f"trace written to {out}: {summary['spans']} spans, "
            f"{summary['events']} events, "
            f"{wd.violation_count} constraint violations"
        )
        if args.chrome:
            chrome = pathlib.Path(args.chrome)
            chrome.write_text(json.dumps(buffer.to_chrome_trace()))
            print(f"chrome://tracing export written to {chrome}")
        return 0

    if args.target == "dashboard":
        import json
        import pathlib

        from repro.analysis.report import render_dashboard
        from repro.obs import TraceBuffer

        serving = None
        serving_path = pathlib.Path(
            args.serving or "benchmarks/results/serving.json"
        )
        if serving_path.exists():
            serving = json.loads(serving_path.read_text())
        elif args.serving:
            print(f"no serving document at {serving_path}", file=sys.stderr)
            return 2
        mpc = None
        mpc_path = pathlib.Path(args.mpc or "benchmarks/results/mpc.json")
        if mpc_path.exists():
            mpc = json.loads(mpc_path.read_text())
        elif args.mpc:
            print(f"no mpc document at {mpc_path}", file=sys.stderr)
            return 2
        if args.trace:
            buffer = TraceBuffer.from_jsonl(
                pathlib.Path(args.trace).read_text()
            )
            print(render_dashboard(buffer, serving=serving, mpc=mpc))
        else:
            buffer, wd = _run_traced_scenario(
                args.seed, args.machines, args.load, args.policy
            )
            print(render_dashboard(buffer, watchdog=wd, serving=serving,
                                   mpc=mpc))
        return 0

    if args.target == "metrics":
        from repro import obs

        was_enabled = obs.enabled()
        registry = obs.enable()
        try:
            # One instrumented end-to-end run: profile the testbed, then
            # solve (at --load, or at 50% of capacity).  The registry dump
            # covers the campaign, the index build, and the solve.
            ctx = default_context(seed=args.seed, n_machines=args.machines)
            load = (
                args.load
                if args.load is not None
                else 0.5 * sum(ctx.model.capacities)
            )
            ctx.optimizer.solve(load)
            print(registry.to_json(indent=2))
        finally:
            if not was_enabled:
                obs.disable()
        return 0

    if args.target == "report":
        from repro.analysis.report import write_report

        ctx = default_context(seed=args.seed, n_machines=args.machines)
        target = args.save or "reproduction_report.md"
        path = write_report(target, ctx)
        print(f"reproduction report written to {path}")
        return 0

    if args.target == "profile":
        from repro.core.serialization import save_system_model

        ctx = default_context(seed=args.seed, n_machines=args.machines)
        print(
            f"profiled {args.machines} machines: "
            f"P = {ctx.model.power.w1:.3f}*L + {ctx.model.power.w2:.2f}, "
            f"cooler slope {ctx.model.cooler.c_f_ac:.0f} W/K"
        )
        if args.save:
            save_system_model(ctx.model, args.save)
            print(f"fitted model written to {args.save}")
        return 0

    if args.target == "solve":
        if args.load is None and args.budget is None:
            print(
                "solve requires --load <tasks/s> or --budget <W>",
                file=sys.stderr,
            )
            return 2
        if args.model:
            from repro.core.serialization import load_system_model
            from repro.core.optimizer import JointOptimizer

            optimizer = JointOptimizer(load_system_model(args.model))
        else:
            ctx = default_context(seed=args.seed, n_machines=args.machines)
            optimizer = ctx.optimizer
        if args.budget is not None:
            max_load, result = optimizer.max_load_under_budget(args.budget)
            print(
                f"maximum load under {args.budget:.0f} W: "
                f"{max_load:.2f} tasks/s"
            )
        else:
            result = optimizer.solve(args.load)
        print(f"ON set: {list(result.on_ids)}")
        print(f"T_ac = {result.t_ac:.2f} K, commanded T_SP = {result.t_sp:.2f} K")
        loads = ", ".join(
            f"{i}:{result.loads[i]:.2f}" for i in result.on_ids
        )
        print(f"loads (tasks/s): {loads}")
        print(
            "model-predicted total power: "
            f"{result.predicted_total_power:.1f} W"
        )
        return 0

    targets: list[str]
    if args.target == "all":
        targets = [*standalone, *contextual]
    elif args.target in contextual or args.target in standalone:
        targets = [args.target]
    else:
        print(f"unknown target {args.target!r}; try 'list'", file=sys.stderr)
        return 2

    ctx = None
    for name in targets:
        if name in standalone:
            result = standalone[name]()
        else:
            if ctx is None:
                ctx = default_context(seed=args.seed, n_machines=args.machines)
            result = contextual[name](ctx)
        if args.plot and hasattr(result, "series"):
            from repro.analysis.plots import ascii_plot

            print(ascii_plot(result.series))
        else:
            print(result.table())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
