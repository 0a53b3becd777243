"""The ``control-replay`` workload: the offline pipeline, end to end.

Set-up builds what ``default_context(seed, n_machines=20)`` builds (the
testbed, its profiling fit and the optimizer with its Algorithm-1
index) plus ``LinearizedPlant.from_testbed``, timing each step; it is
built afresh rather than through ``default_context``, whose per-process
cache would hand every later set-up the first one's context.  A replay
is ``run_mpc_campaign(seed, n_machines=20, context=ctx)`` at full
length: 3 demand scenarios x 4 controllers, 1,200 control intervals and
36,000 RK4 substeps, single-threaded.  Every replay gets a freshly set
up context, so each one pays the same cold costs.

The wall time of each control interval is taken from outside the
campaign loop, in untraced runs too: ``IntervalClock`` replaces the
``observe`` method of the four controller classes and
``repro.control.campaign.run_demand_loop`` with wrappers that take a
timestamp at every top-level ``observe`` call and at the end of every
closed-loop run, then call the original.  It also wraps
``LinearizedPlant.matrices`` to mark the intervals in which the MPC
linearizes the plant for an on-mask it has not met.

Every set-up and every closed-loop run is one piece of timed work
between two calibrations of :mod:`hostspeed` (the wrapper of
``run_demand_loop`` calibrates before each run, outside its intervals),
and its figures are reported at the reference speed.  The replays of
one run repeat the same control intervals bit for bit, so each
interval's time is its median over the replays.  The latency
percentiles are taken over the intervals that linearize no plant;
``cold_ms`` sums the intervals of the first closed-loop run, and
``control_steps_per_s`` is the median over the replays.
``setup_s`` is the median over every set-up; the set-ups are spread
over the run, several before each replay.  The garbage collector is
emptied before each replay so that every replay starts from the same
heap state.
"""

from __future__ import annotations

import functools
import gc
import json
import pathlib
import statistics
import time

import numpy as np

from hostspeed import Speed
from ledger import Ledger, Patches, instrument_core
from metrics import Outcome
from repro.control import campaign as campaign_module
from repro.control.campaign import run_mpc_campaign
from repro.control.mpc import MPCController
from repro.control.plant import LinearizedPlant
from repro.core.controller import RuntimeController
from repro.core.optimizer import JointOptimizer
from repro.experiments.common import EvaluationContext
from repro.faults.resilience import ResilientController
from repro.testbed.rack import TestbedConfig, build_testbed
from repro.thermal.simulation import RoomSimulation
from repro.workload.traces import LoadTrace

N_MACHINES = 20
CONTROL_DT = 60.0
#: Set-ups timed before each replay; the last one's context replays.
SETUPS_PER_REPLAY = 8
MIN_REPLAYS = 5
#: Seed whose per-run outcomes are pinned in ``PINNED``.
PIN_SEED = 2012
PINNED = pathlib.Path(__file__).with_name("pinned_2012.json")

#: Every controller class whose ``observe`` runs one control step.
CONTROLLERS = (
    RuntimeController,
    ResilientController,
    MPCController,
    campaign_module._OracleController,
)


def setup(seed: int) -> tuple[EvaluationContext, dict[str, float]]:
    """A fresh evaluation context and the time each step took."""
    clock = time.perf_counter
    t0 = clock()
    testbed = build_testbed(TestbedConfig(n_machines=N_MACHINES), seed=seed)
    t1 = clock()
    profiling = testbed.profile()
    t2 = clock()
    optimizer = JointOptimizer(profiling.system_model)
    optimizer.index
    t3 = clock()
    LinearizedPlant.from_testbed(testbed, dt=CONTROL_DT)
    t4 = clock()
    context = EvaluationContext(
        testbed=testbed, profiling=profiling, optimizer=optimizer
    )
    return context, {
        "total": t4 - t0,
        "testbed.build_s": t1 - t0,
        "profiling.fit_s": t2 - t1,
        "optimizer.index_build_s": t3 - t2,
        "plant.linearize_s": t4 - t3,
    }


class IntervalClock:
    """Wall time of every control interval, one list per closed-loop run.

    An interval runs from one top-level ``observe`` call to the next
    (or to the end of the run); calls an ``observe`` makes to its base
    class belong to the same interval.  Before each run ``speed``
    calibrates, closing the piece of the replay before it, so that
    ``segments[k + 1]`` is the piece holding run ``k``.

    ``linearized`` marks, per run and interval, whether the interval got
    plant matrices from ``LinearizedPlant.matrices`` that the plant had
    not returned before for that on-mask: a new linearization.
    """

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.runs: list[list[float]] = []
        self.linearized: list[list[bool]] = []
        self.segments: list[tuple[float, float]] = []
        #: (plant id, mask) -> the matrices last returned for it.
        self.returned: dict[tuple[int, bytes], object] = {}
        self._stamps: list[float] = []
        self._flags: list[bool] = []
        self._depth = 0
        self.patches = Patches()

    def install(self) -> None:
        for cls in CONTROLLERS:
            self.patches.set(
                cls, "observe", self._stamped(self.patches.original(
                    cls, "observe"
                ))
            )
        loop = self.patches.original(campaign_module, "run_demand_loop")

        @functools.wraps(loop)
        def timed_loop(*args, **kwargs):
            self.segments.append(self.speed.split())
            self._stamps, self._flags = [], []
            try:
                return loop(*args, **kwargs)
            finally:
                self._stamps.append(time.perf_counter())
                self.runs.append(list(np.diff(self._stamps)))
                self.linearized.append(self._flags)
                self._flags = []

        self.patches.set(campaign_module, "run_demand_loop", timed_loop)
        matrices = self.patches.original(LinearizedPlant, "matrices")

        @functools.wraps(matrices)
        def watched(plant, on_mask):
            result = matrices(plant, on_mask)
            key = (id(plant), np.asarray(on_mask, dtype=bool).tobytes())
            if self.returned.get(key) is not result:
                self.returned[key] = result
                if self._flags:
                    self._flags[-1] = True
            return result

        self.patches.set(LinearizedPlant, "matrices", watched)

    def _stamped(self, observe):
        @functools.wraps(observe)
        def stamped(*args, **kwargs):
            if self._depth == 0:
                self._stamps.append(time.perf_counter())
                self._flags.append(False)
            self._depth += 1
            try:
                return observe(*args, **kwargs)
            finally:
                self._depth -= 1

        return stamped


def instrument(ledger: Ledger) -> None:
    """Spans around every layer the replay runs through."""
    instrument_core(ledger)
    ledger.patch_layer(RoomSimulation, "step", "simulation.step")
    ledger.patch_layer(
        RoomSimulation, "steady_state", "simulation.steady_state"
    )
    ledger.patch_layer(LinearizedPlant, "matrices", "plant.matrices")
    ledger.patch_layer(LoadTrace, "load_at", "traces.load_at")
    ledger.patch_layer(campaign_module, "run_demand_loop", "campaign.loop")
    for cls in CONTROLLERS:
        observe = ledger.patches.original(cls, "observe")
        ledger.patches.set(cls, "observe", _observe_span(ledger, observe))


def _observe_span(ledger: Ledger, observe):
    """One span per control step, named after the controller kind; a
    subclass's call into its base ``observe`` stays in the same span."""

    @functools.wraps(observe)
    def spanned(self, *args, **kwargs):
        if ledger.top_owner() is self:
            return observe(self, *args, **kwargs)
        layer = (
            "mpc.observe"
            if isinstance(self, MPCController)
            else "controller.observe"
        )
        return ledger.call(layer, observe, (self, *args), kwargs, owner=self)

    return spanned


def replay(
    seed: int, context: EvaluationContext, speed: Speed
) -> tuple[dict, tuple[float, float]]:
    """One full campaign: ``(results[scenario][controller], (seconds,
    factor))`` of the piece of work since the last calibration inside
    it, or of the whole replay if there was none."""
    gc.collect()
    speed.restart()
    results, _document = run_mpc_campaign(
        seed=seed, n_machines=N_MACHINES, context=context
    )
    return results, speed.split()


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #


def outcomes(results: dict) -> dict[str, dict[str, float]]:
    """``{"scenario/controller": {energy_joules, violation_seconds}}``."""
    return {
        f"{scenario}/{name}": {
            "energy_joules": run.energy_joules,
            "violation_seconds": run.violation_seconds,
        }
        for scenario, runs in results.items()
        for name, run in runs.items()
    }


def check_replays(seed: int, replays: list[dict]) -> tuple[int, list[str]]:
    """``(runs checked, problems)`` over every replay of one run.

    Each replay must repeat the first bit for bit, match the pinned
    outcomes at ``PIN_SEED``, and keep every MPC run mostly on its
    horizon solve (at least one, and fallbacks at most half of them).
    """
    pinned = json.loads(PINNED.read_text()) if seed == PIN_SEED else None
    first = outcomes(replays[0])
    attempted, problems = 0, []
    for k, results in enumerate(replays):
        for key, got in outcomes(results).items():
            attempted += 1
            scenario, name = key.split("/")
            run = results[scenario][name]
            if got != first.get(key):
                problems.append(
                    f"replay {k} {key}: {got} differs from {first.get(key)}"
                )
            elif pinned is not None and got != pinned.get(key):
                problems.append(
                    f"{key}: {got} differs from pinned {pinned.get(key)}"
                )
            elif name == "mpc" and not (
                run.horizon_solves > 0
                and run.fallbacks <= run.horizon_solves // 2
            ):
                problems.append(
                    f"{key}: {run.fallbacks} fallbacks in "
                    f"{run.horizon_solves} horizon solves"
                )
    return attempted, problems


# --------------------------------------------------------------------- #
# Runs
# --------------------------------------------------------------------- #


def _fresh_context(
    seed: int, timings: list[dict], speed: Speed
) -> EvaluationContext:
    """``SETUPS_PER_REPLAY`` timed set-ups; the last one's context.

    Each timing is at the reference speed.
    """
    for _ in range(SETUPS_PER_REPLAY):
        context, timing = setup(seed)
        factor = speed.split()[1]
        timings.append({key: t * factor for key, t in timing.items()})
    return context


def _setup_medians(timings: list[dict]) -> dict[str, float]:
    return {
        key: statistics.median(t[key] for t in timings) for key in timings[0]
    }


def _reference_s(segments: list[tuple[float, float]]) -> float:
    return sum(seconds * factor for seconds, factor in segments)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """Replays until ``seconds`` have passed (at least ``MIN_REPLAYS``),
    or with ``trace`` one untraced and one traced replay."""
    timings: list[dict] = []
    speed = Speed()
    if trace:
        return _traced(seed, timings, speed)
    clock = IntervalClock(speed)
    clock.install()
    replays, walls, intervals, linearized = [], [], [], []
    start = time.perf_counter()
    try:
        while (
            len(replays) < MIN_REPLAYS
            or time.perf_counter() - start < seconds
        ):
            context = _fresh_context(seed, timings, speed)
            clock.runs, clock.linearized, clock.segments = [], [], []
            clock.returned.clear()
            results, last = replay(seed, context, speed)
            segments = clock.segments + [last]
            replays.append(results)
            walls.append(_reference_s(segments))
            # Run k lies in segment k + 1; its intervals at the
            # reference speed.
            intervals.append([
                np.asarray(run) * factor
                for run, (_, factor) in zip(clock.runs, segments[1:])
            ])
            linearized.append(np.concatenate(clock.linearized))
    finally:
        clock.patches.restore()
    setup_s = _setup_medians(timings)
    attempted, problems = check_replays(seed, replays)
    rate = statistics.median(
        sum(len(run) for run in runs) / wall
        for runs, wall in zip(intervals, walls)
    )
    # Every replay repeats the same control intervals bit for bit, so
    # each interval's time is its median over the replays: a slow spell
    # of the host during one replay's interval does not set it.
    lengths = [len(run) for run in intervals[0]]
    n = sum(lengths)
    per_interval = np.median(np.stack([
        np.concatenate(runs)[:n] for runs in intervals
    ]), axis=0)
    # An interval in which the MPC linearizes the plant for a new
    # on-mask costs 50-100 ms, 5-20x any other.  There are 10-12 of
    # them in 1,200 intervals, depending on the seed, so a p99 over all
    # intervals sits on the cliff between them and the rest and jumps
    # by 40% from seed to seed.  Their cost shows in the step rate.
    warm = per_interval[~np.any(np.stack([
        flags[:n] for flags in linearized
    ]), axis=0)]

    def percentile_ms(q: float) -> float:
        return 1e3 * float(np.percentile(warm, q))

    values = {
        "setup_s": setup_s["total"],
        # The first closed-loop run of a replay meets every cache of its
        # fresh context empty.
        "cold_ms": 1e3 * float(per_interval[:lengths[0]].sum()),
        "latency_p50_ms": percentile_ms(50.0),
        "latency_p99_ms": percentile_ms(99.0),
        "control_steps_per_s": rate,
        # The replay is a closed loop at saturation: its peak rate is
        # its control-step rate.
        "peak_rps": rate,
    }
    return Outcome(attempted, len(problems), values, problems)


def _traced(seed: int, timings: list[dict], speed: Speed) -> Outcome:
    plain, plain_piece = replay(seed, _fresh_context(seed, timings, speed),
                                speed)
    context = _fresh_context(seed, timings, speed)
    ledger = Ledger()
    instrument(ledger)
    try:
        traced, piece = replay(seed, context, speed)
    finally:
        ledger.patches.restore()
    wall = piece[0]
    attempted, problems = check_replays(seed, [plain, traced])
    calls, own = ledger.calls, ledger.self_s
    distinct = ledger.counters["consolidation.query_many.distinct"]
    query_s = own["consolidation.query_many"]
    mpc_runs = [runs["mpc"] for runs in traced.values()]
    values = {
        "consolidation.query_many.calls": calls["consolidation.query_many"],
        "consolidation.query_many.self_s": query_s,
        "consolidation.query_many.distinct": distinct,
        "consolidation.query_many.ms_per_distinct": (
            1e3 * query_s / distinct if distinct else 0.0
        ),
        "consolidation.query_refined.calls": calls[
            "consolidation.query_refined"
        ],
        "consolidation.query_refined.self_s": own[
            "consolidation.query_refined"
        ],
        "closed_form.calls": calls["closed_form"],
        "closed_form.self_s": own["closed_form"],
        "optimizer.solve.calls": calls["optimizer.solve"],
        "optimizer.solve.self_s": own["optimizer.solve"],
        # Index builds the campaign makes itself, so that every wrapped
        # layer's self time is reported.
        "optimizer.index_build.self_s": own.get("optimizer.index_build", 0.0),
        "simulation.step.calls": calls["simulation.step"],
        "simulation.step.self_s": own["simulation.step"],
        "simulation.steady_state.self_s": own["simulation.steady_state"],
        "mpc.observe.calls": calls["mpc.observe"],
        "mpc.observe.self_s": own["mpc.observe"],
        "mpc.horizon_solves": sum(r.horizon_solves for r in mpc_runs),
        "mpc.fallbacks": sum(r.fallbacks for r in mpc_runs),
        "plant.matrices.calls": calls["plant.matrices"],
        "plant.matrices.self_s": own["plant.matrices"],
        "controller.observe.calls": calls["controller.observe"],
        "controller.observe.self_s": own["controller.observe"],
        "traces.load_at.calls": calls["traces.load_at"],
        "traces.load_at.self_s": own["traces.load_at"],
        "campaign.loop.self_s": own["campaign.loop"],
        "unaccounted_s": wall - ledger.thread_self_s["main"],
        "wall_s": wall,
    }
    out = {f"replay.{k}": v for k, v in values.items()}
    for key, value in _setup_medians(timings).items():
        if key != "total":
            out[f"setup.{key}"] = value
    out["trace_overhead"] = _reference_s([piece]) / _reference_s([plain_piece])
    out["host.pass_ms"] = speed.pass_ms
    return Outcome(attempted, len(problems), out, problems)
