"""The serving workload, ``serve-quantized``.

It builds ``make_system_model(n=500)``, a ``JointOptimizer`` on the
Algorithm-1 index and an in-process ``AllocationServer`` with its
default settings, then runs three phases:

``cold``
    48 requests sent at once to a freshly started server.  The run sets
    up ``SETUPS`` servers, each answering one cold phase, and reports
    the median set-up time and the median cold phase.
``open``
    An open loop: Poisson arrivals at a fixed rate, each request timed
    from its *scheduled* send time until its response is encoded, so a
    stall also charges the requests queued behind it.  The schedule is
    cut into chunks of under a second, and each chunk is sent several
    times, its repeats spread over the run.  A send's latency is its
    median over the repeats, so a slow spell of the host during one
    repeat does not set it; the latency percentiles are taken over
    every send's median.
``burst``
    Many concurrent requests at once, several times per run; burst size
    over drain time, the median over bursts, is the saturation
    throughput.

Every set-up, cold phase, open-loop chunk and burst is one piece of
timed work between two calibrations of :mod:`hostspeed`, and its
figures are reported at the reference speed.  The host's speed changes
within a second, so the pieces are kept short: a calibration either
side of a piece says little about the middle of a long one.  The repeats are spread
over the run, and the garbage collector is emptied before each phase
so that every repeat starts from the same heap state.

Requests enter ``AllocationServer.handle`` as JSON wire lines and every
response goes through ``protocol.encode``, which keeps decode and
encode on the measured path without sockets (over a real connection
the daemon answers one request per connection at a time, so two client
connections could never batch).  The process runs two threads: the
event loop, which runs both the generator and the server, and the
server's compute thread.

Every load comes from the seed before any phase starts; the open-loop
schedule is one fixed draw shared by every seed.  Its arrival gaps are
stratified draws: one value from each of ``n`` equal-probability
strata, in a random order, so the gaps follow the exponential
distribution exactly.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import math
import selectors
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from hostspeed import Speed
from ledger import Ledger, instrument_core, merge
from metrics import Outcome
from repro.core.optimizer import JointOptimizer
from repro.serving import protocol
from repro.serving import server as server_module
from repro.serving.loadgen import quantized_loads
from repro.serving.server import AllocationServer, ServingConfig
from repro.testbed.synthetic import make_system_model

N_MACHINES = 500
#: Quantized loads come from this many evenly spaced levels.
LEVELS = 48
#: Every load lies in this band of total capacity.
BAND = (0.1, 0.8)
COLD_REQUESTS = 48
SETUPS = 7
#: Loads after the cold phase checked against a direct solve.
CHECK_SAMPLE = 64
#: Tolerance of the served-answer checks (tasks/s and W).
TOLERANCE = 1e-6
#: Seed of the open-loop arrival schedule, the same for every run.
SCHEDULE_SEED = 0


@dataclass(frozen=True)
class Profile:
    """The traffic mix of a serving workload."""

    rate: float   # open-loop arrivals, requests/s
    sends: int    # distinct open-loop sends per run, at least
    chunk: int    # open-loop sends per timed piece
    repeats: int  # times each chunk is sent
    burst: int    # concurrent requests of one burst
    bursts: int   # bursts per run


PROFILES = {
    # p99 over 1,000 sends has ten beyond it.  The rate keeps the server
    # well short of saturation in the host's slowest spells (2.4x slower
    # than its fastest): at 300 req/s it fell behind in them, and the
    # latencies of the whole chunk grew 5-10x.
    "serve-quantized": Profile(
        rate=150.0, sends=1000, chunk=125, repeats=5, burst=2500,
        bursts=10,
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Everything a serving run sends, generated from the seed."""

    cold: tuple[tuple[float, ...], ...]  # one load list per set-up
    open_loads: tuple[float, ...]
    open_offsets: tuple[float, ...]      # scheduled send times, s
    bursts: tuple[tuple[float, ...], ...]
    sample: frozenset[int]               # positions in open + bursts
    chunk: int                           # open-loop sends per piece
    repeats: int                         # times each chunk is sent

    @property
    def cold_requests(self) -> int:
        return sum(len(loads) for loads in self.cold)


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform draws on [0, 1), one from each of ``n`` equal
    strata, in a seeded order."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def make_inputs(
    profile: Profile, seed: int, seconds: float, capacity: float
) -> Inputs:
    """The seeded loads and open-loop schedule of one run.

    The open phase, every repeat included, lasts ``seconds`` but holds
    at least ``profile.sends`` distinct arrivals.
    """
    rng = np.random.default_rng(seed)

    def draw(size: int) -> tuple[float, ...]:
        return tuple(quantized_loads(
            size, capacity, levels=LEVELS, low=BAND[0], high=BAND[1],
            seed=int(rng.integers(2**63)),
        ))

    # Every cold phase asks a fresh server for each level quantized_loads
    # draws from, in its own order.
    levels = np.linspace(BAND[0] * capacity, BAND[1] * capacity, LEVELS)
    cold = tuple(
        tuple(float(v) for v in rng.permutation(levels))
        for _ in range(SETUPS)
    )
    n_open = max(
        profile.sends, math.ceil(profile.rate * seconds / profile.repeats)
    )
    # Exponential gaps at stratified quantiles: Poisson arrivals.  The
    # schedule is one fixed draw, the same for every seed: p99 is set by
    # the few densest clusters of arrivals, and a seeded order moved it
    # by up to 1.5x from seed to seed.
    schedule = np.random.default_rng(SCHEDULE_SEED)
    gaps = -np.log1p(-stratified(schedule, n_open)) / profile.rate
    offsets = np.cumsum(gaps)
    open_loads = draw(n_open)
    bursts = tuple(draw(profile.burst) for _ in range(profile.bursts))
    sample = rng.choice(n_open * profile.repeats
                        + profile.bursts * profile.burst,
                        size=CHECK_SAMPLE, replace=False)
    return Inputs(
        cold=cold,
        open_loads=open_loads,
        open_offsets=tuple(float(v) for v in offsets),
        bursts=bursts,
        sample=frozenset(int(i) for i in sample),
        chunk=profile.chunk,
        repeats=profile.repeats,
    )


# --------------------------------------------------------------------- #
# Answer checks
# --------------------------------------------------------------------- #


def envelope_problem(key: int, load: float, response: dict) -> Optional[str]:
    """Why a served response is wrong on its own terms, or ``None``.

    It must be ok, echo its id, and split exactly the requested load.
    """
    if not response.get("ok"):
        return f"request {key}: error response {response.get('error')}"
    if response.get("id") != key:
        return f"request {key}: response carries id {response.get('id')}"
    served = math.fsum(response["result"]["loads"].values())
    if abs(served - load) > TOLERANCE:
        return f"request {key}: serves {served!r} of load {load!r}"
    return None


def reference_problem(
    key: int, load: float, wire: bytes, direct
) -> Optional[str]:
    """Why an encoded response disagrees with a direct solve, or ``None``."""
    result = json.loads(wire)["result"]
    if result["on_ids"] != [int(i) for i in direct.on_ids]:
        return f"request {key}: ON set differs from a direct solve"
    gap = abs(result["predicted_total_power"] - direct.predicted_total_power)
    if gap > TOLERANCE:
        return f"request {key}: predicted power off by {gap!r} W"
    return None


class Checker:
    """Counts attempted requests and the ones whose answer is wrong.

    Every response is checked when its phase has ended (:meth:`served`);
    the wire bytes of the ``keep`` requests are held for :meth:`verify`
    against a direct ``JointOptimizer.solve`` after the run.
    """

    def __init__(self, keep: set[int]) -> None:
        self.keep = keep
        self.kept: dict[int, tuple[float, bytes]] = {}
        self.attempted = 0
        self.failures: dict[int, str] = {}

    def served(self, key: int, load: float, response: dict) -> None:
        self.attempted += 1
        problem = envelope_problem(key, load, response)
        if problem is not None:
            self.failures.setdefault(key, problem)

    def verify(self, reference: JointOptimizer) -> None:
        direct: dict[float, object] = {}
        for key, (load, wire) in sorted(self.kept.items()):
            if key in self.failures:
                continue
            if load not in direct:
                direct[load] = reference.solve(load)
            problem = reference_problem(key, load, wire, direct[load])
            if problem is not None:
                self.failures[key] = problem
        missing = self.keep - set(self.kept)
        for key in missing:
            self.failures.setdefault(key, f"request {key}: never answered")


# --------------------------------------------------------------------- #
# Phases
# --------------------------------------------------------------------- #


@dataclass
class PhaseRecord:
    """Timestamps of one phase's requests (ids ``first_id`` onward)."""

    name: str
    first_id: int
    loads: tuple[float, ...]
    offsets: tuple[float, ...]
    start: float = 0.0
    end: float = 0.0
    #: Reference-speed factor of the phase (see :mod:`hostspeed`).
    factor: float = 1.0
    #: Open phase: position of the first send in ``Inputs.open_loads``.
    slot: int = 0
    sent: list = field(default_factory=list)
    done: list = field(default_factory=list)
    bytes: int = 0
    #: Response envelopes, held until the phase's checks have run.
    replies: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    def lags(self) -> np.ndarray:
        """How late each request entered the server, s."""
        return np.asarray(self.sent) - (self.start + np.asarray(self.offsets))

    def latencies(self) -> np.ndarray:
        """Scheduled send to encoded response, s."""
        return np.asarray(self.done) - (self.start + np.asarray(self.offsets))


async def drive(
    server: AllocationServer, record: PhaseRecord, checker: Checker
) -> None:
    """Send every request of ``record`` on its schedule; wait for all,
    then check every response.  Only the wire bytes of the requests
    ``checker`` keeps are stored during the phase; the checks run after
    its end."""
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    n = len(record.loads)
    lines = [
        json.dumps({"op": "allocate", "id": record.first_id + i, "load": load})
        for i, load in enumerate(record.loads)
    ]
    record.sent = [0.0] * n
    record.done = [0.0] * n
    record.replies = [None] * n

    async def one(i: int) -> None:
        record.sent[i] = clock()
        response = await server.handle(lines[i])
        wire = protocol.encode(response)
        record.done[i] = clock()
        record.bytes += len(wire)
        record.replies[i] = response
        key = record.first_id + i
        if key in checker.keep:
            checker.kept[key] = (record.loads[i], wire)

    tasks = []
    record.start = clock()
    for i, offset in enumerate(record.offsets):
        delay = record.start + offset - clock()
        if delay > 0.0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(i)))
    await asyncio.gather(*tasks)
    record.end = max(record.done)
    for i, response in enumerate(record.replies):
        checker.served(record.first_id + i, record.loads[i], response)
    record.replies = []


@dataclass
class PassResult:
    """Everything one pass over the phases measured."""

    setup_s: list = field(default_factory=list)
    #: Reference-speed factor of each set-up.
    setup_factor: list = field(default_factory=list)
    index_build_s: list = field(default_factory=list)
    phases: dict = field(default_factory=lambda: {
        "cold": [], "open": [], "burst": []
    })
    #: Traced passes only: ledger windows and server figures per phase.
    windows: dict = field(default_factory=lambda: {
        "cold": [], "open": [], "burst": []
    })


def _instrument_server(server: AllocationServer, ledger: Ledger) -> None:
    """Batcher waits and the server's compute span, on this instance.

    The wait of a request runs from its ``submit`` to the start of the
    ``dispatch`` call the batcher hands its batch to.
    """
    batcher = server._batcher
    submit, dispatch = batcher.submit, batcher._dispatch
    submitted: dict[int, float] = {}

    async def timed_submit(request):
        submitted[id(request)] = ledger.clock()
        return await submit(request)

    async def timed_dispatch(batch):
        now = ledger.clock()
        for request in batch:
            ledger.sample("batcher.wait_s", now - submitted.pop(id(request)))
        ledger.count("batcher.batches")
        ledger.count("batcher.dispatched", len(batch))
        return await dispatch(batch)

    batcher.submit = timed_submit
    batcher._dispatch = timed_dispatch
    server._compute_batch = ledger.wrap(
        "server.dispatch", server._compute_batch
    )


async def run_pass(
    inputs: Inputs,
    checker: Checker,
    speed: Speed,
    ledger: Optional[Ledger] = None,
    cold_only: bool = False,
) -> PassResult:
    """Set up ``SETUPS`` servers, each answering one cold phase.  Unless
    ``cold_only``, the first one then runs the open-loop chunks and the
    bursts, taking turns, with the other set-ups between them, so that
    the repeats of each phase span the whole run.  ``speed`` calibrates
    after every set-up and phase.

    Request ids follow the order of ``inputs``: cold phases, open
    phase, bursts.
    """
    result = PassResult()
    clock = time.perf_counter

    async def phase(server, name, first_id, loads, offsets=None,
                    slot=0) -> None:
        offsets = offsets or (0.0,) * len(loads)
        record = PhaseRecord(name, first_id, loads, offsets, slot=slot)
        gc.collect()
        if ledger is not None:
            server.max_loop_lag = 0.0
            coalesced = server.coalesced
            before = ledger.snapshot()
        await drive(server, record, checker)
        result.phases[name].append(record)
        if ledger is not None:
            window = ledger.since(before)
            window["coalesced"] = server.coalesced - coalesced
            window["loop_lag_s"] = (
                server.stats()["watchdog"]["max_loop_lag_seconds"]
            )
            result.windows[name].append(window)
        record.factor = speed.split()[1]

    async def cold_server(k: int) -> AllocationServer:
        gc.collect()
        before = ledger.snapshot() if ledger is not None else None
        start = clock()
        optimizer = JointOptimizer(make_system_model(n=N_MACHINES))
        server = AllocationServer(optimizer, ServingConfig())
        if ledger is not None:
            _instrument_server(server, ledger)
        await server.start()
        result.setup_s.append(clock() - start)
        result.setup_factor.append(speed.split()[1])
        if ledger is not None:
            result.index_build_s.append(
                ledger.since(before)["self_s"].get(
                    "optimizer.index_build", 0.0
                )
            )
        await phase(server, "cold", k * COLD_REQUESTS, inputs.cold[k])
        return server

    async def spare_cold(k: int) -> None:
        await (await cold_server(k)).drain()

    main = await cold_server(0)
    spares = iter(range(1, len(inputs.cold)))
    if not cold_only:
        pieces = open_pieces(inputs)
        bursts = iter(inputs.bursts)
        first_id = (
            inputs.cold_requests + inputs.repeats * len(inputs.open_loads)
        )

        def due(count: int, i: int) -> int:
            # Spread ``count`` events evenly over the open-loop pieces.
            n = len(pieces)
            return (i + 1) * count // n - i * count // n

        for i, (slot, *piece) in enumerate(pieces):
            await phase(main, "open", *piece, slot=slot)
            for k in itertools.islice(spares, due(len(inputs.cold) - 1, i)):
                await spare_cold(k)
            for burst in itertools.islice(bursts, due(len(inputs.bursts), i)):
                await phase(main, "burst", first_id, burst)
                first_id += len(burst)
    for k in spares:
        await spare_cold(k)
    await main.drain()
    return result


def open_pieces(inputs: Inputs) -> list[tuple[int, int, tuple, tuple]]:
    """The open loop as ``(slot, first_id, loads, offsets)`` pieces, in
    the order they are sent.

    The schedule is cut into one chunk per ``inputs.chunk`` sends, and
    the chunks are sent in order ``inputs.repeats`` times; ``slot`` is
    the position of a chunk's first send in the schedule, and every send
    gets its own request id.  Each chunk's offsets count from its own
    start, which keeps the arrival gap before its first send.
    """
    n = len(inputs.open_loads)
    parts = max(n // inputs.chunk, 1)
    cuts = np.linspace(0, n, parts + 1).astype(int)
    offsets = np.asarray(inputs.open_offsets)
    pieces = []
    for repeat in range(inputs.repeats):
        for a, b in zip(cuts[:-1], cuts[1:]):
            base = offsets[a - 1] if a else 0.0
            pieces.append((
                int(a),
                inputs.cold_requests + repeat * n + int(a),
                inputs.open_loads[a:b],
                tuple(float(v) for v in offsets[a:b] - base),
            ))
    return pieces


class _TimedSelector(selectors.DefaultSelector):
    """The loop's selector, charging time blocked in ``select`` as idle."""

    def __init__(self, ledger: Ledger) -> None:
        super().__init__()
        self._ledger = ledger

    def select(self, timeout=None):
        start = self._ledger.clock()
        try:
            return super().select(timeout)
        finally:
            self._ledger.count("loop.idle_s", self._ledger.clock() - start)


def _run_loop(inputs: Inputs, checker: Checker, speed: Speed,
              ledger: Optional[Ledger], cold_only: bool = False
              ) -> PassResult:
    selector = _TimedSelector(ledger) if ledger is not None else None
    loop = asyncio.SelectorEventLoop(selector)
    try:
        return loop.run_until_complete(
            run_pass(inputs, checker, speed, ledger, cold_only)
        )
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #


def end_to_end(result: PassResult) -> dict[str, float]:
    """The end-to-end metrics of an untraced pass, at the reference
    speed: each piece's figures times its factor, then the median over
    pieces (latencies: over the repeats of each send)."""

    repeats: dict[int, list] = {}
    for r in result.phases["open"]:
        repeats.setdefault(r.slot, []).append(r.latencies() * r.factor)
    # Every send's median over the repeats of its chunk.
    latencies = np.concatenate([
        np.median(np.stack(repeats[slot]), axis=0) for slot in sorted(repeats)
    ])

    def percentile_ms(q: float) -> float:
        return 1e3 * float(np.percentile(latencies, q))

    peak = statistics.median(
        len(r.loads) / (r.wall * r.factor) for r in result.phases["burst"]
    )
    return {
        "setup_s": statistics.median(
            s * f for s, f in zip(result.setup_s, result.setup_factor)
        ),
        "cold_ms": 1e3 * statistics.median(
            r.wall * r.factor for r in result.phases["cold"]
        ),
        "latency_p50_ms": percentile_ms(50.0),
        "latency_p99_ms": percentile_ms(99.0),
        "peak_rps": peak,
        # An allocate answer is the serving form of a control step.
        "control_steps_per_s": peak,
    }


def _percentile_ms(values: list, q: float) -> float:
    return 1e3 * float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(result: PassResult, checker: Checker) -> dict[str, float]:
    """Per-phase layer metrics of a traced pass.

    On each thread, layer self times plus idle (plus, on the loop
    thread, the time no wrapped layer accounts for) equal the phase's
    wall time.
    """
    out: dict[str, float] = {}
    for name, records in result.phases.items():
        w = merge(result.windows[name])
        calls, own, counters = w["calls"], w["self_s"], w["counters"]
        wall = sum(r.wall for r in records)
        requests = sum(len(r.loads) for r in records)
        failed = sum(
            1 for r in records for key in range(
                r.first_id, r.first_id + len(r.loads)
            ) if key in checker.failures
        )
        batches = counters.get("batcher.batches", 0)
        dispatched = counters.get("batcher.dispatched", 0)
        distinct = counters.get("consolidation.query_many.distinct", 0)
        query_s = own.get("consolidation.query_many", 0.0)
        waits = w["samples"].get("batcher.wait_s", [])
        lags = np.concatenate([r.lags() for r in records])
        loop_idle = counters.get("loop.idle_s", 0.0)
        values = {
            "protocol.decode.self_s": own.get("protocol.decode", 0.0),
            "protocol.encode.self_s": own.get("protocol.encode", 0.0),
            "protocol.encode.bytes": sum(r.bytes for r in records),
            "batcher.batches": batches,
            "batcher.mean_batch": dispatched / batches if batches else 0.0,
            "batcher.coalesced_ratio": (
                sum(x["coalesced"] for x in result.windows[name])
                / dispatched if dispatched else 0.0
            ),
            "batcher.wait_p50_ms": _percentile_ms(waits, 50.0),
            "batcher.wait_p99_ms": _percentile_ms(waits, 99.0),
            "server.dispatch.self_s": own.get("server.dispatch", 0.0),
            "server.loop_lag_max_ms": 1e3 * max(
                x["loop_lag_s"] for x in result.windows[name]
            ),
            "consolidation.query_many.calls": calls.get(
                "consolidation.query_many", 0
            ),
            "consolidation.query_many.self_s": query_s,
            "consolidation.query_many.distinct": distinct,
            "consolidation.query_many.ms_per_distinct": (
                1e3 * query_s / distinct if distinct else 0.0
            ),
            "consolidation.query_refined.calls": calls.get(
                "consolidation.query_refined", 0
            ),
            "consolidation.query_refined.self_s": own.get(
                "consolidation.query_refined", 0.0
            ),
            "closed_form.calls": calls.get("closed_form", 0),
            "closed_form.self_s": own.get("closed_form", 0.0),
            "loadgen.sched_lag_p99_ms": _percentile_ms(lags, 99.0),
            "loadgen.sent": requests,
            "loadgen.completed": sum(
                1 for r in records for t in r.done if t > 0.0
            ),
            "loadgen.failed": failed,
            "loop.idle_s": loop_idle,
            "loop.unaccounted_s": (
                wall - w["thread_self_s"].get("main", 0.0) - loop_idle
            ),
            "compute.idle_s": wall - w["thread_self_s"].get("other", 0.0),
            "wall_s": wall,
        }
        out.update({f"{name}.{k}": v for k, v in values.items()})
    out["setup.optimizer.index_build_s"] = statistics.median(
        result.index_build_s
    )
    return out


def _reference_wall(result: PassResult, name: str) -> float:
    return sum(r.wall * r.factor for r in result.phases[name])


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """One serving run: the end-to-end metrics, or with ``trace`` the
    layer ledger of a traced pass.  A traced run first repeats the cold
    phases untraced, the work-bound phase both passes share, to measure
    the tracing overhead."""
    profile = PROFILES[workload]
    capacity = float(sum(make_system_model(n=N_MACHINES).capacities))
    inputs = make_inputs(profile, seed, seconds, capacity)
    cold = inputs.cold_requests
    keep = set(range(cold)) | {cold + p for p in inputs.sample}
    reference = JointOptimizer(make_system_model(n=N_MACHINES))
    checkers = [Checker(set(range(cold)) if trace else keep)]
    speed = Speed()
    plain = _run_loop(inputs, checkers[0], speed, None, cold_only=trace)
    if trace:
        checkers.append(Checker(keep))
        ledger = Ledger()
        instrument_core(ledger)
        ledger.patch_layer(server_module, "decode_request", "protocol.decode")
        ledger.patch_layer(protocol, "encode", "protocol.encode")
        try:
            traced = _run_loop(inputs, checkers[1], speed, ledger)
        finally:
            ledger.patches.restore()
    for checker in checkers:
        checker.verify(reference)
    if trace:
        values = layer_metrics(traced, checkers[1])
        values["trace_overhead"] = (
            _reference_wall(traced, "cold") / _reference_wall(plain, "cold")
        )
        values["host.pass_ms"] = speed.pass_ms
    else:
        values = end_to_end(plain)
    return Outcome(
        attempted=sum(c.attempted for c in checkers),
        failed=sum(len(c.failures) for c in checkers),
        values=values,
        problems=[p for c in checkers for p in c.failures.values()],
    )
