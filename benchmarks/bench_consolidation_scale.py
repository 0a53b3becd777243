"""Scale bench for Algorithm 1: vectorized index vs pure-Python baseline.

The paper pays O(n^3 log n) offline (Algorithm 1) to make the online
query O(log n) (Algorithm 2); this bench measures that trade at machine
counts far beyond the paper's 10-node room.  For each ``n`` it

- builds the vectorized :class:`ConsolidationIndex`, sorts its events,
  derives every order row and its ``allStatus`` table, and times them
  together (Algorithm 1 in full);
- where affordable, runs the pure-Python baseline — a verbatim port of
  the pre-vectorization implementation (per-status dataclass
  allocations, dict-of-orders, Python sorts; only the gap-aware nudge
  bugfix applied so the tables agree) — asserts its tables and query
  answers are **byte-identical** to the vectorized index on a
  randomized workload, and records the speedup;
- times the online path: the first batched
  :meth:`~repro.core.consolidation.ConsolidationIndex.query_many` on the
  fresh index (``query_seconds_cold``, the whole call, with the query
  caches still empty), then, per query, fresh loads one at a time and
  through a second batch;
- reports ``exact_gap``: the worst relative cost excess of the index's
  answers over the exact per-``k`` scan
  (:func:`repro.core.select.optimal_subset`, an independent
  implementation of the same problem) on three gap loads.

Results land in ``benchmarks/results/consolidation_scale.json``
(schema: the ``consolidation-scale`` spec in
:data:`repro.obs.artifacts.ARTIFACTS`) and a readable
table in ``benchmarks/results/consolidation_scale.txt``.

The sharded sweep extends the same artifact past the monolithic wall:
for each ``n:pods`` size it builds a
:class:`~repro.core.sharding.PodShardedIndex`, times its build and
single/batched queries, and reports two optimality gaps — versus the
exact per-``k`` scan where that is affordable (``n <=
REPRO_BENCH_SCALE_EXACT_MAX``), and versus the seeded
simulated-annealing baseline (:func:`tests.oracles.anneal_on_set`)
everywhere.  The annealing gap may go *negative* at high utilization:
the index query and the exact scan only consider the ratio-optimal
subset per cardinality and skip a size whose champion lacks capacity,
while annealing roams all same-size subsets — the sweep records the
measured gap rather than asserting a sign.

Environment knobs (the CI bench matrix sets them for its smoke run):

- ``REPRO_BENCH_SCALE_NS`` — comma-separated machine counts
  (default ``20,100,300,500``);
- ``REPRO_BENCH_SCALE_BASELINE_MAX`` — largest ``n`` for which the
  pure-Python baseline is built (default ``300``; the baseline is the
  expensive side of the comparison);
- ``REPRO_BENCH_SCALE_SHARDED`` — comma-separated ``n:pods`` sizes for
  the sharded sweep (default ``500:10,2000:40,5000:100``; empty string
  disables it);
- ``REPRO_BENCH_SCALE_EXACT_MAX`` — largest sharded ``n`` for which the
  exact per-``k`` scan runs as ground truth (default ``500``);
- ``REPRO_BENCH_SCALE_ANNEAL_ITERS`` — annealing iterations per load
  (default ``20000``).
"""

from __future__ import annotations

import bisect
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs
from repro.core.consolidation import ConsolidationIndex
from repro.core.select import optimal_subset
from repro.core.sharding import PodShardedIndex
from repro.errors import InfeasibleError
from repro.experiments.algorithms import full_algorithm1
from repro.obs.artifacts import EXACT_GAP_TOL
from tests.oracles import anneal_on_set, subset_power

SEED = 2012

#: Queries per size for the online-path timing and the identity check.
QUERIES = 64

#: Gap loads, as fractions of capacity: moderate-to-high utilization,
#: where the answers are interesting but almost always feasible.
GAP_FRACTIONS = (0.3, 0.5, 0.7)

#: Sizes where the paper's acceptance speedup (>= 20x) is asserted.
SPEEDUP_FLOOR = 20.0
SPEEDUP_AT = 300


def _sizes() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_SCALE_NS", "20,100,300,500")
    sizes = [int(part) for part in raw.split(",") if part.strip()]
    if not sizes or any(n < 2 for n in sizes):
        raise ValueError(f"bad REPRO_BENCH_SCALE_NS={raw!r}")
    return sizes


def _baseline_max() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE_BASELINE_MAX", "300"))


def _sharded_sizes() -> list[tuple[int, int]]:
    raw = os.environ.get(
        "REPRO_BENCH_SCALE_SHARDED", "500:10,2000:40,5000:100"
    )
    sizes = []
    for part in raw.split(","):
        if not part.strip():
            continue
        n_str, pods_str = part.split(":")
        n, pods = int(n_str), int(pods_str)
        if n < 2 or not 1 <= pods <= n:
            raise ValueError(f"bad REPRO_BENCH_SCALE_SHARDED={raw!r}")
        sizes.append((n, pods))
    return sizes


def _exact_max() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE_EXACT_MAX", "500"))


def _anneal_iterations() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE_ANNEAL_ITERS", "20000"))


def _instance(n: int) -> dict:
    """A randomized, capacity-constrained instance at size ``n``.

    Drawn to look like the fitted testbed abstraction: ``a = K`` around
    the thermal headroom scale, ``b = alpha/beta`` spread across machine
    efficiencies, with a duplicated-``b`` block (parallel particles) so
    the degenerate paths stay exercised at every size.
    """
    rng = np.random.default_rng(SEED + n)
    a = rng.uniform(200.0, 400.0, n)
    b = rng.uniform(0.5, 2.5, n)
    b[: max(2, n // 10)] = 1.5  # parallel particles never cross
    return {
        "pairs": [(float(x), float(y)) for x, y in zip(a, b)],
        "w2": 40.0,
        "rho": 70.0,
        "t_min": 180.0,
        "t_max": 230.0,
        "capacities": [float(c) for c in rng.uniform(30.0, 50.0, n)],
    }


@dataclass(frozen=True)
class _SeedStatus:
    """Status row of the pre-vectorization implementation."""

    t: float
    k: int
    l_max: float
    p_b: float


class _SeedIndex:
    """The pure-Python baseline: Algorithm 1 as the repo implemented it
    before vectorization — one :class:`_SeedStatus` allocation per table
    row, an orders dict keyed by event time, Python sorts throughout —
    with the gap-aware order nudge applied (the precision bugfix shipped
    alongside the vectorization; without it the two tables legitimately
    differ on near-coincident crossings)."""

    def __init__(self, pairs, w2, rho, theta0=0.0, **_unused):
        n = len(pairs)
        events = []
        for i in range(n):
            a_i, b_i = pairs[i]
            for j in range(i + 1, n):
                a_j, b_j = pairs[j]
                if b_i == b_j:
                    continue
                t = (a_i - a_j) / (b_i - b_j)
                if t <= 0.0:
                    continue
                events.append((t, i, j))
        events.sort()
        times = sorted({0.0, *(e[0] for e in events)})
        arr = np.asarray(pairs, dtype=float)
        self.orders = {}
        self.all_status = []
        for idx, t in enumerate(times):
            eps = 1e-9 * max(1.0, abs(t))
            if idx + 1 < len(times):
                eps = min(eps, 0.5 * (times[idx + 1] - t))
            xn = arr[:, 0] - (t + eps) * arr[:, 1]
            order = sorted(range(n), key=lambda i: (-xn[i], i))
            self.orders[t] = order
            x = arr[:, 0] - t * arr[:, 1]
            acc = 0.0
            for k, i in enumerate(order, start=1):
                acc += float(x[i])
                self.all_status.append(
                    _SeedStatus(
                        t=t, k=k, l_max=acc,
                        p_b=k * w2 - rho * t + theta0,
                    )
                )
        self.all_status.sort(key=lambda status: status.l_max)
        self._lmax = [status.l_max for status in self.all_status]

    def query(self, load):
        pos = bisect.bisect_right(self._lmax, load)
        if pos >= len(self.all_status):
            raise ValueError(f"no status can serve load {load}")
        status = self.all_status[pos]
        return sorted(self.orders[status.t][: status.k])


@dataclass
class _Entry:
    n: int
    events: int
    statuses: int
    queries: int
    build_seconds: float
    baseline_build_seconds: Optional[float]
    speedup: Optional[float]
    query_seconds_cold: float
    query_seconds_single: float
    query_seconds_batched: float
    identical_answers: Optional[bool]
    exact_gap: Optional[float]


@dataclass
class _ShardedEntry:
    """One ``n:pods`` point of the sharded sweep.

    ``exact_gap`` is the worst signed relative cost excess of the
    sharded answer over the exact per-``k`` scan across the sampled
    loads (only where the scan is affordable);
    ``anneal_gap`` the mean signed relative excess of the annealing
    baseline over the best index answer (negative when annealing finds
    a cheaper capacity-feasible subset at a size the prefix scans
    skipped — see the module docstring).
    """

    n: int
    pods: int
    statuses: int
    queries: int
    build_seconds: float
    query_seconds_single: float
    query_seconds_batched: float
    max_load_seconds: float
    exact_gap: Optional[float]
    anneal_gap: float
    anneal_seconds: float


def _identical(fast: ConsolidationIndex, seed: _SeedIndex,
               loads: np.ndarray) -> bool:
    """Byte-identical tables and query answers vs the seed baseline."""
    if not np.array_equal(
        fast._status_table()[2], np.asarray(seed._lmax, dtype=np.float64)
    ):
        return False
    if sorted(seed.orders) != [float(t) for t in fast._times]:
        return False
    for load in loads.tolist():
        if fast.query(load) != seed.query(load):
            return False
    return True


def _relative_gap(power: float, reference: float) -> float:
    return (power - reference) / max(1.0, abs(reference))


def _power(spec: dict, subset, load: float) -> float:
    return subset_power(
        spec["pairs"], subset, load, w2=spec["w2"], rho=spec["rho"],
        t_min=spec["t_min"], t_max=spec["t_max"],
        capacities=spec["capacities"],
    )


def _exact_gap(index, spec: dict) -> Optional[float]:
    """Worst signed relative cost excess of ``index``'s answers over the
    exact per-``k`` scan on the gap loads (infeasible loads skipped;
    ``None`` when every one is)."""
    capacity = sum(spec["capacities"])
    worst = None
    for frac in GAP_FRACTIONS:
        load = frac * capacity
        try:
            exact, _ = optimal_subset(
                spec["pairs"], load, w2=spec["w2"], rho=spec["rho"],
                theta=0.0, t_min=spec["t_min"], t_max=spec["t_max"],
                capacities=spec["capacities"],
            )
            gap = _relative_gap(
                _power(spec, index.query_refined(load), load),
                _power(spec, exact, load),
            )
        except InfeasibleError:
            continue
        if worst is None or abs(gap) > abs(worst):
            worst = gap
    return worst


def _measure(n: int, baseline_max: int) -> _Entry:
    spec = _instance(n)
    # Best of two rounds: the first build pays the allocator's cold
    # page-fault cost for the ~status_count-sized buffers, which is
    # machine noise, not algorithm time.  The timed build is the
    # paper's Algorithm 1 in full (``full_algorithm1``), like for like
    # with the baseline's.
    build = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        index = full_algorithm1(**spec)
        build = min(build, time.perf_counter() - start)

    baseline = speedup = identical = None
    # Queries span the physically servable range (capacity-bounded; the
    # table's Lmax ceiling is far above it on these instances).
    capacity = sum(spec["capacities"])
    rng = np.random.default_rng(SEED)
    loads = rng.uniform(0.1 * capacity, 0.8 * capacity, QUERIES)

    # The first refined batch on the fresh index, its caches empty.
    start = time.perf_counter()
    index.query_many(loads)
    cold = time.perf_counter() - start
    if n <= baseline_max:
        start = time.perf_counter()
        reference = _SeedIndex(**spec)
        baseline = time.perf_counter() - start
        speedup = baseline / build
        identical = _identical(index, reference, loads)
        del reference  # free the per-status objects before the next size

    # One-at-a-time online path (fresh loads: the memo must not answer).
    singles = rng.uniform(0.1 * capacity, 0.8 * capacity, QUERIES)
    start = time.perf_counter()
    for load in singles.tolist():
        index.query_refined(load)
    single_per_query = (time.perf_counter() - start) / QUERIES

    batched = rng.uniform(0.1 * capacity, 0.8 * capacity, QUERIES)
    start = time.perf_counter()
    index.query_many(batched)
    batched_per_query = (time.perf_counter() - start) / QUERIES

    return _Entry(
        n=n,
        events=index.event_count,
        statuses=index.status_count,
        queries=QUERIES,
        build_seconds=build,
        baseline_build_seconds=baseline,
        speedup=speedup,
        query_seconds_cold=cold,
        query_seconds_single=single_per_query,
        query_seconds_batched=batched_per_query,
        identical_answers=identical,
        exact_gap=_exact_gap(index, spec),
    )


def _measure_sharded(n: int, pods: int, exact_max: int) -> _ShardedEntry:
    spec = _instance(n)
    start = time.perf_counter()
    index = PodShardedIndex(pods=pods, **spec)
    build = time.perf_counter() - start

    capacity = sum(spec["capacities"])
    rng = np.random.default_rng(SEED)
    # Fresh loads per phase so the shared memo never answers for the
    # timer (mirrors the monolithic sweep's protocol).
    singles = rng.uniform(0.1 * capacity, 0.8 * capacity, QUERIES)
    start = time.perf_counter()
    for load in singles.tolist():
        index.query_refined(load)
    single_per_query = (time.perf_counter() - start) / QUERIES

    batched = rng.uniform(0.1 * capacity, 0.8 * capacity, QUERIES)
    start = time.perf_counter()
    index.query_many(batched, skip_infeasible=True)
    batched_per_query = (time.perf_counter() - start) / QUERIES

    start = time.perf_counter()
    index.max_load(n * spec["w2"] * 0.6 - spec["rho"] * spec["t_min"])
    max_load_seconds = time.perf_counter() - start

    gap_loads = [frac * capacity for frac in GAP_FRACTIONS]
    exact = _exact_gap(index, spec) if n <= exact_max else None

    iterations = _anneal_iterations()
    gaps = []
    anneal_seconds = 0.0
    for load in gap_loads:
        try:
            reference = _power(spec, index.query_refined(load), load)
            start = time.perf_counter()
            result = anneal_on_set(
                load=load, seed=SEED, iterations=iterations, **spec
            )
            anneal_seconds += time.perf_counter() - start
        except InfeasibleError:
            continue
        gaps.append(_relative_gap(result.power, reference))
    if not gaps:
        raise AssertionError(f"n={n}: no feasible annealing gap load")

    return _ShardedEntry(
        n=n,
        pods=pods,
        statuses=index.status_count,
        queries=QUERIES,
        build_seconds=build,
        query_seconds_single=single_per_query,
        query_seconds_batched=batched_per_query,
        max_load_seconds=max_load_seconds,
        exact_gap=exact,
        anneal_gap=float(np.mean(gaps)),
        anneal_seconds=anneal_seconds,
    )


def run_consolidation_scale() -> list[_Entry]:
    baseline_max = _baseline_max()
    return [_measure(n, baseline_max) for n in _sizes()]


def run_sharded_scale() -> list[_ShardedEntry]:
    exact_max = _exact_max()
    return [
        _measure_sharded(n, pods, exact_max)
        for n, pods in _sharded_sizes()
    ]


def _document(
    entries: list[_Entry], sharded: list[_ShardedEntry]
) -> dict:
    document = {
        "schema": obs.SCHEMA_VERSION,
        "kind": "consolidation-scale",
        "seed": SEED,
        "entries": [vars(entry) for entry in entries],
    }
    if sharded:
        document["sharded"] = [vars(entry) for entry in sharded]
    return document


def _table(entries: list[_Entry], sharded: list[_ShardedEntry]) -> str:
    lines = [
        "consolidation scale: vectorized Algorithm 1 vs pure-Python"
        " baseline",
        f"{'n':>5} {'events':>8} {'statuses':>10} {'build':>10} "
        f"{'baseline':>10} {'speedup':>8} {'cold':>10} {'query':>10} "
        f"{'batched':>10} {'exact gap':>10}",
    ]
    for e in entries:
        baseline = (
            "-" if e.baseline_build_seconds is None
            else f"{e.baseline_build_seconds:.3f}s"
        )
        speedup = "-" if e.speedup is None else f"{e.speedup:.1f}x"
        lines.append(
            f"{e.n:>5} {e.events:>8} {e.statuses:>10} "
            f"{e.build_seconds:>9.3f}s {baseline:>10} {speedup:>8} "
            f"{e.query_seconds_cold:>9.3f}s "
            f"{1e6 * e.query_seconds_single:>8.1f}us "
            f"{1e6 * e.query_seconds_batched:>8.1f}us "
            f"{'-' if e.exact_gap is None else f'{e.exact_gap:+.2%}':>10}"
        )
    if sharded:
        lines += [
            "",
            "pod-sharded index (shared-ratio cross-pod queries)",
            f"{'n':>5} {'pods':>5} {'statuses':>10} {'build':>10} "
            f"{'query':>10} {'batched':>10} {'exact gap':>10} "
            f"{'anneal gap':>11}",
        ]
        for s in sharded:
            exact = "-" if s.exact_gap is None else f"{s.exact_gap:+.2%}"
            lines.append(
                f"{s.n:>5} {s.pods:>5} {s.statuses:>10} "
                f"{s.build_seconds:>9.3f}s "
                f"{1e3 * s.query_seconds_single:>8.1f}ms "
                f"{1e3 * s.query_seconds_batched:>8.1f}ms "
                f"{exact:>10} {s.anneal_gap:>+10.2%}"
            )
    return "\n".join(lines)


RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def test_consolidation_scale(benchmark, emit):
    entries = benchmark.pedantic(
        run_consolidation_scale, rounds=1, iterations=1
    )
    sharded = run_sharded_scale()
    document = _document(entries, sharded)
    obs.write_artifact(RESULTS_DIR / "consolidation_scale.json", document)
    emit("consolidation_scale", _table(entries, sharded))

    for entry in sharded:
        # The sweep and the exact per-k scan solve one problem, so any
        # gap beyond rounding means a real divergence.
        if entry.exact_gap is not None:
            assert abs(entry.exact_gap) <= EXACT_GAP_TOL, (
                f"n={entry.n}/pods={entry.pods}: sharded power drifts "
                f"{entry.exact_gap:+.2e} from the exact scan"
            )
        # Annealing roams all same-size subsets, so it may legitimately
        # beat the prefix scans where capacities bind (negative gap) —
        # but a large gap either way means one of the two is broken.
        assert -0.05 <= entry.anneal_gap <= 0.5, (
            f"n={entry.n}/pods={entry.pods}: anneal gap "
            f"{entry.anneal_gap:+.2%} out of the sane band"
        )
        assert entry.query_seconds_batched <= 2.0 * max(
            entry.query_seconds_single, 1e-7
        )

    for entry in entries:
        # Where the baseline ran, it agreed with the index byte for byte.
        assert entry.identical_answers in (True, None)
        assert entry.exact_gap is None or abs(
            entry.exact_gap
        ) <= EXACT_GAP_TOL, (
            f"n={entry.n}: index power drifts {entry.exact_gap:+.2e} "
            "from the exact scan"
        )
        # Batching must never lose to the one-at-a-time loop by much
        # (it shares the same scan; the win is amortized dispatch).
        assert entry.query_seconds_batched <= 2.0 * max(
            entry.query_seconds_single, 1e-7
        )
        if entry.n >= SPEEDUP_AT and entry.speedup is not None:
            assert entry.speedup >= SPEEDUP_FLOOR, (
                f"n={entry.n}: vectorized build only "
                f"{entry.speedup:.1f}x over the Python baseline"
            )
