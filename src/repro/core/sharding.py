"""Pod-sharded consolidation: Algorithm 1 beyond n ≈ 500.

The paper's pre-processing is O(n^3 log n) — vectorizing bought ~40x
(see ``benchmarks/bench_consolidation_scale.py``) but the cubic term
still walls out near n = 500 (~8.5 s build, 31.7M status rows).  This
module takes the system from hundreds to thousands of machines by
partitioning the room into *pods* (contiguous machine-id ranges, the
same grouping rule as :class:`repro.testbed.multirack.MultiRackConfig`
racks and the thermal zones in :mod:`repro.thermal.zonal`) and building
one small :class:`~repro.core.consolidation.ConsolidationIndex` per pod:
the offline cost drops from ``n^3`` to ``sum_p m_p^3`` — a factor of
``(n / m)^2`` for pods of size ``m``.

Queries stay (essentially) exact because the paper's particle view
(Eq. 26) composes across any partition: at a fixed ratio ``t`` the best
global size-``k`` set is the ``k`` right-most particles, and the ``k``
right-most particles of a partitioned room are, pod by pod, prefixes of
each pod's own tabulated order at ``t``.  A global query therefore

1. looks up each pod's order row for ``t`` in O(log m_p) (the pod's own
   Algorithm-2 search over event times),
2. *water-fills* the global budget across the pods — a greedy merge of
   the pods' presorted coordinate lists, exact because each pod's
   ``maxL(k_p, t)`` curve is concave in ``k_p`` (prefix sums of a
   descending sort), so marginal returns decrease and the greedy split
   is the water-filling optimum (cf. Rostami et al., "Linearized Data
   Center Workload and Cooling Management"),
3. runs the Dinkelbach ratio iteration of
   :func:`repro.core.select.select_subset` on the merged prefix sums to
   find each cardinality's optimal shared ratio ``t*(k)``, scanning
   ``k`` with an exact pruning bound (any candidate of size ``k`` costs
   at least ``k*w2 - rho*t_max + theta0``, which is increasing in
   ``k``), and
4. when the water-filling cut is *near-flat* (several pods offer almost
   identical marginal coordinates, so greedy tie-breaking is
   ill-conditioned), re-solves the split as a small LP over per-pod
   segment variables (``scipy.optimize.linprog`` when available; the
   greedy split is kept otherwise — the LP exists for robustness on
   degenerate curves, the two agree whenever the cut is unique).

Because the cooling term ``-rho * t`` of Eq. 23 is *global* (one cooler
serves every pod), per-pod costs must never be summed independently —
that would double-count the cooler.  The shared-ratio formulation above
is what makes the decomposition sound: every pod operates at the same
``t``, and each pod's share of the load is its prefix coordinate sum at
that ratio.

The module also provides a seeded simulated-annealing baseline over
on-sets (:func:`anneal_on_set`, per the metaheuristic line of Arroba et
al.) used by the scale benchmark to report the optimality gap at sizes
where the monolithic index is the ground truth (n <= 500) and beyond it
(n = 2000, 5000).

``PodShardedIndex`` mirrors the monolithic index's query surface
(``query_refined`` / ``query_many`` / ``status_count`` / ``cache_key``),
so :class:`~repro.core.optimizer.JointOptimizer` exposes it as
``selection="sharded"`` and the serving daemon, controller, and fault
campaigns inherit it unchanged.
"""

from __future__ import annotations

import hashlib
import math
import os
import pathlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, InfeasibleError
from repro.core.consolidation import (
    ConsolidationIndex,
    consolidation_cache_key,
)
from repro.core.select import Pair, _validate_pairs

#: Default pod size targeted when the caller does not pick a pod count:
#: small enough that a pod build is milliseconds, large enough that the
#: cross-pod merge stays short.
DEFAULT_POD_MACHINES = 48

#: Bounded memo of query results (the index is immutable).
_MEMO_CAPACITY = 4096

#: Bounded cache of per-ratio merge evaluations.
_EVAL_CAPACITY = 32

#: Bounded cache of per-(pod, row) order-aligned coefficient arrays.
_ROW_CAPACITY = 4096

#: Relative marginal-coordinate gap below which the water-filling cut
#: counts as near-flat and the split is re-solved as a small LP.
DEFAULT_LP_TOLERANCE = 1e-9


def contiguous_pods(n: int, pods: int) -> list[range]:
    """Partition machine ids ``0..n-1`` into ``pods`` contiguous ranges.

    Mirrors the rack rule of
    :meth:`repro.testbed.multirack.MultiRackConfig.rack_members`
    (contiguous ids, sizes differing by at most one), so a pod boundary
    can be aligned with physical racks by choosing ``pods = n_racks``.
    """
    if n < 1:
        raise ConfigurationError(f"need at least one machine, got {n}")
    if not 1 <= pods <= n:
        raise ConfigurationError(
            f"pod count must be in [1, {n}], got {pods}"
        )
    base, extra = divmod(n, pods)
    ranges: list[range] = []
    start = 0
    for p in range(pods):
        size = base + (1 if p < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


def default_pod_count(n: int) -> int:
    """Pod count targeting :data:`DEFAULT_POD_MACHINES` machines per pod."""
    return max(1, math.ceil(n / DEFAULT_POD_MACHINES))


def subset_power(
    pairs: Sequence[Pair],
    subset: Sequence[int],
    load: float,
    w2: float,
    rho: float,
    theta0: float = 0.0,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
    capacities: Optional[Sequence[float]] = None,
) -> float:
    """Exact Eq. 23 power of running ``load`` on ``subset``.

    The subset's own achievable ratio ``t(S) = (sum a - L) / sum b`` is
    clamped into the supply band exactly like
    :meth:`ConsolidationIndex.query_refined` scores its candidates: a
    ratio above ``t_max`` runs the cooler at its warmest, one below
    ``t_min`` pins it at the band edge.  Used by the equivalence tests
    and the scale benchmark to compare answers from different solvers
    on one scale.

    Raises
    ------
    InfeasibleError
        If the subset is empty or lacks the capacity for ``load``.
    """
    ps = _validate_pairs(pairs)
    chosen = sorted(int(i) for i in subset)
    if not chosen:
        raise InfeasibleError("cannot serve load on an empty subset")
    if capacities is not None:
        cap = sum(capacities[i] for i in chosen)
        if cap + 1e-9 < load:
            raise InfeasibleError(
                f"subset capacity {cap:.3f} below load {load:.3f}"
            )
    sum_a = sum(ps[i][0] for i in chosen)
    sum_b = sum(ps[i][1] for i in chosen)
    t = (sum_a - load) / sum_b
    if t_min is not None and t < t_min:
        t = t_min if t_max is None else min(t_min, t_max)
    if t_max is not None:
        t = min(t, t_max)
    return len(chosen) * w2 - rho * t + theta0


def _pod_build_worker(spec: dict) -> dict:
    """Build one pod's tables in a worker process.

    Returns the column-oriented arrays (not the index object) so the
    payload pickles cheaply and the parent re-assembles via
    :meth:`ConsolidationIndex._from_tables`.
    """
    index = ConsolidationIndex(**spec)
    return {
        "event_t": index._event_t,
        "event_p": index._event_p,
        "event_q": index._event_q,
        "times": index._times,
        "orders_mat": index._orders_mat,
        "tab_row": index._tab_row,
        "tab_k": index._tab_k,
        "tab_lmax": index._tab_lmax,
    }


@dataclass(frozen=True)
class AnnealResult:
    """Outcome of one :func:`anneal_on_set` run."""

    on_ids: tuple[int, ...]
    power: float
    iterations: int
    accepted: int


def anneal_on_set(
    pairs: Sequence[Pair],
    load: float,
    w2: float,
    rho: float,
    theta0: float = 0.0,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
    capacities: Optional[Sequence[float]] = None,
    seed: int = 0,
    iterations: int = 20000,
) -> AnnealResult:
    """Seeded simulated annealing over on-set bitmasks.

    The metaheuristic baseline of the scale benchmark: single-flip
    moves, Metropolis acceptance on a geometric temperature schedule
    from ``w2`` down to ``1e-3 * w2``, O(1) incremental cost updates
    (the Eq. 23 cost depends on the subset only through ``k``,
    ``sum a``, ``sum b`` and the capacity sum).  Band and capacity
    violations are soft-penalized during the walk; only violation-free
    states are eligible as the returned best.  Deterministic per seed.

    Raises
    ------
    InfeasibleError
        If no feasible on-set was visited (including the greedy start).
    """
    ps = _validate_pairs(pairs)
    n = len(ps)
    if iterations < 1:
        raise ConfigurationError(
            f"iterations must be positive, got {iterations}"
        )
    a = np.asarray([p[0] for p in ps], dtype=np.float64)
    b = np.asarray([p[1] for p in ps], dtype=np.float64)
    caps = (
        None
        if capacities is None
        else np.asarray(capacities, dtype=np.float64)
    )
    t_floor = 0.0 if t_min is None else t_min
    # Penalty scales: steep enough that one load-unit of violation
    # dominates any achievable cost swing.
    cap_pen = 10.0 * (w2 + rho)
    band_pen = 10.0 * rho

    def cost(k: int, sa: float, sb: float, sc: float) -> tuple[float, bool]:
        if k == 0:
            return float("inf"), False
        t = (sa - load) / sb
        feasible = True
        penalty = 0.0
        if caps is not None and sc + 1e-9 < load:
            feasible = False
            penalty += cap_pen * (load - sc)
        if t_min is not None and t < t_min - 1e-12:
            feasible = False
            penalty += band_pen * (t_min - t)
        t_eff = max(t, t_floor)
        if t_max is not None:
            t_eff = min(t_eff, t_max)
        return k * w2 - rho * t_eff + theta0 + penalty, feasible

    # Greedy start: right-most particles at the band floor until the
    # load (and its capacity) are covered.
    order = np.argsort(-(a - t_floor * b), kind="stable")
    mask = np.zeros(n, dtype=bool)
    sa = sb = sc = 0.0
    k = 0
    covered = 0.0
    for i in order.tolist():
        mask[i] = True
        sa += a[i]
        sb += b[i]
        sc += float(caps[i]) if caps is not None else 0.0
        k += 1
        covered += float(a[i] - t_floor * b[i])
        if covered >= load and (caps is None or sc + 1e-9 >= load):
            break

    current, feasible = cost(k, sa, sb, sc)
    best_mask: Optional[np.ndarray] = mask.copy() if feasible else None
    best_power = current if feasible else float("inf")

    rng = np.random.default_rng(seed)
    flips = rng.integers(0, n, size=iterations)
    uniforms = rng.random(iterations)
    t_hot, t_cold = max(w2, 1e-9), max(1e-3 * w2, 1e-12)
    decay = (t_cold / t_hot) ** (1.0 / max(1, iterations - 1))
    temp = t_hot
    accepted = 0
    for step in range(iterations):
        i = int(flips[step])
        sign = -1.0 if mask[i] else 1.0
        nk = k + (1 if sign > 0 else -1)
        nsa = sa + sign * float(a[i])
        nsb = sb + sign * float(b[i])
        nsc = sc + (sign * float(caps[i]) if caps is not None else 0.0)
        candidate, feasible = cost(nk, nsa, nsb, nsc)
        delta = candidate - current
        if delta <= 0.0 or uniforms[step] < math.exp(
            -delta / max(temp, 1e-12)
        ):
            mask[i] = not mask[i]
            k, sa, sb, sc, current = nk, nsa, nsb, nsc, candidate
            accepted += 1
            if feasible and candidate < best_power - 1e-12:
                best_power = candidate
                best_mask = mask.copy()
        temp *= decay
    obs.count("sharding.anneal_runs")
    if best_mask is None:
        raise InfeasibleError(
            f"annealing found no feasible on-set for load {load}"
        )
    on_ids = tuple(int(i) for i in np.flatnonzero(best_mask))
    return AnnealResult(
        on_ids=on_ids,
        power=float(best_power),
        iterations=iterations,
        accepted=accepted,
    )


class PodShardedIndex:
    """Pod-partitioned Algorithm 1 with shared-ratio global queries.

    Parameters mirror :class:`ConsolidationIndex`, plus:

    Parameters
    ----------
    pods:
        Number of contiguous pods (default: one pod per
        :data:`DEFAULT_POD_MACHINES` machines).  ``pods=1`` degenerates
        to a single monolithic index behind the sharded query path.
    cache_dir:
        Optional directory of persisted pod indexes.  Each pod's tables
        are keyed by their own content hash
        (:func:`~repro.core.consolidation.consolidation_cache_key`) and
        round-tripped through the standard ``.npz`` documents of
        :mod:`repro.core.serialization` — so pods are shared between a
        sharded and any other index over the same machine subset, and
        corrupt files are rebuilt, never trusted.
    max_workers:
        Process-pool width for the parallel pod builds (default: the
        machine's CPU count).  Builds fall back to serial, with the
        identical result, when worker processes cannot be spawned
        (restricted sandboxes) or only one pod needs building.
    lp_tolerance:
        Relative marginal gap under which the water-filling cut counts
        as near-flat and the split is re-solved as a small LP.

    Unlike the monolithic index, the supply band is mandatory: the
    shared-ratio scan prices candidates against ``t_max`` to prune the
    cardinality sweep exactly, and brackets the sweep at ``t_min``.
    (:class:`~repro.core.optimizer.JointOptimizer` always derives the
    band from the cooler's achievable supply range.)
    """

    def __init__(
        self,
        pairs: Sequence[Pair],
        w2: float,
        rho: float,
        theta0: float = 0.0,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
        capacities: Optional[Sequence[float]] = None,
        pods: Optional[int] = None,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        max_workers: Optional[int] = None,
        lp_tolerance: float = DEFAULT_LP_TOLERANCE,
    ) -> None:
        self.pairs = _validate_pairs(pairs)
        n = len(self.pairs)
        if w2 < 0.0:
            raise ConfigurationError(f"w2 must be non-negative, got {w2}")
        if rho <= 0.0:
            raise ConfigurationError(f"rho must be positive, got {rho}")
        if t_min is None or t_max is None:
            raise ConfigurationError(
                "the sharded index needs both t_min and t_max: the "
                "shared-ratio scan brackets candidates against the "
                "supply band"
            )
        if not 0.0 <= t_min <= t_max:
            raise ConfigurationError(
                f"need 0 <= t_min <= t_max, got [{t_min}, {t_max}]"
            )
        if capacities is not None and len(capacities) != n:
            raise ConfigurationError(
                f"{n} pairs but {len(capacities)} capacities"
            )
        if lp_tolerance < 0.0:
            raise ConfigurationError(
                f"lp_tolerance must be non-negative, got {lp_tolerance}"
            )
        self.w2 = float(w2)
        self.rho = float(rho)
        self.theta0 = float(theta0)
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.capacities = (
            None if capacities is None else [float(c) for c in capacities]
        )
        self.lp_tolerance = float(lp_tolerance)
        self.cache_dir = (
            None if cache_dir is None else pathlib.Path(cache_dir)
        )
        self.max_workers = max_workers
        pod_count = default_pod_count(n) if pods is None else int(pods)
        self.pod_ranges = contiguous_pods(n, pod_count)
        self._a = np.asarray([p[0] for p in self.pairs], dtype=np.float64)
        self._b = np.asarray([p[1] for p in self.pairs], dtype=np.float64)
        self._caps = (
            None
            if self.capacities is None
            else np.asarray(self.capacities, dtype=np.float64)
        )
        # Prefix sums of the descending-sorted capacities: no k-subset
        # holds more than the k largest capacities, so this lower-bounds
        # the feasible cardinality for any load and lets the query scan
        # skip thousands of hopeless sizes at high utilization.
        self._cap_desc_cum = (
            None
            if self._caps is None
            else np.cumsum(np.sort(self._caps)[::-1])
        )
        self.indexes: list[ConsolidationIndex] = []
        self._build_pods()
        # Bounded caches (never persisted).
        self._row_cache: dict[tuple[int, int], tuple] = {}
        self._eval_cache: dict[float, tuple] = {}
        self._memo: dict[float, tuple[int, ...]] = {}

    # ------------------------------------------------------------------ #
    # Offline: per-pod Algorithm 1, in parallel, through the .npz cache
    # ------------------------------------------------------------------ #

    def _pod_spec(self, ids: range) -> dict:
        return dict(
            pairs=[self.pairs[i] for i in ids],
            w2=self.w2,
            rho=self.rho,
            theta0=self.theta0,
            t_min=self.t_min,
            t_max=self.t_max,
            capacities=(
                None
                if self.capacities is None
                else [self.capacities[i] for i in ids]
            ),
        )

    def _build_pods(self) -> None:
        from repro.core.serialization import (
            load_consolidation_index,
            save_consolidation_index,
        )

        specs = [self._pod_spec(ids) for ids in self.pod_ranges]
        built: list[Optional[ConsolidationIndex]] = [None] * len(specs)
        pending: list[int] = []
        with obs.timed("sharding/build"):
            for p, spec in enumerate(specs):
                if self.cache_dir is None:
                    pending.append(p)
                    continue
                key = consolidation_cache_key(**spec)
                path = self.cache_dir / f"consolidation-{key[:24]}.npz"
                if path.exists():
                    try:
                        built[p] = load_consolidation_index(
                            path, expected_key=key
                        )
                        obs.count("sharding.pod_cache_hits")
                        continue
                    except ConfigurationError:
                        obs.count("sharding.pod_cache_invalid")
                pending.append(p)
            if pending:
                obs.count("sharding.pod_builds", len(pending))
                tables = self._build_tables(
                    [specs[p] for p in pending]
                )
                for p, pod_tables in zip(pending, tables):
                    built[p] = ConsolidationIndex._from_tables(
                        **specs[p], **pod_tables
                    )
                if self.cache_dir is not None:
                    self.cache_dir.mkdir(parents=True, exist_ok=True)
                    for p in pending:
                        index = built[p]
                        path = self.cache_dir / (
                            f"consolidation-{index.cache_key[:24]}.npz"
                        )
                        save_consolidation_index(index, path)
            self.indexes = [index for index in built if index is not None]
            obs.set_span_attributes(
                machines=len(self.pairs),
                pods=self.pod_count,
                built=len(pending),
                statuses=self.status_count,
            )
        obs.set_gauge("sharding.pods", self.pod_count)
        obs.set_gauge("sharding.statuses", self.status_count)

    def _build_tables(self, specs: list[dict]) -> list[dict]:
        """Build the pending pods' tables, in parallel when possible.

        Worker-process failures (sandboxes that forbid ``fork``/spawn,
        unpicklable edge cases, broken pools) degrade to the serial
        build — same tables, just slower — rather than failing the
        caller.
        """
        workers = self.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        workers = min(int(workers), len(specs))
        if workers > 1:
            try:
                from concurrent.futures import ProcessPoolExecutor
                from concurrent.futures.process import BrokenProcessPool

                with ProcessPoolExecutor(max_workers=workers) as pool:
                    tables = list(pool.map(_pod_build_worker, specs))
                obs.count("sharding.parallel_pod_builds", len(specs))
                return tables
            except (OSError, ValueError, RuntimeError, ImportError,
                    BrokenProcessPool, NotImplementedError):
                obs.count("sharding.parallel_build_fallbacks")
        return [_pod_build_worker(spec) for spec in specs]

    # ------------------------------------------------------------------ #
    # Structure facts (mirroring the monolithic surface)
    # ------------------------------------------------------------------ #

    @property
    def pod_count(self) -> int:
        """Number of pods the machines are partitioned into."""
        return len(self.pod_ranges)

    @property
    def event_count(self) -> int:
        """Total pairwise passing events across the pods."""
        return sum(index.event_count for index in self.indexes)

    @property
    def status_count(self) -> int:
        """Total tabulated statuses across the pods (``sum_p m_p^3``
        scale, versus the monolithic ``n^3``)."""
        return sum(index.status_count for index in self.indexes)

    @property
    def largest_pod(self) -> int:
        """Machines in the largest pod."""
        return max(len(ids) for ids in self.pod_ranges)

    @property
    def cache_key(self) -> str:
        """Content hash over the pod keys and the pod boundaries."""
        digest = hashlib.sha256()
        digest.update(b"repro-pod-sharded-index")
        digest.update(str([len(ids) for ids in self.pod_ranges]).encode())
        for index in self.indexes:
            digest.update(index.cache_key.encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Online: shared-ratio merge over the pods' tabulated orders
    # ------------------------------------------------------------------ #

    def _pod_row(self, p: int, t: float) -> tuple:
        """Order-aligned ``(ids, a, b, cap)`` of pod ``p`` at ratio ``t``.

        The pod's own Algorithm-2 binary search over its event times
        finds the order row valid at ``t``; the pod's coefficients are
        then aligned to that order once and cached, so repeated ratios
        (bisection ladders, the Dinkelbach iteration) reuse them.
        """
        index = self.indexes[p]
        row = int(
            np.searchsorted(index._times, t, side="right")
        ) - 1
        row = max(row, 0)
        key = (p, row)
        cached = self._row_cache.get(key)
        if cached is None:
            order = index._orders_mat[row]
            start = self.pod_ranges[p].start
            cached = (
                order.astype(np.int64) + start,
                index._a[order],
                index._b[order],
                None if self._caps is None
                else self._caps[order + start],
            )
            if len(self._row_cache) >= _ROW_CAPACITY:
                self._row_cache.pop(next(iter(self._row_cache)))
            self._row_cache[key] = cached
        return cached

    def _evaluate(self, t: float):
        """Water-filling merge of every pod's order at ratio ``t``.

        Concatenates the pods' presorted (descending-coordinate)
        segments and stably sorts the merged marginals — the greedy
        fill over concave per-pod ``maxL`` curves.  Returns the merged
        ``(ids, pod_of, cum_a, cum_b, cum_x, cum_cap, x_sorted)``:
        entry ``k - 1`` of each cumulative array describes the globally
        best size-``k`` subset at ``t``.
        """
        t = float(t)
        hit = self._eval_cache.get(t)
        if hit is not None:
            return hit
        parts = [self._pod_row(p, t) for p in range(self.pod_count)]
        ids = np.concatenate([part[0] for part in parts])
        a = np.concatenate([part[1] for part in parts])
        b = np.concatenate([part[2] for part in parts])
        pod_of = np.concatenate(
            [
                np.full(len(part[0]), p, dtype=np.int32)
                for p, part in enumerate(parts)
            ]
        )
        x = a - t * b
        # Stable sort on the negated marginals: ties go to the lower
        # concatenated position, i.e. the lower pod then the pod's own
        # (lower-id-first) tie rule — the monolithic order's tie rule.
        merged = np.argsort(-x, kind="stable")
        x_sorted = x[merged]
        cum_a = np.cumsum(a[merged])
        cum_b = np.cumsum(b[merged])
        cum_x = np.cumsum(x_sorted)
        if self._caps is None:
            cum_cap = None
        else:
            cap = np.concatenate([part[3] for part in parts])
            cum_cap = np.cumsum(cap[merged])
        result = (
            ids[merged], pod_of[merged], cum_a, cum_b, cum_x, cum_cap,
            x_sorted,
        )
        if len(self._eval_cache) >= _EVAL_CAPACITY:
            self._eval_cache.pop(next(iter(self._eval_cache)))
        self._eval_cache[t] = result
        return result

    def _topk_sums(
        self, t: float, k: int
    ) -> tuple[float, float, Optional[float]]:
        """Aggregates ``(sum a, sum b, sum cap)`` of the global top-``k``
        at ratio ``t``.

        The ratio iteration needs only these sums, never the member
        order, so they come from an O(n) selection
        (``numpy.argpartition``) on the raw coordinate array — the full
        cross-pod merge is reserved for the cached band-edge rows and
        the final materialization.  Any tie set at the cut yields the
        same ``maxL`` value, so the fixpoint below is unaffected by
        partition tie-breaking.
        """
        x = self._a - t * self._b
        if k < x.shape[0]:
            idx = np.argpartition(-x, k - 1)[:k]
            sum_a = float(self._a[idx].sum())
            sum_b = float(self._b[idx].sum())
            sum_cap = (
                None if self._caps is None else float(self._caps[idx].sum())
            )
        else:
            sum_a = float(self._a.sum())
            sum_b = float(self._b.sum())
            sum_cap = (
                None if self._caps is None else float(self._caps.sum())
            )
        return sum_a, sum_b, sum_cap

    def _ratio_fixpoint(
        self, k: int, load: float, t0: float
    ) -> tuple[float, Optional[float]]:
        """Dinkelbach iteration for the optimal shared ratio at size ``k``.

        ``g_k(t) = maxL(k, t) - load`` is convex and strictly
        decreasing (a pointwise max of decreasing linear functions), so
        the iteration ``t <- (sum a - load) / sum b`` over the current
        top-``k`` converges to its unique root ``t*(k)`` from any start
        (the :func:`~repro.core.select.select_subset` argument).
        Returns ``(t_star, capacity_of_the_top_k_at_t_star)``.
        """
        t = t0
        sum_cap = None
        for _ in range(80):
            sum_a, sum_b, sum_cap = self._topk_sums(t, k)
            t_new = (sum_a - load) / sum_b
            if abs(t_new - t) <= 1e-12 * max(1.0, abs(t)):
                return t_new, sum_cap
            t = t_new
        return t, sum_cap

    def _near_flat_cut(self, x_sorted: np.ndarray, k: int) -> bool:
        """Is the water-filling cut after position ``k`` near-flat?"""
        if k >= x_sorted.shape[0]:
            return False
        gap = float(x_sorted[k - 1] - x_sorted[k])
        scale = max(1.0, abs(float(x_sorted[k - 1])))
        return gap <= self.lp_tolerance * scale

    def _lp_split(self, t: float, k: int) -> Optional[np.ndarray]:
        """Re-solve the cross-pod split as a small LP.

        Maximize the merged coordinate sum over fractional per-pod
        prefix lengths — the piecewise-linear concave relaxation of the
        water-filling problem (one bounded variable per candidate
        marginal, a single coupling row ``sum y = k``).  Because each
        pod's marginals are non-increasing, the LP optimum fills every
        pod's prefix in order, so rounding the per-pod sums back to
        integers (largest fractional remainders first) reproduces a
        valid split.  Returns per-pod counts, or ``None`` when scipy is
        unavailable or the solver fails — the greedy split stands.
        """
        try:
            from scipy.optimize import linprog
        except ImportError:
            obs.count("sharding.lp_unavailable")
            return None
        marginals = []
        labels = []
        for p in range(self.pod_count):
            _, a, b, _ = self._pod_row(p, t)
            take = min(len(a), k)
            if take == 0:
                continue
            marginals.append(a[:take] - t * b[:take])
            labels.append(np.full(take, p, dtype=np.int64))
        coeffs = np.concatenate(marginals)
        pods = np.concatenate(labels)
        result = linprog(
            c=-coeffs,
            A_eq=np.ones((1, coeffs.shape[0])),
            b_eq=[float(k)],
            bounds=[(0.0, 1.0)] * coeffs.shape[0],
            method="highs",
        )
        if not result.success:
            obs.count("sharding.lp_failures")
            return None
        obs.count("sharding.lp_splits")
        fractional = np.bincount(
            pods, weights=result.x, minlength=self.pod_count
        )
        counts = np.floor(fractional + 1e-9).astype(np.int64)
        counts = np.minimum(
            counts,
            np.asarray([len(ids) for ids in self.pod_ranges]),
        )
        short = k - int(counts.sum())
        if short > 0:
            remainders = fractional - counts
            for p in np.argsort(-remainders, kind="stable")[:short]:
                counts[p] += 1
        return counts

    def _materialize(self, t: float, k: int) -> list[int]:
        """The global ON set at ``(t, k)``: each pod's order prefix.

        The greedy merge already names the members; on a near-flat cut
        the per-pod counts are re-derived by the LP and each pod is
        queried for its ``k_p``-prefix instead.
        """
        ids, pod_of, _, _, _, _, x_sorted = self._evaluate(t)
        if self._near_flat_cut(x_sorted, k):
            counts = self._lp_split(t, k)
            if counts is not None:
                chosen: list[int] = []
                for p, k_p in enumerate(counts.tolist()):
                    if k_p == 0:
                        continue
                    gids = self._pod_row(p, t)[0]
                    chosen.extend(int(i) for i in gids[:k_p])
                if len(chosen) == k:
                    return sorted(chosen)
        return sorted(int(i) for i in ids[:k])

    def query_refined(
        self, load: float, window: Optional[int] = None
    ) -> list[int]:
        """The sharded allocation query (mirrors
        :meth:`ConsolidationIndex.query_refined` semantics).

        Scans candidate cardinalities with each size's optimal shared
        ratio (Dinkelbach on the merged pod prefixes), prunes with the
        exact bound ``k * w2 - rho * t_max + theta0 <= cost(k)``, and
        mirrors the monolithic band handling: candidates whose ratio
        falls below ``t_min`` are kept only as a band-clamped fallback,
        and capacity-infeasible prefixes are skipped.  ``window`` is
        accepted for interface parity and ignored — the pruned sweep is
        already exact, there is no re-scoring window to size.

        Raises
        ------
        InfeasibleError
            If no on-set of any size can serve ``load``, or every
            candidate lacks the physical capacity for it.
        """
        del window  # interface parity with the monolithic index
        with obs.timed("sharding/query"):
            obs.count("sharding.queries")
            chosen = self._query(float(load))
            obs.set_span_attributes(load=float(load), machines_on=len(chosen))
        return chosen

    def query(self, load: float) -> list[int]:
        """Alias of :meth:`query_refined` (the sharded path has no
        unrefined variant: the shared-ratio scan is the query)."""
        return self.query_refined(load)

    def _query(self, load: float) -> list[int]:
        memo = self._memo.get(load)
        if memo is not None:
            obs.count("sharding.query_memo_hits")
            return list(memo)
        chosen = self._query_scan(load)
        if len(self._memo) >= _MEMO_CAPACITY:
            self._memo.pop(next(iter(self._memo)))
        self._memo[load] = tuple(chosen)
        return chosen

    def _query_scan(self, load: float) -> list[int]:
        n = len(self.pairs)
        # Feasibility mirror of the monolithic table search: every
        # particle coordinate decreases with t, so the largest
        # tabulated Lmax anywhere is the best prefix sum at t = 0.
        cum_x0 = self._evaluate(0.0)[4]
        if load >= float(np.max(cum_x0)):
            raise InfeasibleError(
                f"no status can serve load {load}; cluster too small"
            )
        # No subset of size k holds more capacity than the k largest
        # capacities: start every sweep at that lower bound.
        k_cap = 1
        if self._cap_desc_cum is not None:
            k_cap = int(
                np.searchsorted(self._cap_desc_cum, load - 1e-9)
            ) + 1
            if k_cap > n:
                raise InfeasibleError(
                    f"no candidate subset has the capacity for load {load}"
                )
        # In-band candidates: sizes whose prefix at the band floor can
        # carry the load (concave prefix sums => a contiguous range).
        cum_x_floor = self._evaluate(self.t_min)[4]
        viable = np.flatnonzero(cum_x_floor >= load - 1e-9)
        best_k = best_t = None
        best_power = float("inf")
        if viable.size:
            k_lo, k_hi = int(viable[0]) + 1, int(viable[-1]) + 1
            k_lo = max(k_lo, k_cap)
            t_warm = self.t_min
            for k in range(k_lo, k_hi + 1):
                floor_power = k * self.w2 - self.rho * self.t_max + self.theta0
                if floor_power > best_power - 1e-12:
                    break  # exact prune: the bound only grows with k
                t_star, sum_cap = self._ratio_fixpoint(k, load, t_warm)
                t_warm = max(self.t_min, t_star)
                if sum_cap is not None and sum_cap + 1e-9 < load:
                    continue
                if t_star < self.t_min - 1e-12:
                    continue  # numeric edge: fell out of band
                t_eff = min(t_star, self.t_max)
                power = k * self.w2 - self.rho * t_eff + self.theta0
                if power < best_power - 1e-12:
                    best_power = power
                    best_k, best_t = k, t_star
        if best_k is not None:
            return self._materialize(best_t, best_k)
        # Band-clamped fallback, mirroring the monolithic refined scan:
        # below-band candidates are servable with the cooler pinned at
        # the band edge; their cost grows with k, so the smallest
        # capacity-feasible size wins.
        for k in range(k_cap, n + 1):
            t_star, sum_cap = self._ratio_fixpoint(k, load, self.t_min)
            if sum_cap is not None and sum_cap + 1e-9 < load:
                continue
            obs.count("sharding.query_band_clamped")
            return self._materialize(t_star, k)
        raise InfeasibleError(
            f"no candidate subset has the capacity for load {load}"
        )

    def query_many(
        self,
        loads: Iterable[float],
        refined: bool = True,
        window: Optional[int] = None,
        skip_infeasible: bool = False,
    ) -> list[Optional[list[int]]]:
        """Batched sharded queries (the :meth:`ConsolidationIndex.query_many`
        contract: duplicates answered once, shared caches, per-entry
        ``None`` degradation under ``skip_infeasible``).

        ``refined`` and ``window`` are accepted for interface parity;
        the sharded query has a single (refined) semantics.
        """
        del refined, window
        try:
            values = np.asarray(
                loads if isinstance(loads, np.ndarray) else list(loads),
                dtype=np.float64,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"loads must be numeric: {exc}"
            ) from exc
        if values.ndim != 1:
            raise ConfigurationError("loads must be one-dimensional")
        if values.shape[0] == 0:
            return []
        with obs.timed("sharding/query_many"):
            obs.count("sharding.query_many_queries", values.shape[0])
            uniq, inverse = np.unique(values, return_inverse=True)
            answers: list[Optional[tuple[int, ...]]] = []
            for load in uniq.tolist():
                try:
                    answers.append(tuple(self._query(load)))
                except InfeasibleError:
                    if not skip_infeasible:
                        raise
                    answers.append(None)
            obs.set_span_attributes(
                queries=int(values.shape[0]), distinct=int(uniq.shape[0])
            )
        return [
            None if answers[j] is None else list(answers[j])
            for j in inverse
        ]

    def max_load(self, power_budget: float) -> float:
        """The paper's ``maxL`` across pods: the largest load servable
        under ``power_budget``.

        For a ratio ``t`` the budget affords
        ``k_max(t) = floor((P_b - theta0 + rho * t) / w2)`` machines,
        and the servable load is the merged top-``k`` coordinate sum
        (capacity-capped).  ``k_max`` steps up while coordinates shrink
        as ``t`` grows, so the optimum sits at a step boundary: the
        scan evaluates the band floor plus every boundary in the band —
        at most ``rho * (t_max - t_min) / w2 + 2`` merge evaluations.

        Raises
        ------
        InfeasibleError
            If the budget cannot power even one machine anywhere in
            the band.
        """
        n = len(self.pairs)
        slack = power_budget - self.theta0
        candidates = [self.t_min, self.t_max]
        j_lo = math.ceil((slack + self.rho * self.t_min) / self.w2)
        j_hi = math.floor((slack + self.rho * self.t_max) / self.w2)
        for j in range(max(j_lo, 1), j_hi + 1):
            t_j = (j * self.w2 - slack) / self.rho
            if self.t_min < t_j <= self.t_max:
                candidates.append(t_j)
        best = -float("inf")
        for t in candidates:
            k_max = math.floor((slack + self.rho * t) / self.w2 + 1e-9)
            k_max = min(k_max, n)
            if k_max < 1:
                continue
            cum_x = self._evaluate(t)[4]
            cum_cap = self._evaluate(t)[5]
            served = cum_x[:k_max]
            if cum_cap is not None:
                served = np.minimum(served, cum_cap[:k_max])
            best = max(best, float(np.max(served)))
        if best == -float("inf"):
            raise InfeasibleError(
                f"budget {power_budget:.1f} W cannot power even one "
                "machine inside the supply band"
            )
        return best
