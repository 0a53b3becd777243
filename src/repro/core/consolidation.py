"""The paper's consolidation algorithms (Section III-B, Algorithms 1-2).

The reduction of Eq. 23 turns machine selection into a kinematics problem:
particle *i* starts at coordinate ``a_i = K_i`` and moves with velocity
``-b_i = -alpha_i / beta_i``, so its coordinate at time ``t`` is
``x_i(t) = a_i - t * b_i`` (Eq. 26).  For any fixed ``t``, the best set of
``k`` machines is simply the ``k`` right-most particles, and the particle
order only changes at the O(n^2) *events* where one particle passes
another.

- **Algorithm 1 (offline, O(n^3 log n))**: enumerate all events, record the
  particle order right after each one, and tabulate for every (event, k)
  the maximum servable load ``Lmax`` — the sum of the first ``k``
  coordinates.  Sort this ``allStatus`` table by ``Lmax``.
- **Algorithm 2 (online, O(log n))**: binary-search ``allStatus`` for the
  smallest ``Lmax`` exceeding the requested load; the ON set is the
  ``k``-prefix of the order recorded for that event.

The pre-processing is implemented as a vectorized numpy pipeline so the
index scales to hundreds of machines, and it is lazy: the build is one
pairwise broadcast over the upper triangle for the crossing times and
the sorted distinct event times they give.  Everything else Algorithm
1 holds is derived the first time something reads it and kept:

- order row ``r`` (a stable argsort of the coordinates just after
  ``times[r]``), by :meth:`ConsolidationIndex._order_row` — the refined
  sweep reads a handful of rows per distinct load;
- the whole order matrix, the chronological event arrays and the
  ``allStatus`` table, for the whole-table readers (``save``,
  ``order_timeline``, ``events``, Algorithm 2): one bulk fill runs the
  same row derivation, batched, over the rows no query has read.
  ``Lmax`` is a row-wise cumulative sum of the coordinates in each
  order, so the table (column-oriented: parallel row/``k``/``Lmax``
  arrays sorted by ``Lmax``) is derived on the first Algorithm-2
  lookup.

The event list and the order rows are the whole persisted document,
the same bytes whichever rows were derived first, and a loaded document
holds every row.  :class:`Status` objects and the ``orders`` mapping
are materialized lazily for API compatibility.  The equivalence tests
pin the rows, one at a time and in bulk, and the table bit for bit
against a pure-Python reference build of the paper's listing, kept as a
test oracle in ``tests/oracles/``.

Implementation notes (documented deviations, none affecting complexity):

- Orders are recomputed by sorting coordinates just *after* each event
  time instead of applying pairwise swaps.  This is robust to degenerate
  inputs (simultaneous crossings, duplicated pairs) where the paper's
  swap would require a generic-position assumption, and Algorithm 1's
  cost stays O(n^3 log n), dominated — exactly as in the paper — by
  sorting the O(n^3) statuses, but it is paid as it is read: the build
  costs O(n^2 log n) (the event times), a row O(n log n) on its first
  read, and the statuses at the first verbatim
  :meth:`ConsolidationIndex.query`.  The "just after" nudge is
  gap-aware: it never exceeds half the distance to the next event time,
  so near-coincident crossings are not skipped over (events closer than
  one ulp of the grid remain indistinguishable, as they must be in
  floating point).
- The paper stores a power budget ``P_b = k*w2 - rho*t + theta`` in each
  status "to simplify the explanation" while noting the algorithm never
  uses it; since ``theta`` depends on the not-yet-known query load, we
  store the load-independent part (``theta`` evaluated at ``L = 0``).
- Because statuses exist only at event times while the optimal ratio
  ``t*(k)`` generally falls between events, the strict Algorithm-2 lookup
  can return a near-optimal set on adversarial inputs.
  :meth:`ConsolidationIndex.query` is the faithful version;
  :meth:`ConsolidationIndex.query_refined` is what
  :class:`~repro.core.optimizer.JointOptimizer` uses by default.  It
  answers the way Sec. III-B poses the problem: ``select(A, k, L)``
  per cardinality ``k`` (Dinkelbach iteration on the tabulated order
  rows, see :class:`RatioSweep`), then the cheapest of the ``k``
  champions under Eq. 23 with the ratio clamped into the supply band;
  a certified bisection skips the sizes a top-``k`` sum proves dearer.
  The same sweep answers :class:`~repro.core.sharding.PodShardedIndex`
  queries, whose order rows come from its pods; a monolithic index is
  the one-pod case and reads its own Algorithm-1 rows.  Repeated loads
  hit a bounded result memo (see :meth:`RatioSweep.query_many`), and
  tests compare the answers with the brute-force reference.

Indexes are reusable across runs: :meth:`ConsolidationIndex.save` /
:meth:`ConsolidationIndex.load` round-trip the events and order rows
through a keyed ``.npz`` document (see :mod:`repro.core.serialization`),
and :class:`~repro.core.optimizer.JointOptimizer` transparently reuses
a cached index when given ``index_cache_dir``.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Mapping as _MappingABC
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, InfeasibleError
from repro.core.select import Pair, _validate_pairs

#: Relative nudge used to evaluate particle order strictly after an event.
_EPSILON_SCALE = 1e-9

#: Bounded memo of refined query results (the index is immutable, so a
#: repeated load always has the same answer).
_MEMO_CAPACITY = 4096

#: Bounded cache of per-ratio merge evaluations.
_EVAL_CAPACITY = 32

#: Bounded cache of per-(source, row) order-aligned coefficient arrays.
_ROW_CAPACITY = 4096

#: Bound on the cumulative sums the per-row top-k cache holds (three per
#: machine per cached order row: 16 MiB of float64).
_PREFIX_FLOATS = 1 << 21

#: Absolute tolerance of the sweep's "strictly cheaper" and band tests.
_COST_TOL = 1e-12

#: Absolute tolerance of the sweep's capacity test, in load units.
_CAP_TOL = 1e-9


@dataclass(frozen=True)
class Event:
    """Particle ``p`` passes particle ``q`` at time ``t`` (paper's
    ``Event`` class)."""

    t: float
    p: int
    q: int


@dataclass(frozen=True)
class Status:
    """One row of the paper's ``allStatus`` table.

    Attributes
    ----------
    t:
        Event time this status was tabulated at (0.0 for the initial
        order).
    k:
        Number of machines considered (prefix length).
    l_max:
        Maximum servable load at this ``(t, k)``: the sum of the ``k``
        largest coordinates ``x_i(t)``.
    p_b:
        The power budget bookkeeping value ``k*w2 - rho*t`` plus the
        load-independent part of ``theta`` (present for fidelity with the
        paper's listing; the query never reads it).
    """

    t: float
    k: int
    l_max: float
    p_b: float


class _StatusView(_SequenceABC):
    """Lazy, read-only view of the sorted ``allStatus`` table.

    Materializes :class:`Status` rows on demand from the column-oriented
    arrays, so iterating small indexes stays cheap while large indexes
    never pay for millions of dataclass allocations up front.
    """

    __slots__ = ("_index",)

    def __init__(self, index: "ConsolidationIndex") -> None:
        self._index = index

    def __len__(self) -> int:
        return self._index.status_count

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return [
                self._index._status_at(i)
                for i in range(*pos.indices(len(self)))
            ]
        i = int(pos)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"status index {pos} out of range")
        return self._index._status_at(i)


class _OrdersView(_MappingABC):
    """Lazy ``time -> order`` mapping over the order matrix."""

    __slots__ = ("_index",)

    def __init__(self, index: "ConsolidationIndex") -> None:
        self._index = index

    def __getitem__(self, t: float) -> list[int]:
        row = self._index._row_of_time(float(t))
        return self._index._order_row(row).tolist()

    def __iter__(self) -> Iterator[float]:
        return iter(float(t) for t in self._index._times)

    def __len__(self) -> int:
        return int(self._index._times.shape[0])


def consolidation_cache_key(
    pairs: Sequence[Pair],
    w2: float,
    rho: float,
    theta0: float = 0.0,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
    capacities: Optional[Sequence[float]] = None,
) -> str:
    """Content hash of everything the pre-processed tables depend on.

    Two parameter sets with the same key build byte-identical tables, so
    the key names a persisted index file unambiguously (used by
    :mod:`repro.core.serialization` and ``JointOptimizer``'s transparent
    index cache).
    """
    digest = hashlib.sha256()
    arr = np.ascontiguousarray(np.asarray(pairs, dtype=np.float64))
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    digest.update(np.float64([w2, rho, theta0]).tobytes())
    for bound in (t_min, t_max):
        if bound is None:
            digest.update(b"<none>")
        else:
            digest.update(np.float64(bound).tobytes())
    if capacities is None:
        digest.update(b"<none>")
    else:
        digest.update(
            np.ascontiguousarray(
                np.asarray(capacities, dtype=np.float64)
            ).tobytes()
        )
    return digest.hexdigest()


def _load_vector(loads: Iterable[float]) -> np.ndarray:
    """``loads`` as a float vector: the one input check of every query.

    Raises
    ------
    ConfigurationError
        If ``loads`` is not a one-dimensional numeric sequence, or holds
        a NaN.
    """
    try:
        values = np.asarray(
            loads if isinstance(loads, np.ndarray) else list(loads),
            dtype=np.float64,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"loads must be numeric: {exc}") from exc
    if values.ndim != 1:
        raise ConfigurationError("loads must be one-dimensional")
    if np.isnan(values).any():
        raise ConfigurationError("total load must be a number, got nan")
    return values


class RatioSweep:
    """The paper's per-cardinality query (Sec. III-B) over tabulated orders.

    For a fixed ratio ``t`` the best size-``k`` set is the ``k``
    right-most particles (Eq. 26), and a tabulated order row valid at
    ``t`` lists them first.  A query

    1. finds a size's optimal shared ratio ``t*(k)`` by the Dinkelbach
       iteration of :func:`repro.core.select.select_subset` (the paper's
       ``select(A, k, L)``),
    2. prices that champion with Eq. 23, its ratio clamped into the
       supply band; a certified bisection over the sizes
       (:meth:`_sweep_sizes`) runs this only where a top-``k`` sum
       cannot rule a whole block of sizes out, and
    3. returns the cheapest champion: the top ``k`` of the order rows
       merged at ``t*(k)``.

    Sizes whose champion falls below the band (``t* < t_min``) serve
    only as a band-clamped fallback, with the cooler pinned at the band
    edge; capacity-infeasible champions are skipped.  Without a band the
    sweep runs over ``t >= 0``.

    Subclasses supply the layout: :meth:`_sources`, the tabulated
    indexes whose order rows are merged at a ratio, and optionally
    :meth:`_topk_sums`, the top-``k`` aggregates the ratio iteration
    reads (pods partition their merged coordinates; a monolithic index
    reads them off its order row's prefix sums).  They set
    ``pairs``, ``w2``, ``rho``, ``theta0``, ``t_min``, ``t_max``, ``_a``
    and ``_b``, call :meth:`_init_sweep`, and name their spans and
    counters with ``_OBS`` and ``_QUERY_COUNTER``.
    """

    #: Prefix of the query spans and counters.
    _OBS = "consolidation"
    #: Counter of the distinct loads the sweep answers.
    _QUERY_COUNTER = "consolidation.refined_queries"

    def _init_sweep(self, capacities: Optional[Sequence[float]]) -> None:
        self._caps = (
            None if capacities is None
            else np.asarray(capacities, dtype=np.float64)
        )
        # Prefix sums of the descending-sorted capacities: no k-subset
        # holds more than the k largest capacities, so this lower-bounds
        # the feasible cardinality for any load and lets the sweep skip
        # thousands of hopeless sizes at high utilization.
        self._cap_desc_cum = (
            None if self._caps is None
            else np.cumsum(np.sort(self._caps)[::-1])
        )
        # Bounded caches (never persisted).
        self._row_cache: dict[tuple[int, int], tuple] = {}
        self._eval_cache: dict[float, tuple] = {}
        self._memo: dict[float, tuple[int, ...]] = {}
        self._ratio_list: Optional[list[float]] = None

    def _sources(self) -> Sequence[tuple["ConsolidationIndex", int]]:
        """``(index, first machine id)`` of every table whose order rows
        the merge reads, in machine-id order."""
        raise NotImplementedError

    def _pod_row(
        self, p: int, index: "ConsolidationIndex", start: int, t: float
    ) -> tuple:
        """Order-aligned ``(ids, a, b, cap)`` of source ``p`` at ratio ``t``.

        The source's own Algorithm-2 binary search over its event times
        finds the order row valid at ``t``; the coefficients are then
        aligned to that order once and cached, so repeated ratios (the
        band edges, bisection ladders) reuse them.
        """
        row = int(np.searchsorted(index._times, t, side="right")) - 1
        row = max(row, 0)
        key = (p, row)
        cached = self._row_cache.get(key)
        if cached is None:
            order = index._order_row(row)
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
        """Water-filling merge of every source's order at ratio ``t``.

        Concatenates the sources' presorted (descending-coordinate)
        segments and stably sorts the merged marginals — the greedy
        fill over concave per-source ``maxL`` curves.  Returns the
        merged ``(ids, cum_x, cum_cap)``: entry ``k - 1`` of each
        cumulative array describes the globally best size-``k`` subset
        at ``t``.
        """
        t = float(t)
        hit = self._eval_cache.get(t)
        if hit is not None:
            return hit
        parts = [
            self._pod_row(p, index, start, t)
            for p, (index, start) in enumerate(self._sources())
        ]
        ids = np.concatenate([part[0] for part in parts])
        a = np.concatenate([part[1] for part in parts])
        b = np.concatenate([part[2] for part in parts])
        x = a - t * b
        # Stable sort on the negated marginals: ties go to the lower
        # concatenated position, i.e. the lower source then the
        # source's own (lower-id-first) tie rule — the monolithic
        # order's tie rule.
        merged = np.argsort(-x, kind="stable")
        cum_x = np.cumsum(x[merged])
        if self._caps is None:
            cum_cap = None
        else:
            cap = np.concatenate([part[3] for part in parts])
            cum_cap = np.cumsum(cap[merged])
        result = (ids[merged], cum_x, cum_cap)
        if len(self._eval_cache) >= _EVAL_CAPACITY:
            self._eval_cache.pop(next(iter(self._eval_cache)))
        self._eval_cache[t] = result
        return result

    def _topk_sums(
        self, t: float, k: int
    ) -> tuple[float, float, Optional[float]]:
        """Aggregates ``(sum a, sum b, sum cap)`` of the global top-``k``
        at ratio ``t`` (``sum cap`` is ``None`` without capacities).

        The ratio iteration needs only these sums, never the member
        order, so any layout can take them from an O(n) selection
        (``numpy.argpartition``) on the raw coordinate array — the pods'
        path; the full merge is reserved for the cached band-edge rows
        and the final materialization.  Any tie set at the cut yields
        the same ``maxL`` value, so the fixpoint below is unaffected by
        partition tie-breaking.
        """
        a, b, caps = self._a, self._b, self._caps
        neg = t * b - a  # -x(t), bit for bit
        if k < neg.shape[0]:
            idx = neg.argpartition(k - 1)[:k]
            a, b = a[idx], b[idx]
            caps = None if caps is None else caps[idx]
        add = np.add.reduce
        sum_cap = None if caps is None else float(add(caps))
        return float(add(a)), float(add(b)), sum_cap

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

    def _positive_count(self, t: float) -> int:
        """How many coordinates are positive at ``t``: the size at which
        the top-``k`` sum ``F_k(t)`` peaks (it rises with ``k`` while
        the ``k``-th coordinate is positive, then falls).
        ``x_i(t) > 0`` iff ``t < a_i / b_i`` (every ``b_i > 0``), so
        this is one bisection over the sorted particle ratios."""
        ratios = self._ratio_list
        if ratios is None:
            ratios = self._ratio_list = np.sort(self._a / self._b).tolist()
        return len(ratios) - bisect_right(ratios, t)

    def _top_sum(self, t: float, k: int) -> float:
        """``F_k(t)``: the sum of the ``k`` largest coordinates at ``t``."""
        sum_a, sum_b, _ = self._topk_sums(t, k)
        return sum_a - t * sum_b

    def _block_max(self, t: float, a: int, b: int) -> float:
        """``max F_k(t)`` over the sizes ``k`` in ``[a, b]``: the top-``k``
        sum at the size nearest its peak, ``#positive``."""
        return self._top_sum(t, min(b, max(a, self._positive_count(t))))

    def _price(
        self, k: int, load: float, t0: float, t_lo: float, t_hi: float
    ) -> tuple[Optional[float], float]:
        """``(Eq. 23 power, t*)`` of size ``k``'s champion, its ratio
        clamped to ``t_hi``; the power is ``None`` when the champion
        lacks the capacity or its ratio fell out of band."""
        t_star, sum_cap = self._ratio_fixpoint(k, load, t0)
        if sum_cap is not None and sum_cap + _CAP_TOL < load:
            return None, t_star
        if t_star < t_lo - _COST_TOL:
            return None, t_star  # numeric edge: fell out of band
        return k * self.w2 - self.rho * min(t_star, t_hi) + self.theta0, t_star

    def _sweep_sizes(
        self, load: float, k_lo: int, k_hi: int, t_lo: float, t_hi: float
    ) -> tuple[Optional[tuple[float, int]], int, int]:
        """The cheapest in-band champion over sizes ``[k_lo, k_hi]``.

        Returns ``((t*, k) or None, fixpoints run, block reads)``.  The
        answer is the one an upward walk over every size gives: the
        smallest size wins unless a larger one is cheaper by more than
        ``_COST_TOL``.  Instead of a fixpoint per size, the sweep

        1. bisects the rising part of ``F_k(t_hi)`` for the first
           saturated size ``k_s`` (``t*(k) >= t_hi`` iff
           ``F_k(t_hi) >= load``), one top-``k`` read per step;
        2. walks upward from ``k_s`` with the exact bound
           ``k*w2 - rho*t_hi + theta0``, which grows with ``k`` and
           stops the walk right after ``k_s``'s champion unless that
           champion lacks the capacity;
        3. certifies ``[k_lo, k_s - 1]`` against the cheapest power
           ``best`` found so far by recursive halving.  Size ``k``
           costs more than ``best + _COST_TOL`` iff ``t*(k) <
           t_req(k) = (k*w2 + theta0 - best - _COST_TOL) / rho``, iff
           ``F_k(t_req(k)) < load``.  ``t_req`` grows with ``k`` and
           ``F`` falls with ``t``, so one read of the block's largest
           top-``k`` sum at ``t_req(a)`` (:meth:`_block_max`)
           certifies a block ``[a, b]`` at once; a block with
           ``t_req(a) > t_hi`` is certified by the bound alone.  Blocks
           nearer ``k_s`` go first, so ``best`` falls early; only
           singletons that fail run a fixpoint.

        ``_COST_TOL`` is subtracted in ``t_req`` because a smaller size
        within ``_COST_TOL`` above ``best`` still wins the tie rule.
        """
        w2, rho, theta0 = self.w2, self.rho, self.theta0
        fixpoints = reads = 0
        # (k, power, t*) of every priced, capacity-feasible size.
        priced: list[tuple[int, float, float]] = []
        k_s = k_hi + 1
        k_top = min(k_hi, self._positive_count(t_hi))
        if k_top >= k_lo:
            reads += 1
            if self._top_sum(t_hi, k_top) >= load:
                lo, hi = k_lo, k_top
                while lo < hi:
                    mid = (lo + hi) // 2
                    reads += 1
                    if self._top_sum(t_hi, mid) >= load:
                        hi = mid
                    else:
                        lo = mid + 1
                k_s = lo
        best = float("inf")
        t_warm = t_hi
        for k in range(k_s, k_hi + 1):
            if k * w2 - rho * t_hi + theta0 > best - _COST_TOL:
                break  # exact prune: the bound only grows with k
            power, t_star = self._price(k, load, t_warm, t_lo, t_hi)
            fixpoints += 1
            t_warm = max(t_lo, t_star)
            if power is not None:
                priced.append((k, power, t_star))
                best = min(best, power)
        blocks = [(k_lo, k_s - 1)] if k_s > k_lo else []
        while blocks:
            a, b = blocks.pop()
            t_req = (a * w2 + theta0 - best - _COST_TOL) / rho
            if t_req > t_hi:
                continue  # the bound alone: every size costs more
            if t_req >= t_lo:
                reads += 1
                if self._block_max(t_req, a, b) < load:
                    continue
            if a < b:
                mid = (a + b) // 2
                blocks.append((a, mid))
                blocks.append((mid + 1, b))
                continue
            power, t_star = self._price(
                a, load, max(t_lo, t_req), t_lo, t_hi
            )
            fixpoints += 1
            if power is not None:
                priced.append((a, power, t_star))
                best = min(best, power)
        # The walk's tie rule over the priced sizes, smallest first.
        chosen = None
        for k, power, t_star in sorted(priced):
            if chosen is None or power < chosen[0] - _COST_TOL:
                chosen = (power, t_star, k)
        return (None if chosen is None else chosen[1:]), fixpoints, reads

    def _materialize(self, t: float, k: int) -> list[int]:
        """The global ON set at ``(t, k)``: the merge's top ``k``."""
        return sorted(int(i) for i in self._evaluate(t)[0][:k])

    def _query(self, load: float) -> list[int]:
        obs.count(self._QUERY_COUNTER)
        memo = self._memo.get(load)
        if memo is not None:
            obs.count(f"{self._OBS}.query_memo_hits")
            return list(memo)
        chosen = self._query_scan(load)
        if len(self._memo) >= _MEMO_CAPACITY:
            self._memo.pop(next(iter(self._memo)))
        self._memo[load] = tuple(chosen)
        return chosen

    def _query_scan(self, load: float) -> list[int]:
        n = len(self.pairs)
        # Feasibility mirror of the table search: every particle
        # coordinate decreases with t, so the largest tabulated Lmax
        # anywhere is the best prefix sum at t = 0.
        cum_x0 = self._evaluate(0.0)[1]
        if load >= float(np.max(cum_x0)):
            raise InfeasibleError(
                f"no status can serve load {load}; cluster too small"
            )
        # No subset of size k holds more capacity than the k largest
        # capacities: start every sweep at that lower bound.
        k_cap = 1
        if self._cap_desc_cum is not None:
            k_cap = int(
                np.searchsorted(self._cap_desc_cum, load - _CAP_TOL)
            ) + 1
            if k_cap > n:
                raise InfeasibleError(
                    f"no candidate subset has the capacity for load {load}"
                )
        t_lo = 0.0 if self.t_min is None else self.t_min
        # Without a band top, bound every size's ratio by the best
        # particle's: the top-k carry the load only if their leader
        # carries at least load / k (at least load when it is negative).
        t_hi = self.t_max
        if t_hi is None:
            t_hi = float(np.max((self._a - min(load, 0.0)) / self._b))
        # In-band candidates: sizes whose prefix at the band floor can
        # carry the load (concave prefix sums => a contiguous range).
        cum_x_floor = self._evaluate(t_lo)[1]
        viable = np.flatnonzero(cum_x_floor >= load - _CAP_TOL)
        if viable.size:
            k_lo = max(int(viable[0]) + 1, k_cap)
            best, fixpoints, reads = self._sweep_sizes(
                load, k_lo, int(viable[-1]) + 1, t_lo, t_hi
            )
            obs.count(f"{self._OBS}.sweep_fixpoints", fixpoints)
            obs.count(f"{self._OBS}.sweep_block_reads", reads)
            if best is not None:
                return self._materialize(*best)
        # Band-clamped fallback: below-band candidates are servable
        # with the cooler pinned at the band edge; their cost grows with
        # k, so the smallest capacity-feasible size wins.  A size whose
        # best prefix at t = 0 cannot carry the load is no candidate at
        # any t >= 0 (the table's ``Lmax > load``).
        for k in range(k_cap, n + 1):
            if cum_x0[k - 1] <= load:
                continue
            t_star, sum_cap = self._ratio_fixpoint(k, load, t_lo)
            if sum_cap is not None and sum_cap + _CAP_TOL < load:
                continue
            obs.count(f"{self._OBS}.query_band_clamped")
            return self._materialize(t_star, k)
        raise InfeasibleError(
            f"no candidate subset has the capacity for load {load}"
        )

    def query_refined(self, load: float) -> list[int]:
        """The cheapest ON set for ``load`` under Eq. 23 (the sweep in
        the class docstring).

        Raises
        ------
        ConfigurationError
            If ``load`` is not a number.
        InfeasibleError
            If no on-set of any size can serve ``load``, or every
            candidate lacks the physical capacity for it.
        """
        (load,) = _load_vector([load]).tolist()
        with obs.timed(f"{self._OBS}/query"):
            chosen = self._query(load)
            obs.set_span_attributes(load=load, machines_on=len(chosen))
        return chosen

    def query_many(
        self,
        loads: Iterable[float],
        skip_infeasible: bool = False,
    ) -> list[Optional[list[int]]]:
        """Batched :meth:`query_refined`: one ON set per entry of ``loads``.

        Duplicate loads are answered once, and every answer goes
        through the result memo, so a trace replay or a bisection
        ladder pays far less than issuing the same queries one by one.

        Parameters
        ----------
        loads:
            Requested total loads (any iterable of floats).
        skip_infeasible:
            When true, infeasible loads yield ``None`` instead of
            aborting the whole batch.

        Raises
        ------
        ConfigurationError
            If ``loads`` is not a one-dimensional numeric sequence or
            holds a NaN (whatever ``skip_infeasible`` says).
        InfeasibleError
            On the first infeasible load, unless ``skip_infeasible``.
        """
        values = _load_vector(loads)
        if values.shape[0] == 0:
            return []
        with obs.timed(f"{self._OBS}/query_many"):
            obs.count(f"{self._OBS}.query_many_queries", values.shape[0])
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


class ConsolidationIndex(RatioSweep):
    """Pre-processed consolidation structure (paper Algorithm 1).

    Parameters
    ----------
    pairs:
        The ``(a_i, b_i)`` pairs of the reduction (``a = K``,
        ``b = alpha/beta``).
    w2:
        Idle power coefficient, W (cost of keeping one more machine on).
    rho:
        The lumped coefficient ``c * f_ac * w1`` of Eq. 23.
    theta0:
        Load-independent part of ``theta`` (``c * f_ac * T_SP``); the
        load-dependent ``w1 * L`` is identical across subsets and never
        affects the argmin.
    t_min, t_max:
        Optional particle-time bounds mirroring the cooler's achievable
        supply band (``t = T_ac / w1``); used by the refined query.  An
        inverted band (``t_min > t_max``) prices every candidate, the
        band-clamped fallback included, at ``t_max``.
    capacities:
        Optional per-machine capacities in load units; the refined query
        skips subsets that cannot physically carry the requested load.

    :meth:`query` is the paper's Algorithm 2 verbatim;
    :meth:`~RatioSweep.query_refined` and :meth:`~RatioSweep.query_many`
    answer through the per-cardinality sweep of :class:`RatioSweep`.
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
    ) -> None:
        self._init_params(pairs, w2, rho, theta0, t_min, t_max, capacities)
        self._preprocess()

    # ------------------------------------------------------------------ #
    # Construction plumbing (shared with the deserialized path)
    # ------------------------------------------------------------------ #

    def _init_params(
        self,
        pairs: Sequence[Pair],
        w2: float,
        rho: float,
        theta0: float,
        t_min: Optional[float],
        t_max: Optional[float],
        capacities: Optional[Sequence[float]],
    ) -> None:
        self.pairs = _validate_pairs(pairs)
        if w2 < 0.0:
            raise ConfigurationError(f"w2 must be non-negative, got {w2}")
        if rho <= 0.0:
            raise ConfigurationError(f"rho must be positive, got {rho}")
        self.w2 = w2
        self.rho = rho
        self.theta0 = theta0
        self.t_min = t_min
        self.t_max = t_max
        if capacities is not None and len(capacities) != len(self.pairs):
            raise ConfigurationError(
                f"{len(self.pairs)} pairs but {len(capacities)} capacities"
            )
        self.capacities = (
            None if capacities is None else [float(c) for c in capacities]
        )
        arr = np.asarray(self.pairs, dtype=np.float64)
        self._a = np.ascontiguousarray(arr[:, 0])
        self._b = np.ascontiguousarray(arr[:, 1])
        self._init_sweep(self.capacities)
        # The (a, b[, cap]) rows one gather aligns to an order row.
        self._coef_rows = np.vstack(
            (self._a, self._b) if self._caps is None
            else (self._a, self._b, self._caps)
        )
        # Lazy caches (filled on demand; never persisted).
        self._crossings: Optional[tuple] = None
        self._event_cache: Optional[
            tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self._nudged: Optional[np.ndarray] = None
        self._events_cache: Optional[list[Event]] = None
        self._row_by_time: Optional[dict[float, int]] = None
        self._time_list: Optional[list[float]] = None
        self._prefix_cache: dict[int, np.ndarray] = {}
        self._prefix_rows = max(1, _PREFIX_FLOATS // (3 * len(self.pairs)))
        self._status_cache: Optional[
            tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self._status_view = _StatusView(self)
        self._orders_view = _OrdersView(self)

    @classmethod
    def _from_tables(
        cls,
        *,
        pairs: Sequence[Pair],
        w2: float,
        rho: float,
        theta0: float,
        t_min: Optional[float],
        t_max: Optional[float],
        capacities: Optional[Sequence[float]],
        event_t: np.ndarray,
        event_p: np.ndarray,
        event_q: np.ndarray,
        times: np.ndarray,
        orders_mat: np.ndarray,
    ) -> "ConsolidationIndex":
        """Rebuild an index from persisted tables, skipping Algorithm 1.

        Performs cheap structural checks so a corrupted document raises
        :class:`ConfigurationError` instead of silently mis-answering.
        """
        index = cls.__new__(cls)
        index._init_params(pairs, w2, rho, theta0, t_min, t_max, capacities)
        n = len(index.pairs)
        times = np.asarray(times, dtype=np.float64)
        orders_mat = np.asarray(orders_mat, dtype=np.int32)
        m = int(times.shape[0])
        ok = (
            times.ndim == 1
            and m >= 1
            and orders_mat.shape == (m, n)
            and bool(np.all(np.diff(times) > 0.0))
            and bool(np.all((orders_mat >= 0) & (orders_mat < n)))
            # Every row a permutation of 0..n-1: each row-offset id once.
            and bool(np.all(np.bincount(
                (orders_mat + n * np.arange(m)[:, None]).ravel(),
                minlength=m * n,
            ) == 1))
        )
        if not ok:
            raise ConfigurationError(
                "consolidation index tables are inconsistent "
                "(corrupt or mismatched document)"
            )
        index._adopt_tables(event_t, event_p, event_q, times, orders_mat)
        return index

    def _adopt_tables(
        self,
        event_t: np.ndarray,
        event_p: np.ndarray,
        event_q: np.ndarray,
        times: np.ndarray,
        orders_mat: np.ndarray,
    ) -> None:
        """Take complete tables: the chronological event arrays, and
        ``orders_mat`` as the row store with every row derived."""
        self._event_cache = (
            np.asarray(event_t, dtype=np.float64),
            np.asarray(event_p, dtype=np.int32),
            np.asarray(event_q, dtype=np.int32),
        )
        self._event_count = int(self._event_cache[0].shape[0])
        self._times = np.asarray(times, dtype=np.float64)
        self._row_store = np.asarray(orders_mat, dtype=np.int32)
        self._row_done = np.ones(self._times.shape[0], dtype=bool)
        self._rows_pending = 0

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #

    def _preprocess(self) -> None:
        with obs.timed("consolidation/preprocess"):
            self._build_tables()
            obs.set_span_attributes(
                machines=len(self.pairs),
                statuses=self.status_count,
            )
        obs.count("consolidation.builds")
        obs.set_gauge("consolidation.events", self.event_count)
        obs.set_gauge("consolidation.statuses", self.status_count)

    def _build_tables(self) -> None:
        """Vectorized Algorithm 1, up to the event times: one broadcast
        for the crossings.  The chronological event arrays
        (:meth:`_event_table`) and each order row (:meth:`_order_row`)
        are sorted the first time something reads them, the
        ``allStatus`` table derived from the rows on demand
        (:meth:`_status_table`)."""
        a, b = self._a, self._b
        n = a.shape[0]
        # Events: x_i and x_j cross at t = (a_i - a_j) / (b_i - b_j).
        iu, ju = np.triu_indices(n, k=1)
        meets = (b[iu] - b[ju]) != 0.0  # parallel particles never meet
        p, q = iu[meets], ju[meets]
        t = (a[p] - a[q]) / (b[p] - b[q])
        future = t > 0.0  # met in the past (or never, given t >= 0)
        self._crossings = (t[future], p[future], q[future])
        self._event_count = int(self._crossings[0].shape[0])
        # Distinct tabulation times: t = 0 plus every (unique) event
        # time; unique sorts, so the crossings need not be in order.
        self._times = np.unique(np.concatenate((np.zeros(1), t[future])))
        m = self._times.shape[0]
        self._row_store = np.empty((m, n), dtype=np.int32)
        self._row_done = np.zeros(m, dtype=bool)
        self._rows_pending = m

    def _event_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The events as chronological ``(t, p, q)`` arrays, sorted on
        first read and kept.

        ``triu_indices`` emits the crossings in ``(p, q)`` order, so a
        stable sort by ``t`` breaks equal times by ``p``, then ``q``.
        """
        if self._event_cache is None:
            t, p, q = self._crossings
            by_time = np.argsort(t, kind="stable")
            self._event_cache = (
                t[by_time],
                p[by_time].astype(np.int32),
                q[by_time].astype(np.int32),
            )
            self._crossings = None
        return self._event_cache

    @property
    def _event_t(self) -> np.ndarray:
        return self._event_table()[0]

    @property
    def _event_p(self) -> np.ndarray:
        return self._event_table()[1]

    @property
    def _event_q(self) -> np.ndarray:
        return self._event_table()[2]

    def _derive_rows(self, rows) -> None:
        """Sort order rows ``rows`` (table row numbers) into the row
        store: the one row derivation, for a single row on first read
        and for every missing row at once in the bulk fill.

        Row ``r`` is the particle order just after ``times[r]``: the
        coordinates at ``times[r]`` nudged by at most half the gap to
        the next event time, so near-coincident crossings are not
        skipped.  A stable argsort of the negated coordinates puts
        them in descending order with ties to the lower index (the
        Python reference's exact tie rule), and each row sorts alone,
        so a row is the same whichever call derives it.
        """
        nudged = self._nudged
        if nudged is None:
            times = self._times
            eps = _EPSILON_SCALE * np.maximum(1.0, np.abs(times))
            if times.shape[0] > 1:
                eps[:-1] = np.minimum(eps[:-1], 0.5 * np.diff(times))
            nudged = self._nudged = times + eps
        neg = self._a[None, :] - nudged[rows][:, None] * self._b[None, :]
        np.negative(neg, out=neg)
        self._row_store[rows] = np.argsort(neg, axis=1, kind="stable")
        self._row_done[rows] = True
        self._rows_pending -= len(rows)
        obs.count("consolidation.order_rows_derived", len(rows))

    def _order_row(self, row: int) -> np.ndarray:
        """Order row ``row``, derived on first read and kept.

        Like the query caches, the row store is not thread-safe: the
        serving daemon touches it only from its compute thread.
        """
        if not self._row_done[row]:
            self._derive_rows([row])
        return self._row_store[row]

    @property
    def _orders_mat(self) -> np.ndarray:
        """Every order row as one ``(len(times), n)`` matrix: the bulk
        fill derives the rows no query has read yet."""
        if self._rows_pending:
            self._derive_rows(np.flatnonzero(~self._row_done))
        return self._row_store

    def _status_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``allStatus`` table as parallel ``(row, k, Lmax)`` arrays
        sorted by ``Lmax`` (equal ``Lmax`` in row-major order), derived
        from the order rows on first use and kept.

        ``Lmax(t, k)`` is the running sum of the exact coordinates
        ``x_i(t)`` taken in the order row of ``t`` (``np.cumsum``
        accumulates left to right like the Python reference's running
        float sum, so the table is the listing's bit for bit).  Only
        Algorithm 2 reads it; the refined sweep never derives it.
        """
        if self._status_cache is None:
            x = self._times[:, None] * self._b[None, :]
            np.subtract(self._a[None, :], x, out=x)  # exact x_i(t)
            lmax = np.take_along_axis(x, self._orders_mat, axis=1)
            np.cumsum(lmax, axis=1, out=lmax)
            flat = lmax.reshape(-1)
            perm = np.argsort(flat, kind="stable")
            row, k = np.divmod(perm, len(self.pairs))
            self._status_cache = (row, k + 1, flat[perm])
        return self._status_cache

    # ------------------------------------------------------------------ #
    # Lazy views over the column-oriented tables
    # ------------------------------------------------------------------ #

    @property
    def events(self) -> list[Event]:
        """All pairwise passing events, chronological (materialized
        lazily from the event arrays)."""
        if self._events_cache is None:
            self._events_cache = [
                Event(t=float(t), p=int(p), q=int(q))
                for t, p, q in zip(*self._event_table())
            ]
        return self._events_cache

    @property
    def orders(self) -> _OrdersView:
        """Mapping of tabulation time to the particle order just after
        it (right-most first)."""
        return self._orders_view

    @property
    def all_status(self) -> _StatusView:
        """The ``allStatus`` table sorted by ``Lmax`` (lazy
        :class:`Status` view over :meth:`_status_table`)."""
        return self._status_view

    def _status_at(self, pos: int) -> Status:
        rows, ks, lmax = self._status_table()
        t = float(self._times[rows[pos]])
        k = int(ks[pos])
        return Status(
            t=t,
            k=k,
            l_max=float(lmax[pos]),
            p_b=k * self.w2 - self.rho * t + self.theta0,
        )

    def _row_of_time(self, t: float) -> int:
        if self._row_by_time is None:
            self._row_by_time = {
                float(v): i for i, v in enumerate(self._times)
            }
        return self._row_by_time[t]

    def _prefix_set(self, row: int, k: int) -> list[int]:
        """The sorted ``k``-prefix of the order at table row ``row``."""
        return np.sort(self._order_row(row)[:k]).tolist()

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #

    @property
    def event_count(self) -> int:
        """Number of pairwise passing events (at most n*(n-1)/2)."""
        return self._event_count

    @property
    def status_count(self) -> int:
        """Number of tabulated statuses, one per (order row, ``k``)
        (O(n^3))."""
        return int(self._times.shape[0]) * len(self.pairs)

    @property
    def cache_key(self) -> str:
        """Content hash naming these tables (see
        :func:`consolidation_cache_key`)."""
        return consolidation_cache_key(
            self.pairs,
            w2=self.w2,
            rho=self.rho,
            theta0=self.theta0,
            t_min=self.t_min,
            t_max=self.t_max,
            capacities=self.capacities,
        )

    def on_set(self, status: Status) -> list[int]:
        """The ON set a status denotes: the ``k``-prefix of its order."""
        return self._prefix_set(self._row_of_time(status.t), status.k)

    def query(self, load: float) -> list[int]:
        """Paper Algorithm 2, verbatim: binary-search ``allStatus`` for
        the minimum ``Lmax`` strictly greater than ``load`` and return the
        corresponding server prefix.

        Raises
        ------
        InfeasibleError
            If no tabulated status can serve ``load``.
        """
        with obs.timed("consolidation/query"):
            obs.count("consolidation.queries")
            load = float(load)
            rows, ks, lmax = self._status_table()
            pos = int(np.searchsorted(lmax, load, side="right"))
            if pos >= lmax.shape[0]:
                raise InfeasibleError(
                    f"no status can serve load {load}; cluster too small"
                )
            chosen = self._prefix_set(int(rows[pos]), int(ks[pos]))
            obs.set_span_attributes(load=load, machines_on=len(chosen))
        return chosen

    def _sources(self) -> Sequence[tuple["ConsolidationIndex", int]]:
        """The sweep reads this index's own order rows (the one-pod
        case of the pod-sharded merge)."""
        return ((self, 0),)

    def _topk_sums(
        self, t: float, k: int
    ) -> tuple[float, float, Optional[float]]:
        """Entry ``k - 1`` of the prefix sums of the order row valid at
        ``t``.

        Row ``r`` is the exact descending order of ``x(t)`` on
        ``[times[r], times[r + 1])`` (Algorithm 1), so its ``k``-prefix
        is the top ``k`` there.  The row is the last event time ``<= t``
        (the rule of :meth:`_pod_row`), found by bisection over the
        event times held as a list; each row's running sums of
        ``(a, b, cap)`` in its order are computed on first use and kept
        in a bounded cache (never persisted).  The tables start at ``t = 0``,
        so a negative iterate (a band floor below zero) partitions.
        """
        times = self._time_list
        if times is None:
            times = self._time_list = self._times.tolist()
        row = bisect_right(times, t) - 1
        if row < 0:
            return super()._topk_sums(t, k)
        sums = self._prefix_cache.get(row)
        if sums is None:
            sums = self._coef_rows.take(self._order_row(row), axis=1)
            np.cumsum(sums, axis=1, out=sums)
            if len(self._prefix_cache) >= self._prefix_rows:
                self._prefix_cache.pop(next(iter(self._prefix_cache)))
            self._prefix_cache[row] = sums
        top = sums[:, k - 1].tolist()
        return top[0], top[1], (top[2] if len(top) > 2 else None)

    def _materialize(self, t: float, k: int) -> list[int]:
        """The ON set at ``(t, k)``: the ``k``-prefix of the order row
        valid at ``t``.

        The prefix is the merge's top ``k`` whenever its smallest
        coordinate at ``t`` exceeds the largest one after it.  Only
        where it does not (a tie at the cut from an event at ``t`` or
        from rounding, or a ratio below the tables' ``t = 0``, where
        row 0 need not order ``x(t)``) does the merge and its tie rule
        decide.
        """
        ids, a, b, _ = self._pod_row(0, self, 0, t)
        x = a - t * b
        if k < x.shape[0] and not x[:k].min() > x[k:].max():
            return super()._materialize(t, k)
        return np.sort(ids[:k]).tolist()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path) -> "pathlib.Path":  # noqa: F821 (doc type)
        """Serialize the pre-processed tables to ``path`` (``.npz``).

        See :func:`repro.core.serialization.save_consolidation_index`.
        """
        from repro.core.serialization import save_consolidation_index

        return save_consolidation_index(self, path)

    @classmethod
    def load(
        cls, path, expected_key: Optional[str] = None
    ) -> "ConsolidationIndex":
        """Load an index previously written by :meth:`save`.

        See :func:`repro.core.serialization.load_consolidation_index`.
        """
        from repro.core.serialization import load_consolidation_index

        return load_consolidation_index(path, expected_key=expected_key)

    def order_timeline(self) -> list[tuple[float, list[int]]]:
        """All (event time, order) pairs in chronological sequence.

        The first entry is the initial order at ``t = 0``; each subsequent
        entry is the order right after one event.  Used by the Fig. 1
        reproduction and by tests.
        """
        return [
            (float(t), self._orders_mat[row].tolist())
            for row, t in enumerate(self._times)
        ]
