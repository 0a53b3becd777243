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
index scales to hundreds of machines: events come from one pairwise
broadcast over the upper triangle, orders from a batched stable argsort
over the event-time grid, and ``Lmax`` from row-wise cumulative sums.
The resulting status table is column-oriented (parallel ``t``/``k``/
``Lmax`` arrays sorted by ``Lmax``); :class:`Status` objects and the
``orders`` mapping are materialized lazily for API compatibility.  The
equivalence tests pin the tables bit for bit against a pure-Python
reference build of the paper's listing, kept as a test oracle in
``tests/oracles/``.

Implementation notes (documented deviations, none affecting complexity):

- Orders are recomputed by sorting coordinates just *after* each event
  time instead of applying pairwise swaps.  This is robust to degenerate
  inputs (simultaneous crossings, duplicated pairs) where the paper's
  swap would require a generic-position assumption, and the overall
  pre-processing cost stays O(n^3 log n), dominated — exactly as in the
  paper — by sorting the O(n^3) statuses.  The "just after" nudge is
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
  :meth:`ConsolidationIndex.query_refined` re-scores a small window of
  neighbouring statuses with the exact Eq. 23 cost and is what
  :class:`~repro.core.optimizer.JointOptimizer` uses by default.  The
  re-scoring scan is bounded (at most ``8 * window`` rows) so duplicate
  prefixes cannot degrade a query into a table walk.  It runs as one
  numpy pass per load over row arrays built once, on the first refined
  scan: prefix sums of ``a``, ``b`` and capacity for every (row, ``k``)
  and an exact subset id that deduplicates candidates (Zobrist keys,
  confirmed on packed bitsets).  Repeated loads hit a bounded result
  memo (see :meth:`query_many`).  Tests quantify the gap against the
  brute-force reference and pin the scan to the per-position loop
  oracle in ``tests/oracles/``.

Indexes are reusable across runs: :meth:`ConsolidationIndex.save` /
:meth:`ConsolidationIndex.load` round-trip the tables through a keyed
``.npz`` document (see :mod:`repro.core.serialization`), and
:class:`~repro.core.optimizer.JointOptimizer` transparently reuses a
cached index when given ``index_cache_dir``.
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Mapping as _MappingABC
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, InfeasibleError
from repro.core.select import Pair, _validate_pairs

#: Relative nudge used to evaluate particle order strictly after an event.
_EPSILON_SCALE = 1e-9

#: ``query_refined`` scans at most this many rows per distinct subset it
#: is allowed to re-score, so duplicate prefixes cannot turn the
#: "logarithmic plus a small constant" query into an O(n^3) table walk.
_SCAN_CAP_FACTOR = 8

#: Bounded memo of refined query results (the index is immutable, so a
#: repeated ``(load, window)`` always has the same answer).
_MEMO_CAPACITY = 4096

#: Seed of the per-machine Zobrist keys that hash order prefixes.
_ZOBRIST_SEED = 2012

#: Prefix bitsets are confirmed in row blocks of about this many
#: 64-bit words, so the exact check never holds all of them at once.
_BITSET_BLOCK_WORDS = 1 << 19

#: Absolute tolerance of the refined scan's "strictly cheaper" test.
_COST_TOL = 1e-12


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
        return int(self._index._tab_lmax.shape[0])

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
        return self._index._orders_mat[row].tolist()

    def __iter__(self) -> Iterator[float]:
        return iter(float(t) for t in self._index._times)

    def __len__(self) -> int:
        return int(self._index._times.shape[0])


def _stable_argsort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable ascending argsort via introsort plus tie repair.

    ``np.argsort(kind="stable")`` on millions of floats is about twice
    the cost of the default introsort, and ties in the status table are
    rare — so sort unstably first, then restore the stable order (equal
    values in source order) by sorting the permutation indices inside
    each run of equal values.  Returns ``(perm, values[perm])``; the
    sorted values stay valid through the repair because only positions
    holding equal values are permuted.
    """
    perm = np.argsort(values)
    ordered = values[perm]
    eq = np.flatnonzero(ordered[1:] == ordered[:-1])
    if eq.size:
        # eq marks every i with ordered[i] == ordered[i+1]; consecutive
        # marks belong to one run of equal values spanning [lo, hi).
        breaks = np.flatnonzero(np.diff(eq) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [eq.size - 1]))
        for s, e in zip(starts.tolist(), ends.tolist()):
            lo = int(eq[s])
            hi = int(eq[e]) + 2
            perm[lo:hi] = np.sort(perm[lo:hi])
    return perm, ordered


def _zobrist_keys(n: int) -> np.ndarray:
    """One seeded random 64-bit key per machine; a subset hashes to the
    XOR of its members' keys."""
    rng = np.random.default_rng(_ZOBRIST_SEED)
    return rng.integers(
        0, np.iinfo(np.uint64).max, size=n, dtype=np.uint64, endpoint=True
    )


def _subset_ids(orders: np.ndarray) -> np.ndarray:
    """Exact subset id of every order prefix, flattened row-major.

    ``ids[r * n + k - 1] == ids[s * n + j - 1]`` exactly when the first
    ``k`` entries of row ``r`` and the first ``j`` of row ``s`` are the
    same set.  Rows reach the same prefix set again and again (ties and
    rounding reorder near-coincident particles back and forth), so the
    ids are global, not per row.

    Zobrist keys group the prefixes in one sort; every member of a group
    is then compared with the group's first member on packed prefix
    bitsets, built a block of rows at a time, and a member whose set
    differs (a key collision) moves to a fresh id shared only with
    members of the very same set.
    """
    m, n = orders.shape
    size = m * n
    # Pack (truncated key, flat position) into one uint64 so a plain
    # sort groups equal keys, each group led by its first position.  A
    # collision of the truncated keys is split below like any other.
    shift = np.uint64(max(1, (size - 1).bit_length()))
    keys = _zobrist_keys(n)[orders]
    np.bitwise_xor.accumulate(keys, axis=1, out=keys)
    packed = keys.reshape(-1)
    del keys
    packed >>= shift
    packed <<= shift
    packed |= np.arange(size, dtype=np.uint64)
    packed.sort()
    lead = np.empty(size, dtype=bool)
    lead[0] = True
    np.not_equal(packed[1:] >> shift, packed[:-1] >> shift, out=lead[1:])
    packed &= (np.uint64(1) << shift) - np.uint64(1)
    flat = packed.astype(np.int64)
    del packed
    ids = np.empty(size, dtype=np.int32)
    ids[flat] = np.cumsum(lead, dtype=np.int32) - 1
    first = flat[lead]  # each group's first flat position
    del flat, lead
    # Words per bitset: a multiple of 8, so a prefix's per-word
    # inequality flags (one byte each) read as whole uint64s.
    words = 8 * -(-n // 512)
    rep_bits = np.zeros((first.shape[0], words), dtype=np.uint64)
    fresh: dict[bytes, int] = {}
    step = n * max(1, _BITSET_BLOCK_WORDS // (n * words))
    members = orders.reshape(-1)
    for lo in range(0, size, step):
        block = members[lo:lo + step]  # whole rows, flattened
        bits = np.zeros((block.shape[0], words), dtype=np.uint64)
        bits[np.arange(block.shape[0]), block >> 6] = (
            np.uint64(1) << (block & 63).astype(np.uint64)
        )
        rows = bits.reshape(-1, n, words)
        np.bitwise_or.accumulate(rows, axis=1, out=rows)
        group = ids[lo:lo + block.shape[0]]
        leads = np.flatnonzero(
            first[group] == np.arange(lo, lo + group.shape[0])
        )
        rep_bits[group[leads]] = bits[leads]
        differs = bits != np.take(rep_bits, group, axis=0)
        for j in np.flatnonzero(differs.view(np.uint64).any(axis=1)):
            ids[lo + j] = fresh.setdefault(
                bits[j].tobytes(), first.shape[0] + len(fresh)
            )
    return ids


def _first_cheapest(
    power: np.ndarray, eligible: np.ndarray
) -> Optional[int]:
    """Position the refined scan keeps among the ``eligible`` entries of
    ``power`` (``None`` if there are none).

    Scanning in order, a candidate replaces the incumbent only when it
    is cheaper by more than ``_COST_TOL``, so each replacement is a
    strict new running minimum: only those positions are visited.  NaN
    costs never win.
    """
    power = np.where(eligible & ~np.isnan(power), power, np.inf)
    if power.shape[0] == 0:
        return None
    before = np.empty_like(power)
    before[0] = np.inf
    np.minimum.accumulate(power[:-1], out=before[1:])
    best, best_power = None, np.inf
    for i in np.flatnonzero(power < before).tolist():
        if power[i] < best_power - _COST_TOL:
            best, best_power = i, power[i]
    return best


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


class ConsolidationIndex:
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
        supply band (``t = T_ac / w1``); used by the refined query.
    capacities:
        Optional per-machine capacities in load units; the refined query
        skips subsets that cannot physically carry the requested load.
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
        # Lazy caches (filled on demand; never persisted).
        self._events_cache: Optional[list[Event]] = None
        self._row_by_time: Optional[dict[float, int]] = None
        self._scan_rows: Optional[tuple] = None
        self._scan_lock = threading.Lock()
        self._memo: dict[tuple[float, int], tuple[int, ...]] = {}
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
        tab_row: np.ndarray,
        tab_k: np.ndarray,
        tab_lmax: np.ndarray,
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
        tab_row = np.asarray(tab_row, dtype=np.int32)
        tab_k = np.asarray(tab_k, dtype=np.int32)
        tab_lmax = np.asarray(tab_lmax, dtype=np.float64)
        m = int(times.shape[0])
        ok = (
            times.ndim == 1
            and m >= 1
            and orders_mat.shape == (m, n)
            and tab_row.shape == tab_k.shape == tab_lmax.shape == (m * n,)
            and bool(np.all(np.diff(times) > 0.0))
            and bool(np.all((tab_row >= 0) & (tab_row < m)))
            and bool(np.all((tab_k >= 1) & (tab_k <= n)))
            and bool(np.all(np.diff(tab_lmax) >= 0.0))
            and bool(np.all((orders_mat >= 0) & (orders_mat < n)))
        )
        if not ok:
            raise ConfigurationError(
                "consolidation index tables are inconsistent "
                "(corrupt or mismatched document)"
            )
        index._event_t = np.asarray(event_t, dtype=np.float64)
        index._event_p = np.asarray(event_p, dtype=np.int32)
        index._event_q = np.asarray(event_q, dtype=np.int32)
        index._times = times
        index._orders_mat = orders_mat
        index._tab_row = tab_row
        index._tab_k = tab_k
        index._tab_lmax = tab_lmax
        return index

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
        """Vectorized Algorithm 1: one broadcast for events, one batched
        argsort for orders, row-wise cumulative sums for ``Lmax``."""
        a, b = self._a, self._b
        n = a.shape[0]
        # Events: x_i and x_j cross at t = (a_i - a_j) / (b_i - b_j).
        iu, ju = np.triu_indices(n, k=1)
        meets = (b[iu] - b[ju]) != 0.0  # parallel particles never meet
        p, q = iu[meets], ju[meets]
        t = (a[p] - a[q]) / (b[p] - b[q])
        future = t > 0.0  # met in the past (or never, given t >= 0)
        t, p, q = t[future], p[future], q[future]
        by_time = np.lexsort((q, p, t))
        self._event_t = np.ascontiguousarray(t[by_time])
        self._event_p = np.ascontiguousarray(p[by_time].astype(np.int32))
        self._event_q = np.ascontiguousarray(q[by_time].astype(np.int32))
        # Distinct tabulation times: t = 0 plus every (unique) event time.
        times = np.unique(np.concatenate((np.zeros(1), self._event_t)))
        self._times = times
        # Orders just after each time: nudge by at most half the gap to
        # the next event so near-coincident crossings are not skipped.
        eps = _EPSILON_SCALE * np.maximum(1.0, np.abs(times))
        if times.shape[0] > 1:
            eps[:-1] = np.minimum(eps[:-1], 0.5 * np.diff(times))
        # The m x n buffers below dominate the build's footprint, so the
        # coordinate buffer is reused (nudged coordinates -> negated for
        # the argsort -> exact coordinates) instead of reallocated.
        buf = a[None, :] - (times + eps)[:, None] * b[None, :]
        np.negative(buf, out=buf)
        # Stable rowwise argsort == descending coordinates with ties to
        # the lower index (the Python reference's exact tie rule).
        orders = np.argsort(buf, axis=1, kind="stable")
        np.multiply(times[:, None], b[None, :], out=buf)
        np.subtract(a[None, :], buf, out=buf)  # exact x_i(t), no nudge
        # Lmax(t, k): cumulative sums of the ordered exact coordinates
        # (np.cumsum accumulates left to right exactly like the Python
        # reference's running float sum — bit-identical tables).
        lmax = np.take_along_axis(buf, orders, axis=1)
        np.cumsum(lmax, axis=1, out=lmax)
        self._orders_mat = orders.astype(np.int32)
        flat = lmax.reshape(-1)
        if flat.size > np.iinfo(np.int32).max:
            raise ConfigurationError(
                f"status table too large for the index layout "
                f"({flat.size} rows)"
            )
        perm, self._tab_lmax = _stable_argsort(flat)
        perm = perm.astype(np.int32)
        self._tab_row = perm // np.int32(n)
        self._tab_k = perm - self._tab_row * np.int32(n)
        self._tab_k += np.int32(1)

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
                for t, p, q in zip(
                    self._event_t, self._event_p, self._event_q
                )
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
        :class:`Status` view over the column arrays)."""
        return self._status_view

    @property
    def _status_lmax(self) -> np.ndarray:
        return self._tab_lmax

    def _status_at(self, pos: int) -> Status:
        t = float(self._times[self._tab_row[pos]])
        k = int(self._tab_k[pos])
        return Status(
            t=t,
            k=k,
            l_max=float(self._tab_lmax[pos]),
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
        return np.sort(self._orders_mat[row, :k]).tolist()

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #

    @property
    def event_count(self) -> int:
        """Number of pairwise passing events (at most n*(n-1)/2)."""
        return int(self._event_t.shape[0])

    @property
    def status_count(self) -> int:
        """Number of tabulated statuses (O(n^3))."""
        return int(self._tab_lmax.shape[0])

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
            pos = int(
                np.searchsorted(self._tab_lmax, load, side="right")
            )
            if pos >= self.status_count:
                raise InfeasibleError(
                    f"no status can serve load {load}; cluster too small"
                )
            chosen = self._prefix_set(
                int(self._tab_row[pos]), int(self._tab_k[pos])
            )
            obs.set_span_attributes(load=load, machines_on=len(chosen))
        return chosen

    def query_refined(
        self, load: float, window: Optional[int] = None
    ) -> list[int]:
        """Algorithm 2 with exact re-scoring of a candidate window.

        Starting from the faithful binary-search position, re-score up to
        ``window`` distinct candidate subsets (default ``4 * n``) that can
        serve ``load`` using the exact Eq. 23 cost evaluated at each
        subset's own achievable ratio ``t(S) = (sum a - L) / sum b``, and
        return the cheapest feasible one.  This closes the event-grid
        quantization gap while keeping the query logarithmic plus a small
        constant amount of work: the scan visits at most ``8 * window``
        table rows even when duplicate prefixes dominate (truncations are
        counted on ``consolidation.query_refined_truncated``).

        When every scanned candidate's ratio falls below the supply band
        (``t < t_min``), the query does not fail: it returns the best
        candidate scored at the band-clamped ratio, mirroring
        :func:`~repro.core.closed_form.solve_closed_form`'s clamping, so
        feasibility always agrees with the faithful :meth:`query`.

        Raises
        ------
        InfeasibleError
            If no tabulated status can serve ``load``, or every windowed
            candidate lacks the physical capacity for it.
        """
        with obs.timed("consolidation/query"):
            load = float(load)
            window = self._window(window)
            pos = int(
                np.searchsorted(self._tab_lmax, load, side="right")
            )
            if pos >= self.status_count:
                raise InfeasibleError(
                    f"no status can serve load {load}; cluster too small"
                )
            obs.count("consolidation.refined_queries")
            chosen = self._refined_cached(load, pos, window)
            obs.set_span_attributes(load=load, machines_on=len(chosen))
        return chosen

    def _window(self, window: Optional[int]) -> int:
        """The refined re-scoring window: default ``4 * n``, at least 1."""
        if window is None:
            return 4 * len(self.pairs)
        if window < 1:
            raise ConfigurationError(
                f"window must be at least 1, got {window}"
            )
        return window

    def _refined_cached(
        self, load: float, pos: int, window: int
    ) -> list[int]:
        key = (load, window)
        hit = self._memo.get(key)
        if hit is not None:
            obs.count("consolidation.query_memo_hits")
            return list(hit)
        chosen = self._refined_scan(load, pos, window)
        if len(self._memo) >= _MEMO_CAPACITY:
            self._memo.pop(next(iter(self._memo)))
        self._memo[key] = tuple(chosen)
        return chosen

    def _scan_arrays(self) -> tuple:
        """Row-aligned arrays of the refined scan, built on first use.

        Returns ``(ids, a_pref, b_pref, cap_pref)``, flattened row-major:
        entry ``row * n + k - 1`` covers the first ``k`` particles of the
        row's order — its exact subset id (see :func:`_subset_ids`) and
        the prefix sums of ``a``, ``b`` and capacity (``cap_pref`` is
        ``None`` without capacities).  One O(m n) build, at most 28 bytes
        per status, paid by the first refined scan: construction,
        :meth:`load` and a server's warm-up never build them, and
        :meth:`save` never writes them.
        """
        if self._scan_rows is None:
            with self._scan_lock:  # concurrent first scans build once
                if self._scan_rows is None:
                    self._scan_rows = self._build_scan_arrays()
        return self._scan_rows

    def _build_scan_arrays(self) -> tuple:
        orders = self._orders_mat

        def prefix(x: np.ndarray) -> np.ndarray:
            # Left-to-right accumulation: bit-identical to a per-row
            # np.cumsum over the row's order.
            out = x[orders]
            np.cumsum(out, axis=1, out=out)
            return out.reshape(-1)

        caps = (
            None
            if self.capacities is None
            else prefix(np.asarray(self.capacities, dtype=np.float64))
        )
        return (_subset_ids(orders), prefix(self._a), prefix(self._b), caps)

    def _refined_scan(
        self, load: float, pos: int, window: int
    ) -> list[int]:
        """The bounded re-scoring scan behind :meth:`query_refined`.

        Walks the table from ``pos`` and re-scores each subset the first
        time it appears, stopping after ``window`` distinct subsets or
        ``8 * window`` rows — one numpy pass over that slice.
        """
        ids, a_pref, b_pref, cap_pref = self._scan_arrays()
        n = len(self.pairs)
        total = self.status_count
        scan_cap = _SCAN_CAP_FACTOR * window
        stop = min(pos + scan_cap, total)
        flat = self._tab_row[pos:stop].astype(np.int64) * n
        flat += self._tab_k[pos:stop] - 1
        # Offsets into the slice of each subset's first appearance, in
        # scan order, cut at the window-th distinct one.
        _, first = np.unique(ids[flat], return_index=True)
        first.sort()
        first = first[:window]
        rescored = int(first.shape[0])
        scanned = int(first[-1]) + 1 if rescored == window else stop - pos
        cand = flat[first]
        k = cand % n + 1
        if cap_pref is not None:
            keep = ~(cap_pref[cand] + 1e-9 < load)
            cand, k = cand[keep], k[keep]
        t = (a_pref[cand] - load) / b_pref[cand]
        if self.t_min is None:
            below = np.zeros(t.shape, dtype=bool)
        else:
            # Below the supply band: not optimal at its own ratio, but
            # servable with the cooler pinned at the band edge — such
            # candidates compete only for the clamped fallback.
            below = t < self.t_min - _COST_TOL
        if self.t_max is not None:
            # Exactly min(t, t_max); np.minimum would differ on a NaN.
            t = np.where(self.t_max < t, self.t_max, t)
        power = k * self.w2 - self.rho * t + self.theta0
        best = _first_cheapest(power, ~below)
        obs.count("consolidation.query_refined_rescored", rescored)
        obs.count("consolidation.query_refined_scanned", scanned)
        if scanned >= scan_cap and stop < total and rescored < window:
            obs.count("consolidation.query_refined_truncated")
        if best is None and self.t_min is not None:
            t_c = (
                self.t_min
                if self.t_max is None
                else min(self.t_min, self.t_max)
            )
            best = _first_cheapest(
                k * self.w2 - self.rho * t_c + self.theta0, below
            )
            if best is not None:
                obs.count("consolidation.query_band_clamped")
        if best is None:
            raise InfeasibleError(
                f"no candidate subset has the capacity for load {load}"
            )
        return self._prefix_set(int(cand[best]) // n, int(k[best]))

    def query_many(
        self,
        loads: Iterable[float],
        refined: bool = True,
        window: Optional[int] = None,
        skip_infeasible: bool = False,
    ) -> list[Optional[list[int]]]:
        """Batched Algorithm-2 queries: one ON set per entry of ``loads``.

        The binary-search positions are computed in a single vectorized
        ``searchsorted``, duplicate loads are answered once, and refined
        scans share the result memo — so a trace replay or a bisection
        ladder pays far less than issuing the same queries one by one.
        Each refined scan is one numpy pass over its table slice (subset
        ids for dedup, then the capacity filter, band test and Eq. 23
        cost for every candidate at once) on row arrays the index builds
        once, on its first refined scan; that first call pays the
        one-time O(m n) build.

        Parameters
        ----------
        loads:
            Requested total loads (any iterable of floats).
        refined:
            Re-score with the exact Eq. 23 cost (default, what
            ``JointOptimizer`` uses) or answer with the faithful
            :meth:`query` semantics.
        window:
            Refined re-scoring window (default ``4 * n``).
        skip_infeasible:
            When true, infeasible loads yield ``None`` instead of
            aborting the whole batch.

        Raises
        ------
        ConfigurationError
            If ``loads`` is not a one-dimensional numeric sequence, or
            ``window`` is below 1.
        InfeasibleError
            On the first infeasible load, unless ``skip_infeasible``.
        """
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
        window = self._window(window)
        if values.shape[0] == 0:
            return []
        with obs.timed("consolidation/query_many"):
            obs.count(
                "consolidation.query_many_queries", values.shape[0]
            )
            uniq, inverse = np.unique(values, return_inverse=True)
            positions = np.searchsorted(
                self._tab_lmax, uniq, side="right"
            )
            total = self.status_count
            answers: list[Optional[tuple[int, ...]]] = []
            for load, pos in zip(uniq.tolist(), positions.tolist()):
                try:
                    if pos >= total:
                        raise InfeasibleError(
                            f"no status can serve load {load}; "
                            "cluster too small"
                        )
                    if refined:
                        obs.count("consolidation.refined_queries")
                        answers.append(
                            tuple(self._refined_cached(load, pos, window))
                        )
                    else:
                        obs.count("consolidation.queries")
                        answers.append(
                            tuple(
                                self._prefix_set(
                                    int(self._tab_row[pos]),
                                    int(self._tab_k[pos]),
                                )
                            )
                        )
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
