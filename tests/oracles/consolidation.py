"""Loop references for the Algorithm-1 table build and the refined
sweep."""

from __future__ import annotations

import numpy as np

from repro.core.consolidation import (
    _CAP_TOL,
    _COST_TOL,
    _EPSILON_SCALE,
    ConsolidationIndex,
    RatioSweep,
)
from repro.core.sharding import PodShardedIndex


class LoopConsolidationIndex(ConsolidationIndex):
    """:class:`ConsolidationIndex` built by Python loops.

    Kept deliberately close to the paper's listing: enumerate the
    pairwise passing events, sort the particles just after each event
    time, and accumulate ``Lmax`` row by row into the ``allStatus``
    table.  The vectorized build and its derived status table must be
    bit-identical.
    """

    def _coordinates(self, t: float) -> np.ndarray:
        return self._a - t * self._b

    def _build_tables(self) -> None:
        n = len(self.pairs)
        events: list[tuple[float, int, int]] = []
        for i in range(n):
            a_i, b_i = self.pairs[i]
            for j in range(i + 1, n):
                a_j, b_j = self.pairs[j]
                if b_i == b_j:
                    continue  # parallel particles never meet
                pass_time = (a_i - a_j) / (b_i - b_j)
                if pass_time <= 0.0:
                    continue  # met in the past (or never, given t >= 0)
                events.append((pass_time, i, j))
        events.sort()
        times = sorted({0.0, *(e[0] for e in events)})
        order_rows: list[list[int]] = []
        for row, t in enumerate(times):
            eps = _EPSILON_SCALE * max(1.0, abs(t))
            if row + 1 < len(times):
                eps = min(eps, 0.5 * (times[row + 1] - t))
            xn = self._coordinates(t + eps)
            order_rows.append(sorted(range(n), key=lambda i: (-xn[i], i)))
        self._adopt_tables(
            np.array([e[0] for e in events], dtype=np.float64),
            np.array([e[1] for e in events], dtype=np.int32),
            np.array([e[2] for e in events], dtype=np.int32),
            np.array(times, dtype=np.float64),
            np.array(order_rows, dtype=np.int32).reshape(len(times), n),
        )

    def _status_table(self):
        if self._status_cache is None:
            n = len(self.pairs)
            flat: list[float] = []
            for t, order in zip(self._times.tolist(), self._orders_mat):
                x = self._coordinates(t)
                acc = 0.0
                for i in order:
                    acc += float(x[i])
                    flat.append(acc)
            perm = sorted(range(len(flat)), key=flat.__getitem__)
            self._status_cache = (
                np.array([i // n for i in perm], dtype=np.int32),
                np.array([i % n + 1 for i in perm], dtype=np.int32),
                np.array([flat[i] for i in perm], dtype=np.float64),
            )
        return self._status_cache


class PartitionConsolidationIndex(ConsolidationIndex):
    """:class:`ConsolidationIndex` whose refined sweep selects each
    top-``k`` by partition.

    Every ratio iterate re-selects the ``k`` largest coordinates
    ``x(t)`` with ``numpy.argpartition`` over all machines and sums
    them, instead of reading entry ``k - 1`` of the tabulated order
    row's prefix sums.  The lookup must give the same ON sets and the
    same errors.
    """

    def _topk_sums(self, t: float, k: int):
        a, b, caps = self._a, self._b, self._caps
        neg = t * b - a  # -x(t), bit for bit
        if k < neg.shape[0]:
            idx = neg.argpartition(k - 1)[:k]
            a, b = a[idx], b[idx]
            caps = None if caps is None else caps[idx]
        add = np.add.reduce
        sum_cap = None if caps is None else float(add(caps))
        return float(add(a)), float(add(b)), sum_cap


class _LinearWalk:
    """The refined sweep as a walk over every size.

    One Dinkelbach fixpoint per size, upward from ``k_lo``, each warm
    started at the previous size's ratio, until the exact bound
    ``k*w2 - rho*t_hi + theta0`` (which grows with ``k``) rules out
    every larger size.  A size replaces the champion only when it is
    cheaper by more than ``_COST_TOL``.  The certified bisection of
    :meth:`~repro.core.consolidation.RatioSweep._sweep_sizes` must give
    the same answers and errors.
    """

    def _sweep_sizes(self, load, k_lo, k_hi, t_lo, t_hi):
        best_k = best_t = None
        best_power = float("inf")
        fixpoints = 0
        t_warm = t_lo
        for k in range(k_lo, k_hi + 1):
            floor_power = k * self.w2 - self.rho * t_hi + self.theta0
            if floor_power > best_power - _COST_TOL:
                break  # exact prune: the bound only grows with k
            t_star, sum_cap = self._ratio_fixpoint(k, load, t_warm)
            fixpoints += 1
            t_warm = max(t_lo, t_star)
            if sum_cap is not None and sum_cap + _CAP_TOL < load:
                continue
            if t_star < t_lo - _COST_TOL:
                continue  # numeric edge: fell out of band
            t_eff = min(t_star, t_hi)
            power = k * self.w2 - self.rho * t_eff + self.theta0
            if power < best_power - _COST_TOL:
                best_power = power
                best_k, best_t = k, t_star
        best = None if best_k is None else (best_t, best_k)
        return best, fixpoints, 0


class LinearWalkConsolidationIndex(_LinearWalk, ConsolidationIndex):
    """:class:`ConsolidationIndex` whose refined sweep walks every size
    and materializes the ON set from the full merge at the chosen
    ratio, instead of reading it off the order row."""

    _materialize = RatioSweep._materialize


class LinearWalkPodShardedIndex(_LinearWalk, PodShardedIndex):
    """:class:`~repro.core.sharding.PodShardedIndex` whose refined sweep
    walks every size."""
