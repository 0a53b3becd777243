"""Per-row loop reference for the Algorithm-1 table build and the
refined Algorithm-2 scan."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.core.consolidation import (
    _EPSILON_SCALE,
    _SCAN_CAP_FACTOR,
    ConsolidationIndex,
)
from repro.errors import InfeasibleError


class LoopConsolidationIndex(ConsolidationIndex):
    """:class:`ConsolidationIndex` built and scanned by Python loops.

    Kept deliberately close to the paper's listing: enumerate the
    pairwise passing events, sort the particles just after each event
    time, and accumulate ``Lmax`` row by row.  The refined query walks
    the table one position at a time, deduplicating subsets by big-int
    bitmasks over cached per-row prefix sums.  The vectorized build must
    produce bit-identical tables, and the vectorized scan the same
    answers, errors and scan counters.
    """

    def _init_params(self, *args) -> None:
        super()._init_params(*args)
        self._prefix_cache: dict[int, tuple] = {}

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
        self._event_t = np.array([e[0] for e in events], dtype=np.float64)
        self._event_p = np.array([e[1] for e in events], dtype=np.int32)
        self._event_q = np.array([e[2] for e in events], dtype=np.int32)
        times = sorted({0.0, *(e[0] for e in events)})
        order_rows: list[list[int]] = []
        flat: list[float] = []
        for row, t in enumerate(times):
            eps = _EPSILON_SCALE * max(1.0, abs(t))
            if row + 1 < len(times):
                eps = min(eps, 0.5 * (times[row + 1] - t))
            xn = self._coordinates(t + eps)
            order = sorted(range(n), key=lambda i: (-xn[i], i))
            order_rows.append(order)
            x = self._coordinates(t)
            acc = 0.0
            for i in order:
                acc += float(x[i])
                flat.append(acc)
        perm = sorted(range(len(flat)), key=flat.__getitem__)
        self._times = np.array(times, dtype=np.float64)
        self._orders_mat = np.array(order_rows, dtype=np.int32).reshape(
            len(times), n
        )
        self._tab_lmax = np.array([flat[i] for i in perm], dtype=np.float64)
        self._tab_row = np.array([i // n for i in perm], dtype=np.int32)
        self._tab_k = np.array([i % n + 1 for i in perm], dtype=np.int32)

    def _prefix(self, row: int) -> tuple:
        """Cached per-row prefix aggregates for the refined scan.

        Returns ``(a_pref, b_pref, cap_pref, masks)`` where entry
        ``k - 1`` covers the first ``k`` particles of the row's order:
        prefix sums of ``a``, ``b``, capacity, and a bitmask identifying
        the subset (used for O(1) dedup).  Building a row is O(n) and
        rows are shared by every query that touches them.
        """
        cached = self._prefix_cache.get(row)
        if cached is None:
            order = self._orders_mat[row]
            a_pref = np.cumsum(self._a[order])
            b_pref = np.cumsum(self._b[order])
            cap_pref = (
                None
                if self.capacities is None
                else np.cumsum(
                    np.asarray(self.capacities, dtype=np.float64)[order]
                )
            )
            masks: list[int] = []
            mask = 0
            for i in order.tolist():
                mask |= 1 << i
                masks.append(mask)
            cached = (a_pref, b_pref, cap_pref, masks)
            self._prefix_cache[row] = cached
        return cached

    def _refined_scan(
        self, load: float, pos: int, window: int
    ) -> list[int]:
        """The bounded re-scoring scan behind :meth:`query_refined`."""
        total = self.status_count
        scan_cap = _SCAN_CAP_FACTOR * window
        tab_row, tab_k = self._tab_row, self._tab_k
        best: Optional[tuple[int, int]] = None
        best_power = float("inf")
        clamped: Optional[tuple[int, int]] = None
        clamped_power = float("inf")
        seen: set[int] = set()
        scanned = 0
        i = pos
        while i < total and len(seen) < window and scanned < scan_cap:
            row = int(tab_row[i])
            k = int(tab_k[i])
            i += 1
            scanned += 1
            a_pref, b_pref, cap_pref, masks = self._prefix(row)
            mask = masks[k - 1]
            if mask in seen:
                continue
            seen.add(mask)
            if cap_pref is not None and cap_pref[k - 1] + 1e-9 < load:
                continue
            t = (a_pref[k - 1] - load) / b_pref[k - 1]
            if self.t_min is not None and t < self.t_min - 1e-12:
                # Below the supply band: not optimal at its own ratio,
                # but servable with the cooler pinned at the band edge —
                # keep it as the clamped fallback.
                t_c = (
                    self.t_min
                    if self.t_max is None
                    else min(self.t_min, self.t_max)
                )
                power_c = k * self.w2 - self.rho * t_c + self.theta0
                if power_c < clamped_power - 1e-12:
                    clamped_power = power_c
                    clamped = (row, k)
                continue
            t_eff = t if self.t_max is None else min(t, self.t_max)
            power = k * self.w2 - self.rho * t_eff + self.theta0
            if power < best_power - 1e-12:
                best_power = power
                best = (row, k)
        obs.count("consolidation.query_refined_rescored", len(seen))
        obs.count("consolidation.query_refined_scanned", scanned)
        if scanned >= scan_cap and i < total and len(seen) < window:
            obs.count("consolidation.query_refined_truncated")
        if best is None and clamped is not None:
            obs.count("consolidation.query_band_clamped")
            best = clamped
        if best is None:
            raise InfeasibleError(
                f"no candidate subset has the capacity for load {load}"
            )
        return self._prefix_set(*best)
