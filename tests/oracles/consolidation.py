"""Per-row loop reference for the Algorithm-1 table build."""

from __future__ import annotations

import numpy as np

from repro.core.consolidation import _EPSILON_SCALE, ConsolidationIndex


class LoopConsolidationIndex(ConsolidationIndex):
    """:class:`ConsolidationIndex` built by per-row Python loops.

    Kept deliberately close to the paper's listing: enumerate the
    pairwise passing events, sort the particles just after each event
    time, and accumulate ``Lmax`` row by row.  The vectorized build must
    produce bit-identical tables; queries are inherited.
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
