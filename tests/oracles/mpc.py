"""Per-row reference for the MPC horizon's thermal-cap constraints."""

from __future__ import annotations

import numpy as np

from repro.control.mpc import MPCController


class LoopMPCController(MPCController):
    """:class:`MPCController` whose constraint rows are built row by row.

    The readable specification of the horizon's rows: every sensitivity
    column is its own vector, propagated one step at a time, and every
    powered-on CPU of every step gets a fresh zero row filled element by
    element from the columns.  The gathered-block construction must
    reproduce it bit for bit.
    """

    def _constraint_rows(self, masks, power_vecs):
        model = self.optimizer.model
        horizon = len(masks)
        cap = model.t_max - self.margin
        base = self._state.copy()
        cols: list[np.ndarray] = []
        coeff_rows: list[np.ndarray] = []
        gaps: list[float] = []
        for h in range(horizon):
            mats = self.plant.matrices(masks[h])
            base = mats.a @ base + mats.b_power @ power_vecs[h] + mats.offset
            for j in range(len(cols)):
                cols[j] = mats.a @ cols[j]
            cols.append(mats.b_supply.copy())
            for i in np.flatnonzero(masks[h]):
                row = np.zeros(horizon)
                for j in range(h + 1):
                    row[j] = cols[j][i]
                coeff_rows.append(row)
                gaps.append(cap - base[i])
        if not coeff_rows:
            return np.zeros((0, horizon)), np.zeros(0)
        return np.asarray(coeff_rows), np.asarray(gaps, dtype=float)
