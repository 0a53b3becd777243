"""Per-probe reference for the linearized-plant extraction."""

from __future__ import annotations

import numpy as np

from repro.control.plant import LinearizedPlant


class LoopLinearizedPlant(LinearizedPlant):
    """:class:`LinearizedPlant` extracted by one rollout per probe.

    The readable specification of the extraction: the zero state, each
    unit state, each on node's unit power and a unit supply temperature
    each get their own 1-D RK4 rollout over the control interval, and
    the map's columns are their differences from the zero rollout.  The
    stacked extraction must reproduce it bit for bit.
    """

    def _rollout(
        self, state: np.ndarray, powers: np.ndarray, t_ac: float
    ) -> np.ndarray:
        """One control interval of the RK4 engine from ``state``, with
        the probe's mask already set and ``t_ac`` held constant."""
        probe = self._probe
        n = self.n
        probe.t_cpu = np.array(state[:n], dtype=float)
        probe.t_box = np.array(state[n : 2 * n], dtype=float)
        probe.t_room = float(state[2 * n])
        probe.powers = np.asarray(powers, dtype=float)
        for _ in range(self.substeps):
            probe._advance(self.rk_dt, t_ac)
        return self.pack_state(probe.t_cpu, probe.t_box, probe.t_room)

    def _extract(self, mask):
        m, n = self.state_dim, self.n
        self._probe.on_mask = mask
        zeros_m = np.zeros(m)
        zeros_n = np.zeros(n)
        offset = self._rollout(zeros_m, zeros_n, 0.0)
        a = np.empty((m, m))
        basis = np.zeros(m)
        for j in range(m):
            basis[j] = 1.0
            a[:, j] = self._rollout(basis, zeros_n, 0.0) - offset
            basis[j] = 0.0
        b_power = np.zeros((m, n))
        unit_p = np.zeros(n)
        for i in range(n):
            if not mask[i]:
                continue  # an off node's power never enters the map
            unit_p[i] = 1.0
            b_power[:, i] = self._rollout(zeros_m, unit_p, 0.0) - offset
            unit_p[i] = 0.0
        b_supply = self._rollout(zeros_m, zeros_n, 1.0) - offset
        return a, b_power, b_supply, offset
