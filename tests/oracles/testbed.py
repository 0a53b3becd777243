"""Per-machine loop reference for the ground-truth server powers."""

from __future__ import annotations

import numpy as np

from repro.testbed.experiment import Testbed


class LoopTestbed(Testbed):
    """:class:`Testbed` whose server powers come from one
    :meth:`~repro.power.server.ServerPowerModel.power` call per machine.

    The readable specification of :meth:`Testbed.true_server_powers`;
    the array pass must reproduce it bit for bit.  An ``(S, n)`` block
    of loads is evaluated one row at a time.
    """

    def true_server_powers(self, loads, on_ids) -> np.ndarray:
        if np.ndim(loads) == 2:
            return np.array([
                LoopTestbed.true_server_powers(self, row, on_ids)
                for row in loads
            ]).reshape(np.shape(loads))
        powers = np.zeros(self.n_machines)
        for i in on_ids:
            powers[i] = self.power_models[i].power(float(loads[i]))
        return powers
