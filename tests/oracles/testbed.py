"""Per-machine loop reference for the ground-truth server powers."""

from __future__ import annotations

import numpy as np

from repro.testbed.experiment import Testbed


class LoopTestbed(Testbed):
    """:class:`Testbed` whose server powers come from one
    :meth:`~repro.power.server.ServerPowerModel.power` call per machine.

    The readable specification of :meth:`Testbed.true_server_powers`;
    the array pass must reproduce it bit for bit.
    """

    def true_server_powers(self, loads, on_ids) -> np.ndarray:
        powers = np.zeros(self.n_machines)
        for i in on_ids:
            powers[i] = self.power_models[i].power(float(loads[i]))
        return powers
