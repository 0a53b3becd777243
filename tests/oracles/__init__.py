"""Reference implementations the shipped kernels are pinned against.

Each oracle subclasses the shipped class and overrides only its hot
kernels with the original, readable loops, so an equivalence test can
drive both through the same public API and compare results bit for bit:

- :class:`LoopRoomSimulation` — the per-node derivative loop and the
  tuple-state RK4 stepper behind
  :class:`~repro.thermal.simulation.RoomSimulation`;
- :class:`LoopConsolidationIndex` — the per-row Algorithm-1 build
  behind :class:`~repro.core.consolidation.ConsolidationIndex`;
- :class:`PartitionConsolidationIndex` — the per-iterate top-``k``
  partition behind the refined sweep's reads of the order rows' prefix
  sums in :class:`~repro.core.consolidation.ConsolidationIndex`;
- :class:`LoopLinearizedPlant` — one RK4 rollout per probe behind the
  stacked extraction of :class:`~repro.control.plant.LinearizedPlant`;
- :class:`LoopTestbed` — one power-law call per machine behind
  :meth:`~repro.testbed.experiment.Testbed.true_server_powers`;
- :class:`LoopMPCController` — the row-by-row thermal-cap constraints
  behind the gathered blocks of
  :class:`~repro.control.mpc.MPCController`'s horizon LP;
- :mod:`tests.oracles.loop` — the per-substep closed-loop march and the
  scalar ``follow_plan``/``follow_demand`` balancers behind
  :func:`~repro.faults.loop.march` and its vector balancers;
- :class:`ExactSelectionOptimizer` and :class:`BruteForceOptimizer` —
  the per-query exact Dinkelbach scan and subset enumeration over the
  surviving machines behind the sweep every
  :class:`~repro.core.optimizer.JointOptimizer` selection, healthy or
  degraded, goes through;
- :mod:`tests.oracles.anneal` — the Eq. 23 subset scorer
  (:func:`subset_power`) and the seeded simulated-annealing baseline
  (:func:`anneal_on_set`) the scale benchmark reports gaps against;
- :mod:`tests.oracles.closed_form` — the per-node closed form (Eqs.
  18-22, active-set repair, back-off bisection, KKT multipliers) behind
  :mod:`repro.core.closed_form`, and :class:`LoopSystemModel`, whose
  ``k_values``/``ab_pairs``/``predicted_cpu_temperatures``/
  ``max_feasible_t_ac`` loop over ``nodes`` where
  :class:`~repro.core.model.SystemModel` reads its coefficient arrays.

They are test code: nothing under ``src/`` imports them.
"""

from tests.oracles.anneal import AnnealResult, anneal_on_set, subset_power
from tests.oracles.closed_form import LoopSystemModel
from tests.oracles.consolidation import (
    LoopConsolidationIndex,
    PartitionConsolidationIndex,
)
from tests.oracles.mpc import LoopMPCController
from tests.oracles.plant import LoopLinearizedPlant
from tests.oracles.selection import (
    BruteForceOptimizer,
    ExactSelectionOptimizer,
)
from tests.oracles.simulation import LoopRoomSimulation
from tests.oracles.testbed import LoopTestbed

__all__ = [
    "AnnealResult",
    "BruteForceOptimizer",
    "ExactSelectionOptimizer",
    "LoopConsolidationIndex",
    "LoopLinearizedPlant",
    "LoopMPCController",
    "LoopRoomSimulation",
    "LoopSystemModel",
    "LoopTestbed",
    "PartitionConsolidationIndex",
    "anneal_on_set",
    "subset_power",
]
