"""Reference implementations the shipped kernels are pinned against.

Each oracle subclasses the shipped class and overrides only its hot
kernel with the original, readable loop, so an equivalence test can
drive both through the same public API and compare results bit for bit:

- :class:`LoopRoomSimulation` — the per-node derivative loop and the
  tuple-state RK4 stepper behind
  :class:`~repro.thermal.simulation.RoomSimulation`;
- :class:`LoopConsolidationIndex` — the per-row Algorithm-1 build
  behind :class:`~repro.core.consolidation.ConsolidationIndex`.

They are test code: nothing under ``src/`` imports them.
"""

from tests.oracles.consolidation import LoopConsolidationIndex
from tests.oracles.simulation import LoopRoomSimulation

__all__ = ["LoopConsolidationIndex", "LoopRoomSimulation"]
