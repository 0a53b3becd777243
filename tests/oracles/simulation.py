"""Per-node loop reference for the transient RK4 integrator."""

from __future__ import annotations

import numpy as np

from repro import units
from repro.thermal.simulation import OFF_NODE_CONDUCTANCE, RoomSimulation


class LoopRoomSimulation(RoomSimulation):
    """:class:`RoomSimulation` stepped by the original per-node loop.

    The readable specification of the room physics: one Python
    iteration per node for the derivatives, and RK4 over
    ``(t_cpu, t_box, t_room)`` tuples.  The vectorized stepper must
    reproduce it bit for bit.  Everything else (inputs, cooler, fault
    seams, divergence guard, steady-state solvers) is inherited.
    """

    def _derivatives(
        self, t_cpu: np.ndarray, t_box: np.ndarray, t_room: float, t_ac: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        d_cpu = np.zeros_like(t_cpu)
        d_box = np.zeros_like(t_box)
        room_heat = 0.0
        for i, node in enumerate(self.room.nodes):
            exchange = (t_cpu[i] - t_box[i]) * node.theta
            if self.on_mask[i]:
                t_in = (
                    node.supply_fraction * t_ac
                    + (1.0 - node.supply_fraction) * t_room
                )
                d_cpu[i] = (self.powers[i] - exchange) / node.nu_cpu
                d_box[i] = (
                    exchange
                    + node.flow * units.C_AIR * (t_in - t_box[i])
                ) / node.nu_box
                room_heat += node.flow * units.C_AIR * (t_box[i] - t_room)
            else:
                # Fans off: only a weak passive coupling to the room.
                leak = OFF_NODE_CONDUCTANCE * (t_room - t_box[i])
                d_cpu[i] = -exchange / node.nu_cpu
                d_box[i] = (exchange + leak) / node.nu_box
                room_heat -= leak
        room_heat += (
            self.room.bypass_flow(self.on_mask)
            * units.C_AIR
            * (t_ac - t_room)
        )
        room_heat += self.room.envelope_conductance * (
            self.room.t_env - t_room
        )
        return d_cpu, d_box, room_heat / self.room.nu_room

    def _advance(self, dt: float, t_ac: float) -> None:
        def deriv(state: tuple[np.ndarray, np.ndarray, float]):
            # Bound through the class, not the instance: a test that
            # wraps an instance's _derivatives counts only evaluations
            # made outside the stepper.
            return LoopRoomSimulation._derivatives(
                self, state[0], state[1], state[2], t_ac
            )

        s0 = (self.t_cpu, self.t_box, self.t_room)
        k1 = deriv(s0)
        s1 = (
            self.t_cpu + 0.5 * dt * k1[0],
            self.t_box + 0.5 * dt * k1[1],
            self.t_room + 0.5 * dt * k1[2],
        )
        k2 = deriv(s1)
        s2 = (
            self.t_cpu + 0.5 * dt * k2[0],
            self.t_box + 0.5 * dt * k2[1],
            self.t_room + 0.5 * dt * k2[2],
        )
        k3 = deriv(s2)
        s3 = (
            self.t_cpu + dt * k3[0],
            self.t_box + dt * k3[1],
            self.t_room + dt * k3[2],
        )
        k4 = deriv(s3)
        self.t_cpu = self.t_cpu + dt / 6.0 * (
            k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]
        )
        self.t_box = self.t_box + dt / 6.0 * (
            k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]
        )
        self.t_room = self.t_room + dt / 6.0 * (
            k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]
        )
        self._last_stage = (k4[0], k4[1], k4[2])
        # Stack the new state where step()'s divergence probe reads it.
        n = self._n
        self._yt[:n] = self.t_cpu
        self._yt[n : 2 * n] = self.t_box
        self._yt[2 * n] = self.t_room
