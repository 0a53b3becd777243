"""Per-node loop references for the transient RK4 integrator and the
algebraic steady-state solver."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import obs, units
from repro.errors import ConfigurationError, ConvergenceError
from repro.thermal.simulation import (
    OFF_NODE_CONDUCTANCE,
    RoomSimulation,
    SteadyState,
    check_node_powers,
)


class LoopRoomSimulation(RoomSimulation):
    """:class:`RoomSimulation` stepped and solved by the original
    per-node loops.

    The readable specification of the room physics: one Python
    iteration per node for the derivatives, RK4 over
    ``(t_cpu, t_box, t_room)`` tuples, and a scalar steady-state solve
    that picks the cooler's mode with Python conditionals and then
    solves each node alone.  The vectorized stepper, the shipped
    :meth:`~RoomSimulation.steady_state` and every row of
    :meth:`~RoomSimulation.steady_state_many` must reproduce them bit
    for bit.  Everything else (inputs, cooler, fault seams, divergence
    guard, the batched solver) is inherited.
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

    def steady_state(
        self,
        powers: Optional[Sequence[float]] = None,
        on_mask: Optional[Sequence[bool]] = None,
        set_point: Optional[float] = None,
    ) -> SteadyState:
        """The scalar solve: the cooler's mode by Python conditionals,
        then one :meth:`~repro.thermal.node.ComputeNodeThermal.steady_state`
        per powered-on node."""
        obs.count("simulation.steady_state_solves")
        p, mask = check_node_powers(
            self.powers.copy() if powers is None else powers,
            self.on_mask.copy() if on_mask is None else on_mask,
            self.room.node_count,
        )
        sp = self.cooler.set_point if set_point is None else float(set_point)
        if not units.is_valid_temperature(sp):
            raise ConfigurationError(f"set point out of range: {sp}")

        total_power = float(np.sum(p[mask]))
        f_c = self.cooler.supply_flow * units.C_AIR
        u = self.room.envelope_conductance
        t_env = self.room.t_env

        # Regulated mode: T_room == T_SP.
        q_needed = self.room.steady_heat_load(total_power, sp)
        coil_limit = (sp - self.cooler.t_ac_min) * f_c
        if 0.0 <= q_needed <= min(self.cooler.q_max, coil_limit):
            t_room = sp
            q = q_needed
            regulated = True
        elif q_needed < 0.0:
            # Room would float below the set point even with the cooler
            # off (can only happen if the building is colder than the set
            # point); equilibrium with q == 0.
            if u <= 0.0:
                raise ConvergenceError(
                    "no steady state: zero heat load and no envelope path"
                )
            t_room = t_env + total_power / u
            q = 0.0
            regulated = False
        else:
            # Saturated: try the q_max mode, then the coil-limited mode.
            t_room, q = self._saturated_mode(total_power, f_c, u, t_env, sp)
            regulated = False

        t_ac = t_room - q / f_c
        t_in = self.room.inlet_temperatures(t_ac, t_room)
        n = self.room.node_count
        t_cpu = np.empty(n)
        t_box = np.empty(n)
        for i, node in enumerate(self.room.nodes):
            if mask[i]:
                state = node.steady_state(p[i], t_in[i])
                t_cpu[i] = state.t_cpu
                t_box[i] = state.t_box
            else:
                t_cpu[i] = t_room
                t_box[i] = t_room
                t_in[i] = t_room
        return SteadyState(
            t_room=t_room,
            t_ac=t_ac,
            q_cool=q,
            p_ac=self.cooler.steady_state_power(q),
            t_cpu=t_cpu,
            t_box=t_box,
            t_in=t_in,
            server_power=np.where(mask, p, 0.0),
            regulated=regulated,
        )

    def _saturated_mode(
        self, total_power: float, f_c: float, u: float, t_env: float, sp: float
    ) -> tuple[float, float]:
        """Solve the steady state when the cooler cannot hold the set point."""
        candidates: list[tuple[float, float]] = []
        if u > 0.0:
            # Mode A: capacity-limited at q_max.
            t_room_a = t_env - (self.cooler.q_max - total_power) / u
            t_ac_a = t_room_a - self.cooler.q_max / f_c
            if t_room_a >= sp and t_ac_a >= self.cooler.t_ac_min - 1e-9:
                candidates.append((t_room_a, self.cooler.q_max))
        # Mode B: coil-limited at t_ac_min.
        t_room_b = (total_power + u * t_env + f_c * self.cooler.t_ac_min) / (
            f_c + u
        )
        q_b = (t_room_b - self.cooler.t_ac_min) * f_c
        if t_room_b >= sp and 0.0 <= q_b <= self.cooler.q_max + 1e-9:
            candidates.append((t_room_b, min(q_b, self.cooler.q_max)))
        if not candidates:
            raise ConvergenceError(
                "cooler saturated with no consistent steady state "
                f"(load {total_power:.0f} W exceeds what the unit can reject)"
            )
        # If both modes are consistent the physically binding one is the
        # one yielding the lower capacity.
        return min(candidates, key=lambda c: c[1])
