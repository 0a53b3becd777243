"""Zonal (stratified) machine-room model — higher-fidelity substrate.

The default room model gives every machine a *parameterized* blend of
supply and bulk air (Eq. 7 is baked into the ground truth).  This module
provides a stratified alternative in which the paper's affine inlet
relation must *emerge*: the room is a vertical stack of well-mixed air
zones, cold supply air drops to the floor zone, warm air advects upward
to the return grille at the ceiling, adjacent zones mix turbulently, and
every machine simply breathes the air of the zone its rack position puts
it in.

Physics per zone ``z`` (floor is ``z = 0``; all flows in m^3/s, energy
in W):

- the full supply flow ``f_ac`` enters zone 0 at ``T_ac`` and the same
  flow advects upward through every zone boundary until the return
  extracts it from the top zone (mass is conserved exactly: machine
  intake and exhaust cancel within a zone);
- adjacent zones exchange a symmetric turbulent mixing flow ``g``;
- machines in the zone inject their electrical power as heat (their
  exhaust is their intake plus ``P_i / (F_i c_air)``);
- each zone exchanges ``U_z (T_env - T_z)`` with the building envelope.

Steady state is a small linear system; the transient integrator mirrors
:class:`~repro.thermal.simulation.RoomSimulation` so the zonal room is a
drop-in testbed substrate (same profiling campaign, same evaluation).

Why it matters: the paper asks "whether a simplified model is sufficient
to arrive at a solution that achieves a non-trivial improvement".  On
the zonal ground truth the fitted Eq. 8 coefficients are a *worse*
approximation (zone temperatures respond to the whole load vector, not
just the machine's own power), so the robustness experiment in
``bench_zonal.py`` is a genuine test of that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import units
from repro.errors import ConfigurationError, ConvergenceError, SimulationError
from repro.thermal.cooling import CoolingUnit
from repro.thermal.node import ComputeNodeThermal
from repro.thermal.simulation import (
    OFF_NODE_CONDUCTANCE,
    SteadyState,
    check_node_powers,
)


@dataclass(frozen=True)
class ZonalRoom:
    """A vertically stratified machine room.

    Parameters
    ----------
    nodes:
        The computing units (``supply_fraction`` is ignored here — inlet
        air comes entirely from the machine's zone).
    zone_of:
        Zone index of each node (0 = floor, coolest).
    n_zones:
        Number of vertical zones.
    zone_heat_capacity:
        Heat capacity of one zone's air volume, J/K.
    mixing_flow:
        Turbulent exchange flow between adjacent zones, m^3/s.
    envelope_conductance:
        Total room-to-building conductance, W/K (split evenly per zone).
    t_env:
        Building temperature, K.
    supply_flow:
        Cooling-unit air flow, m^3/s.
    """

    nodes: tuple[ComputeNodeThermal, ...]
    zone_of: tuple[int, ...]
    n_zones: int
    zone_heat_capacity: float
    mixing_flow: float
    envelope_conductance: float
    t_env: float
    supply_flow: float

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("zonal room needs at least one node")
        if self.n_zones < 1:
            raise ConfigurationError(
                f"need at least one zone, got {self.n_zones}"
            )
        if len(self.zone_of) != len(self.nodes):
            raise ConfigurationError(
                f"{len(self.nodes)} nodes but {len(self.zone_of)} zone ids"
            )
        if any(not 0 <= z < self.n_zones for z in self.zone_of):
            raise ConfigurationError("zone id out of range")
        if self.zone_heat_capacity <= 0.0:
            raise ConfigurationError("zone_heat_capacity must be positive")
        if self.mixing_flow < 0.0:
            raise ConfigurationError("mixing_flow must be non-negative")
        if self.supply_flow <= 0.0:
            raise ConfigurationError("supply_flow must be positive")

    @property
    def node_count(self) -> int:
        """Number of computing units in the room."""
        return len(self.nodes)

    def zone_members(self, zone: int) -> list[int]:
        """Node ids assigned to one zone."""
        return [i for i, z in enumerate(self.zone_of) if z == zone]

    def zone_powers(
        self, powers: Sequence[float], on_mask: Sequence[bool]
    ) -> np.ndarray:
        """Per-zone heat injection from running machines, W."""
        out = np.zeros(self.n_zones)
        for i, (p, on) in enumerate(zip(powers, on_mask)):
            if on:
                out[self.zone_of[i]] += p
        return out


class ZonalRoomSimulation:
    """Coupled zonal room + cooling unit (drop-in for RoomSimulation)."""

    def __init__(
        self,
        room: ZonalRoom,
        cooler: CoolingUnit,
        initial_temperature: float = units.celsius_to_kelvin(22.0),
    ) -> None:
        if abs(cooler.supply_flow - room.supply_flow) > 1e-9:
            raise ConfigurationError(
                "cooler and room disagree on the supply flow"
            )
        self.room = room
        self.cooler = cooler
        n = room.node_count
        self.t_cpu = np.full(n, initial_temperature, dtype=float)
        self.t_box = np.full(n, initial_temperature, dtype=float)
        self.t_zone = np.full(room.n_zones, initial_temperature, dtype=float)
        self.t_ac = float(initial_temperature)
        self.powers = np.zeros(n, dtype=float)
        self.on_mask = np.ones(n, dtype=bool)
        self.time = 0.0
        self._last_p_ac = 0.0

    # The return air is drawn from the ceiling zone.
    @property
    def t_room(self) -> float:
        """Return-air (top zone) temperature, K."""
        return float(self.t_zone[-1])

    # ------------------------------------------------------------------ #
    # Inputs (same contract as RoomSimulation)
    # ------------------------------------------------------------------ #

    def set_node_powers(
        self, powers: Sequence[float], on_mask: Optional[Sequence[bool]] = None
    ) -> None:
        """Set per-node electrical power (W) and optionally the on mask,
        checked as :func:`~repro.thermal.simulation.check_node_powers`
        checks them."""
        arr, mask = check_node_powers(powers, on_mask, self.room.node_count)
        if mask is not None:
            self.on_mask = mask
        self.powers = arr

    def set_set_point(self, set_point: float) -> None:
        """Command a new cooler set point (K)."""
        if not units.is_valid_temperature(set_point):
            raise ConfigurationError(f"set point out of range: {set_point}")
        self.cooler.set_point = set_point

    # ------------------------------------------------------------------ #
    # Steady state (linear solve)
    # ------------------------------------------------------------------ #

    def _zone_system(
        self, q_powers: np.ndarray, t_ac: float
    ) -> np.ndarray:
        """Solve zone temperatures for a *given* supply temperature.

        The zone balances are linear in the zone temperatures once
        ``T_ac`` is fixed.
        """
        z = self.room.n_zones
        fc = self.room.supply_flow * units.C_AIR
        gc = self.room.mixing_flow * units.C_AIR
        u = self.room.envelope_conductance / z
        a = np.zeros((z, z))
        b = np.zeros(z)
        for k in range(z):
            # Advection: f_ac enters from below (zone k-1, or the supply
            # for the floor zone) and leaves upward (or to the return).
            a[k, k] -= fc
            if k == 0:
                b[0] -= fc * t_ac
            else:
                a[k, k - 1] += fc
            # Turbulent mixing with neighbours.
            if k > 0:
                a[k, k - 1] += gc
                a[k, k] -= gc
            if k < z - 1:
                a[k, k + 1] += gc
                a[k, k] -= gc
            # Envelope and heat injection.
            a[k, k] -= u
            b[k] -= u * self.room.t_env + q_powers[k]
        return np.linalg.solve(a, b)

    def steady_state(
        self,
        powers: Optional[Sequence[float]] = None,
        on_mask: Optional[Sequence[bool]] = None,
        set_point: Optional[float] = None,
    ) -> SteadyState:
        """Long-run operating point (regulated or honestly saturated).

        Powers and mask are checked as
        :func:`~repro.thermal.simulation.check_node_powers` checks them.
        """
        p, mask = check_node_powers(
            self.powers.copy() if powers is None else powers,
            self.on_mask.copy() if on_mask is None else on_mask,
            self.room.node_count,
        )
        sp = self.cooler.set_point if set_point is None else float(set_point)
        q_zone = self.room.zone_powers(p, mask)
        total_power = float(q_zone.sum())
        fc = self.room.supply_flow * units.C_AIR
        u = self.room.envelope_conductance

        # Regulated mode: top zone at the set point.  The whole-room
        # balance still gives q = sum(P) + U·(T_env - T_mean); since the
        # envelope couples to every zone, iterate the (fast-converging)
        # fixed point on q.
        def solve_for(t_ac: float) -> np.ndarray:
            return self._zone_system(q_zone, t_ac)

        regulated = True
        t_ac = sp - (total_power + u * (self.room.t_env - sp)) / fc
        for _ in range(200):
            zones = solve_for(t_ac)
            error = zones[-1] - sp
            if abs(error) < 1e-10:
                break
            # d(T_top)/d(T_ac) is ~1 for this topology.
            t_ac -= error
        else:
            raise ConvergenceError("zonal regulation failed to converge")
        q = fc * (zones[-1] - t_ac)
        limit = self.cooler.max_capacity_for_return(zones[-1])
        if q < 0.0:
            # Cooler off; the room floats.  Solve with q = 0.
            regulated = False
            t_ac, zones = self._saturated(q_zone, 0.0)
            q = 0.0
        elif q > limit:
            regulated = False
            t_ac, zones = self._saturated(q_zone, limit)
            q = limit

        t_cpu = np.empty(self.room.node_count)
        t_box = np.empty(self.room.node_count)
        t_in = np.empty(self.room.node_count)
        for i, node in enumerate(self.room.nodes):
            zone_t = zones[self.room.zone_of[i]]
            if mask[i]:
                state = node.steady_state(p[i], zone_t)
                t_cpu[i] = state.t_cpu
                t_box[i] = state.t_box
                t_in[i] = zone_t
            else:
                t_cpu[i] = zone_t
                t_box[i] = zone_t
                t_in[i] = zone_t
        return SteadyState(
            t_room=float(zones[-1]),
            t_ac=t_ac,
            q_cool=q,
            p_ac=self.cooler.steady_state_power(q),
            t_cpu=t_cpu,
            t_box=t_box,
            t_in=t_in,
            server_power=np.where(mask, p, 0.0),
            regulated=regulated,
        )

    def _saturated(
        self, q_zone: np.ndarray, q: float
    ) -> tuple[float, np.ndarray]:
        """Solve the saturated mode where the removed heat is pinned.

        ``T_top`` is affine in ``T_ac`` (the zone system is linear), so
        two evaluations determine the line and ``T_ac = T_top - q/fc``
        solves in closed form.
        """
        fc = self.room.supply_flow * units.C_AIR
        t0, t1 = 285.0, 295.0
        top0 = self._zone_system(q_zone, t0)[-1]
        top1 = self._zone_system(q_zone, t1)[-1]
        slope = (top1 - top0) / (t1 - t0)
        intercept = top0 - slope * t0
        if abs(1.0 - slope) < 1e-12:
            raise ConvergenceError(
                "zonal saturation is degenerate (unit gain to T_ac)"
            )
        t_ac = (intercept - q / fc) / (1.0 - slope)
        t_ac = max(t_ac, self.cooler.t_ac_min)
        return t_ac, self._zone_system(q_zone, t_ac)

    # ------------------------------------------------------------------ #
    # Transient integration
    # ------------------------------------------------------------------ #

    def _derivatives(
        self,
        t_cpu: np.ndarray,
        t_box: np.ndarray,
        t_zone: np.ndarray,
        t_ac: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d_cpu = np.zeros_like(t_cpu)
        d_box = np.zeros_like(t_box)
        zone_heat = np.zeros(self.room.n_zones)
        for i, node in enumerate(self.room.nodes):
            zone = self.room.zone_of[i]
            exchange = (t_cpu[i] - t_box[i]) * node.theta
            if self.on_mask[i]:
                d_cpu[i] = (self.powers[i] - exchange) / node.nu_cpu
                d_box[i] = (
                    exchange
                    + node.flow * units.C_AIR * (t_zone[zone] - t_box[i])
                ) / node.nu_box
                zone_heat[zone] += (
                    node.flow * units.C_AIR * (t_box[i] - t_zone[zone])
                )
            else:
                leak = OFF_NODE_CONDUCTANCE * (t_zone[zone] - t_box[i])
                d_cpu[i] = -exchange / node.nu_cpu
                d_box[i] = (exchange + leak) / node.nu_box
                zone_heat[zone] -= leak
        fc = self.room.supply_flow * units.C_AIR
        gc = self.room.mixing_flow * units.C_AIR
        u = self.room.envelope_conductance / self.room.n_zones
        for k in range(self.room.n_zones):
            below = t_ac if k == 0 else t_zone[k - 1]
            zone_heat[k] += fc * (below - t_zone[k])
            if k > 0:
                zone_heat[k] += gc * (t_zone[k - 1] - t_zone[k])
            if k < self.room.n_zones - 1:
                zone_heat[k] += gc * (t_zone[k + 1] - t_zone[k])
            zone_heat[k] += u * (self.room.t_env - t_zone[k])
        return d_cpu, d_box, zone_heat / self.room.zone_heat_capacity

    def step(self, dt: float = 0.5) -> None:
        """Advance by ``dt`` seconds (RK4; cooler PI once per step)."""
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        t_ac, p_ac = self.cooler.step(self.t_room, dt)
        self.t_ac = t_ac
        self._last_p_ac = p_ac

        def deriv(state):
            return self._derivatives(state[0], state[1], state[2], t_ac)

        s0 = (self.t_cpu, self.t_box, self.t_zone)
        k1 = deriv(s0)
        k2 = deriv(
            tuple(s + 0.5 * dt * k for s, k in zip(s0, k1))
        )
        k3 = deriv(
            tuple(s + 0.5 * dt * k for s, k in zip(s0, k2))
        )
        k4 = deriv(tuple(s + dt * k for s, k in zip(s0, k3)))
        self.t_cpu = self.t_cpu + dt / 6.0 * (
            k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]
        )
        self.t_box = self.t_box + dt / 6.0 * (
            k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]
        )
        self.t_zone = self.t_zone + dt / 6.0 * (
            k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]
        )
        self.time += dt
        if not (
            np.all(np.isfinite(self.t_cpu))
            and np.all(np.isfinite(self.t_box))
            and np.all(np.isfinite(self.t_zone))
        ):
            raise SimulationError(
                f"zonal state diverged at t={self.time:.1f}s"
            )

    def run(self, duration: float, dt: float = 0.5) -> None:
        """Advance the simulation by exactly ``duration`` seconds.

        Whole steps of ``dt`` plus one remainder sub-step when the
        duration is not an integer multiple of ``dt`` (same contract as
        :meth:`RoomSimulation.run`).
        """
        if duration < 0.0:
            raise ConfigurationError(
                f"duration must be non-negative, got {duration}"
            )
        ratio = duration / dt
        steps = int(ratio)
        if ratio - steps > 1.0 - 1e-9:
            steps += 1
        remainder = duration - steps * dt
        for _ in range(steps):
            self.step(dt)
        if remainder > 1e-9 * dt:
            self.step(remainder)

    @property
    def cooling_power(self) -> float:
        """Electrical power the cooler drew during the last step, W."""
        return self._last_p_ac

    @property
    def total_power(self) -> float:
        """Total electrical power, servers plus cooling, W."""
        return float(np.sum(self.powers)) + self._last_p_ac
