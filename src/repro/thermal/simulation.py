"""Coupled room/cooler simulation and algebraic steady-state solver.

Two ways to evaluate the simulated testbed:

- :class:`RoomSimulation` integrates the full transient system (per-node
  Eqs. 1-2, the bulk room air volume, and the cooling unit's PI loop) with
  a fixed-step RK4 scheme.  Used by the profiling campaign, which — like
  the paper's experiments — waits for temperatures to settle and samples
  noisy sensors along the way.
- :meth:`RoomSimulation.steady_state` solves the same physics algebraically
  (the steady-state equations are linear once the active saturation mode of
  the cooler is known).  Used by the evaluation benches, which need many
  thousands of operating points.  :meth:`RoomSimulation.steady_state_many`
  solves a whole batch of operating points in one vectorized pass and
  returns a :class:`SteadyStateBatch`.

The transient integrator evaluates the derivatives as pure array
arithmetic and folds the four RK4 stages into stacked-state updates, with
no Python-level per-node iteration.  It preserves the exact expression
structure (and accumulation order) of the original per-node loop, so
every elementwise IEEE operation rounds the same way:
``tests/test_simulation_engine.py`` pins it **bit for bit** against that
loop (kept as a test oracle in ``tests/oracles/``) on randomized
scenarios, including off nodes, saturated coolers, set-point steps, and
active fault injectors.

Tests verify that the integrator converges to the algebraic solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs, units
from repro.obs import trace as _trace
from repro.obs import watchdog as _watchdog
from repro.errors import ConfigurationError, ConvergenceError, SimulationError
from repro.thermal.cooling import CoolingUnit
from repro.thermal.room import MachineRoom

#: Passive box-to-room conductance of a powered-off machine, W/K.  With the
#: fans stopped there is no forced air flow; a small natural-convection term
#: lets an off machine relax to room temperature instead of staying hot.
OFF_NODE_CONDUCTANCE = 1.0


@dataclass(frozen=True)
class SteadyState:
    """Steady-state operating point of the whole room.

    Attributes
    ----------
    t_room:
        Bulk (return) air temperature, K.  Equals the cooler set point when
        ``regulated`` is true.
    t_ac:
        Supply air temperature, K.
    q_cool:
        Heat removed from the air stream by the cooler, W.
    p_ac:
        Electrical power drawn by the cooling unit, W.
    t_cpu, t_box, t_in:
        Per-node temperatures, K (off nodes sit at ``t_room``).
    server_power:
        Per-node electrical power, W.
    regulated:
        Whether the cooler held the room at its set point (false when
        saturated at ``q_max`` or at the minimum supply temperature).
    """

    t_room: float
    t_ac: float
    q_cool: float
    p_ac: float
    t_cpu: np.ndarray
    t_box: np.ndarray
    t_in: np.ndarray
    server_power: np.ndarray
    regulated: bool

    @property
    def total_server_power(self) -> float:
        """Sum of per-node electrical power, W."""
        return float(np.sum(self.server_power))

    @property
    def total_power(self) -> float:
        """Total room power: servers plus cooling, W."""
        return self.total_server_power + self.p_ac

    @property
    def max_cpu_temperature(self) -> float:
        """Hottest CPU in the room, K."""
        return float(np.max(self.t_cpu))


@dataclass(frozen=True)
class SteadyStateBatch:
    """Steady states of ``B`` operating points, stored as arrays.

    Row ``i`` holds the solution of operating point ``i``; scalar fields
    of :class:`SteadyState` become ``(B,)`` arrays and per-node fields
    become ``(B, n)`` arrays.  :meth:`point` extracts one row as a plain
    :class:`SteadyState`.
    """

    t_room: np.ndarray
    t_ac: np.ndarray
    q_cool: np.ndarray
    p_ac: np.ndarray
    t_cpu: np.ndarray
    t_box: np.ndarray
    t_in: np.ndarray
    server_power: np.ndarray
    regulated: np.ndarray

    def __len__(self) -> int:
        return int(self.t_room.shape[0])

    @property
    def total_server_power(self) -> np.ndarray:
        """Per-point sum of server power, W, shape ``(B,)``."""
        return self.server_power.sum(axis=1)

    @property
    def total_power(self) -> np.ndarray:
        """Per-point total power (servers plus cooling), W, shape ``(B,)``."""
        return self.total_server_power + self.p_ac

    @property
    def max_cpu_temperature(self) -> np.ndarray:
        """Per-point hottest CPU, K, shape ``(B,)``."""
        return self.t_cpu.max(axis=1)

    def point(self, index: int) -> SteadyState:
        """The steady state of one operating point."""
        i = int(index)
        return SteadyState(
            t_room=float(self.t_room[i]),
            t_ac=float(self.t_ac[i]),
            q_cool=float(self.q_cool[i]),
            p_ac=float(self.p_ac[i]),
            t_cpu=self.t_cpu[i].copy(),
            t_box=self.t_box[i].copy(),
            t_in=self.t_in[i].copy(),
            server_power=self.server_power[i].copy(),
            regulated=bool(self.regulated[i]),
        )


class RoomSimulation:
    """Transient simulation of a machine room plus its cooling unit.

    The caller sets per-node electrical power (via
    :meth:`set_node_powers`) and the cooler set point, then advances time
    with :meth:`step` / :meth:`run` or asks for the long-run operating
    point directly with :meth:`steady_state` /
    :meth:`steady_state_many`.
    """

    def __init__(
        self,
        room: MachineRoom,
        cooler: CoolingUnit,
        initial_temperature: float = units.celsius_to_kelvin(22.0),
    ) -> None:
        if abs(cooler.supply_flow - room.supply_flow) > 1e-9:
            raise ConfigurationError(
                "cooler and room disagree on the supply flow: "
                f"{cooler.supply_flow} vs {room.supply_flow} m^3/s"
            )
        self.room = room
        self.cooler = cooler
        n = room.node_count
        self.t_cpu = np.full(n, initial_temperature, dtype=float)
        self.t_box = np.full(n, initial_temperature, dtype=float)
        self.t_room = float(initial_temperature)
        self.t_ac = float(initial_temperature)
        self.powers = np.zeros(n, dtype=float)
        self.on_mask = np.ones(n, dtype=bool)
        self.time = 0.0
        self._last_p_ac = 0.0
        # Optional repro.faults.FaultInjector (set by attach_simulation);
        # when None the stepper and set-point path behave exactly as
        # before the fault subsystem existed.
        self.fault_injector = None
        # Per-node constants of the vectorized kernels.  The room is
        # frozen, so these never change after construction.  _flow_c
        # carries flow * C_AIR pre-multiplied: the reference loop
        # computes the same left-associated product inline.
        self._theta = np.array([nd.theta for nd in room.nodes])
        self._nu_cpu = np.array([nd.nu_cpu for nd in room.nodes])
        self._nu_box = np.array([nd.nu_box for nd in room.nodes])
        self._flow_c = np.array(
            [nd.flow * units.C_AIR for nd in room.nodes]
        )
        self._supply_fraction = np.array(
            [nd.supply_fraction for nd in room.nodes]
        )
        self._recirc_fraction = 1.0 - self._supply_fraction
        # Mask-dependent constants, cached per on-mask (the fault
        # injector may flip machines off mid-run, so the cache is keyed
        # on the mask bytes and refreshed lazily).  An off node couples
        # to the room through OFF_NODE_CONDUCTANCE instead of its fan
        # stream, which makes both branches of the loop the same
        # expression shape: coupling * (target_temp - t_box).
        self._mask_key: Optional[bytes] = None
        self._coupling = np.empty(n)
        self._sf_eff = np.empty(n)
        self._rf_eff = np.empty(n)
        self._mask_f = np.empty(n)
        # bypass_flow(on_mask) * C_AIR; the cached value comes from
        # MachineRoom's own generator sum so it matches the reference
        # loop bit for bit.
        self._bypass_c = 0.0
        # Preallocated stacked-state and scratch buffers of the RK4 hot
        # path (all stage arithmetic runs through out= with no
        # per-step allocation).
        m = 2 * n + 1
        self._y0 = np.empty(m)
        self._yt = np.empty(m)
        self._k1 = np.empty(m)
        self._k2 = np.empty(m)
        self._k3 = np.empty(m)
        self._k4 = np.empty(m)
        self._scratch_a = np.empty(n)
        self._contrib = np.empty(n)
        self._acc = np.empty(n)
        self._powers_eff = np.empty(n)
        self._sf_ac = np.empty(n)
        # nu_cpu and nu_box stacked so both node halves of a stage
        # divide in one ufunc call (per-element rounding is unchanged).
        self._nu_all = np.concatenate([self._nu_cpu, self._nu_box])
        # Precomputed (buffer, cpu, box, nodes) views into the fixed
        # buffers (slicing in the hot loop costs a surprising amount of
        # the per-step budget).
        def _views(buf: np.ndarray):
            return buf, buf[:n], buf[n : 2 * n], buf[: 2 * n]
        self._y0_v = _views(self._y0)
        self._yt_v = _views(self._yt)
        self._k1_v = _views(self._k1)
        self._k2_v = _views(self._k2)
        self._k3_v = _views(self._k3)
        self._k4_v = _views(self._k4)
        # State/derivative buffers of _derivatives, kept apart from the
        # stepper's so an off-step evaluation never clobbers them.
        self._dy_v = _views(np.empty(m))
        self._dk_v = _views(np.empty(m))
        # Room scalars hoisted out of the per-stage kernel (attribute
        # chains on every stage cost real per-step time at small n).
        self._n = n
        self._env_c = room.envelope_conductance
        self._t_env = room.t_env
        self._nu_room = room.nu_room
        # Final-stage (k4) derivatives of the most recent step; the
        # settle-rate signal run_until_steady reads instead of paying a
        # fifth derivative evaluation per step.
        self._last_stage: Optional[
            tuple[np.ndarray, np.ndarray, float]
        ] = None

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #

    def set_node_powers(
        self, powers: Sequence[float], on_mask: Optional[Sequence[bool]] = None
    ) -> None:
        """Set per-node electrical power (W) and optionally the on/off mask.

        A powered-off machine must draw zero power; passing a positive
        power for an off machine is a caller bug and raises.
        """
        arr = np.asarray(powers, dtype=float)
        if arr.shape != (self.room.node_count,):
            raise ConfigurationError(
                f"expected {self.room.node_count} powers, got shape {arr.shape}"
            )
        if np.any(arr < 0.0):
            raise ConfigurationError("node powers must be non-negative")
        if on_mask is not None:
            mask = np.asarray(on_mask, dtype=bool)
            if mask.shape != arr.shape:
                raise ConfigurationError("on_mask shape must match powers")
            if np.any(arr[~mask] > 0.0):
                raise ConfigurationError(
                    "a powered-off machine cannot draw positive power"
                )
            self.on_mask = mask
        self.powers = arr

    def set_set_point(self, set_point: float) -> None:
        """Command a new cooler set point (K)."""
        if not units.is_valid_temperature(set_point):
            raise ConfigurationError(f"set point out of range: {set_point}")
        if self.fault_injector is not None:
            # Active set-point drift lands between the command and the
            # actuator; the injector records the commanded value.
            self.fault_injector.command_set_point(set_point)
            return
        self.cooler.set_point = set_point

    # ------------------------------------------------------------------ #
    # Transient integration
    # ------------------------------------------------------------------ #

    def _derivatives(
        self, t_cpu: np.ndarray, t_box: np.ndarray, t_room: float, t_ac: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Thermal-state time derivatives at an arbitrary state.

        Evaluated by the RK4 stage kernel under the current inputs, in
        its own stacked buffers: the stepper's ``_k4`` (read by
        :meth:`settle_rates`) and ``_yt`` (the divergence probe) are
        left untouched.
        """
        n = self._n
        self._load_inputs(t_ac)
        y_v, out_v = self._dy_v, self._dk_v
        np.copyto(y_v[1], t_cpu)
        np.copyto(y_v[2], t_box)
        y_v[0][2 * n] = t_room
        self._stage_kernel(y_v, t_ac, out_v)
        return out_v[1].copy(), out_v[2].copy(), float(out_v[0][2 * n])

    def _refresh_mask_constants(self) -> None:
        """Rebuild the mask-dependent constant arrays if the on-mask
        changed since the last derivative evaluation."""
        key = self.on_mask.tobytes()
        if key == self._mask_key:
            return
        self._mask_key = key
        on = self.on_mask
        np.copyto(self._coupling, OFF_NODE_CONDUCTANCE)
        np.copyto(self._coupling, self._flow_c, where=on)
        # Off nodes see the room: intake = 0 * t_ac + 1 * t_room.
        np.copyto(self._sf_eff, 0.0)
        np.copyto(self._sf_eff, self._supply_fraction, where=on)
        np.copyto(self._rf_eff, 1.0)
        np.copyto(self._rf_eff, self._recirc_fraction, where=on)
        np.copyto(self._mask_f, on)
        self._bypass_c = self.room.bypass_flow(on) * units.C_AIR

    def _load_inputs(self, t_ac: float) -> None:
        """Refresh the stage kernel's input constants: the mask-dependent
        arrays, the effective powers and the supply-air term."""
        self._refresh_mask_constants()
        np.multiply(self._mask_f, self.powers, out=self._powers_eff)
        np.multiply(self._sf_eff, t_ac, out=self._sf_ac)

    def _advance(self, dt: float, t_ac: float) -> None:
        # One stacked state vector y = [t_cpu, t_box, t_room]; the four
        # RK4 stages become whole-array arithmetic on preallocated
        # buffers.  The stage updates keep the expression shapes of the
        # reference loop (scalar 0.5 * dt first, then array multiply,
        # then add), so every element rounds identically; `out=` changes
        # where results land, never how they round.
        n = self._n
        # Step-level invariants: powers/mask and t_ac are fixed while
        # the four stages evaluate.
        self._load_inputs(t_ac)
        y0, yt = self._y0, self._yt
        k1, k2, k3, k4 = self._k1, self._k2, self._k3, self._k4
        mul, add = np.multiply, np.add
        np.copyto(self._y0_v[1], self.t_cpu)
        np.copyto(self._y0_v[2], self.t_box)
        y0[2 * n] = self.t_room
        half_dt = 0.5 * dt
        self._stage_kernel(self._y0_v, t_ac, self._k1_v)
        mul(k1, half_dt, out=yt)
        add(y0, yt, out=yt)
        self._stage_kernel(self._yt_v, t_ac, self._k2_v)
        mul(k2, half_dt, out=yt)
        add(y0, yt, out=yt)
        self._stage_kernel(self._yt_v, t_ac, self._k3_v)
        mul(k3, dt, out=yt)
        add(y0, yt, out=yt)
        self._stage_kernel(self._yt_v, t_ac, self._k4_v)
        # y0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), left-associated
        # exactly like the reference loop's update.
        mul(k2, 2.0, out=yt)
        add(k1, yt, out=yt)
        mul(k3, 2.0, out=k1)
        add(yt, k1, out=yt)
        add(yt, k4, out=yt)
        mul(yt, dt / 6.0, out=yt)
        add(y0, yt, out=yt)
        self.t_cpu = self._yt_v[1].copy()
        self.t_box = self._yt_v[2].copy()
        self.t_room = float(yt[2 * n])
        # k4 is a stable buffer, untouched until the next step's stage
        # four — safe for settle_rates() to read without a copy.
        self._last_stage = (
            self._k4_v[1],
            self._k4_v[2],
            float(k4[2 * n]),
        )

    def _stage_kernel(
        self,
        y_v: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        t_ac: float,
        out_v: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """One derivative evaluation of a stacked state into an output
        buffer, with step-level invariants hoisted (see
        :meth:`_load_inputs`) and all intermediates in scratch buffers.

        ``y_v`` and ``out_v`` are the precomputed
        ``(buffer, cpu, box, nodes)`` view tuples of the stacked buffers.
        """
        # Same physics as the per-node reference loop, as whole-array
        # expressions.  Each rewrite is rounding-exact: multiplication
        # is commutative bit for bit, `0.0 - x` == `-x`, and
        # `c * (a - b)` == `-(c * (b - a))` (all modulo the sign of
        # zero, which no downstream sum can observe).
        y, t_cpu, t_box, _ = y_v
        t_room = y[-1]
        out, d_cpu, box_term, d_nodes = out_v
        sub, mul, add = np.subtract, np.multiply, np.add
        exchange = self._scratch_a
        sub(t_cpu, t_box, out=exchange)
        mul(exchange, self._theta, out=exchange)
        sub(self._powers_eff, exchange, out=d_cpu)
        # target_temp = sf_eff * t_ac + rf_eff * t_room
        mul(self._rf_eff, t_room, out=box_term)
        add(self._sf_ac, box_term, out=box_term)
        sub(box_term, t_box, out=box_term)
        mul(box_term, self._coupling, out=box_term)
        add(exchange, box_term, out=box_term)
        # Both node halves divide by their stacked time constants in
        # one call; each element rounds exactly as the split divides.
        np.divide(d_nodes, self._nu_all, out=d_nodes)
        contrib = self._contrib
        sub(t_box, t_room, out=contrib)
        mul(contrib, self._coupling, out=contrib)
        # Strict left fold: np.sum's pairwise reduction would differ
        # from the reference loop's sequential accumulation in the last
        # ulp.
        np.add.accumulate(contrib, out=self._acc)
        room_heat = float(self._acc[-1])
        t_room_f = float(t_room)
        room_heat += self._bypass_c * (t_ac - t_room_f)
        room_heat += self._env_c * (self._t_env - t_room_f)
        out[-1] = room_heat / self._nu_room

    def step(self, dt: float = 0.5) -> None:
        """Advance the simulation by ``dt`` seconds (RK4 on the thermal
        states; the cooler's PI loop updates once per step)."""
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if self.fault_injector is not None:
            self.fault_injector.on_simulation_step(self)
        t_ac, p_ac = self.cooler.step(self.t_room, dt)
        self.t_ac = t_ac
        self._last_p_ac = p_ac
        self._advance(dt, t_ac)
        self.time += dt
        obs.count("simulation.steps")
        if _trace._tracing:
            _trace.add_event(
                "simulation.step",
                sim_time=self.time,
                t_room=self.t_room,
                t_ac=self.t_ac,
                hottest_cpu=float(np.max(self.t_cpu)),
                p_ac=self._last_p_ac,
            )
        wd = _watchdog._active
        if wd is not None:
            wd.check_simulation(self)
        # One fused probe instead of two isfinite scans: any NaN or Inf
        # in the stepped state (t_cpu, t_box, and t_room alike, stacked
        # in _yt) poisons the dot product, and squared Kelvin
        # temperatures cannot overflow on their own.
        yt = self._yt
        finite = bool(np.isfinite(np.dot(yt, yt)))
        if not (
            finite
            and units.MIN_PHYSICAL_TEMPERATURE
            < self.t_room
            < units.MAX_PHYSICAL_TEMPERATURE
        ):
            raise SimulationError(
                f"thermal state diverged at t={self.time:.1f}s "
                f"(t_room={self.t_room})"
            )

    def run(self, duration: float, dt: float = 0.5) -> None:
        """Advance the simulation by exactly ``duration`` seconds.

        Whole steps of ``dt``, plus one final remainder sub-step when
        ``duration`` is not an integer multiple of ``dt`` — so
        ``self.time`` always advances by the full duration (e.g.
        ``run(1.0, dt=0.3)`` integrates three 0.3 s steps and one 0.1 s
        step, not 0.9 s).
        """
        if duration < 0.0:
            raise ConfigurationError(
                f"duration must be non-negative, got {duration}"
            )
        ratio = duration / dt
        steps = int(ratio)
        if ratio - steps > 1.0 - 1e-9:
            # The quotient sits a rounding error below a whole number of
            # steps; treat it as exact rather than taking a ~0-length
            # remainder sub-step.
            steps += 1
        remainder = duration - steps * dt
        with obs.timed("simulation/run"):
            for _ in range(steps):
                self.step(dt)
            if remainder > 1e-9 * dt:
                self.step(remainder)

    def settle_rates(self) -> tuple[float, float, float]:
        """Settle rates (``max |dT_cpu|``, ``max |dT_box|``,
        ``|dT_room|``), K/s, from the last step's final RK4 stage.

        This is the stepper's own convergence signal — no extra
        derivative evaluation is paid to read it.
        """
        if self._last_stage is None:
            raise SimulationError(
                "no step has been taken yet; settle rates are undefined"
            )
        d_cpu, d_box, d_room = self._last_stage
        return (
            float(np.max(np.abs(d_cpu))),
            float(np.max(np.abs(d_box))),
            abs(float(d_room)),
        )

    def run_until_steady(
        self,
        dt: float = 0.5,
        tolerance: float = 1e-4,
        max_duration: float = 36000.0,
    ) -> None:
        """Integrate until all temperature derivatives fall below
        ``tolerance`` K/s, or raise :class:`ConvergenceError`.

        Convergence is judged on :meth:`settle_rates` (the stepper's
        final-stage derivatives), so settling costs four derivative
        evaluations per step, not five.
        """
        elapsed = 0.0
        with obs.timed("simulation/settle"):
            while elapsed < max_duration:
                self.step(dt)
                elapsed += dt
                if (
                    max(self.settle_rates()) < tolerance
                    and elapsed > 10.0 * dt
                ):
                    return
        raise ConvergenceError(
            f"room did not reach steady state within {max_duration} s"
        )

    @property
    def cooling_power(self) -> float:
        """Electrical power the cooler drew during the last step, W."""
        return self._last_p_ac

    @property
    def total_power(self) -> float:
        """Total electrical power, servers plus cooling, W."""
        return float(np.sum(self.powers)) + self._last_p_ac

    def inlet_temperatures(self) -> np.ndarray:
        """Current per-node intake temperatures, K."""
        return self.room.inlet_temperatures(self.t_ac, self.t_room)

    # ------------------------------------------------------------------ #
    # Algebraic steady state
    # ------------------------------------------------------------------ #

    def steady_state(
        self,
        powers: Optional[Sequence[float]] = None,
        on_mask: Optional[Sequence[bool]] = None,
        set_point: Optional[float] = None,
    ) -> SteadyState:
        """Solve the long-run operating point without integrating.

        Arguments default to the simulation's current inputs.  The solver
        first assumes the cooler regulates (room temperature equals the set
        point); if the required capacity violates an actuator limit it
        re-solves the consistent saturated mode.
        """
        obs.count("simulation.steady_state_solves")
        p = (
            np.asarray(powers, dtype=float)
            if powers is not None
            else self.powers.copy()
        )
        mask = (
            np.asarray(on_mask, dtype=bool)
            if on_mask is not None
            else self.on_mask.copy()
        )
        if p.shape != (self.room.node_count,) or mask.shape != p.shape:
            raise ConfigurationError("powers/on_mask shape mismatch")
        if np.any(p[~mask] > 0.0):
            raise ConfigurationError(
                "a powered-off machine cannot draw positive power"
            )
        sp = self.cooler.set_point if set_point is None else float(set_point)

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

    # ------------------------------------------------------------------ #
    # Batched algebraic steady state
    # ------------------------------------------------------------------ #

    def steady_state_many(
        self,
        powers: Sequence[Sequence[float]],
        on_masks: Optional[Sequence[Sequence[bool]]] = None,
        set_points: Optional[Sequence[float]] = None,
    ) -> SteadyStateBatch:
        """Solve many operating points in one vectorized pass.

        Parameters
        ----------
        powers:
            ``(B, n)`` per-node electrical powers, W — one row per
            operating point.
        on_masks:
            Optional ``(B, n)`` on/off masks (default: all machines on).
        set_points:
            Optional ``(B,)`` cooler set points, K (a scalar broadcasts;
            default: the cooler's current set point).

        Every row solves exactly as :meth:`steady_state` would — same
        mode selection, same per-row total-power accumulation — so
        ``steady_state_many(P, M, S).point(i)`` equals
        ``steady_state(P[i], M[i], S[i])`` field for field.
        """
        p = np.asarray(powers, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.room.node_count:
            raise ConfigurationError(
                f"expected a (B, {self.room.node_count}) powers matrix, "
                f"got shape {p.shape}"
            )
        batch = p.shape[0]
        if batch == 0:
            raise ConfigurationError("powers matrix must have at least 1 row")
        mask = (
            np.asarray(on_masks, dtype=bool)
            if on_masks is not None
            else np.ones(p.shape, dtype=bool)
        )
        if mask.shape != p.shape:
            raise ConfigurationError("on_masks shape must match powers")
        if np.any(p[~mask] > 0.0):
            raise ConfigurationError(
                "a powered-off machine cannot draw positive power"
            )
        if set_points is None:
            sp = np.full(batch, self.cooler.set_point)
        else:
            sp = np.broadcast_to(
                np.asarray(set_points, dtype=float), (batch,)
            ).copy()
        obs.count("simulation.steady_state_solves", batch)
        obs.count("simulation.steady_state_batches")

        # Per-row totals via the same masked sum as the scalar solver
        # (a row-wise np.sum over zero-filled entries groups partial
        # sums differently and can drift in the last ulp).
        total_power = np.empty(batch)
        for r in range(batch):
            total_power[r] = float(np.sum(p[r][mask[r]]))

        f_c = self.cooler.supply_flow * units.C_AIR
        u = self.room.envelope_conductance
        t_env = self.room.t_env

        q_needed = total_power + u * (t_env - sp)
        coil_limit = (sp - self.cooler.t_ac_min) * f_c
        cap = np.minimum(self.cooler.q_max, coil_limit)
        regulated = (q_needed >= 0.0) & (q_needed <= cap)
        floating = q_needed < 0.0
        saturated = ~regulated & ~floating

        t_room = np.where(regulated, sp, np.nan)
        q = np.where(regulated, q_needed, 0.0)
        if floating.any():
            if u <= 0.0:
                raise ConvergenceError(
                    "no steady state: zero heat load and no envelope path"
                )
            t_room[floating] = t_env + total_power[floating] / u
        if saturated.any():
            t_room_sat, q_sat = self._saturated_mode_many(
                total_power[saturated], f_c, u, t_env, sp[saturated]
            )
            t_room[saturated] = t_room_sat
            q[saturated] = q_sat

        t_ac = t_room - q / f_c
        m = self._supply_fraction
        t_in = m * t_ac[:, None] + (1.0 - m) * t_room[:, None]
        t_box = t_in + p / self._flow_c
        t_cpu = t_box + p / self._theta
        room_col = np.broadcast_to(t_room[:, None], p.shape)
        t_cpu = np.where(mask, t_cpu, room_col)
        t_box = np.where(mask, t_box, room_col)
        t_in = np.where(mask, t_in, room_col)
        p_ac = np.where(
            q < 0.0,
            self.cooler.fan_power,
            np.minimum(q, self.cooler.q_max) / self.cooler.efficiency
            + self.cooler.fan_power,
        )
        return SteadyStateBatch(
            t_room=t_room,
            t_ac=t_ac,
            q_cool=q,
            p_ac=p_ac,
            t_cpu=t_cpu,
            t_box=t_box,
            t_in=t_in,
            server_power=np.where(mask, p, 0.0),
            regulated=regulated,
        )

    def _saturated_mode_many(
        self,
        total_power: np.ndarray,
        f_c: float,
        u: float,
        t_env: float,
        sp: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_saturated_mode` over saturated rows."""
        k = total_power.shape[0]
        q_max = self.cooler.q_max
        t_ac_min = self.cooler.t_ac_min
        ok_a = np.zeros(k, dtype=bool)
        t_room_a = np.zeros(k)
        if u > 0.0:
            # Mode A: capacity-limited at q_max.
            t_room_a = t_env - (q_max - total_power) / u
            t_ac_a = t_room_a - q_max / f_c
            ok_a = (t_room_a >= sp) & (t_ac_a >= t_ac_min - 1e-9)
        # Mode B: coil-limited at t_ac_min.
        t_room_b = (total_power + u * t_env + f_c * t_ac_min) / (f_c + u)
        q_b = (t_room_b - t_ac_min) * f_c
        ok_b = (t_room_b >= sp) & (q_b >= 0.0) & (q_b <= q_max + 1e-9)
        q_b_clamped = np.minimum(q_b, q_max)
        infeasible = ~ok_a & ~ok_b
        if infeasible.any():
            worst = float(total_power[np.flatnonzero(infeasible)[0]])
            raise ConvergenceError(
                "cooler saturated with no consistent steady state "
                f"(load {worst:.0f} W exceeds what the unit can reject)"
            )
        # Where both modes are consistent, pick the lower capacity; on a
        # tie mode A wins, matching the scalar solver's candidate order.
        use_a = ok_a & (~ok_b | (q_max <= q_b_clamped))
        t_room = np.where(use_a, t_room_a, t_room_b)
        q = np.where(use_a, q_max, q_b_clamped)
        return t_room, q
