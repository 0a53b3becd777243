"""Coupled room/cooler simulation and algebraic steady-state solver.

Two ways to evaluate the simulated testbed, one engine each:

- :class:`RoomSimulation` integrates the full transient system (per-node
  Eqs. 1-2, the bulk room air volume, and the cooling unit's PI loop) with
  a fixed-step RK4 scheme.  Used by the profiling campaign, which — like
  the paper's experiments — waits for temperatures to settle and samples
  noisy sensors along the way.
- :meth:`RoomSimulation.steady_state_many` solves the same physics
  algebraically (the steady-state equations are linear once the active
  saturation mode of the cooler is known) for a batch of operating
  points in one vectorized pass; :meth:`RoomSimulation.steady_state` is
  its one-row case.  Used by the evaluation benches and the oracle
  controllers, which need many thousands of operating points.

Both engines are pure array arithmetic with no Python-level per-node
iteration, yet keep the expression structure (and accumulation order)
of the original per-node loops, so every elementwise IEEE operation
rounds the same way: ``tests/test_simulation_engine.py`` pins them **bit
for bit** against those loops (kept as test oracles in
``tests/oracles/``) on randomized scenarios, including off nodes,
saturated coolers, set-point steps, and active fault injectors.  Tests
also verify that the integrator converges to the algebraic solution.
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


def check_node_powers(
    powers,
    on_mask: Optional[Sequence[bool]],
    n: int,
    steps: Optional[int] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Validate per-node electrical powers (W) and an optional on-mask.

    ``powers`` is one ``(n,)`` vector, or with ``steps`` an
    ``(steps, n)`` block holding one step's powers per row; ``on_mask``
    is one ``(n,)`` mask for all of them.  Every power must be finite
    and non-negative, and an off node must draw none; the
    :class:`ConfigurationError` names the first offending node.
    Returns ``(powers, on_mask)`` as float and bool arrays (``on_mask``
    stays ``None`` when not given).
    """
    arr = np.asarray(powers, dtype=float)
    shape = (n,) if steps is None else (steps, n)
    if arr.shape != shape:
        raise ConfigurationError(
            f"expected {'x'.join(map(str, shape))} powers, "
            f"got shape {arr.shape}"
        )
    bad = ~(np.isfinite(arr) & (arr >= 0.0))
    if bad.any():
        where = np.argwhere(bad)[0]
        value = float(arr[tuple(where)])
        node = int(where[-1])
        if not np.isfinite(value):
            raise ConfigurationError(
                f"node {node} power must be finite, got {value}"
            )
        raise ConfigurationError(
            f"node powers must be non-negative, got {value} at node {node}"
        )
    mask = None
    if on_mask is not None:
        mask = np.asarray(on_mask, dtype=bool)
        if mask.shape != (n,):
            raise ConfigurationError("on_mask shape must match powers")
        drawing = (np.atleast_2d(arr) > 0.0).any(axis=0)
        dark = np.flatnonzero(~mask & drawing)
        if dark.size:
            raise ConfigurationError(
                "a powered-off machine cannot draw positive power "
                f"(node {int(dark[0])})"
            )
    return arr, mask


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


def _views(buf: np.ndarray, n: int):
    """The ``(buffer, cpu, box, nodes)`` views of a stacked-state buffer
    (slicing in the hot loop costs a surprising amount of the per-step
    budget, so the views are made once)."""
    return buf, buf[:n], buf[n : 2 * n], buf[: 2 * n]


class _Lanes:
    """Buffers and per-node constants of the RK4 kernel for one state
    layout.

    ``width=None`` is the simulation's own state: stacked vectors of
    length ``2n + 1``.  ``width=K`` steps ``K`` states side by side as
    the columns of ``(2n + 1, K)`` blocks, with per-column powers and
    supply temperatures; the per-node constants are ``(n, 1)`` views of
    the simulation's own arrays, so they broadcast across the columns
    and follow its on-mask.  Every kernel operation is elementwise
    except the room-heat fold, which runs down axis 0, so each column
    rounds exactly as the same state stepped alone.
    """

    def __init__(self, sim: "RoomSimulation", width: Optional[int]) -> None:
        n = sim._n
        lanes = () if width is None else (width,)
        column = np.s_[:] if width is None else np.s_[:, None]
        self.width = width
        # (y0, yt, k1, k2, k3, k4) view tuples; all stage arithmetic
        # runs through out= with no per-step allocation.
        self.stages = tuple(
            _views(np.empty((2 * n + 1, *lanes)), n) for _ in range(6)
        )
        self.yt_v = self.stages[1]
        self.theta = sim._theta[column]
        self.coupling = sim._coupling[column]
        self.sf_eff = sim._sf_eff[column]
        self.rf_eff = sim._rf_eff[column]
        self.mask_f = sim._mask_f[column]
        self.nu_all = sim._nu_all[column]
        self.powers_eff = np.empty((n, *lanes))
        self.sf_ac = np.empty((n, *lanes))
        self.exchange = np.empty((n, *lanes))
        self.contrib = np.empty((n, *lanes))
        self.acc = np.empty((n, *lanes))


class RoomSimulation:
    """Transient simulation of a machine room plus its cooling unit.

    The caller sets per-node electrical power (via
    :meth:`set_node_powers`) and the cooler set point, then advances time
    with :meth:`step` / :meth:`run` or asks for the long-run operating
    point directly: :meth:`steady_state_many` solves a batch of them,
    :meth:`steady_state` one (the batch's one-row case).
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
        # nu_cpu and nu_box stacked so both node halves of a stage
        # divide in one ufunc call (per-element rounding is unchanged).
        self._nu_all = np.concatenate([self._nu_cpu, self._nu_box])
        self._n = n
        # Buffers of the RK4 hot path for the simulation's own state;
        # column-stacked states get their own lanes on first use.
        self._lanes = _Lanes(self, None)
        self._wide_lanes: dict[int, _Lanes] = {}
        # The stepped state, where step()'s divergence probe reads it.
        self._yt = self._lanes.yt_v[0]
        # State/derivative buffers of _derivatives, kept apart from the
        # stepper's so an off-step evaluation never clobbers them.
        self._dy_v = _views(np.empty(2 * n + 1), n)
        self._dk_v = _views(np.empty(2 * n + 1), n)
        # Room scalars hoisted out of the per-stage kernel (attribute
        # chains on every stage cost real per-step time at small n).
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

        Powers must be finite and non-negative, and a powered-off
        machine must draw zero power; anything else is a caller bug and
        raises (see :func:`check_node_powers`).
        """
        arr, mask = check_node_powers(powers, on_mask, self._n)
        if mask is not None:
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
        its own stacked buffers: the stepper's ``k4`` (read by
        :meth:`settle_rates`) and ``_yt`` (the divergence probe) are
        left untouched.
        """
        n = self._n
        lanes = self._lanes
        self._load_inputs(lanes, t_ac)
        y_v, out_v = self._dy_v, self._dk_v
        np.copyto(y_v[1], t_cpu)
        np.copyto(y_v[2], t_box)
        y_v[0][2 * n] = t_room
        self._stage_kernel(lanes, y_v, t_ac, out_v)
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

    def _load_inputs(self, lanes: _Lanes, t_ac) -> None:
        """Refresh the stage kernel's input constants: the mask-dependent
        arrays, the effective powers and the supply-air term."""
        self._refresh_mask_constants()
        np.multiply(lanes.mask_f, self.powers, out=lanes.powers_eff)
        np.multiply(lanes.sf_eff, t_ac, out=lanes.sf_ac)

    def _advance(self, dt: float, t_ac) -> None:
        """One RK4 step of length ``dt`` at supply temperature ``t_ac``.

        The state is normally the simulation's own: ``t_cpu``/``t_box``
        of shape ``(n,)``, a float ``t_room`` and a float ``t_ac``.  With
        ``(n, K)`` node blocks, a ``(K,)`` ``t_room``, ``(n, K)`` powers
        and a ``(K,)`` ``t_ac``, it steps ``K`` states at once, each
        column bit for bit as if stepped alone (see :class:`_Lanes`).
        """
        # One stacked state y = [t_cpu, t_box, t_room]; the four RK4
        # stages become whole-array arithmetic on preallocated buffers.
        # The stage updates keep the expression shapes of the reference
        # loop (scalar 0.5 * dt first, then array multiply, then add),
        # so every element rounds identically; `out=` changes where
        # results land, never how they round.
        n = self._n
        t_cpu = self.t_cpu
        lanes = (
            self._lanes if t_cpu.ndim == 1
            else self._lanes_of(t_cpu.shape[1])
        )
        # Step-level invariants: powers/mask and t_ac are fixed while
        # the four stages evaluate.
        self._load_inputs(lanes, t_ac)
        y0_v, yt_v, k1_v, k2_v, k3_v, k4_v = lanes.stages
        y0, yt, k1, k2, k3, k4 = (
            y0_v[0], yt_v[0], k1_v[0], k2_v[0], k3_v[0], k4_v[0]
        )
        mul, add = np.multiply, np.add
        kernel = self._stage_kernel
        np.copyto(y0_v[1], t_cpu)
        np.copyto(y0_v[2], self.t_box)
        y0[2 * n] = self.t_room
        half_dt = 0.5 * dt
        kernel(lanes, y0_v, t_ac, k1_v)
        mul(k1, half_dt, out=yt)
        add(y0, yt, out=yt)
        kernel(lanes, yt_v, t_ac, k2_v)
        mul(k2, half_dt, out=yt)
        add(y0, yt, out=yt)
        kernel(lanes, yt_v, t_ac, k3_v)
        mul(k3, dt, out=yt)
        add(y0, yt, out=yt)
        kernel(lanes, yt_v, t_ac, k4_v)
        # y0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), left-associated
        # exactly like the reference loop's update.
        mul(k2, 2.0, out=yt)
        add(k1, yt, out=yt)
        mul(k3, 2.0, out=k1)
        add(yt, k1, out=yt)
        add(yt, k4, out=yt)
        mul(yt, dt / 6.0, out=yt)
        add(y0, yt, out=yt)
        self.t_cpu = yt_v[1].copy()
        self.t_box = yt_v[2].copy()
        if lanes.width is not None:
            self.t_room = yt[2 * n].copy()
            return
        self.t_room = float(yt[2 * n])
        # k4 is a stable buffer, untouched until the next step's stage
        # four — safe for settle_rates() to read without a copy.
        self._last_stage = (k4_v[1], k4_v[2], float(k4[2 * n]))

    def _lanes_of(self, width: int) -> _Lanes:
        """The kernel buffers for ``width`` column-stacked states."""
        lanes = self._wide_lanes.get(width)
        if lanes is None:
            lanes = self._wide_lanes[width] = _Lanes(self, width)
        return lanes

    def _stage_kernel(
        self,
        lanes: _Lanes,
        y_v: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        t_ac,
        out_v: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """One derivative evaluation of a stacked state into an output
        buffer, with step-level invariants hoisted (see
        :meth:`_load_inputs`) and all intermediates in the scratch
        buffers of ``lanes``.

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
        exchange = lanes.exchange
        coupling = lanes.coupling
        sub(t_cpu, t_box, out=exchange)
        mul(exchange, lanes.theta, out=exchange)
        sub(lanes.powers_eff, exchange, out=d_cpu)
        # target_temp = sf_eff * t_ac + rf_eff * t_room
        mul(lanes.rf_eff, t_room, out=box_term)
        add(lanes.sf_ac, box_term, out=box_term)
        sub(box_term, t_box, out=box_term)
        mul(box_term, coupling, out=box_term)
        add(exchange, box_term, out=box_term)
        # Both node halves divide by their stacked time constants in
        # one call; each element rounds exactly as the split divides.
        np.divide(d_nodes, lanes.nu_all, out=d_nodes)
        contrib, acc = lanes.contrib, lanes.acc
        sub(t_box, t_room, out=contrib)
        mul(contrib, coupling, out=contrib)
        # Strict left fold down the nodes (per column when stacked):
        # np.sum's pairwise reduction would differ from the reference
        # loop's sequential accumulation in the last ulp.
        np.add.accumulate(contrib, out=acc)
        room_heat = acc[-1]
        if lanes.width is None:
            # Python floats: the same IEEE operations as the stacked
            # rows below, without numpy's scalar overhead.
            room_heat = float(room_heat)
            t_room = float(t_room)
        room_heat += self._bypass_c * (t_ac - t_room)
        room_heat += self._env_c * (self._t_env - t_room)
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
        re-solves the consistent saturated mode.  Powers and mask are
        checked as :func:`check_node_powers` checks them, the set point
        as :meth:`set_set_point` checks it.  This is the one-row case of
        :meth:`steady_state_many`.
        """
        obs.count("simulation.steady_state_solves")
        p, mask = check_node_powers(
            self.powers if powers is None else powers,
            self.on_mask if on_mask is None else on_mask,
            self._n,
        )
        sp = self.cooler.set_point if set_point is None else float(set_point)
        if not units.is_valid_temperature(sp):
            raise ConfigurationError(f"set point out of range: {sp}")
        t_room, t_ac, q, p_ac, nodes, drawn, regulated = self._solve_rows(
            p[None], mask[None], np.array([sp])
        )
        return SteadyState(
            t_room=float(t_room[0]),
            t_ac=float(t_ac[0]),
            q_cool=float(q[0]),
            p_ac=float(p_ac[0]),
            t_cpu=nodes[2, 0],
            t_box=nodes[1, 0],
            t_in=nodes[0, 0],
            server_power=drawn[0],
            regulated=bool(regulated[0]),
        )

    def steady_state_many(
        self,
        powers: Sequence[Sequence[float]],
        on_masks: Optional[Sequence[Sequence[bool]]] = None,
        set_points: Optional[Sequence[float]] = None,
    ) -> SteadyStateBatch:
        """Solve many operating points in one vectorized pass.

        ``powers`` holds one ``(n,)`` row of per-node powers (W) per
        operating point; ``on_masks`` (default: all machines on) has the
        same shape; ``set_points`` (K) is ``(B,)`` or a scalar (default:
        the cooler's current set point).  Rows are independent:
        ``steady_state_many(P, M, S).point(i)`` equals
        ``steady_state(P[i], M[i], S[i])`` field for field.  Every power
        must be finite and non-negative and every set point valid for
        :meth:`set_set_point`; the error names the first bad row.
        """
        p = np.asarray(powers, dtype=float)
        if p.ndim != 2 or p.shape[1] != self._n:
            raise ConfigurationError(
                f"expected a (B, {self._n}) powers matrix, "
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
        bad = ~(np.isfinite(p) & (p >= 0.0))
        if bad.any():
            row, node = (int(v) for v in np.argwhere(bad)[0])
            raise ConfigurationError(
                f"row {row}: node {node} power must be finite and "
                f"non-negative, got {float(p[row, node])}"
            )
        dark = np.argwhere(~mask & (p > 0.0))
        if dark.size:
            row, node = (int(v) for v in dark[0])
            raise ConfigurationError(
                f"row {row}: a powered-off machine cannot draw positive "
                f"power (node {node})"
            )
        sp = np.array(
            self.cooler.set_point if set_points is None else set_points,
            dtype=float,
        )
        if sp.ndim == 0:
            sp = np.full(batch, sp)
        elif sp.shape != (batch,):
            raise ConfigurationError(
                f"expected a scalar or {batch} set points, "
                f"got shape {sp.shape}"
            )
        for row, value in enumerate(sp.tolist()):
            if not units.is_valid_temperature(value):
                raise ConfigurationError(
                    f"row {row}: set point out of range: {value}"
                )
        obs.count("simulation.steady_state_solves", batch)
        obs.count("simulation.steady_state_batches")
        t_room, t_ac, q, p_ac, nodes, drawn, regulated = self._solve_rows(
            p, mask, sp
        )
        return SteadyStateBatch(
            t_room=t_room,
            t_ac=t_ac,
            q_cool=q,
            p_ac=p_ac,
            t_cpu=nodes[2],
            t_box=nodes[1],
            t_in=nodes[0],
            server_power=drawn,
            regulated=regulated,
        )

    def _solve_rows(
        self, p: np.ndarray, mask: np.ndarray, sp: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """The steady-state core: checked ``(B, n)`` powers and masks at
        ``(B,)`` set points ``sp`` (the call's own array; it becomes
        ``t_room`` when every row regulates).

        Returns ``(t_room, t_ac, q_cool, p_ac, nodes, server_power,
        regulated)``; ``nodes`` stacks the ``(B, n)`` blocks of ``t_in``,
        ``t_box`` and ``t_cpu``.  Each row rounds exactly as the scalar
        reference (``tests/oracles/simulation.py``) solves it alone.
        """
        batch = p.shape[0]
        # Per-row totals via a masked sum (np.sum's reduction): a
        # row-wise sum over zero-filled entries groups partial sums
        # differently and can drift in the last ulp.
        total_power = np.empty(batch)
        for r in range(batch):
            total_power[r] = np.add.reduce(p[r][mask[r]])

        cooler = self.cooler
        f_c = cooler.supply_flow * units.C_AIR
        u = self._env_c
        t_env = self._t_env

        # Regulated mode: T_room == T_SP.
        q_needed = total_power + u * (t_env - sp)
        coil_limit = (sp - cooler.t_ac_min) * f_c
        regulated = (q_needed >= 0.0) & (
            q_needed <= np.minimum(cooler.q_max, coil_limit)
        )
        if regulated.all():
            t_room, q = sp, q_needed
        else:
            floating = q_needed < 0.0
            t_room, q = self._saturated_rows(
                total_power, sp, ~(regulated | floating)
            )
            t_room = np.where(regulated, sp, t_room)
            q = np.where(regulated, q_needed, q)
            if floating.any():
                # The room floats below the set point even with the
                # cooler off (only when the building is colder than the
                # set point, so u > 0): equilibrium with q == 0.
                t_room[floating] = t_env + total_power[floating] / u
                q[floating] = 0.0

        t_ac = t_room - q / f_c
        nodes = np.empty((3, *p.shape))
        t_in, t_box, t_cpu = nodes
        np.multiply(self._supply_fraction, t_ac[:, None], out=t_in)
        t_in += self._recirc_fraction * t_room[:, None]
        np.divide(p, self._flow_c, out=t_box)
        t_box += t_in
        np.divide(p, self._theta, out=t_cpu)
        t_cpu += t_box
        # Off nodes sit at room temperature.
        np.copyto(nodes, t_room[:, None], where=~mask)
        # q >= 0 in every mode, so the cooler draws its steady-state
        # power min(q, q_max) / efficiency plus the fans.
        p_ac = np.minimum(q, cooler.q_max) / cooler.efficiency
        p_ac += cooler.fan_power
        drawn = np.where(mask, p, 0.0)
        return t_room, t_ac, q, p_ac, nodes, drawn, regulated

    def _saturated_rows(
        self, total_power: np.ndarray, sp: np.ndarray, saturated: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Room temperature and heat removal of every row as if its
        cooler could not hold the set point: capacity-limited at
        ``q_max`` (mode A) or coil-limited at ``t_ac_min`` (mode B).
        Raises if a ``saturated`` row has no consistent mode."""
        q_max = self.cooler.q_max
        t_ac_min = self.cooler.t_ac_min
        f_c = self.cooler.supply_flow * units.C_AIR
        u = self._env_c
        t_env = self._t_env
        # Mode B: coil-limited at t_ac_min.
        t_room_b = (total_power + u * t_env + f_c * t_ac_min) / (f_c + u)
        q_b = (t_room_b - t_ac_min) * f_c
        ok_b = (t_room_b >= sp) & (q_b >= 0.0) & (q_b <= q_max + 1e-9)
        if u > 0.0:
            # Mode A: capacity-limited at q_max.
            t_room_a = t_env - (q_max - total_power) / u
            t_ac_a = t_room_a - q_max / f_c
            ok_a = (t_room_a >= sp) & (t_ac_a >= t_ac_min - 1e-9)
        else:  # no envelope: no capacity-limited mode
            t_room_a, ok_a = t_room_b, np.zeros_like(ok_b)
        q_b_clamped = np.minimum(q_b, q_max)
        infeasible = saturated & ~(ok_a | ok_b)
        if infeasible.any():
            worst = float(total_power[np.flatnonzero(infeasible)[0]])
            raise ConvergenceError(
                "cooler saturated with no consistent steady state "
                f"(load {worst:.0f} W exceeds what the unit can reject)"
            )
        # Where both modes are consistent the physically binding one is
        # the one yielding the lower capacity; on a tie mode A wins.
        use_a = ok_a & (~ok_b | (q_max <= q_b_clamped))
        return (
            np.where(use_a, t_room_a, t_room_b),
            np.where(use_a, q_max, q_b_clamped),
        )
