"""Receding-horizon MPC over the linearized thermal plant.

The reactive :class:`~repro.core.controller.RuntimeController` re-plans
*after* the offered load moves; with a demand forecast the controller
can do better, because the room has thermal capacitance: cold air
banked before a surge keeps CPU temperatures under ``T_max`` through
the transient the reactive plan overshoots.  :class:`MPCController`
adds exactly that lookahead:

1. **Allocation (on-set size + throughput).**  The demand over the next
   ``preprovision_steps`` control intervals is folded into the planning
   target, so machines are powered on *before* a forecast surge arrives
   and the throughput constraint (served load = offered load, capped at
   surviving capacity) holds through it.  Allocation still flows
   through the reactive machinery — hysteresis, minimum dwell, failure
   exclusion — so MPC inherits every safety behavior of the base
   controller.
2. **Cooling (set-point trajectory).**  Over an ``H``-step horizon the
   per-step allocations fix the per-node power vectors; CPU-temperature
   trajectories are then *affine* in the supply-temperature sequence
   ``u_1..u_H`` through the exact linear plant
   (:class:`~repro.control.plant.LinearizedPlant`).  Minimizing total
   cooling energy (Eq. 10: ``P_ac = c_f_ac * (T_SP - T_ac)`` with
   ``T_SP`` affine in ``u`` via the actuation map) subject to the
   thermal cap ``T_cpu <= T_max - margin`` at every step is a linear
   program.  It is solved by HiGHS through a prepared entry (one
   options object built at import, a fresh solver per call, and
   :func:`scipy.optimize.linprog`'s acceptance rule), which falls back
   to :func:`~scipy.optimize.linprog` itself when scipy's private HiGHS
   module is missing; a pure-numpy coordinate sweep solves the horizon
   when scipy is unavailable or the LP fails.
3. **Warm start + graceful degradation.**  The previous horizon's
   trajectory, shifted one step, seeds the sweep solver and serves as
   the first fallback when the LP fails; if no trajectory is feasible
   the controller keeps the reactive closed-form plan — it never drops
   a valid plan on solver failure.

Every solve emits ``mpc.*`` observability events and counters, and the
commanded pre-cooling (supply colder than the closed-form optimum)
is individually traceable (``mpc.precool``).
"""

from __future__ import annotations

import importlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.control.plant import LinearizedPlant
from repro.core.controller import RuntimeController
from repro.core.optimizer import JointOptimizer, OptimizationResult
from repro.errors import ConfigurationError, InfeasibleError

#: An LP entry: ``(cost, rows, gaps, lo, hi) -> u`` minimizes
#: ``cost @ u`` subject to ``rows @ u <= gaps`` and ``lo <= u <= hi``,
#: returning ``None`` when it has no accepted optimum.
LPEntry = Callable[
    [np.ndarray, np.ndarray, np.ndarray, float, float], Optional[np.ndarray]
]

#: ``linprog``'s acceptance tolerance (``_check_result``:
#: ``sqrt(tol) * 10`` with its default ``tol = 1e-9``).
_LP_TOL = float(np.sqrt(1e-9) * 10)


def _choose_lp_entry() -> Optional[LPEntry]:
    """The horizon LP's solver entry, chosen once at import.

    - ``highs``: HiGHS through scipy's private binding
      (``scipy.optimize._highspy._core``), with one options object
      holding exactly what ``linprog(method="highs")`` sets: presolve
      on, dual simplex, debug level none, output and log off.  Each
      solve gets a fresh ``HighsLp`` and a fresh solver (a reused one
      could warm-start from the last basis and move the bits of
      ``u``), the CSC arrays are built from the dense rows dropping
      explicit zeros as ``csc_array`` does, and a result is accepted
      by ``linprog``'s rule: input finite, status optimal, nothing
      NaN, ``u`` and the row slack within :data:`_LP_TOL` of their
      bounds.  It returns what ``linprog`` returns, bit for bit,
      without the wrapper's per-call option checks and conversions.
    - ``linprog``: :func:`scipy.optimize.linprog` itself, when the
      private module or one of its attributes is missing.
    - ``None`` without scipy: the coordinate sweep solves every horizon.
    """
    try:
        from scipy.optimize import linprog as scipy_linprog
    except ImportError:
        return None

    def linprog(cost, rows, gaps, lo, hi):
        some = len(rows) > 0
        solved = scipy_linprog(
            cost, A_ub=rows if some else None, b_ub=gaps if some else None,
            bounds=[(lo, hi)] * len(cost), method="highs",
        )
        return np.asarray(solved.x, dtype=float) if solved.success else None

    try:
        core = importlib.import_module("scipy.optimize._highspy._core")
        options = core.HighsOptions()
        options.presolve = "on"
        options.simplex_strategy = (
            core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        )
        options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
        options.output_flag = False
        options.log_to_console = False
        colwise = core.MatrixFormat.kColwise
        error = core.HighsStatus.kError
        optimal = core.HighsModelStatus.kOptimal
        new_lp, new_solver, infinity = core.HighsLp, core._Highs, core.kHighsInf
    except (ImportError, AttributeError):
        return linprog

    def highs(cost, rows, gaps, lo, hi):
        if not (
            np.isfinite(cost).all()
            and np.isfinite(rows).all()
            and np.isfinite(gaps).all()
        ):
            return None  # linprog rejects the input
        m, n = rows.shape
        lp = new_lp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = m
        lp.a_matrix_.format_ = colwise
        columns = rows.T
        nonzero = columns != 0.0
        # Integer arrays go in as lists: the binding converts a numpy
        # integer array element by element, at about twice the cost.
        lp.a_matrix_.start_ = [0, *np.cumsum(nonzero.sum(axis=1)).tolist()]
        lp.a_matrix_.index_ = np.nonzero(nonzero)[1].tolist()
        lp.a_matrix_.value_ = columns[nonzero]
        lp.col_cost_ = cost
        lp.col_lower_ = np.full(n, lo)
        lp.col_upper_ = np.full(n, hi)
        lp.row_lower_ = np.full(m, -infinity)
        lp.row_upper_ = gaps
        solver = new_solver()
        if (
            solver.passOptions(options) == error
            or solver.passModel(lp) == error
            or solver.run() == error
            or solver.getModelStatus() != optimal
        ):
            return None
        solution = solver.getSolution()
        u = np.array(solution.col_value)
        slack = gaps - np.array(solution.row_value)
        if (
            np.isnan(u).any()
            or np.isnan(slack).any()
            or np.isnan(solver.getInfo().objective_function_value)
            or (u < lo - _LP_TOL).any()
            or (u > hi + _LP_TOL).any()
            or (slack < -_LP_TOL).any()
        ):
            return None
        return u

    return highs


_lp_entry = _choose_lp_entry()

#: Which entry :func:`_choose_lp_entry` picked: ``"highs"``,
#: ``"linprog"`` or ``"sweep"`` (no scipy).
LP_ENTRY = "sweep" if _lp_entry is None else _lp_entry.__name__


@dataclass(frozen=True)
class HorizonSolution:
    """One solved H-step lookahead (kept for introspection/tests)."""

    time: float
    t_ac: np.ndarray        # (H,) supply-temperature trajectory
    objective: float        # modeled cooling energy over the horizon, J
    solver: str             # "linprog" | "sweep" | "warm"
    relaxed: bool           # True when the margin had to be dropped


class MPCController(RuntimeController):
    """Receding-horizon controller over trace-driven demand.

    Parameters
    ----------
    optimizer:
        The joint optimizer (allocation layer, as for the base class).
    plant:
        The :class:`LinearizedPlant` prediction model.  Its ``dt`` is
        the control interval the horizon steps over.
    forecast:
        Demand forecast ``f(t) -> tasks/s`` (e.g. the replayed trace's
        ``load_at``).  Without one the controller degenerates to the
        reactive baseline: no pre-provisioning, no horizon solve.
    horizon:
        Lookahead depth ``H`` in control intervals.  ``H = 1`` disables
        pre-provisioning and constrains only the next step — the
        allocation decisions match the reactive controller exactly.
    margin:
        Thermal-cap back-off, K: the horizon enforces
        ``T_cpu <= T_max - margin`` (absorbs linear-model vs actuation
        mismatch).  On an infeasible horizon the margin is dropped to 0
        before falling back.
    preprovision_steps:
        How many forecast steps feed the allocation target (default
        ``min(2, horizon - 1)``).
    """

    def __init__(
        self,
        optimizer: JointOptimizer,
        plant: LinearizedPlant,
        forecast: Optional[Callable[[float], float]] = None,
        horizon: int = 6,
        margin: float = 0.5,
        preprovision_steps: Optional[int] = None,
        hysteresis: float = 0.15,
        min_dwell: float = 600.0,
        headroom: Optional[float] = None,
    ) -> None:
        super().__init__(
            optimizer,
            hysteresis=hysteresis,
            min_dwell=min_dwell,
            headroom=headroom,
        )
        if horizon < 1:
            raise ConfigurationError(
                f"horizon must be >= 1, got {horizon}"
            )
        if margin < 0.0:
            raise ConfigurationError(
                f"margin must be non-negative, got {margin}"
            )
        if plant.n != optimizer.model.node_count:
            raise ConfigurationError(
                f"plant has {plant.n} nodes but the model has "
                f"{optimizer.model.node_count}"
            )
        if preprovision_steps is None:
            preprovision_steps = min(2, horizon - 1)
        if not 0 <= preprovision_steps < max(horizon, 1) + 1:
            raise ConfigurationError(
                f"preprovision_steps must be in [0, horizon], got "
                f"{preprovision_steps}"
            )
        self.plant = plant
        self.forecast = forecast
        self.horizon = int(horizon)
        self.margin = float(margin)
        self.preprovision_steps = int(preprovision_steps)
        self.control_dt = plant.dt
        # Counters the campaign and tests read.
        self.horizon_solves = 0
        self.fallbacks = 0
        self.warm_reuses = 0
        self.precools = 0
        self.last_horizon: Optional[HorizonSolution] = None
        self._state: Optional[np.ndarray] = None
        self._warm: Optional[np.ndarray] = None
        self._allocation_memo: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------ #
    # Sensing
    # ------------------------------------------------------------------ #

    def observe_thermal_state(
        self,
        time: float,
        t_cpu: np.ndarray,
        t_box: np.ndarray,
        t_room: float,
    ) -> None:
        """Feed the measured thermal state (room instrumentation).

        The horizon solve predicts forward from this state; without at
        least one observation the controller stays purely reactive.
        """
        self._state = LinearizedPlant.pack_state(t_cpu, t_box, t_room)

    # ------------------------------------------------------------------ #
    # Control step
    # ------------------------------------------------------------------ #

    def observe(
        self, time: float, load: float
    ) -> Optional[OptimizationResult]:
        """One control step: allocation first, then the horizon solve."""
        demand = load
        capacity = self.surviving_capacity()
        if self.forecast is not None and self.preprovision_steps > 0:
            ahead = max(
                float(self.forecast(time + h * self.control_dt))
                for h in range(1, self.preprovision_steps + 1)
            )
            # Forecast beyond capacity must not raise: the headroom
            # divisor keeps the pre-provisioning target within
            # surviving capacity.
            demand = max(load, min(ahead, capacity / self.headroom))
        # Admission control: a flash crowd beyond surviving capacity is
        # served at capacity (the surplus is shed at the balancer), so
        # the horizon keeps planning — and pre-cooling — through the
        # overload instead of freezing on an infeasible target.  The
        # purely reactive base class raises InfeasibleError here and
        # rides out the surge on its stale plan.
        demand = min(demand, capacity)
        result = super().observe(time, demand)
        if (
            self._plan is not None
            and self._state is not None
            and self.forecast is not None
        ):
            solved = self._optimize_horizon(time, load)
            if solved is not None:
                return self._plan
        return result if result is None else self._plan

    # ------------------------------------------------------------------ #
    # Horizon assembly
    # ------------------------------------------------------------------ #

    def _allocation_for(self, target: float) -> Optional[OptimizationResult]:
        """Memoized optimizer solve for a horizon-step target."""
        key = (round(float(target), 3), frozenset(self.failed))
        if key in self._allocation_memo:
            self._allocation_memo.move_to_end(key)
            return self._allocation_memo[key]
        try:
            plan = self.optimizer.solve(
                float(target), exclude=sorted(self.failed)
            )
        except InfeasibleError:
            plan = None
        self._allocation_memo[key] = plan
        if len(self._allocation_memo) > 512:
            self._allocation_memo.popitem(last=False)
        return plan

    def _plan_inputs(
        self, plan: OptimizationResult
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """(mask, fitted per-node powers, total server power) of a plan."""
        model = self.optimizer.model
        n = model.node_count
        mask = np.zeros(n, dtype=bool)
        powers = np.zeros(n)
        for i in plan.on_ids:
            mask[i] = True
            powers[i] = model.power.power(float(plan.loads[i]))
        return mask, powers, float(powers.sum())

    def _optimize_horizon(
        self, time: float, load: float
    ) -> Optional[HorizonSolution]:
        """Solve the H-step supply-temperature LP and adopt step one.

        Returns the solution, or ``None`` when every path (LP, relaxed
        LP, warm-shifted trajectory, coordinate sweep) failed — in which
        case the reactive closed-form plan stays in force untouched.
        """
        model = self.optimizer.model
        cooler = model.cooler
        horizon = self.horizon
        capacity = self.surviving_capacity()
        with obs.timed("control/mpc_horizon"):
            # Per-step allocations: the live plan covers step 1 (that is
            # what will actually be commanded); forecast solves cover
            # the rest.  An infeasible forecast step reuses the previous
            # step's allocation rather than aborting the horizon.
            plans = [self._plan]
            for h in range(2, horizon + 1):
                f = float(self.forecast(time + h * self.control_dt))
                target = min(max(f, load) * self.headroom, capacity)
                step_plan = self._allocation_for(max(target, 1e-6))
                plans.append(step_plan if step_plan is not None else plans[-1])
            masks, power_vecs, totals = [], [], []
            for plan in plans:
                mask, powers, total = self._plan_inputs(plan)
                masks.append(mask)
                power_vecs.append(powers)
                totals.append(total)
            rows, bounds_gap = self._constraint_rows(
                masks, power_vecs
            )
            lo, hi = cooler.t_ac_min, cooler.t_ac_max
            # Cost: per-step cooling power c_f_ac * (T_SP - u) with
            # T_SP = offset + a_t * u + a_p * P  =>  the only u-dependent
            # term is c_f_ac * (a_t - 1) * u, identical across steps.
            coeff = cooler.c_f_ac * (cooler.actuation_t_ac - 1.0)
            cost = np.full(horizon, coeff * self.control_dt)
            solution: Optional[np.ndarray] = None
            relaxed = False
            for slack in (0.0, self.margin):
                solved = self._solve_lp(
                    cost, rows, bounds_gap + slack, lo, hi
                )
                if solved is not None:
                    solution, solver = solved
                    relaxed = slack > 0.0
                    break
            if solution is None and self._warm is not None:
                shifted = np.append(self._warm[1:], self._warm[-1])
                if self._feasible(rows, bounds_gap + self.margin, shifted):
                    solution = shifted
                    solver = "warm"
                    self.warm_reuses += 1
                    obs.count("mpc.warm_start_reuse")
            if solution is None:
                self.fallbacks += 1
                obs.count("mpc.fallbacks")
                obs.add_event(
                    "mpc.fallback", time=time, offered_load=load,
                    horizon=horizon,
                )
                return None
            objective = float(
                sum(
                    cooler.cooling_power(
                        cooler.set_point_for(float(u), totals[h]), float(u)
                    ) * self.control_dt
                    for h, u in enumerate(solution)
                )
            )
            self._warm = np.asarray(solution, dtype=float)
            self.horizon_solves += 1
            obs.count("mpc.horizon_solves")
            result = HorizonSolution(
                time=time,
                t_ac=self._warm.copy(),
                objective=objective,
                solver=solver,
                relaxed=relaxed,
            )
            self.last_horizon = result
            self._adopt_supply(time, float(solution[0]), totals[0])
            obs.set_span_attributes(
                horizon=horizon, solver=solver, relaxed=relaxed,
                t_ac_next=float(solution[0]),
            )
            obs.add_event(
                "mpc.solve", time=time, solver=solver,
                t_ac_next=float(solution[0]), horizon=horizon,
            )
        return result

    def _constraint_rows(
        self, masks, power_vecs
    ) -> tuple[np.ndarray, np.ndarray]:
        """Affine thermal-cap rows of the horizon.

        Propagates ``x_h = base_h + sum_j S_hj u_j`` through the
        per-step plant matrices and collects, for every step ``h`` and
        every powered-on CPU ``i``, the row ``(coeffs over u, gap)``
        with the constraint ``coeffs @ u <= gap`` where
        ``gap = T_max - margin - base_h[i]``.

        Returns ``(rows, gaps)``: an ``(m, H)`` coefficient array (its
        row ``k`` has step ``h``'s sensitivities in columns ``0..h``
        and zeros after) and the ``(m,)`` bounds.  The sensitivity
        columns ``S_hj`` are kept as the rows of one ``(H, 2n+1)``
        block: each is propagated by its own ``a @ column`` product
        on a contiguous vector (one ``a @ block`` GEMM rounds
        differently), and a step's ON rows are one fancy-index gather.
        """
        model = self.optimizer.model
        horizon = len(masks)
        cap = model.t_max - self.margin
        base = self._state.copy()
        cols = np.zeros((horizon, base.size))
        blocks: list[np.ndarray] = []
        gaps: list[np.ndarray] = []
        for h in range(horizon):
            mats = self.plant.matrices(masks[h])
            base = mats.a @ base + mats.b_power @ power_vecs[h] + mats.offset
            for j in range(h):
                cols[j] = mats.a @ cols[j]
            cols[h] = mats.b_supply
            on = np.flatnonzero(masks[h])
            blocks.append(cols[:, on].T)
            gaps.append(cap - base[on])
        return np.concatenate(blocks), np.concatenate(gaps)

    # ------------------------------------------------------------------ #
    # Solvers
    # ------------------------------------------------------------------ #

    def _solve_lp(
        self,
        cost: np.ndarray,
        rows: np.ndarray,
        gaps: np.ndarray,
        lo: float,
        hi: float,
    ) -> Optional[tuple[np.ndarray, str]]:
        """The horizon LP via the chosen entry, else the coordinate sweep.

        Returns ``(trajectory, solver)`` with ``solver`` ``"linprog"``
        or ``"sweep"`` for the path that solved it, or ``None`` when
        both failed.
        """
        if _lp_entry is not None:
            try:
                solved = _lp_entry(cost, rows, gaps, lo, hi)
            except Exception:
                solved = None
            if solved is not None:
                return solved, "linprog"
        swept = self._solve_sweep(rows, gaps, lo, hi)
        return None if swept is None else (swept, "sweep")

    def _solve_sweep(
        self, rows: np.ndarray, gaps: np.ndarray, lo: float, hi: float
    ) -> Optional[np.ndarray]:
        """Pure-numpy fallback: coordinate sweeps toward the warmest
        feasible trajectory (optimal when warmer supply is cheaper,
        which Eq. 10 with an increasing actuation slope < 1 implies;
        merely feasible otherwise)."""
        horizon = self.horizon
        start = (
            np.append(self._warm[1:], self._warm[-1])
            if self._warm is not None and len(self._warm) == horizon
            else np.full(horizon, hi)
        )
        u = np.clip(start, lo, hi)
        if not len(rows):
            return u
        for _ in range(3):
            for j in range(horizon):
                others = rows @ u - rows[:, j] * u[j]
                upper, lower = hi, lo
                for r in range(rows.shape[0]):
                    c = rows[r, j]
                    if abs(c) < 1e-12:
                        continue
                    limit = (gaps[r] - others[r]) / c
                    if c > 0.0:
                        upper = min(upper, limit)
                    else:
                        lower = max(lower, limit)
                if lower > upper + 1e-9:
                    return None
                u[j] = min(max(upper, lo), hi)
                if u[j] < lower - 1e-9:
                    return None
        if np.all(rows @ u <= gaps + 1e-6):
            return u
        return None

    @staticmethod
    def _feasible(rows: np.ndarray, gaps: np.ndarray, u: np.ndarray) -> bool:
        return bool(np.all(rows @ u <= gaps + 1e-6))

    # ------------------------------------------------------------------ #
    # Plan adoption
    # ------------------------------------------------------------------ #

    def _adopt_supply(
        self, time: float, t_ac: float, server_power: float
    ) -> None:
        """Swap the horizon's step-one supply temperature into the
        active plan (allocation untouched)."""
        cooler = self.optimizer.model.cooler
        t_ac = cooler.clamp_t_ac(t_ac)
        plan = self._plan
        if abs(t_ac - plan.t_ac) <= 1e-9:
            return
        if t_ac < plan.t_ac - 0.05:
            # Colder than the steady-state optimum: banking cold air
            # ahead of a forecast surge.
            self.precools += 1
            obs.count("mpc.precools")
            obs.add_event(
                "mpc.precool", time=time,
                t_ac=t_ac, t_ac_steady=plan.t_ac,
            )
        t_sp = cooler.set_point_for(t_ac, server_power)
        self._plan = replace(plan, t_ac=t_ac, t_sp=t_sp)
