"""Closed-form optimal load distribution (paper Section III-A).

For a fixed set ``ON`` of powered machines, the Lagrangian analysis of the
paper yields (all sums over ``ON``):

- optimal cooling-air temperature (Eq. 21)::

      T_ac = (sum(K_i) - L) * w1 / sum(alpha_i / beta_i)

- optimal per-machine load (Eq. 22)::

      L_i = K_i - (sum(K_j) - L) * (alpha_i / beta_i) / sum(alpha_j / beta_j)

with ``K_i = (T_max - beta_i * w2 - gamma_i) / (beta_i * w1)`` (Eq. 19).
Because the Lagrange multipliers are strictly positive (Eqs. 15-16), every
machine runs exactly at ``T_max`` at the optimum (Eq. 17).

Two practical complications the paper glosses over are handled explicitly
and reported on the returned solution:

- **Actuator limits.**  The cooler cannot supply arbitrarily cold or warm
  air.  When Eq. 21 lands outside the achievable band, the supply
  temperature is clamped and loads are re-derived for the clamped value by
  solving the *common-temperature* generalization of Eq. 18: find the
  temperature ``T <= T_max`` that all active machines share such that loads
  sum to ``L``.  (Eq. 18/22 is the special case ``T == T_max``.)
- **Non-negativity.**  At low loads Eq. 22 can assign negative load to
  thermally disadvantaged machines.  An active-set loop pins those machines
  at zero load (idle) and re-solves over the rest, exactly what adding
  ``L_i >= 0`` multipliers to the KKT system would do.

Everything runs on the model's coefficient arrays
(:attr:`~repro.core.model.SystemModel.arrays`), gathered over the ON set
once per solve; each active-set round is a few array operations on the
shrinking active slice.  The per-node loops these replace are kept as
the reference in ``tests/oracles/closed_form.py``, and the two agree bit
for bit: sums the loops took with the builtin ``sum`` are still taken
that way (over ``tolist()``), because numpy's pairwise sum rounds
differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.obs import trace as _trace
from repro.obs import watchdog as _watchdog
from repro.errors import ConfigurationError, InfeasibleError
from repro.core.model import ModelArrays, SystemModel

#: Numerical slack used for feasibility comparisons (K and tasks/s).
_TOL = 1e-9


@dataclass(frozen=True)
class ClosedFormSolution:
    """Result of the closed-form optimization for a fixed ON set.

    Attributes
    ----------
    loads:
        Dense per-machine loads (tasks/s); zero for machines that are off
        or pinned idle by the active-set repair.
    on_ids:
        Machines drawing power (the input ON set, sorted).
    active_ids:
        Machines actually carrying load (subset of ``on_ids``).
    t_ac:
        Supply-air temperature after clamping, K.
    t_ac_unclamped:
        Raw Eq. 21 value before the cooler's limits, K.
    t_sp:
        Set point to command so the loop settles at ``t_ac`` (via the
        fitted actuation map), K.
    common_temperature:
        The CPU temperature shared by all active machines, K.  Equals
        ``T_max`` whenever Eq. 21 was not clamped.
    predicted_t_cpu:
        Model-predicted CPU temperature for every machine (Eq. 8); room
        temperature is not modelled for off machines, reported as NaN.
    predicted_server_power:
        Model-predicted per-machine power, W (Eq. 9; zero when off).
    predicted_cooling_power:
        Model-predicted cooler draw, W (Eq. 10).
    clamped:
        Whether the cooler band clipped Eq. 21.
    repaired:
        Whether the active-set loop had to pin any machine at zero load.
    """

    loads: np.ndarray
    on_ids: tuple[int, ...]
    active_ids: tuple[int, ...]
    t_ac: float
    t_ac_unclamped: float
    t_sp: float
    common_temperature: float
    predicted_t_cpu: np.ndarray
    predicted_server_power: np.ndarray
    predicted_cooling_power: float
    clamped: bool
    repaired: bool

    @property
    def total_load(self) -> float:
        """Sum of assigned loads, tasks/s."""
        return float(np.sum(self.loads))

    @property
    def predicted_total_power(self) -> float:
        """Model-predicted room power: servers plus cooling, W."""
        return float(
            np.sum(self.predicted_server_power) + self.predicted_cooling_power
        )


def optimal_supply_temperature(
    model: SystemModel, on_ids: Sequence[int], total_load: float
) -> float:
    """Raw Eq. 21: the unconstrained optimal ``T_ac`` for ``on_ids``.

    May fall outside the cooler's achievable band; see
    :func:`solve_closed_form` for the clamped, load-consistent solution.
    """
    _validate(model, on_ids, total_load)
    idx = np.asarray(on_ids, dtype=np.intp)
    arrays = model.arrays
    return _equation_21(
        model, arrays.k[idx], arrays.alpha_over_beta[idx], total_load
    )


def paper_loads(
    model: SystemModel, on_ids: Sequence[int], total_load: float
) -> np.ndarray:
    """Raw Eq. 22 loads (dense array), without clamping or repair.

    This is the paper's formula verbatim; it can produce negative entries
    at low loads.  :func:`solve_closed_form` is the production entry point.
    """
    _validate(model, on_ids, total_load)
    idx = np.asarray(on_ids, dtype=np.intp)
    k = model.arrays.k[idx]
    b = model.arrays.alpha_over_beta[idx]
    deficit = float(k.sum()) - total_load
    loads = np.zeros(model.node_count)
    loads[idx] = k - deficit * b / float(b.sum())
    return loads


def solve_closed_form(
    model: SystemModel,
    on_ids: Sequence[int],
    total_load: float,
    enforce_capacity: bool = True,
) -> ClosedFormSolution:
    """Optimal loads and cooling temperature for a fixed ON set.

    Implements Eqs. 18-22 with actuator clamping, non-negativity repair
    and (optionally) per-machine capacity limits.

    Raises
    ------
    InfeasibleError
        If the ON set cannot carry ``total_load`` within capacity, or no
        achievable supply temperature keeps every CPU at or below
        ``T_max``.
    """
    with obs.timed("closed_form"):
        ids = _validate(model, on_ids, total_load)
        idx = np.array(ids, dtype=np.intp)
        on = model.arrays.take(idx)
        if enforce_capacity:
            cap = sum(on.capacities.tolist())
            if total_load > cap + _TOL:
                raise InfeasibleError(
                    f"load {total_load:.3f} exceeds ON-set capacity {cap:.3f}"
                )

        t_ac_raw = _equation_21(model, on.k, on.alpha_over_beta, total_load)
        t_ac = model.cooler.clamp_t_ac(t_ac_raw)
        clamped = abs(t_ac - t_ac_raw) > _TOL

        loads, common_t, active = _active_set_loads(
            model, on, idx, total_load, t_ac, enforce_capacity
        )
        if common_t > model.t_max + 1e-6:
            # Capacity pinning (or an upward clamp of Eq. 21) concentrated
            # load on the remaining machines beyond T_max; the supply air
            # must run colder than Eq. 21 suggests.  The shared temperature
            # is monotone increasing in t_ac, so bisect.
            t_ac = _backoff_supply_temperature(
                model, on, idx, total_load, t_ac, common_t, enforce_capacity
            )
            loads, common_t, active = _active_set_loads(
                model, on, idx, total_load, t_ac, enforce_capacity
            )
            clamped = True
        repaired = len(active) < len(ids) or clamped

        if common_t > model.t_max + 1e-6:
            raise InfeasibleError(
                f"even at T_ac={t_ac:.2f} K the shared CPU temperature "
                f"would be {common_t:.2f} K > T_max={model.t_max:.2f} K"
            )
        # Idle-but-on machines must also respect T_max.
        on_loads = loads[idx]
        hot_idle = (on_loads <= _TOL) & (t_ac > on.idle_supply_limit + 1e-6)
        if hot_idle.any():
            i = ids[int(np.argmax(hot_idle))]
            raise InfeasibleError(
                f"idle machine {i} would exceed T_max at T_ac={t_ac:.2f} K"
            )

    with obs.timed("actuation"):
        server_power = np.zeros(model.node_count)
        t_cpu = np.full(model.node_count, np.nan)
        on_power = model.power.w1 * on_loads + model.power.w2
        server_power[idx] = on_power
        t_cpu[idx] = on.alpha * t_ac + on.beta * on_power + on.gamma
        total_server = float(server_power.sum())
        t_sp = model.cooler.set_point_for(t_ac, total_server)
        cooling = model.cooler.cooling_power(t_sp, t_ac)
        solution = ClosedFormSolution(
            loads=loads,
            on_ids=tuple(ids),
            active_ids=tuple(active),
            t_ac=t_ac,
            t_ac_unclamped=t_ac_raw,
            t_sp=t_sp,
            common_temperature=common_t,
            predicted_t_cpu=t_cpu,
            predicted_server_power=server_power,
            predicted_cooling_power=cooling,
            clamped=clamped,
            repaired=repaired,
        )
    wd = _watchdog._active
    if wd is not None:
        wd.check_solution(model, solution, total_load)
    return solution


def _validate(
    model: SystemModel, on_ids: Sequence[int], total_load: float
) -> list[int]:
    on = sorted(set(map(int, on_ids)))
    if len(on) != len(list(on_ids)):
        raise ConfigurationError(f"duplicate ids in ON set: {list(on_ids)}")
    if not on:
        raise ConfigurationError("ON set must not be empty")
    if on[0] < 0 or on[-1] >= model.node_count:
        raise ConfigurationError(
            f"ON set {on} out of range for {model.node_count} machines"
        )
    if total_load < 0.0:
        raise ConfigurationError(f"total load must be >= 0, got {total_load}")
    if math.isnan(total_load):
        raise ConfigurationError(
            f"total load must be a number, got {total_load}"
        )
    return on


def _equation_21(
    model: SystemModel, k: np.ndarray, b: np.ndarray, total_load: float
) -> float:
    """Eq. 21 from the ON set's ``K_i`` and ``alpha_i / beta_i``."""
    return (float(k.sum()) - total_load) * model.power.w1 / sum(b.tolist())


def _active_set_loads(
    model: SystemModel,
    on: ModelArrays,
    idx: np.ndarray,
    total_load: float,
    t_ac: float,
    enforce_capacity: bool,
) -> tuple[np.ndarray, float, list[int]]:
    """Active-set loop: pin negative loads at zero (and, optionally,
    over-capacity loads at capacity), re-solving the common-temperature
    system over the remainder.  ``on`` holds the rows of the ON
    machines ``idx``.

    Each round solves the *common-temperature* system over the active
    machines: ``T = alpha_i * t_ac + beta_i * (w1 * L_i + w2) + gamma_i``
    solved for ``L_i`` is ``L_i = T * inv_i - base_i``, and
    ``sum(L_i) == remaining`` fixes ``T``.  A machine leaving the active
    set is removed by shifting the working columns after it one place
    left, so the active slice stays contiguous and in machine order (the
    loop's sums see the same elements in the same order).
    """
    w1, w2 = model.power.w1, model.power.w2
    m = len(idx)
    # Working rows: inv_i = 1 / (beta_i w1), base_i, capacity,
    # capacity + tolerance and the machine id.
    work = np.empty((5, m))
    work[0] = on.inv_beta_w1
    base = work[1]
    np.multiply(on.alpha, t_ac, out=base)
    base += on.gamma
    base /= on.beta_w1
    base += w2 / w1
    work[2] = on.capacities
    np.add(on.capacities, _TOL, out=work[3])
    work[4] = idx
    pinned_ids: list[int] = []
    pinned_loads: list[float] = []
    remaining = total_load
    for _ in range(2 * len(idx) + 1):
        obs.count("closed_form.active_set_rounds")
        if _trace._tracing:
            _trace.add_event(
                "closed_form.active_set_round",
                active=m,
                pinned=len(pinned_ids),
                remaining=remaining,
            )
        if not m:
            if remaining > _TOL:
                raise InfeasibleError(
                    "no machine can accept the remaining load within T_max"
                )
            loads = np.zeros(model.node_count)
            if not pinned_ids:
                return loads, -np.inf, []
            loads[pinned_ids] = pinned_loads
            return loads, _hottest(model, pinned_ids, pinned_loads, t_ac), []
        inv, base, cap, cap_tol = work[:4, :m]
        common_t = (remaining + float(base.sum())) / float(inv.sum())
        partial = common_t * inv - base
        j = int(partial.argmin())
        if partial[j] < -_TOL:
            work[:, j : m - 1] = work[:, j + 1 : m]
            m -= 1
            continue
        if enforce_capacity:
            # Pin the machine furthest over its capacity, the first on a
            # tie.  The largest excess is that machine unless rounding of
            # ``capacity + tolerance`` leaves it just inside; then look
            # among the machines that are over.
            excess = partial - cap
            j = int(excess.argmax())
            over = partial[j] > cap_tol[j]
            if not over:
                is_over = partial > cap_tol
                over = bool(is_over.any())
                if over:
                    j = int(np.where(is_over, excess, -np.inf).argmax())
            if over:
                pinned_ids.append(int(work[4, j]))
                pinned_loads.append(float(cap[j]))
                remaining -= pinned_loads[-1]
                work[:, j : m - 1] = work[:, j + 1 : m]
                m -= 1
                continue
        ids = work[4, :m].astype(np.intp)
        loads = np.zeros(model.node_count)
        # max(0.0, x) per machine: NaN and -0.0 become 0.0.
        loads[ids] = np.where(partial > 0.0, partial, 0.0)
        if pinned_ids:
            loads[pinned_ids] = pinned_loads
            common_t = max(
                common_t, _hottest(model, pinned_ids, pinned_loads, t_ac)
            )
        return loads, common_t, sorted(ids.tolist() + pinned_ids)
    raise InfeasibleError("active-set repair failed to converge")


def _hottest(
    model: SystemModel,
    ids: list[int],
    loads: list[float],
    t_ac: float,
) -> float:
    """The hottest predicted CPU (Eq. 8) among ``ids`` carrying ``loads``."""
    arrays = model.arrays
    idx = np.array(ids, dtype=np.intp)
    power = model.power.w1 * np.array(loads) + model.power.w2
    temps = (
        arrays.alpha[idx] * t_ac + arrays.beta[idx] * power + arrays.gamma[idx]
    )
    return max(temps.tolist())


def _backoff_supply_temperature(
    model: SystemModel,
    on: ModelArrays,
    idx: np.ndarray,
    total_load: float,
    t_ac_high: float,
    common_high: float,
    enforce_capacity: bool,
) -> float:
    """Bisect the largest ``t_ac`` whose repaired loads respect ``T_max``.

    ``common_high`` is the shared temperature the repair found at
    ``t_ac_high``.  The loop is the plain bisection: its midpoints, its
    test and its stop are those of the loop reference.  A midpoint
    outside the bracket :func:`_certified_bracket` returns takes the
    outcome the bracket certifies instead of a repair solve, so the
    result is the bisection's to the bit.
    """
    t_max = model.t_max

    def common_at(t_ac: float) -> float:
        obs.count("closed_form.backoff_evaluations")
        return _active_set_loads(
            model, on, idx, total_load, t_ac, enforce_capacity
        )[1]

    lo = model.cooler.t_ac_min
    common_lo = common_at(lo)
    if common_lo > t_max + 1e-6:
        raise InfeasibleError(
            f"load {total_load:.3f} cannot be served within T_max even at "
            f"the coldest supply temperature {lo:.2f} K"
        )
    hi = t_ac_high
    below, above = _certified_bracket(
        common_at, on, t_max, lo, common_lo, hi, common_high
    )
    for _ in range(80):
        obs.count("closed_form.backoff_bisections")
        mid = 0.5 * (lo + hi)
        if mid <= below:
            over = False
        elif mid >= above:
            over = True
        else:
            over = common_at(mid) > t_max
        if over:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-9:
            break
    return lo


#: Secant steps :func:`_certified_bracket` takes, two repair solves each.
_SECANT_STEPS = 4


def _certified_bracket(
    common_at: Callable[[float], float],
    on: ModelArrays,
    t_max: float,
    lo: float,
    common_lo: float,
    hi: float,
    common_hi: float,
) -> tuple[float, float]:
    """``(below, above)``: the repair's computed shared temperature is
    at most ``t_max`` at every ``t_ac <= below`` and above it at every
    ``t_ac >= above`` (``-inf``/``inf`` when nothing is certified).

    The exact shared temperature is continuous and non-decreasing in
    ``t_ac``; on one active/pinned configuration it is affine with slope
    ``sum(alpha_i * inv_i) / sum(inv_i)`` over the free machines, or
    ``alpha_i`` of the hottest pinned one, so the slope is at least
    ``min(alpha)`` over the ON set.  Each computed value is within
    ``eps`` of the exact one, where ``eps`` is at most ``(2m + 6)`` unit
    roundoffs of the temperature (``m`` sums of positive terms and a
    few operations per term).  ``margin`` is ``8 (m + 6)`` unit
    roundoffs of ``t_max``, at least ``2 eps``: where the computed
    excess over ``t_max`` is below ``-margin`` at ``below``, the
    computed excess at any smaller ``t_ac`` is below
    ``-margin + 2 eps <= 0``, and symmetrically above ``above``.

    The argument takes the repair's tolerance decisions as exact: where
    a machine's load crosses the ``_TOL`` band of a drop or a pin, the
    shared temperature steps by at most ``_TOL * beta_i * w1`` (about
    1e-9 K), which the margin does not cover; such a step changes an
    outcome only if it falls within about 1e-9 K of the root.
    It also takes the repair's answer as the KKT point, which it is not
    where a machine dropped at zero load would be re-admitted after a
    later pin raised the temperature.

    A secant iteration started from ``t_ac_high`` and ``t_ac_min``
    (often on the root's piece already) estimates the root.  Repair
    solves at ``root -+ delta``, with ``delta = 8 margin / min(alpha)``,
    clear the margin on both sides once the estimate is within
    ``7 margin / min(alpha)`` of the root, and otherwise feed the next
    secant step.  Estimates that never clear leave the bracket wide, and
    the bisection evaluates every midpoint inside it.
    """
    margin = (len(on.alpha) + 6) * 2.0**-50 * t_max
    delta = 8.0 * margin / float(on.alpha.min())
    below, above = -math.inf, math.inf
    # The evaluated points nearest the root from below and from above.
    left: tuple[float, float] | None = None
    right: tuple[float, float] | None = None

    def certify(t_ac: float, excess: float) -> None:
        nonlocal below, above, left, right
        if excess < -margin:
            below = max(below, t_ac)
        elif excess > margin:
            above = min(above, t_ac)
        if excess <= 0.0:
            if left is None or t_ac > left[0]:
                left = (t_ac, excess)
        elif right is None or t_ac < right[0]:
            right = (t_ac, excess)

    certify(lo, common_lo - t_max)
    certify(hi, common_hi - t_max)
    # Each secant step continues from its probe nearer to the root; one
    # that leaves the sign bracket falls back to the bracket's secant.
    previous, latest = (hi, common_hi - t_max), (lo, common_lo - t_max)
    root = lo if left is None else _secant(previous, latest)
    for _ in range(_SECANT_STEPS):
        probes = []
        for t_ac in (root - delta, root + delta):
            if lo < t_ac < hi and below < t_ac < above:
                try:
                    probes.append((t_ac, common_at(t_ac) - t_max))
                except InfeasibleError:
                    continue  # an uncertified point; the bisection decides
                certify(*probes[-1])
        if left is None or not probes or (
            (below >= root - delta or root - delta <= lo)
            and (above <= root + delta or root + delta >= hi)
        ):
            break
        previous, latest = latest, min(probes, key=lambda p: abs(p[1]))
        root = _secant(previous, latest)
        if not left[0] < root < right[0]:
            root = _secant(left, right)
    return below, above


def _secant(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Where the line through ``(t_ac, excess)`` points ``a``, ``b``
    crosses zero."""
    (x0, e0), (x1, e1) = a, b
    if e1 == e0:
        return math.nan
    return x0 - e0 * (x1 - x0) / (e1 - e0)


def kkt_multipliers(
    model: SystemModel, on_ids: Sequence[int]
) -> tuple[float, np.ndarray]:
    """The Lagrange multipliers of the paper's KKT system (Eqs. 15-16).

    Returns ``(lambda, mu)`` where ``mu[j]`` corresponds to the ``j``-th
    smallest id of ``on_ids``.
    Both are strictly positive, which is the paper's argument that the
    temperature constraints are active at the optimum (Eq. 17).
    """
    idx = np.array(_validate(model, on_ids, 0.0), dtype=np.intp)
    arrays = model.arrays
    b_sum = sum(arrays.alpha_over_beta[idx].tolist())
    lam = model.cooler.c_f_ac * model.power.w1 / b_sum
    return lam, lam / arrays.beta_w1[idx]
