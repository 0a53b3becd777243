"""Eq. 23 subset scorer and the simulated-annealing selection baseline.

The scale benchmark (``benchmarks/bench_consolidation_scale.py``) scores
every solver's ON set on one scale with :func:`subset_power`, and
reports the optimality gap of :func:`anneal_on_set` — a seeded
metaheuristic over on-set bitmasks, per the line of Arroba et al. — at
every size, including those beyond the exact reference's reach
(n = 2000, 5000).  Neither is part of the shipped selection path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.core.select import Pair, _validate_pairs
from repro.errors import ConfigurationError, InfeasibleError


def subset_power(
    pairs: Sequence[Pair],
    subset: Sequence[int],
    load: float,
    w2: float,
    rho: float,
    theta0: float = 0.0,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
    capacities: Optional[Sequence[float]] = None,
) -> float:
    """Exact Eq. 23 power of running ``load`` on ``subset``.

    The subset's own achievable ratio ``t(S) = (sum a - L) / sum b`` is
    clamped into the supply band exactly like
    :meth:`ConsolidationIndex.query_refined` scores its candidates: a
    ratio above ``t_max`` runs the cooler at its warmest, one below
    ``t_min`` pins it at the band edge.  Used by the equivalence tests
    and the scale benchmark to compare answers from different solvers
    on one scale.

    Raises
    ------
    InfeasibleError
        If the subset is empty or lacks the capacity for ``load``.
    """
    ps = _validate_pairs(pairs)
    chosen = sorted(int(i) for i in subset)
    if not chosen:
        raise InfeasibleError("cannot serve load on an empty subset")
    if capacities is not None:
        cap = sum(capacities[i] for i in chosen)
        if cap + 1e-9 < load:
            raise InfeasibleError(
                f"subset capacity {cap:.3f} below load {load:.3f}"
            )
    sum_a = sum(ps[i][0] for i in chosen)
    sum_b = sum(ps[i][1] for i in chosen)
    t = (sum_a - load) / sum_b
    if t_min is not None and t < t_min:
        t = t_min if t_max is None else min(t_min, t_max)
    if t_max is not None:
        t = min(t, t_max)
    return len(chosen) * w2 - rho * t + theta0



@dataclass(frozen=True)
class AnnealResult:
    """Outcome of one :func:`anneal_on_set` run."""

    on_ids: tuple[int, ...]
    power: float
    iterations: int
    accepted: int


def anneal_on_set(
    pairs: Sequence[Pair],
    load: float,
    w2: float,
    rho: float,
    theta0: float = 0.0,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
    capacities: Optional[Sequence[float]] = None,
    seed: int = 0,
    iterations: int = 20000,
) -> AnnealResult:
    """Seeded simulated annealing over on-set bitmasks.

    The metaheuristic baseline of the scale benchmark: single-flip
    moves, Metropolis acceptance on a geometric temperature schedule
    from ``w2`` down to ``1e-3 * w2``, O(1) incremental cost updates
    (the Eq. 23 cost depends on the subset only through ``k``,
    ``sum a``, ``sum b`` and the capacity sum).  Band and capacity
    violations are soft-penalized during the walk; only violation-free
    states are eligible as the returned best.  Deterministic per seed.

    Raises
    ------
    InfeasibleError
        If no feasible on-set was visited (including the greedy start).
    """
    ps = _validate_pairs(pairs)
    n = len(ps)
    if iterations < 1:
        raise ConfigurationError(
            f"iterations must be positive, got {iterations}"
        )
    a = np.asarray([p[0] for p in ps], dtype=np.float64)
    b = np.asarray([p[1] for p in ps], dtype=np.float64)
    caps = (
        None
        if capacities is None
        else np.asarray(capacities, dtype=np.float64)
    )
    t_floor = 0.0 if t_min is None else t_min
    # Penalty scales: steep enough that one load-unit of violation
    # dominates any achievable cost swing.
    cap_pen = 10.0 * (w2 + rho)
    band_pen = 10.0 * rho

    def cost(k: int, sa: float, sb: float, sc: float) -> tuple[float, bool]:
        if k == 0:
            return float("inf"), False
        t = (sa - load) / sb
        feasible = True
        penalty = 0.0
        if caps is not None and sc + 1e-9 < load:
            feasible = False
            penalty += cap_pen * (load - sc)
        if t_min is not None and t < t_min - 1e-12:
            feasible = False
            penalty += band_pen * (t_min - t)
        t_eff = max(t, t_floor)
        if t_max is not None:
            t_eff = min(t_eff, t_max)
        return k * w2 - rho * t_eff + theta0 + penalty, feasible

    # Greedy start: right-most particles at the band floor until the
    # load (and its capacity) are covered.
    order = np.argsort(-(a - t_floor * b), kind="stable")
    mask = np.zeros(n, dtype=bool)
    sa = sb = sc = 0.0
    k = 0
    covered = 0.0
    for i in order.tolist():
        mask[i] = True
        sa += a[i]
        sb += b[i]
        sc += float(caps[i]) if caps is not None else 0.0
        k += 1
        covered += float(a[i] - t_floor * b[i])
        if covered >= load and (caps is None or sc + 1e-9 >= load):
            break

    current, feasible = cost(k, sa, sb, sc)
    best_mask: Optional[np.ndarray] = mask.copy() if feasible else None
    best_power = current if feasible else float("inf")

    rng = np.random.default_rng(seed)
    flips = rng.integers(0, n, size=iterations)
    uniforms = rng.random(iterations)
    t_hot, t_cold = max(w2, 1e-9), max(1e-3 * w2, 1e-12)
    decay = (t_cold / t_hot) ** (1.0 / max(1, iterations - 1))
    temp = t_hot
    accepted = 0
    for step in range(iterations):
        i = int(flips[step])
        sign = -1.0 if mask[i] else 1.0
        nk = k + (1 if sign > 0 else -1)
        nsa = sa + sign * float(a[i])
        nsb = sb + sign * float(b[i])
        nsc = sc + (sign * float(caps[i]) if caps is not None else 0.0)
        candidate, feasible = cost(nk, nsa, nsb, nsc)
        delta = candidate - current
        if delta <= 0.0 or uniforms[step] < math.exp(
            -delta / max(temp, 1e-12)
        ):
            mask[i] = not mask[i]
            k, sa, sb, sc, current = nk, nsa, nsb, nsc, candidate
            accepted += 1
            if feasible and candidate < best_power - 1e-12:
                best_power = candidate
                best_mask = mask.copy()
        temp *= decay
    obs.count("sharding.anneal_runs")
    if best_mask is None:
        raise InfeasibleError(
            f"annealing found no feasible on-set for load {load}"
        )
    on_ids = tuple(int(i) for i in np.flatnonzero(best_mask))
    return AnnealResult(
        on_ids=on_ids,
        power=float(best_power),
        iterations=iterations,
        accepted=accepted,
    )
