"""End-to-end joint optimizer: the package's primary public entry point.

:class:`JointOptimizer` wires together the pieces of Section III: given the
fitted :class:`~repro.core.model.SystemModel` and a total load ``L``, it

1. chooses the set of machines to power on (Section III-B) — through
   the per-cardinality sweep of
   :class:`~repro.core.consolidation.RatioSweep` over the paper's
   event-based :class:`~repro.core.consolidation.ConsolidationIndex`, or
   over a :class:`~repro.core.sharding.PodShardedIndex` when the room is
   split into pods or machines are excluded;
2. computes the closed-form optimal load split and cooling-air temperature
   for that set (Section III-A, Eqs. 18-22);
3. translates the desired supply temperature into the set point to command
   on the cooling unit, using the empirically fitted actuation map
   (Section IV-B).

Because the pre-processing of Algorithm 1 is load-independent, one
:class:`JointOptimizer` amortizes it across any number of
:meth:`~JointOptimizer.solve` queries — the on-line cost per query is
O(log n) for the selection plus O(n) for the closed form, matching the
paper's complexity claims.
"""

from __future__ import annotations

import math
import pathlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, InfeasibleError, ReproError
from repro.core.closed_form import ClosedFormSolution, solve_closed_form
from repro.core.consolidation import (
    ConsolidationIndex,
    consolidation_cache_key,
)
from repro.core.model import SystemModel
from repro.core.sharding import PodShardedIndex

CostModel = Literal["paper", "actuated"]

#: Interior grid points probed in one batch to shrink the ``maxL``
#: bisection bracket before the sequential refinement loop.
_BRACKET_PROBES = 14


@dataclass(frozen=True)
class OptimizationResult:
    """Complete output of one :meth:`JointOptimizer.solve` call.

    Attributes
    ----------
    loads:
        Dense per-machine loads, tasks/s (zeros for off machines).
    on_ids:
        Machines to power on.
    t_ac:
        Supply-air temperature to aim for, K.
    t_sp:
        Set point to command on the cooling unit, K.
    solution:
        Full closed-form record (predicted temperatures and powers).
    method:
        How the ON set was chosen: ``"index"`` (the monolithic
        Algorithm-1 index), ``"sharded"`` (pods), ``"explicit"`` (a
        caller's ON set) or ``"all"`` (consolidation disabled).
    """

    loads: np.ndarray
    on_ids: tuple[int, ...]
    t_ac: float
    t_sp: float
    solution: ClosedFormSolution
    method: str

    @property
    def predicted_total_power(self) -> float:
        """Model-predicted room power, W."""
        return self.solution.predicted_total_power


def _result(solution: ClosedFormSolution, method: str) -> OptimizationResult:
    """The :class:`OptimizationResult` of a closed-form solution."""
    return OptimizationResult(
        loads=solution.loads,
        on_ids=solution.on_ids,
        t_ac=solution.t_ac,
        t_sp=solution.t_sp,
        solution=solution,
        method=method,
    )


class JointOptimizer:
    """Holistic computing + cooling optimizer over a fitted system model.

    Parameters
    ----------
    model:
        Fitted coefficients of the machine room (from profiling).
    cost_model:
        Cost coefficients used during subset selection.  ``"paper"``
        follows Eq. 23 verbatim (``rho = c*f_ac*w1``, set point treated as
        fixed).  ``"actuated"`` composes Eq. 10 with the fitted actuation
        map, which accounts for the set point moving together with the
        supply temperature; exposed for the ablation study.
    index_cache_dir:
        Optional directory of persisted Algorithm-1 indexes.  When set,
        the lazy :attr:`index` build first looks for a ``.npz`` named by
        the parameters' content hash and loads it instead of re-running
        the O(n^3 log n) pre-processing; a fresh build is written back
        for the next run.  Stale or corrupt files are rebuilt, never
        trusted.  Pod-sharded indexes keep their per-pod documents in
        the same directory.
    pods:
        ``None`` (default) answers healthy queries from the monolithic
        Algorithm-1 :attr:`index`; an integer splits the room into that
        many contiguous pods of a
        :class:`~repro.core.sharding.PodShardedIndex` (thousands of
        machines; the monolithic pre-processing walls out near
        n = 500).  Both answer through the same per-cardinality sweep.
        Queries with exclusions always go to a pod-sharded index over
        the survivors (:meth:`_survivor_index`).
    """

    def __init__(
        self,
        model: SystemModel,
        cost_model: CostModel = "paper",
        index_cache_dir: Optional[Union[str, pathlib.Path]] = None,
        pods: Optional[int] = None,
    ) -> None:
        if cost_model not in ("paper", "actuated"):
            raise ConfigurationError(f"unknown cost model {cost_model!r}")
        self.model = model
        self.cost_model = cost_model
        self.pods = None if pods is None else int(pods)
        self.index_cache_dir = (
            None if index_cache_dir is None else pathlib.Path(index_cache_dir)
        )
        self._index: Optional[ConsolidationIndex] = None
        self._sharded_index: Optional[PodShardedIndex] = None
        self._survivor_indexes: OrderedDict[
            frozenset, tuple[PodShardedIndex, list[int]]
        ] = OrderedDict()

    @property
    def method(self) -> str:
        """The ``method`` label of a consolidated answer: ``"sharded"``
        with pods, ``"index"`` without."""
        return "index" if self.pods is None else "sharded"

    def with_model(self, model: SystemModel) -> "JointOptimizer":
        """A fresh optimizer of the same kind over ``model``.

        Keeps ``cost_model``, ``pods`` and ``index_cache_dir``; the
        indexes are rebuilt lazily for the new coefficients.  Controllers
        call it when they plan against a derated ``T_max``.
        """
        return type(self)(
            model,
            cost_model=self.cost_model,
            index_cache_dir=self.index_cache_dir,
            pods=self.pods,
        )

    # ------------------------------------------------------------------ #
    # Cost coefficients of the subset-selection reduction (Eq. 23)
    # ------------------------------------------------------------------ #

    def _cost_coefficients(self) -> tuple[float, float]:
        """``(w2_eff, rho)`` for the selection problem.

        The load-dependent part of ``theta`` is identical for every subset
        and never affects the argmin, so it is dropped (the paper notes the
        same).
        """
        m = self.model
        if self.cost_model == "paper":
            return m.power.w2, m.cooler.c_f_ac * m.power.w1
        # "actuated": P_ac = c_f_ac * (T_SP - T_ac) with
        # T_SP = e0 + e1*T_ac + e2*sum(P).  Substituting and collecting the
        # k- and t-dependent terms of Eq. 23 gives effective coefficients.
        c = m.cooler.c_f_ac
        e1 = m.cooler.actuation_t_ac
        e2 = m.cooler.actuation_power
        slope = c * (1.0 - e1)
        if slope <= 0.0:
            raise ConfigurationError(
                "actuated cost model needs actuation_t_ac < 1 "
                f"(got {e1}); the supply knob would not save energy"
            )
        w2_eff = m.power.w2 * (1.0 + c * e2)
        rho_eff = slope * m.power.w1
        return w2_eff, rho_eff

    def _t_bounds(self) -> tuple[float, float]:
        """Particle-time bounds implied by the cooler band (t = T_ac/w1)."""
        w1 = self.model.power.w1
        return self.model.cooler.t_ac_min / w1, self.model.cooler.t_ac_max / w1

    @property
    def index(self) -> ConsolidationIndex:
        """The lazily built Algorithm-1 structure (shared across queries).

        With ``index_cache_dir`` set, a persisted index for the same
        parameters is loaded instead of rebuilt, and fresh builds are
        written back to the cache.
        """
        if self._index is None:
            w2_eff, rho = self._cost_coefficients()
            t_min, t_max = self._t_bounds()
            kwargs = dict(
                pairs=self.model.ab_pairs(),
                w2=w2_eff,
                rho=rho,
                t_min=t_min,
                t_max=t_max,
                capacities=self.model.capacities,
            )
            if self.index_cache_dir is not None:
                self._index = self._cached_index(kwargs)
            else:
                obs.count("optimizer.index_builds")
                self._index = ConsolidationIndex(**kwargs)
        return self._index

    def _cached_index(self, kwargs: dict) -> ConsolidationIndex:
        from repro.core.serialization import (
            load_consolidation_index,
            save_consolidation_index,
        )

        key = consolidation_cache_key(
            kwargs["pairs"],
            w2=kwargs["w2"],
            rho=kwargs["rho"],
            t_min=kwargs["t_min"],
            t_max=kwargs["t_max"],
            capacities=kwargs["capacities"],
        )
        path = self.index_cache_dir / f"consolidation-{key[:24]}.npz"
        if path.exists():
            try:
                index = load_consolidation_index(path, expected_key=key)
                obs.count("optimizer.index_cache_hits")
                return index
            except ConfigurationError:
                obs.count("optimizer.index_cache_invalid")
        obs.count("optimizer.index_cache_misses")
        obs.count("optimizer.index_builds")
        index = ConsolidationIndex(**kwargs)
        self.index_cache_dir.mkdir(parents=True, exist_ok=True)
        save_consolidation_index(index, path)
        return index

    def _pod_index(
        self,
        ids: Sequence[int],
        pods: Optional[int],
        cache_dir: Optional[pathlib.Path] = None,
    ) -> PodShardedIndex:
        """A pod-sharded index over the machines ``ids`` (global ids, in
        order), with per-pod documents in ``cache_dir`` when set."""
        w2_eff, rho = self._cost_coefficients()
        t_min, t_max = self._t_bounds()
        pairs = self.model.ab_pairs()
        return PodShardedIndex(
            pairs=[pairs[i] for i in ids],
            w2=w2_eff,
            rho=rho,
            t_min=t_min,
            t_max=t_max,
            capacities=[self.model.capacities[i] for i in ids],
            pods=pods,
            cache_dir=cache_dir,
        )

    @property
    def query_index(self):
        """The index a selection without exclusions queries.

        The monolithic :attr:`index` when ``pods`` is ``None``, else a
        lazily built :class:`~repro.core.sharding.PodShardedIndex` of
        ``pods`` pods over every machine.  Pod tables go through the
        same ``.npz`` cache directory as the monolithic index — each pod
        is keyed by its own content hash, so pods are reused across runs
        (and across optimizers over the same machine subsets).  The
        serving daemon warms this index at start-up.
        """
        if self.pods is None:
            return self.index
        if self._sharded_index is None:
            obs.count("optimizer.sharded_index_builds")
            self._sharded_index = self._pod_index(
                range(self.model.node_count), self.pods, self.index_cache_dir
            )
        return self._sharded_index

    def _survivor_index(
        self, excluded: frozenset
    ) -> tuple[PodShardedIndex, list[int]]:
        """A pod-sharded index over the surviving (non-excluded) machines.

        Exclusions invalidate the pre-computed global tables (they are
        prefix-based), but fault-campaign replans re-probe the same
        degraded room many times — so the survivors get their own
        sharded index, memoized per exclusion set, whatever ``pods`` is.
        Sharded builds are ``sum_p m_p^3``, cheap enough to amortize
        within a single bracketing pass even at n = 500.  The survivors'
        pods keep the healthy room's pod count (capped at the survivor
        count) or, without pods, the default pod size.  Survivor pods
        are never written to ``index_cache_dir``: the exclusion sets come
        from callers, so their number has no bound, and the in-memory
        memo already serves the repeats.

        Returns ``(index, survivors)`` where ``survivors[j]`` maps the
        index's local machine ``j`` back to the global id.
        """
        cached = self._survivor_indexes.get(excluded)
        if cached is not None:
            self._survivor_indexes.move_to_end(excluded)
            return cached
        survivors = [
            i for i in range(self.model.node_count) if i not in excluded
        ]
        pods = self.pods
        if pods is not None:
            pods = max(1, min(pods, len(survivors)))
        obs.count("optimizer.survivor_index_builds")
        index = self._pod_index(survivors, pods)
        while len(self._survivor_indexes) >= 4:
            self._survivor_indexes.popitem(last=False)
        self._survivor_indexes[excluded] = (index, survivors)
        return index, survivors

    def _selection_errors(
        self,
        loads: Sequence[float],
        exclude: Optional[Sequence[int]],
    ) -> tuple[frozenset, list[Optional[ReproError]]]:
        """:meth:`select_on_set`'s input checks, for many loads at once.

        Returns ``(excluded, errors)``: ``errors[i]`` is the exception
        :meth:`select_on_set` raises for ``loads[i]``, or ``None`` when
        the load passes.  The surviving capacity is summed once per
        call, not once per load.
        """
        excluded = frozenset(int(i) for i in exclude or ())
        n = self.model.node_count
        unknown = sorted(i for i in excluded if not 0 <= i < n)
        survivors = [i for i in range(n) if i not in excluded]
        capacity = sum(self.model.capacities[i] for i in survivors)
        errors: list[Optional[ReproError]] = []
        for load in loads:
            error: Optional[ReproError] = None
            if math.isnan(load):
                error = ConfigurationError(
                    f"total load must be a number, got {load}"
                )
            elif load <= 0.0:
                error = ConfigurationError(
                    f"total load must be positive to select machines, "
                    f"got {load}"
                )
            elif unknown:
                error = ConfigurationError(
                    f"cannot exclude unknown machines: {unknown}"
                )
            elif not survivors:
                error = InfeasibleError("every machine is excluded")
            elif load > capacity + 1e-9:
                error = InfeasibleError(
                    f"load {load:.3f} exceeds surviving capacity "
                    f"{capacity:.3f}"
                )
            errors.append(error)
        return excluded, errors

    def _selection_index(self, excluded: frozenset):
        """``(index, ids)`` that :meth:`select_on_set` queries.

        :attr:`query_index` for a healthy room, the memoized
        :meth:`_survivor_index` when machines are excluded.  ``ids``
        maps the index's machine numbers to global ids (``None`` when
        they coincide).
        """
        if not excluded:
            return self.query_index, None
        return self._survivor_index(excluded)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def select_on_set(
        self,
        total_load: float,
        exclude: Optional[Sequence[int]] = None,
    ) -> list[int]:
        """Choose which machines to power on for ``total_load`` tasks/s.

        ``exclude`` removes machines from consideration (failed hardware,
        maintenance).  Exclusions invalidate the pre-computed index, so
        the survivors are re-sharded (memoized per exclusion set) and
        degraded queries stay fast at n = 5000.
        """
        excluded, (error,) = self._selection_errors([total_load], exclude)
        if error is not None:
            raise error
        index, ids = self._selection_index(excluded)
        chosen = index.query_refined(total_load)
        return chosen if ids is None else sorted(ids[j] for j in chosen)

    def solve_many(
        self,
        loads: Sequence[float],
        exclude: Optional[Sequence[int]] = None,
    ) -> list[Union[OptimizationResult, ReproError]]:
        """:meth:`solve` for many loads: one entry per load, in order.

        Each entry is the :class:`OptimizationResult` that
        ``solve(load, exclude=exclude)`` returns, or the
        :class:`~repro.errors.ReproError` it raises, with the same type
        and message.  Duplicate loads are answered once, and one
        ``query_many`` pass over the index :meth:`select_on_set` queries
        selects every distinct load; a load that pass finds infeasible
        is asked again through :meth:`select_on_set`, so its error is
        the single query's own.
        """
        loads = list(loads)
        excluded, errors = self._selection_errors(loads, exclude)
        distinct = list(dict.fromkeys(
            load for load, error in zip(loads, errors) if error is None
        ))
        answers: dict = {}
        if distinct:
            index, ids = self._selection_index(excluded)
            on_sets = index.query_many(distinct, skip_infeasible=True)
            for load, chosen in zip(distinct, on_sets):
                try:
                    if chosen is None:
                        chosen = self.select_on_set(load, exclude=exclude)
                    elif ids is not None:
                        chosen = sorted(ids[j] for j in chosen)
                    answers[load] = _result(
                        solve_closed_form(self.model, chosen, load),
                        self.method,
                    )
                except ReproError as exc:
                    answers[load] = exc
        return [
            answers[load] if error is None else error
            for load, error in zip(loads, errors)
        ]

    def max_load_under_budget(
        self,
        power_budget: float,
        tolerance: float = 1e-4,
        exclude: Optional[Sequence[int]] = None,
    ) -> tuple[float, OptimizationResult]:
        """The paper's ``maxL`` question, answered end to end.

        Section III-B builds its algorithm around the dual problem: "with
        a given power budget P_b ... find the maximum load Lmax that the
        cluster can serve without violating P_b".  Related work (Gandhi
        et al., TAPA) optimizes this direction exclusively.  Because the
        model-predicted optimal power is monotone increasing in the load
        ("Lmax increases monotonously with P_b"), a bisection on the load
        against :meth:`solve` answers it exactly.

        Returns ``(max_load, result_at_max_load)``.

        Raises
        ------
        InfeasibleError
            If even the smallest feasible configuration exceeds the
            budget.
        """
        if not power_budget > 0.0:  # NaN fails this test too
            raise ConfigurationError(
                f"power budget must be positive, got {power_budget}"
            )
        excluded = set(int(i) for i in exclude) if exclude else set()
        capacity = sum(
            c
            for i, c in enumerate(self.model.capacities)
            if i not in excluded
        )

        def predicted(load: float) -> float:
            obs.count("optimizer.max_load_probes")
            return self.solve(
                load, exclude=sorted(excluded)
            ).predicted_total_power

        def predicted_many(loads: list[float]) -> list[float]:
            """Batched probes for the bracketing grid: one
            :meth:`solve_many`.  Budget-infeasible probes report infinite
            power, which the monotone bracket treats as "over budget".
            The grid only steers the bracket: the final answer still
            comes from the sequential refinement.
            """
            obs.count("optimizer.max_load_probes", len(loads))
            powers = []
            for result in self.solve_many(loads, exclude=sorted(excluded)):
                if isinstance(result, InfeasibleError):
                    powers.append(float("inf"))
                elif isinstance(result, ReproError):
                    raise result
                else:
                    powers.append(result.predicted_total_power)
            return powers

        with obs.record_run(
            "optimizer.max_load",
            inputs={"power_budget": float(power_budget)},
            method=self.method,
        ) as rec:
            lo = 1e-6 * capacity
            if predicted(lo) > power_budget:
                raise InfeasibleError(
                    f"budget {power_budget:.1f} W cannot power even an "
                    "idle minimal configuration"
                )
            hi = capacity
            if predicted(hi) <= power_budget:
                result = self.solve(hi, exclude=sorted(excluded))
                max_load = hi
            else:
                # One batched grid pass shrinks the bracket by
                # ~(_BRACKET_PROBES + 1)x before the bisection refines it;
                # predicted power is monotone in the load, so the first
                # over-budget grid point bounds the answer from above.
                grid = np.linspace(lo, hi, _BRACKET_PROBES + 2)[1:-1]
                grid = grid.tolist()
                for load, power in zip(grid, predicted_many(grid)):
                    if power <= power_budget:
                        lo = load
                    else:
                        hi = load
                        break
                while hi - lo > tolerance * capacity:
                    mid = 0.5 * (lo + hi)
                    if predicted(mid) <= power_budget:
                        lo = mid
                    else:
                        hi = mid
                result = self.solve(lo, exclude=sorted(excluded))
                max_load = lo
            if rec is not None:
                rec.outcome.update(
                    max_load=max_load,
                    predicted_total_power=result.predicted_total_power,
                )
        return max_load, result

    def solve(
        self,
        total_load: float,
        consolidate: bool = True,
        on_ids: Optional[Sequence[int]] = None,
        exclude: Optional[Sequence[int]] = None,
    ) -> OptimizationResult:
        """Jointly optimal loads, ON set, and cooling temperature.

        Parameters
        ----------
        total_load:
            Total cluster load ``L``, tasks/s.
        consolidate:
            If false, keep every machine powered (method #6 of the paper's
            evaluation); if true, pick the optimal subset (method #8).
        on_ids:
            Explicit ON set override (used by the policy layer and by
            what-if analyses); supersedes ``consolidate``.
        exclude:
            Machines unavailable to any solution (failures/maintenance).
        """
        with obs.record_run(
            "optimizer.solve", inputs={"total_load": float(total_load)}
        ) as rec:
            if math.isnan(total_load):
                raise ConfigurationError(
                    f"total load must be a number, got {total_load}"
                )
            excluded = set(int(i) for i in exclude) if exclude else set()
            with obs.timed("selection"):
                if on_ids is not None:
                    chosen = sorted(int(i) for i in on_ids)
                    overlap = excluded & set(chosen)
                    if overlap:
                        raise ConfigurationError(
                            f"explicit ON set includes excluded machines: "
                            f"{sorted(overlap)}"
                        )
                    method = "explicit"
                elif consolidate:
                    chosen = self.select_on_set(total_load, exclude=exclude)
                    method = self.method
                else:
                    chosen = [
                        i
                        for i in range(self.model.node_count)
                        if i not in excluded
                    ]
                    method = "all"
            solution = solve_closed_form(self.model, chosen, total_load)
            obs.set_span_attributes(
                method=method,
                machines_on=len(solution.on_ids),
                t_ac=solution.t_ac,
                t_sp=solution.t_sp,
                clamped=solution.clamped,
                repaired=solution.repaired,
            )
        if rec is not None:
            # filled in after the record closes: not solve time
            rec.method = method
            rec.outcome.update(
                machines_on=len(solution.on_ids),
                t_ac=solution.t_ac,
                t_sp=solution.t_sp,
                predicted_total_power=solution.predicted_total_power,
                clamped=solution.clamped,
                repaired=solution.repaired,
            )
        return _result(solution, method)
