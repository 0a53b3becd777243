"""End-to-end joint optimizer: the package's primary public entry point.

:class:`JointOptimizer` wires together the pieces of Section III: given the
fitted :class:`~repro.core.model.SystemModel` and a total load ``L``, it

1. chooses the set of machines to power on (Section III-B) — via the
   paper's event-based :class:`~repro.core.consolidation.ConsolidationIndex`
   (default), the exact Dinkelbach scan, or brute force;
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
from repro.core.select import brute_force_subset, optimal_subset
from repro.core.sharding import PodShardedIndex

SelectionMethod = Literal["index", "sharded", "exact", "brute"]
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
        Selection method that produced the ON set ("all" when
        consolidation was disabled).
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
    selection:
        How to pick the ON set when consolidating: ``"index"`` uses the
        paper's Algorithms 1-2 (answering through the per-cardinality
        sweep of :class:`~repro.core.consolidation.RatioSweep`),
        ``"sharded"`` the pod-partitioned
        :class:`~repro.core.sharding.PodShardedIndex` (thousands of
        machines; the monolithic pre-processing walls out near n = 500),
        ``"exact"`` the Dinkelbach per-``k`` scan, ``"brute"`` exhaustive
        search (small n only).
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
        trusted.  With ``selection="sharded"`` the same directory holds
        the per-pod documents.
    pods:
        Pod count for ``selection="sharded"`` (default: sized so each
        pod holds about
        :data:`~repro.core.sharding.DEFAULT_POD_MACHINES` machines).
        Rejected with any other selection method — it would silently do
        nothing.
    """

    def __init__(
        self,
        model: SystemModel,
        selection: SelectionMethod = "index",
        cost_model: CostModel = "paper",
        index_cache_dir: Optional[Union[str, pathlib.Path]] = None,
        pods: Optional[int] = None,
    ) -> None:
        if selection not in ("index", "sharded", "exact", "brute"):
            raise ConfigurationError(f"unknown selection method {selection!r}")
        if cost_model not in ("paper", "actuated"):
            raise ConfigurationError(f"unknown cost model {cost_model!r}")
        if pods is not None and selection != "sharded":
            raise ConfigurationError(
                f'pods={pods} only applies to selection="sharded" '
                f"(got selection={selection!r})"
            )
        self.model = model
        self.selection = selection
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

    @property
    def sharded_index(self) -> PodShardedIndex:
        """The lazily built pod-sharded structure (shared across queries).

        Pod tables go through the same ``.npz`` cache directory as the
        monolithic index when ``index_cache_dir`` is set — each pod is
        keyed by its own content hash, so pods are reused across runs
        (and across optimizers over the same machine subsets).
        """
        if self._sharded_index is None:
            w2_eff, rho = self._cost_coefficients()
            t_min, t_max = self._t_bounds()
            obs.count("optimizer.sharded_index_builds")
            self._sharded_index = PodShardedIndex(
                pairs=self.model.ab_pairs(),
                w2=w2_eff,
                rho=rho,
                t_min=t_min,
                t_max=t_max,
                capacities=self.model.capacities,
                pods=self.pods,
                cache_dir=self.index_cache_dir,
            )
        return self._sharded_index

    @property
    def query_index(self):
        """The index a selection without exclusions queries.

        ``selection="sharded"`` routes to :attr:`sharded_index`; every
        other method uses the monolithic :attr:`index`.  The serving
        daemon warms this index at start-up; its answers go through
        :meth:`solve` and :meth:`solve_many`, which pick the index the
        same way for every selection method.
        """
        if self.selection == "sharded":
            return self.sharded_index
        return self.index

    def _survivor_index(
        self, excluded: frozenset
    ) -> tuple[PodShardedIndex, list[int]]:
        """A pod-sharded index over the surviving (non-excluded) machines.

        Exclusions invalidate the pre-computed global tables (they are
        prefix-based), but fault-campaign replans re-probe the same
        degraded room many times — so with ``selection="sharded"`` the
        survivors get their own sharded index, memoized per exclusion
        set.  Sharded builds are ``sum_p m_p^3``, cheap enough to
        amortize within a single bracketing pass even at n = 500.

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
        w2_eff, rho = self._cost_coefficients()
        t_min, t_max = self._t_bounds()
        pods = self.pods
        if pods is not None:
            pods = max(1, min(pods, len(survivors)))
        obs.count("optimizer.survivor_index_builds")
        pairs = self.model.ab_pairs()
        index = PodShardedIndex(
            pairs=[pairs[i] for i in survivors],
            w2=w2_eff,
            rho=rho,
            t_min=t_min,
            t_max=t_max,
            capacities=[self.model.capacities[i] for i in survivors],
            pods=pods,
            cache_dir=self.index_cache_dir,
        )
        while len(self._survivor_indexes) >= 4:
            self._survivor_indexes.popitem(last=False)
        self._survivor_indexes[excluded] = (index, survivors)
        return index, survivors

    def _selection_errors(
        self,
        loads: Sequence[float],
        exclude: Optional[Sequence[int]],
    ) -> tuple[frozenset, list[int], list[Optional[ReproError]]]:
        """:meth:`select_on_set`'s input checks, for many loads at once.

        Returns ``(excluded, survivors, errors)``: ``errors[i]`` is the
        exception :meth:`select_on_set` raises for ``loads[i]``, or
        ``None`` when the load passes.  The surviving capacity is summed
        once per call, not once per load.
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
        return excluded, survivors, errors

    def _selection_index(self, excluded: frozenset):
        """``(index, ids)`` that :meth:`select_on_set` queries, or ``None``.

        ``ids`` maps the index's machine numbers to global ids (``None``
        when they coincide).  ``selection="index"`` with exclusions,
        ``"exact"`` and ``"brute"`` scan the survivors instead.
        """
        if self.selection == "index" and not excluded:
            return self.index, None
        if self.selection != "sharded":
            return None
        if not excluded:
            return self.sharded_index, None
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
        maintenance).  Exclusions invalidate the pre-computed index:
        ``selection="index"`` falls back to the exact per-query scan
        over the surviving machines (polynomial, exactly optimal), while
        ``selection="sharded"`` re-shards the survivors (memoized per
        exclusion set) so degraded queries stay fast at n = 5000.
        """
        excluded, survivors, (error,) = self._selection_errors(
            [total_load], exclude
        )
        if error is not None:
            raise error
        indexed = self._selection_index(excluded)
        if indexed is not None:
            index, ids = indexed
            chosen = index.query_refined(total_load)
            return chosen if ids is None else sorted(ids[j] for j in chosen)
        w2_eff, rho = self._cost_coefficients()
        t_min, t_max = self._t_bounds()
        all_pairs = self.model.ab_pairs()
        pairs = [all_pairs[i] for i in survivors]
        capacities = [self.model.capacities[i] for i in survivors]
        solver = (
            brute_force_subset if self.selection == "brute" else optimal_subset
        )
        best, _ = solver(
            pairs,
            total_load,
            w2=w2_eff,
            rho=rho,
            theta=0.0,
            t_min=t_min,
            t_max=t_max,
            capacities=capacities,
        )
        return sorted(survivors[j] for j in best)

    def solve_many(
        self,
        loads: Sequence[float],
        exclude: Optional[Sequence[int]] = None,
    ) -> list[Union[OptimizationResult, ReproError]]:
        """:meth:`solve` for many loads: one entry per load, in order.

        Each entry is the :class:`OptimizationResult` that
        ``solve(load, exclude=exclude)`` returns, or the
        :class:`~repro.errors.ReproError` it raises, with the same type
        and message.  Duplicate loads are answered once.  Where
        :meth:`select_on_set` queries an index, one ``query_many`` pass
        selects every distinct load; a load that pass finds infeasible
        is asked again through :meth:`select_on_set`, so its error is
        the single query's own.  The exact and brute-force scans solve
        each distinct load in turn.
        """
        loads = list(loads)
        excluded, _, errors = self._selection_errors(loads, exclude)
        distinct = list(dict.fromkeys(
            load for load, error in zip(loads, errors) if error is None
        ))
        indexed = self._selection_index(excluded) if distinct else None
        answers: dict = {}
        if indexed is None:
            for load in distinct:
                try:
                    answers[load] = self.solve(load, exclude=exclude)
                except ReproError as exc:
                    answers[load] = exc
        else:
            index, ids = indexed
            on_sets = index.query_many(distinct, skip_infeasible=True)
            for load, chosen in zip(distinct, on_sets):
                try:
                    if chosen is None:
                        chosen = self.select_on_set(load, exclude=exclude)
                    elif ids is not None:
                        chosen = sorted(ids[j] for j in chosen)
                    answers[load] = _result(
                        solve_closed_form(self.model, chosen, load),
                        self.selection,
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
            batched = self._selection_index(frozenset(excluded)) is not None
            obs.count(
                "optimizer.max_load_batched_probes" if batched
                else "optimizer.max_load_fallback_solves",
                len(loads),
            )
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
            method=self.selection,
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
                    method = self.selection
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
