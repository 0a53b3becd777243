"""Exhaustive and exact-scan references for the optimizer's selection.

:class:`~repro.core.optimizer.JointOptimizer` answers every consolidating
query, healthy or degraded, through the per-cardinality sweep of a
:class:`~repro.core.consolidation.RatioSweep` index.  These subclasses
answer the same questions by scanning the surviving machines per query
instead — the Dinkelbach per-``k`` scan
(:func:`~repro.core.select.optimal_subset`) or subset enumeration
(:func:`~repro.core.select.brute_force_subset`, small n only) — with the
optimizer's own input checks, cost coefficients, supply band and closed
form, so a test can compare ON sets, powers and errors one for one.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.optimizer import JointOptimizer, OptimizationResult
from repro.core.select import brute_force_subset, optimal_subset
from repro.errors import ReproError


class ExactSelectionOptimizer(JointOptimizer):
    """:class:`JointOptimizer` that selects by the exact per-``k`` scan
    over the surviving machines, one query at a time."""

    #: The ``method`` label of a consolidated answer.
    method = "exact"

    _subset_solver = staticmethod(optimal_subset)

    def select_on_set(
        self,
        total_load: float,
        exclude: Optional[Sequence[int]] = None,
    ) -> list[int]:
        excluded, (error,) = self._selection_errors([total_load], exclude)
        if error is not None:
            raise error
        survivors = [
            i for i in range(self.model.node_count) if i not in excluded
        ]
        w2_eff, rho = self._cost_coefficients()
        t_min, t_max = self._t_bounds()
        all_pairs = self.model.ab_pairs()
        best, _ = self._subset_solver(
            [all_pairs[i] for i in survivors],
            total_load,
            w2=w2_eff,
            rho=rho,
            theta=0.0,
            t_min=t_min,
            t_max=t_max,
            capacities=[self.model.capacities[i] for i in survivors],
        )
        return sorted(survivors[j] for j in best)

    def solve_many(
        self,
        loads: Sequence[float],
        exclude: Optional[Sequence[int]] = None,
    ) -> list[Union[OptimizationResult, ReproError]]:
        """Each distinct load through :meth:`solve`, in turn."""
        loads = list(loads)
        _, errors = self._selection_errors(loads, exclude)
        answers: dict = {}
        for load, error in zip(loads, errors):
            if error is not None or load in answers:
                continue
            try:
                answers[load] = self.solve(load, exclude=exclude)
            except ReproError as exc:
                answers[load] = exc
        return [
            answers[load] if error is None else error
            for load, error in zip(loads, errors)
        ]


class BruteForceOptimizer(ExactSelectionOptimizer):
    """:class:`JointOptimizer` that enumerates every subset of the
    surviving machines (small n only)."""

    method = "brute"

    _subset_solver = staticmethod(brute_force_subset)
