"""Exhaustive full-model reference for the optimizer's ON set."""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from repro.core.closed_form import solve_closed_form
from repro.errors import ConfigurationError, InfeasibleError
from tests.oracles.selection import ExactSelectionOptimizer

#: Most surviving machines the enumeration accepts (4,095 subsets).
FULL_MODEL_MAX = 12


class FullModelOptimizer(ExactSelectionOptimizer):
    """:class:`~repro.core.optimizer.JointOptimizer` that selects, among
    every non-empty subset of the surviving machines, the one whose
    closed form predicts the least total power.

    The optimizer's selection scores subsets with the Eq. 23 surrogate
    of its ``cost_model``; this prices each one with the full fitted
    model (:func:`~repro.core.closed_form.solve_closed_form`'s
    ``predicted_total_power``, cooler set point actuated), so the gap
    between the two is what the surrogate costs.  Subsets the closed
    form rejects are skipped; the smallest, then lexicographically
    first, subset wins a tie.  Small ``n`` only.
    """

    method = "full-model"

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
        if len(survivors) > FULL_MODEL_MAX:
            raise ConfigurationError(
                f"full-model enumeration needs at most {FULL_MODEL_MAX} "
                f"machines, got {len(survivors)}"
            )
        best, best_power = None, float("inf")
        for k in range(1, len(survivors) + 1):
            for subset in combinations(survivors, k):
                try:
                    power = solve_closed_form(
                        self.model, subset, total_load
                    ).predicted_total_power
                except InfeasibleError:
                    continue
                if power < best_power:
                    best, best_power = list(subset), power
        if best is None:
            raise InfeasibleError(
                f"no subset of {len(survivors)} machines can serve "
                f"load {total_load}"
            )
        return best
