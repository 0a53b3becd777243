"""Section III-B algorithms: optimality, pre-processing and query scaling.

Regenerates the algorithm study (heuristic failures, brute-force
agreement, event/status counts) and times the three complexity claims:

- Algorithm 1 pre-processing at testbed scale (n = 20);
- Algorithm 2 online query (paper: O(log n)), and the refined query
  the optimizer uses, at n = 20, 500 and 1000;
- the closed-form solution for a fixed ON set (paper: linear in n).
"""

import numpy as np
import pytest

from repro.core.closed_form import solve_closed_form
from repro.core.consolidation import ConsolidationIndex
from repro.core.optimizer import JointOptimizer
from repro.experiments.algorithms import (
    full_algorithm1,
    random_instance,
    run_algorithm_study,
)
from repro.testbed.synthetic import make_system_model


def test_algorithm_study(benchmark, emit):
    result = benchmark.pedantic(
        run_algorithm_study, kwargs={"seed": 7}, rounds=1, iterations=1
    )
    emit("algorithms", result.table())
    assert result.paper_example_ratio_sort_fails
    assert result.agreement.index_matches_brute == result.agreement.instances


@pytest.mark.parametrize("n", [10, 20, 40])
def test_algorithm1_preprocessing_scaling(benchmark, n):
    """All of Algorithm 1 (:func:`full_algorithm1`), not just the
    index's lazy build."""
    rng = np.random.default_rng(n)
    pairs = random_instance(rng, n)
    benchmark(full_algorithm1, pairs=pairs, w2=38.0, rho=9000.0)


def test_algorithm2_online_query(benchmark):
    rng = np.random.default_rng(0)
    pairs = random_instance(rng, 20)
    index = ConsolidationIndex(pairs, w2=38.0, rho=9000.0)
    load = 0.4 * sum(a for a, _ in pairs)
    benchmark(index.query, load)


@pytest.mark.parametrize("n", [20, 500, 1000])
def test_refined_query(benchmark, n):
    """One refined query at 40% of capacity on the optimizer's index,
    its query caches (answers, merges, rows, prefix sums) cleared before
    every round, as a load no earlier query touched finds them."""
    model = make_system_model(n=n)
    index = JointOptimizer(model).index
    load = 0.4 * model.total_capacity
    caches = (index._memo, index._eval_cache, index._row_cache,
              index._prefix_cache)

    def clear():
        for cache in caches:
            cache.clear()

    benchmark.pedantic(
        index.query_refined, args=(load,), setup=clear, rounds=200
    )


@pytest.mark.parametrize("n", [5, 20, 80, 500])
def test_closed_form_linear_complexity(benchmark, n):
    model = make_system_model(n=n)
    load = 0.6 * model.total_capacity
    benchmark(solve_closed_form, model, list(range(n)), load)
