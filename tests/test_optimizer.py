"""Tests for the end-to-end JointOptimizer."""

import numpy as np
import pytest

from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError, InfeasibleError
from tests.conftest import make_system_model


class TestConstruction:
    def test_rejects_unknown_selection(self, system_model):
        with pytest.raises(ConfigurationError):
            JointOptimizer(system_model, selection="magic")

    def test_rejects_unknown_cost_model(self, system_model):
        with pytest.raises(ConfigurationError):
            JointOptimizer(system_model, cost_model="magic")


class TestSolve:
    def test_consolidated_solution_serves_load(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        result = optimizer.solve(150.0)
        assert result.loads.sum() == pytest.approx(150.0)
        assert all(result.loads[i] == 0.0 for i in range(10)
                   if i not in result.on_ids)

    def test_no_consolidation_keeps_all_machines(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        result = optimizer.solve(150.0, consolidate=False)
        assert result.on_ids == tuple(range(10))
        assert result.method == "all"

    def test_explicit_on_set_override(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        result = optimizer.solve(60.0, on_ids=[2, 5, 7])
        assert result.on_ids == (2, 5, 7)
        assert result.method == "explicit"

    def test_selection_methods_agree_on_cost(self, big_system_model):
        # index, exact and brute must produce equally good ON sets
        # (ties may differ) as judged by the model-predicted power.
        results = {}
        for method in ("index", "exact", "brute"):
            optimizer = JointOptimizer(big_system_model, selection=method)
            results[method] = optimizer.solve(120.0)
        powers = {
            m: r.predicted_total_power for m, r in results.items()
        }
        assert max(powers.values()) - min(powers.values()) < 1e-6

    def test_consolidation_never_costlier_than_all_on(
        self, big_system_model
    ):
        optimizer = JointOptimizer(big_system_model)
        for load in (40.0, 120.0, 240.0):
            consolidated = optimizer.solve(load)
            all_on = optimizer.solve(load, consolidate=False)
            assert (
                consolidated.predicted_total_power
                <= all_on.predicted_total_power + 1e-6
            )

    def test_more_load_more_machines(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        low = optimizer.solve(40.0)
        high = optimizer.solve(360.0)
        assert len(low.on_ids) <= len(high.on_ids)

    def test_infeasible_load_rejected(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        with pytest.raises(InfeasibleError):
            optimizer.solve(1.01 * big_system_model.total_capacity)

    def test_zero_load_rejected_for_selection(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        with pytest.raises(ConfigurationError):
            optimizer.select_on_set(0.0)

    @pytest.mark.parametrize("options", [
        {}, {"consolidate": False}, {"on_ids": [0, 1]}, {"exclude": [2]},
    ])
    def test_nan_load_rejected_before_selection(
        self, big_system_model, options
    ):
        optimizer = JointOptimizer(big_system_model)
        with pytest.raises(
            ConfigurationError, match="total load must be a number, got nan"
        ):
            optimizer.solve(float("nan"), **options)

    def test_select_on_set_rejects_nan_load(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        with pytest.raises(
            ConfigurationError, match="total load must be a number, got nan"
        ):
            optimizer.select_on_set(float("nan"))

    def test_max_load_rejects_nan_budget(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        with pytest.raises(ConfigurationError, match="power budget"):
            optimizer.max_load_under_budget(float("nan"))

    def test_infinite_load_exceeds_capacity(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        with pytest.raises(InfeasibleError, match="exceeds"):
            optimizer.solve(float("inf"))

    def test_index_is_cached_across_queries(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        optimizer.solve(80.0)
        first = optimizer.index
        optimizer.solve(200.0)
        assert optimizer.index is first

    def test_result_exposes_solution_details(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        result = optimizer.solve(100.0)
        on_temps = result.solution.predicted_t_cpu[list(result.on_ids)]
        assert np.all(on_temps <= big_system_model.t_max + 1e-6)
        assert result.t_sp == pytest.approx(result.solution.t_sp)


class TestCostModels:
    def test_actuated_cost_model_runs(self, big_system_model):
        optimizer = JointOptimizer(big_system_model, cost_model="actuated")
        result = optimizer.solve(120.0)
        assert result.loads.sum() == pytest.approx(120.0)

    def test_actuated_requires_contractive_map(self, system_model):
        from dataclasses import replace

        bad_cooler = replace(system_model.cooler, actuation_t_ac=1.2)
        bad_model = replace(system_model, cooler=bad_cooler)
        optimizer = JointOptimizer(bad_model, cost_model="actuated")
        with pytest.raises(ConfigurationError):
            optimizer.select_on_set(50.0)


class TestExcludePairs:
    """Excluded machines rebuild the Section III-B pairs for the
    survivors; each build reads every machine's pair at most once."""

    @pytest.mark.parametrize(
        "selection, spied", [("sharded", "PodShardedIndex"),
                             ("exact", "optimal_subset")],
    )
    def test_survivor_pairs_cost_one_pass(
        self, monkeypatch, selection, spied
    ):
        from repro.core import optimizer as optimizer_module
        from repro.core.model import NodeCoefficients

        model = make_system_model(n=12)
        excluded = [3, 7]
        survivors = [i for i in range(12) if i not in excluded]
        expected = [
            (
                model.nodes[i].k_constant(model.t_max, model.power),
                model.nodes[i].alpha / model.nodes[i].beta,
            )
            for i in survivors
        ]
        seen = []
        real = getattr(optimizer_module, spied)

        def spy(*args, **kwargs):
            seen.append(kwargs["pairs"] if "pairs" in kwargs else args[0])
            return real(*args, **kwargs)

        calls = []
        k_constant = NodeCoefficients.k_constant

        def counted(self, *args):
            calls.append(1)
            return k_constant(self, *args)

        monkeypatch.setattr(optimizer_module, spied, spy)
        monkeypatch.setattr(NodeCoefficients, "k_constant", counted)
        optimizer = JointOptimizer(model, selection=selection)
        optimizer.select_on_set(150.0, exclude=excluded)
        assert len(seen) == 1
        assert seen[0] == expected
        assert len(calls) <= model.node_count
