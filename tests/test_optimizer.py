"""Tests for the end-to-end JointOptimizer."""

import inspect

import numpy as np
import pytest

from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError, InfeasibleError
from tests.conftest import make_system_model
from tests.oracles import BruteForceOptimizer, ExactSelectionOptimizer


class TestConstruction:
    def test_rejects_unknown_selection(self, system_model):
        # One selection path: there is no selection knob to set.
        with pytest.raises(TypeError):
            JointOptimizer(system_model, selection="magic")
        assert list(inspect.signature(JointOptimizer).parameters) == [
            "model", "cost_model", "index_cache_dir", "pods",
        ]

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
        # The index and the exact and brute-force references must
        # produce equally good ON sets (ties may differ) as judged by the
        # model-predicted power.
        results = {}
        for optimizer in (
            JointOptimizer(big_system_model),
            ExactSelectionOptimizer(big_system_model),
            BruteForceOptimizer(big_system_model),
        ):
            results[optimizer.method] = optimizer.solve(120.0)
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
    survivors' index, monolithic or pod-sharded optimizer alike; each
    build reads every machine's pair at most once."""

    @pytest.mark.parametrize(
        "method, spied", [("sharded", "PodShardedIndex"),
                          ("index", "PodShardedIndex")],
    )
    def test_survivor_pairs_cost_one_pass(
        self, monkeypatch, method, spied
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
        optimizer = JointOptimizer(
            model, pods=3 if method == "sharded" else None
        )
        assert optimizer.method == method
        optimizer.select_on_set(150.0, exclude=excluded)
        assert len(seen) == 1
        assert seen[0] == expected
        assert len(calls) <= model.node_count


class TestRebuiltOptimizer:
    """Controllers that plan against a derated ``T_max`` rebuild their
    optimizer; the rebuild keeps every index setting."""

    @staticmethod
    def _assert_kept(optimizer, cache_dir):
        assert optimizer.pods == 3
        assert optimizer.index_cache_dir == cache_dir
        assert optimizer.cost_model == "actuated"
        assert len(optimizer.query_index.pod_ranges) == 3

    def test_with_model_keeps_settings(self, tmp_path):
        from dataclasses import replace

        model = make_system_model(n=12)
        optimizer = JointOptimizer(
            model, cost_model="actuated", index_cache_dir=tmp_path, pods=3
        )
        derated = replace(model, t_max=model.t_max - 1.0)
        rebuilt = optimizer.with_model(derated)
        assert rebuilt.model is derated and rebuilt is not optimizer
        self._assert_kept(rebuilt, tmp_path)

    def test_resilient_controller_keeps_pods_and_cache(self, tmp_path):
        from repro.faults.resilience import ResilientController

        optimizer = JointOptimizer(
            make_system_model(n=60),
            cost_model="actuated",
            index_cache_dir=tmp_path,
            pods=3,
        )
        controller = ResilientController(optimizer)  # thermal_guard=1.5
        assert controller.optimizer is not optimizer
        self._assert_kept(controller.optimizer, tmp_path)

    def test_watchdog_replan_keeps_pods_and_cache(self, tmp_path):
        from repro.core.controller import RuntimeController

        optimizer = JointOptimizer(
            make_system_model(n=12),
            cost_model="actuated",
            index_cache_dir=tmp_path,
            pods=3,
        )
        controller = RuntimeController(optimizer)
        controller.observe(0.0, 200.0)
        t_max = optimizer.model.t_max
        assert controller.observe_temperature(10.0, t_max, t_max) is not None
        assert controller.optimizer is not optimizer
        self._assert_kept(controller.optimizer, tmp_path)
