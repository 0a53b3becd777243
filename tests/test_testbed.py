"""Tests for the simulated testbed facility (rack + experiment runner)."""

import numpy as np
import pytest

from repro.control.campaign import demand_scenarios, run_mpc_campaign
from repro.core.policies import scenario_by_number
from repro.errors import ConfigurationError
from repro.experiments.common import default_context
from repro.faults.loop import follow_demand
from repro.testbed.experiment import Testbed
from repro.testbed.rack import TestbedConfig, build_testbed
from repro.testbed.transitions import measure_transition
from repro.workload.cluster import ServerState
from tests.oracles import LoopTestbed


class TestRackConstruction:
    def test_default_is_twenty_machines(self, testbed):
        assert testbed.n_machines == 20
        assert testbed.total_capacity == pytest.approx(800.0)

    def test_build_is_reproducible(self):
        a = build_testbed(seed=7)
        b = build_testbed(seed=7)
        for na, nb in zip(a.room.nodes, b.room.nodes):
            assert na.flow == pytest.approx(nb.flow)
            assert na.supply_fraction == pytest.approx(nb.supply_fraction)

    def test_different_seeds_differ(self):
        a = build_testbed(seed=1)
        b = build_testbed(seed=2)
        assert any(
            na.flow != nb.flow
            for na, nb in zip(a.room.nodes, b.room.nodes)
        )

    def test_bottom_of_rack_breathes_more_supply_air(self, testbed):
        fractions = [n.supply_fraction for n in testbed.room.nodes]
        assert fractions[0] > fractions[-1]

    def test_bottom_of_rack_sees_stronger_flow(self, testbed):
        flows = [n.flow for n in testbed.room.nodes]
        assert np.mean(flows[:5]) > np.mean(flows[-5:])

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TestbedConfig(n_machines=0)
        with pytest.raises(ConfigurationError):
            TestbedConfig(supply_fraction_top=0.99, supply_fraction_bottom=0.5)
        with pytest.raises(ConfigurationError):
            TestbedConfig(n_machines=200)  # oversubscribes cooler flow


class TestEvaluation:
    def test_record_accounts_power_components(self, context):
        decision = scenario_by_number(8).decide(
            context.model,
            0.5 * context.testbed.total_capacity,
            optimizer=context.optimizer,
        )
        record = context.testbed.evaluate(decision)
        assert record.total_power == pytest.approx(
            record.server_power + record.cooling_power
        )

    def test_true_server_powers_zero_when_off(self, context):
        decision = scenario_by_number(8).decide(
            context.model,
            0.2 * context.testbed.total_capacity,
            optimizer=context.optimizer,
        )
        powers = context.testbed.true_server_powers(
            decision.loads, decision.on_ids
        )
        off = set(range(20)) - set(decision.on_ids)
        assert all(powers[i] == 0.0 for i in off)

    def test_evaluation_is_deterministic(self, context):
        decision = scenario_by_number(4).decide(context.model, 300.0)
        a = context.testbed.evaluate(decision)
        b = context.testbed.evaluate(decision)
        assert a.total_power == pytest.approx(b.total_power)

    def test_regulated_flag_set_in_normal_operation(self, context):
        decision = scenario_by_number(1).decide(context.model, 200.0)
        record = context.testbed.evaluate(decision)
        assert record.regulated

    def test_summary_mentions_violation(self, context):
        decision = scenario_by_number(1).decide(context.model, 200.0)
        record = context.testbed.evaluate(decision)
        assert "load=" in record.summary()
        assert "VIOLATION" not in record.summary()


class TestWorkloadRun:
    def test_throughput_constraint_met(self, context):
        # The paper: "application throughput was not affected by the
        # energy saving scheme".
        decision = scenario_by_number(8).decide(
            context.model,
            0.3 * context.testbed.total_capacity,
            optimizer=context.optimizer,
        )
        result = context.testbed.run_workload(
            decision, duration=420.0, warmup=120.0,
            deterministic_arrivals=True,
        )
        assert result.throughput_ratio == pytest.approx(1.0, abs=0.02)

    def test_only_powered_machines_work(self, context):
        decision = scenario_by_number(8).decide(
            context.model,
            0.3 * context.testbed.total_capacity,
            optimizer=context.optimizer,
        )
        result = context.testbed.run_workload(
            decision, duration=300.0, warmup=100.0,
            deterministic_arrivals=True,
        )
        off = sorted(set(range(20)) - set(decision.on_ids))
        assert np.allclose(result.utilizations[off], 0.0)

    def test_workload_temperature_stays_bounded(self, context):
        decision = scenario_by_number(8).decide(
            context.model,
            0.5 * context.testbed.total_capacity,
            optimizer=context.optimizer,
        )
        result = context.testbed.run_workload(
            decision, duration=420.0, warmup=60.0,
            deterministic_arrivals=True,
        )
        assert result.max_t_cpu <= context.testbed.config.t_max + 1.0

    def test_rejects_warmup_longer_than_duration(self, context):
        decision = scenario_by_number(1).decide(context.model, 100.0)
        with pytest.raises(ConfigurationError):
            context.testbed.run_workload(decision, duration=10.0, warmup=20.0)

    def test_cluster_built_from_rack(self, testbed):
        cluster = testbed.build_cluster()
        assert len(cluster) == testbed.n_machines
        assert all(s.state is ServerState.ON for s in cluster.servers)


class TestTrueServerPowers:
    """The array pass against one ``power`` call per machine."""

    @staticmethod
    def _loop(testbed, loads, on_ids):
        return LoopTestbed.true_server_powers(testbed, loads, on_ids)

    def _check(self, testbed, loads, on_ids):
        got = testbed.true_server_powers(loads, on_ids)
        np.testing.assert_array_equal(got, self._loop(testbed, loads, on_ids))
        return got

    def test_random_loads_and_masks(self, testbed):
        rng = np.random.default_rng(4)
        caps = np.array([pm.capacity for pm in testbed.power_models])
        for _ in range(300):
            loads = rng.uniform(0.0, 1.2, testbed.n_machines) * caps
            mask = rng.random(testbed.n_machines) < 0.6
            self._check(testbed, loads, np.flatnonzero(mask))

    def test_square_rounds_like_python_pow(self):
        # Python's x**2 is libm pow, which misrounds x*x on ~0.1% of
        # inputs; np.square would not reproduce those.  A steep
        # curvature carries the difference into the watts.
        testbed = build_testbed(
            TestbedConfig(n_machines=6, curvature=1.0), seed=3
        )
        rng = np.random.default_rng(9)
        picky = [
            x for x in rng.uniform(0.0, 40.0, 400_000).tolist()
            if x**2 != x * x
        ][:300]
        assert len(picky) == 300
        for k in range(0, 300, 6):
            self._check(testbed, np.array(picky[k : k + 6]), range(6))

    def test_caller_shapes(self, context):
        testbed, optimizer = context.testbed, context.optimizer
        n = testbed.n_machines
        caps = np.array([pm.capacity for pm in testbed.power_models])
        # The march: the balancer's dense loads over the live indices,
        # one row per substep, as a block and row by row.
        mask = np.zeros(n, dtype=bool)
        mask[::2] = True
        plan_loads = np.where(mask, 0.5 * caps, 0.0)
        served = follow_demand(
            np.array([300.0, 150.0, 420.0]), plan_loads, caps, mask
        )
        block = self._check(testbed, served, np.flatnonzero(mask))
        assert block.shape == served.shape
        for row, powers in zip(served, block):
            np.testing.assert_array_equal(
                self._check(testbed, row, np.flatnonzero(mask)), powers
            )
        # The oracle: an optimizer plan's loads and on_ids tuple.
        plan = optimizer.solve(0.45 * testbed.total_capacity)
        self._check(testbed, plan.loads, plan.on_ids)
        # Transitions, steady_state_for and evaluate_many: a decision.
        decision = scenario_by_number(8).decide(
            context.model, 0.3 * testbed.total_capacity, optimizer=optimizer
        )
        self._check(testbed, decision.loads, decision.on_ids)
        # Plain Python sequences and a set of ids.
        self._check(testbed, list(decision.loads), set(decision.on_ids))

    def test_empty_on_set(self, testbed):
        loads = np.full(testbed.n_machines, 10.0)
        for empty in ((), [], frozenset(), np.array([], dtype=int)):
            powers = self._check(testbed, loads, empty)
            assert not powers.any()

    def test_loads_above_capacity_are_clamped(self, testbed):
        caps = np.array([pm.capacity for pm in testbed.power_models])
        ids = range(testbed.n_machines)
        over = self._check(testbed, 1.5 * caps, ids)
        full = self._check(testbed, caps, ids)
        np.testing.assert_array_equal(over, full)
        assert over[0] == testbed.power_models[0].peak_power

    def test_negative_load_raises(self, testbed):
        loads = np.full(testbed.n_machines, 5.0)
        loads[3] = -1.0
        with pytest.raises(ConfigurationError, match="got -1.0"):
            testbed.true_server_powers(loads, [0, 3, 5])
        with pytest.raises(ConfigurationError, match="got -1.0"):
            self._loop(testbed, loads, [0, 3, 5])
        # An off machine's load is never read.
        self._check(testbed, loads, [0, 5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_load_raises_naming_the_machine(self, testbed, bad):
        loads = np.full((3, testbed.n_machines), 5.0)
        loads[1, 4] = bad
        for block in (loads[1], loads):
            with pytest.raises(
                ConfigurationError, match=r"machine 4: load must be finite"
            ):
                testbed.true_server_powers(block, [0, 4, 5])
        with pytest.raises(ConfigurationError, match="must be finite"):
            self._loop(testbed, loads[1], [0, 4, 5])
        # An off machine's load is never read.
        self._check(testbed, loads, [0, 5])

    def test_batch_rows_match_single_calls(self, testbed):
        rng = np.random.default_rng(8)
        caps = np.array([pm.capacity for pm in testbed.power_models])
        loads = rng.uniform(0.0, 1.2, (40, testbed.n_machines)) * caps
        ids = np.flatnonzero(rng.random(testbed.n_machines) < 0.6)
        block = self._check(testbed, loads, ids)
        assert block.shape == loads.shape
        for row, powers in zip(loads, block):
            np.testing.assert_array_equal(
                testbed.true_server_powers(row, ids), powers
            )

    def test_every_caller_matches_the_loop(self, context, monkeypatch):
        shipped = Testbed.true_server_powers
        calls = []

        def checked(self, loads, on_ids):
            got = shipped(self, loads, on_ids)
            want = LoopTestbed.true_server_powers(self, loads, on_ids)
            np.testing.assert_array_equal(got, want)
            # One entry per decision evaluated: the march passes a
            # block of one row per substep.
            calls.extend([type(on_ids).__name__] * len(np.atleast_2d(got)))
            return got

        monkeypatch.setattr(Testbed, "true_server_powers", checked)
        testbed, model = context.testbed, context.model
        low, high = (
            scenario_by_number(8).decide(
                model, f * testbed.total_capacity,
                optimizer=context.optimizer,
            )
            for f in (0.2, 0.6)
        )
        measure_transition(testbed, low, high, max_duration=60.0)
        testbed.evaluate_many([low, high])
        small = default_context(seed=2012, n_machines=6)
        scenario = demand_scenarios(
            small.testbed.total_capacity, seed=2012, quick=True
        )[1]
        run_mpc_campaign(
            seed=2012, n_machines=6, quick=True, context=small,
            scenarios=[scenario],
        )
        # Decisions/plans pass tuples; the march passes index arrays.
        assert {"tuple", "ndarray"} <= set(calls)
        assert len(calls) > 1000
