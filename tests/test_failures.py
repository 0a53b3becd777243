"""Failure-injection tests: dead machines across the whole stack."""

import numpy as np
import pytest

from repro.core.controller import RuntimeController
from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError, InfeasibleError
from repro.power.server import ServerPowerModel
from repro.workload.balancer import Allocation, LoadBalancer
from repro.workload.cluster import Cluster, Server, ServerState
from repro.workload.tasks import Task
from tests.conftest import make_system_model
from tests.oracles import BruteForceOptimizer


def make_cluster(n=4) -> Cluster:
    return Cluster(
        [
            Server(i, ServerPowerModel(w1=1.4, w2=38.0, capacity=40.0))
            for i in range(n)
        ]
    )


def tasks(count):
    return [Task(task_id=i, work=1.0, created_at=0.0) for i in range(count)]


class TestServerFailure:
    def test_fail_returns_orphans(self):
        cluster = make_cluster()
        for t in tasks(3):
            cluster[0].submit(t)
        orphans = cluster[0].fail()
        assert len(orphans) == 3
        assert cluster[0].state is ServerState.FAILED

    def test_failed_draws_no_power_and_does_no_work(self):
        cluster = make_cluster()
        cluster[0].submit(tasks(1)[0])
        cluster[0].fail()
        assert cluster[0].power() == pytest.approx(0.0)
        assert cluster[0].tick(1.0) == 0

    def test_failed_rejects_submissions(self):
        cluster = make_cluster()
        cluster[0].fail()
        with pytest.raises(ConfigurationError):
            cluster[0].submit(tasks(1)[0])

    def test_failed_cannot_power_on(self):
        cluster = make_cluster()
        cluster[0].fail()
        with pytest.raises(ConfigurationError):
            cluster[0].power_on()

    def test_repair_returns_to_off(self):
        cluster = make_cluster()
        cluster[0].fail()
        cluster[0].repair()
        assert cluster[0].state is ServerState.OFF
        cluster[0].power_on()
        assert cluster[0].state is ServerState.BOOTING

    def test_failed_excluded_from_masks_and_capacity(self):
        cluster = make_cluster(3)
        cluster[1].fail()
        assert cluster.on_mask() == [True, False, True]
        assert cluster.online_capacity == pytest.approx(80.0)
        assert cluster.failed_ids() == [1]

    def test_apply_on_set_rejects_failed_target(self):
        cluster = make_cluster(3)
        cluster[1].fail()
        with pytest.raises(ConfigurationError):
            cluster.apply_on_set([0, 1])


class TestBalancerUnderFailure:
    def test_dispatch_skips_failed_machine(self):
        cluster = make_cluster(3)
        balancer = LoadBalancer(cluster)
        balancer.set_allocation(
            Allocation.build([10.0, 10.0, 10.0], n_servers=3)
        )
        cluster[1].fail()
        balancer.dispatch_all(tasks(60))
        assert balancer.dispatched[1] == 0
        assert balancer.dispatched[0] + balancer.dispatched[2] == 60


class TestOptimizerExclusion:
    def test_excluded_machines_never_selected(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        result = optimizer.solve(150.0, exclude=[0, 1])
        assert not set(result.on_ids) & {0, 1}
        assert result.loads.sum() == pytest.approx(150.0)

    def test_exclusion_with_no_consolidation(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        result = optimizer.solve(
            150.0, consolidate=False, exclude=[3]
        )
        assert 3 not in result.on_ids
        assert len(result.on_ids) == 9

    def test_explicit_set_conflicting_with_exclusion(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        with pytest.raises(ConfigurationError):
            optimizer.solve(50.0, on_ids=[2, 3], exclude=[3])

    def test_unknown_exclusion_rejected(self, big_system_model):
        optimizer = JointOptimizer(big_system_model)
        with pytest.raises(ConfigurationError):
            optimizer.solve(50.0, exclude=[99])

    def test_everything_excluded_is_infeasible(self, system_model):
        optimizer = JointOptimizer(system_model)
        with pytest.raises(InfeasibleError):
            optimizer.solve(10.0, exclude=[0, 1, 2, 3])

    def test_load_beyond_surviving_capacity_infeasible(self, system_model):
        optimizer = JointOptimizer(system_model)
        with pytest.raises(InfeasibleError):
            optimizer.solve(130.0, exclude=[0])

    def test_exclusion_matches_brute_force(self, big_system_model):
        fast = JointOptimizer(big_system_model)
        slow = BruteForceOptimizer(big_system_model)
        a = fast.solve(120.0, exclude=[2, 5])
        b = slow.solve(120.0, exclude=[2, 5])
        assert a.predicted_total_power == pytest.approx(
            b.predicted_total_power, abs=1e-6
        )


class TestControllerFailureHandling:
    def test_failure_triggers_replan_around_dead_machine(self):
        optimizer = JointOptimizer(make_system_model(n=10))
        controller = RuntimeController(
            optimizer, hysteresis=0.15, min_dwell=600.0
        )
        controller.observe(0.0, 150.0)
        victim = controller.plan.on_ids[0]
        controller.mark_failed(victim)
        result = controller.observe(10.0, 150.0)
        assert result is not None
        assert victim not in result.on_ids
        assert "lost a machine" in controller.events[-1].reason

    def test_failure_of_idle_machine_forces_replan(self):
        # Even a failure outside the active set forces a re-plan: the
        # feasible set shrank, and the plan must re-certify against it.
        optimizer = JointOptimizer(make_system_model(n=10))
        controller = RuntimeController(optimizer)
        controller.observe(0.0, 80.0)
        idle = [
            i for i in range(10) if i not in controller.plan.on_ids
        ][0]
        controller.mark_failed(idle)
        result = controller.observe(10.0, 80.0)
        assert result is not None
        assert idle not in result.on_ids
        assert controller.events[-1].reason == "hardware failure"

    def test_repair_restores_eligibility(self):
        optimizer = JointOptimizer(make_system_model(n=4))
        controller = RuntimeController(optimizer, min_dwell=0.0)
        controller.observe(0.0, 60.0)
        controller.mark_failed(0)
        controller.observe(1.0, 60.0)
        controller.mark_repaired(0)
        # Force a replan via a load rise; machine 0 may be used again.
        result = controller.observe(2.0, 120.0)
        assert result is not None
        assert controller.failed == set()

    def test_failure_making_load_infeasible(self):
        optimizer = JointOptimizer(make_system_model(n=4))
        controller = RuntimeController(optimizer)
        controller.observe(0.0, 100.0)
        controller.mark_failed(0)
        controller.mark_failed(1)
        with pytest.raises(InfeasibleError):
            controller.observe(10.0, 100.0)

    def test_unknown_machine_rejected(self):
        optimizer = JointOptimizer(make_system_model(n=4))
        controller = RuntimeController(optimizer)
        with pytest.raises(ConfigurationError):
            controller.mark_failed(7)

    def test_failure_during_suppressed_window_forces_replan(self):
        """Interleaving regression: a failure reported while replans are
        dwell-suppressed must punch through on the very next observe,
        and the dead machine must stay out of every plan until repaired.
        """
        optimizer = JointOptimizer(make_system_model(n=10))
        controller = RuntimeController(
            optimizer, hysteresis=0.15, min_dwell=600.0
        )
        capacity = sum(optimizer.model.capacities)
        controller.observe(0.0, 0.4 * capacity)
        # A big in-dwell load drop is suppressed (scale-down can wait).
        assert controller.observe(60.0, 0.15 * capacity) is None
        assert controller.suppressed == 1
        victim = controller.plan.on_ids[0]
        controller.mark_failed(victim)
        # Still deep inside the dwell window, same load: the failure
        # alone must force the replan.
        result = controller.observe(120.0, 0.15 * capacity)
        assert result is not None
        assert victim not in result.on_ids
        assert controller.events[-1].reason == "active plan lost a machine"
        # Subsequent replans (load rises are urgent) never use the dead
        # machine while it is failed ...
        for step, fraction in enumerate([0.5, 0.7, 0.85], start=3):
            plan = controller.observe(step * 60.0, fraction * capacity)
            assert plan is not None
            assert victim not in plan.on_ids
        # ... and after repair it becomes eligible again: serving the
        # full capacity needs every machine, including the old victim.
        controller.mark_repaired(victim)
        plan = controller.observe(360.0, capacity)
        assert plan is not None
        assert victim in plan.on_ids

    def test_idle_failure_during_suppression_also_punches_through(self):
        # Same interleaving, but the dead machine is not in the active
        # plan, so the "plan lost a machine" path cannot carry the alert;
        # the pending-failure flag must.
        optimizer = JointOptimizer(make_system_model(n=10))
        controller = RuntimeController(
            optimizer, hysteresis=0.15, min_dwell=600.0
        )
        capacity = sum(optimizer.model.capacities)
        controller.observe(0.0, 0.4 * capacity)
        assert controller.observe(60.0, 0.15 * capacity) is None
        idle = [
            i for i in range(10) if i not in controller.plan.on_ids
        ][0]
        controller.mark_failed(idle)
        result = controller.observe(120.0, 0.15 * capacity)
        assert result is not None
        assert idle not in result.on_ids
        assert controller.events[-1].reason == "hardware failure"

    def test_infeasible_forced_replan_keeps_failure_pending(self):
        # If the forced replan itself is infeasible the alert must not be
        # swallowed: the next observation still tries to replan.
        optimizer = JointOptimizer(make_system_model(n=4))
        controller = RuntimeController(optimizer, min_dwell=600.0)
        capacity = sum(optimizer.model.capacities)
        controller.observe(0.0, 0.9 * capacity)
        controller.mark_failed(0)
        controller.mark_failed(1)
        with pytest.raises(InfeasibleError):
            controller.observe(60.0, 0.9 * capacity)
        # The load halves; the pending failure still forces the replan.
        result = controller.observe(120.0, 0.4 * capacity)
        assert result is not None
        assert not set(result.on_ids) & {0, 1}
