"""Tests for the receding-horizon MPC controller and demand campaign.

Edge cases the subsystem must honor:

- ``horizon=1`` makes allocation decisions identical to the reactive
  baseline (no pre-provisioning, only the next step constrained);
- an infeasible horizon (or a dead solver) falls back without dropping
  the reactive closed-form plan;
- demand beyond surviving capacity is admission-clamped at capacity
  instead of raising, so planning continues through an overload;
- on the flash-crowd scenario the MPC pre-cools and stays violation
  free while the reactive controller freezes and rides hot — the
  dominance the campaign document gates on.
"""

import numpy as np
import pytest

from repro.control import (
    DemandScenario,
    LinearizedPlant,
    MPCController,
    demand_scenarios,
    run_demand_loop,
)
from repro.core.controller import RuntimeController
from repro.errors import ConfigurationError, InfeasibleError
from repro.experiments.common import default_context
from repro.faults.injection import FaultInjector
from repro.faults.scenario import FaultScenario
from repro.thermal.plant import default_plant
from repro.workload.traces import constant_trace
from repro.workload.weather import diurnal_wetbulb


@pytest.fixture(scope="module")
def ctx():
    """A profiled 6-machine context (capacity 240 tasks/s)."""
    return default_context(seed=2012, n_machines=6)


@pytest.fixture(scope="module")
def plant(ctx) -> LinearizedPlant:
    return LinearizedPlant.from_testbed(ctx.testbed, dt=60.0)


def _settled_state(n):
    """A plausible mid-load thermal state, well inside the cap."""
    return (
        np.full(n, 322.0),
        np.full(n, 312.0),
        300.0,
    )


def _mpc(ctx, plant, **kwargs) -> MPCController:
    return MPCController(ctx.optimizer, plant, **kwargs)


class TestConstruction:
    def test_rejects_bad_horizon(self, ctx, plant):
        with pytest.raises(ConfigurationError):
            _mpc(ctx, plant, horizon=0)

    def test_rejects_negative_margin(self, ctx, plant):
        with pytest.raises(ConfigurationError):
            _mpc(ctx, plant, margin=-0.1)

    def test_rejects_plant_model_mismatch(self, ctx):
        wrong = default_context(seed=2012, n_machines=4)
        plant = LinearizedPlant.from_testbed(wrong.testbed, dt=60.0)
        with pytest.raises(ConfigurationError):
            MPCController(ctx.optimizer, plant)


class TestDegenerateHorizon:
    def test_h1_matches_reactive_allocations(self, ctx, plant):
        """horizon=1 disables pre-provisioning: same on-set sequence."""
        capacity = ctx.testbed.total_capacity
        loads = [0.3, 0.4, 0.75, 0.8, 0.5, 0.35]
        forecast = lambda t: 0.9 * capacity  # noqa: E731 - would
        # pre-provision if preprovision_steps were nonzero
        reactive = RuntimeController(ctx.optimizer)
        mpc = _mpc(ctx, plant, forecast=forecast, horizon=1)
        assert mpc.preprovision_steps == 0
        for step, fraction in enumerate(loads):
            t = 60.0 * step
            reactive.observe(t, fraction * capacity)
            mpc.observe(t, fraction * capacity)
            assert list(mpc.plan.on_ids) == list(reactive.plan.on_ids)
            assert mpc.plan.loads.sum() == pytest.approx(
                reactive.plan.loads.sum()
            )
        assert mpc.reconfigurations == reactive.reconfigurations


class TestAdmissionClamp:
    def test_overload_clamps_instead_of_raising(self, ctx, plant):
        capacity = ctx.testbed.total_capacity
        reactive = RuntimeController(ctx.optimizer)
        with pytest.raises(InfeasibleError):
            reactive.observe(0.0, 2.0 * capacity)
        mpc = _mpc(ctx, plant, forecast=lambda t: 2.0 * capacity)
        mpc.observe(0.0, 2.0 * capacity)
        assert mpc.plan is not None
        assert mpc.plan.loads.sum() <= capacity + 1e-6

    def test_forecast_beyond_capacity_does_not_raise(self, ctx, plant):
        capacity = ctx.testbed.total_capacity
        mpc = _mpc(ctx, plant, forecast=lambda t: 5.0 * capacity)
        mpc.observe(0.0, 0.4 * capacity)
        assert mpc.plan is not None


class TestHorizonSolve:
    def test_solve_runs_and_sets_warm_start(self, ctx, plant):
        mpc = _mpc(ctx, plant, forecast=lambda t: 120.0)
        mpc.observe(0.0, 120.0)
        mpc.observe_thermal_state(60.0, *_settled_state(plant.n))
        mpc.observe(60.0, 120.0)
        assert mpc.horizon_solves == 1
        assert mpc.last_horizon is not None
        assert mpc.last_horizon.t_ac.shape == (mpc.horizon,)
        assert mpc._warm is not None
        cooler = ctx.optimizer.model.cooler
        assert np.all(mpc.last_horizon.t_ac >= cooler.t_ac_min - 1e-9)
        assert np.all(mpc.last_horizon.t_ac <= cooler.t_ac_max + 1e-9)

    def test_dead_solvers_fall_back_without_dropping_plan(
        self, ctx, plant
    ):
        mpc = _mpc(ctx, plant, forecast=lambda t: 120.0)
        mpc.observe(0.0, 120.0)
        before = mpc.plan
        assert before is not None
        mpc._solve_lp = lambda *a, **k: None
        mpc._solve_sweep = lambda *a, **k: None
        mpc._warm = None
        mpc.observe_thermal_state(60.0, *_settled_state(plant.n))
        mpc.observe(60.0, 120.0)
        assert mpc.fallbacks == 1
        assert mpc.horizon_solves == 0
        # The reactive closed-form plan survives the solver failure.
        assert mpc.plan is not None
        assert list(mpc.plan.on_ids) == list(before.on_ids)
        assert mpc.plan.t_ac == pytest.approx(before.t_ac)

    def test_warm_trajectory_reused_when_lp_dies(self, ctx, plant):
        mpc = _mpc(ctx, plant, forecast=lambda t: 120.0)
        mpc.observe(0.0, 120.0)
        mpc.observe_thermal_state(60.0, *_settled_state(plant.n))
        mpc.observe(60.0, 120.0)
        assert mpc.horizon_solves == 1
        mpc._solve_lp = lambda *a, **k: None
        mpc._solve_sweep = lambda *a, **k: None
        mpc.observe_thermal_state(120.0, *_settled_state(plant.n))
        mpc.observe(120.0, 120.0)
        assert mpc.warm_reuses == 1
        assert mpc.last_horizon.solver == "warm"
        assert mpc.horizon_solves == 2


class TestDemandScenarios:
    def test_builtin_set(self, ctx):
        capacity = ctx.testbed.total_capacity
        scenarios = demand_scenarios(capacity, seed=2012)
        assert [s.name for s in scenarios] == [
            "diurnal", "flash-crowd", "derate-surge"
        ]
        flags = {s.name: s.flash_crowd for s in scenarios}
        assert flags == {
            "diurnal": False, "flash-crowd": True, "derate-surge": False
        }
        flash = scenarios[1]
        # The acceptance mechanism: the spike tops out above capacity.
        assert flash.trace.peak(dt=60.0) > capacity

    def test_quick_compresses_durations(self, ctx):
        capacity = ctx.testbed.total_capacity
        full = demand_scenarios(capacity, quick=False)
        quick = demand_scenarios(capacity, quick=True)
        for f, q in zip(full, quick):
            assert q.trace.duration < f.trace.duration

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            demand_scenarios(0.0)


class TestFlashCrowdDominance:
    """The acceptance gate in miniature (quick traces, two runs)."""

    @pytest.fixture(scope="class")
    def runs(self, ctx, plant):
        capacity = ctx.testbed.total_capacity
        scenario = demand_scenarios(capacity, seed=2012, quick=True)[1]
        out = {}
        for name, controller in (
            ("reactive", RuntimeController(ctx.optimizer)),
            (
                "mpc",
                MPCController(
                    ctx.optimizer, plant,
                    forecast=scenario.trace.load_at,
                ),
            ),
        ):
            out[name] = run_demand_loop(
                ctx.testbed,
                controller,
                scenario,
                injector=FaultInjector(scenario.faults),
                controller_name=name,
            )
        return out

    def test_reactive_freezes_and_violates(self, runs):
        assert runs["reactive"].violation_seconds > 0.0

    def test_mpc_dominates(self, runs):
        assert runs["mpc"].violation_seconds == 0.0
        assert (
            runs["mpc"].energy_joules <= runs["reactive"].energy_joules
        )

    def test_mpc_precools_before_the_surge(self, runs):
        assert runs["mpc"].precools > 0
        assert runs["mpc"].horizon_solves > 0
        assert runs["mpc"].fallbacks == 0


class TestDemandLoopValidation:
    def _scenario(self):
        return DemandScenario(
            name="steady",
            trace=constant_trace(100.0, duration=120.0),
            faults=FaultScenario(
                name="steady-faults", seed=1, faults=(), duration=120.0
            ),
        )

    def test_rejects_plant_without_weather(self, ctx):
        plant = default_plant(ctx.testbed.fresh_cooler())
        with pytest.raises(ConfigurationError):
            run_demand_loop(
                ctx.testbed, RuntimeController(ctx.optimizer),
                self._scenario(), plant=plant,
            )

    def test_rejects_weather_without_plant(self, ctx):
        weather = diurnal_wetbulb(
            mean=290.0, swing=4.0, duration=120.0, period=120.0
        )
        with pytest.raises(ConfigurationError):
            run_demand_loop(
                ctx.testbed, RuntimeController(ctx.optimizer),
                self._scenario(), weather=weather,
            )


class TestBenchmarkEntryPoints:
    """The control-replay benchmark times the campaign by patching
    ``run_demand_loop`` and ``_OracleController.observe`` in
    ``repro.control.campaign``; both must stay on the campaign's path."""

    def test_campaign_calls_the_patched_loop_and_oracle(
        self, ctx, monkeypatch
    ):
        from repro.control import campaign

        loops = []
        observes = []
        loop = campaign.run_demand_loop
        observe = campaign._OracleController.observe

        def counted_loop(*args, **kwargs):
            loops.append(kwargs.get("controller_name"))
            return loop(*args, **kwargs)

        def counted_observe(self, *args, **kwargs):
            observes.append(args)
            return observe(self, *args, **kwargs)

        monkeypatch.setattr(campaign, "run_demand_loop", counted_loop)
        monkeypatch.setattr(
            campaign._OracleController, "observe", counted_observe
        )
        capacity = ctx.testbed.total_capacity
        scenario = DemandScenario(
            name="steady",
            trace=constant_trace(0.5 * capacity, duration=300.0),
            faults=FaultScenario(
                name="steady-faults", seed=1, faults=(), duration=300.0
            ),
        )
        results, _ = campaign.run_mpc_campaign(
            seed=2012, n_machines=6, scenarios=[scenario], context=ctx
        )
        assert loops == ["reactive", "resilient", "mpc", "oracle"]
        assert len(observes) > 0
        assert set(results["steady"]) == set(campaign.MPC_CONTROLLERS)
