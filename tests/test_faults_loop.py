"""The closed-loop march against its per-substep reference.

The shipped balancers take a vector of offered loads and the shipped
march builds each run of substeps' inputs as whole arrays, split at the
substep whose step fires a fault transition.  Both must reproduce the
scalar balancers and the per-substep march of ``tests/oracles/loop.py``
bit for bit: row for row, trajectory for trajectory and document for
document.
"""

import json

import numpy as np
import pytest

from repro.control import campaign as control_campaign
from repro.control.campaign import DemandScenario, run_mpc_campaign
from repro.core.controller import RuntimeController
from repro.errors import ConfigurationError
from repro.experiments.common import default_context
from repro.faults import (
    FaultScenario,
    FaultSpec,
    ResilientController,
    events_to_jsonl,
    run_campaign,
)
from repro.faults import campaign as faults_campaign
from repro.faults.loop import follow_demand, follow_plan, march
from repro.units import celsius_to_kelvin
from repro.workload.traces import diurnal_trace
from repro.workload.weather import diurnal_wetbulb
from tests.oracles import loop as oracle

CAPS = np.array([40.0, 35.0, 50.0, 45.0, 30.0, 42.0])
ON = np.array([True, True, False, True, True, False])

#: (plan_loads, mask) pairs covering every branch of follow_demand.
PLANS = {
    "partial-plan": (np.array([20.0, 10.0, 0.0, 30.0, 5.0, 0.0]), ON),
    "zero-plan": (np.zeros(6), ON),
    "zero-plan-zero-caps": (np.zeros(6), np.zeros(6, dtype=bool)),
    "empty-mask": (np.array([20.0, 10.0, 0.0, 30.0, 5.0, 0.0]),
                   np.zeros(6, dtype=bool)),
    "plan-at-capacity": (np.where(ON, CAPS, 0.0), ON),
    "plan-over-capacity": (np.where(ON, 1.5 * CAPS, 0.0), ON),
    "all-on": (0.3 * CAPS, np.ones(6, dtype=bool)),
}

#: Offered loads: at or below zero (both signs of zero), inside the
#: plan, exactly the plan total, water-filled, saturated, NaN.
OFFERED = np.array([
    -5.0, 0.0, -0.0, 1e-3, 30.0, 65.0, 80.0, 149.9, 150.0, 1e6, np.nan,
])


def _rows_equal(block, scalar, offered, plan_loads, mask):
    assert block.shape == (offered.size, plan_loads.size)
    for s, load in enumerate(offered):
        np.testing.assert_array_equal(
            block[s], scalar(float(load), plan_loads, CAPS, mask)
        )


class TestVectorBalancers:
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_follow_demand_matches_scalar_rows(self, plan):
        plan_loads, mask = PLANS[plan]
        block = follow_demand(OFFERED, plan_loads, CAPS, mask)
        _rows_equal(block, oracle.follow_demand, OFFERED, plan_loads, mask)

    def test_follow_demand_random_rows(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            mask = rng.random(6) < 0.7
            plan_loads = np.where(mask, rng.uniform(0.0, 1.2, 6) * CAPS, 0.0)
            offered = rng.uniform(-20.0, 1.3 * CAPS.sum(), 12)
            block = follow_demand(offered, plan_loads, CAPS, mask)
            _rows_equal(
                block, oracle.follow_demand, offered, plan_loads, mask
            )

    def test_every_branch_is_taken(self):
        plan_loads, mask = PLANS["partial-plan"]  # plan total 65
        block = follow_demand(
            np.array([0.0, 30.0, 100.0, 1e6]), plan_loads, CAPS, mask
        )
        assert not block[0].any()  # offered <= 0
        np.testing.assert_array_equal(block[1], plan_loads * (30.0 / 65.0))
        assert np.all(block[2][mask] > plan_loads[mask])  # water-filled
        assert np.all(block[2][mask] < CAPS[mask])
        np.testing.assert_array_equal(block[3], np.where(mask, CAPS, 0.0))
        zero_plan, _ = PLANS["zero-plan"]
        split = follow_demand(np.array([50.0]), zero_plan, CAPS, mask)
        np.testing.assert_array_equal(
            split[0], np.where(mask, 50.0 / CAPS[mask].sum() * CAPS, 0.0)
        )

    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_follow_plan_matches_scalar_rows(self, plan):
        plan_loads, mask = PLANS[plan]
        block = follow_plan(OFFERED, plan_loads, CAPS, mask)
        _rows_equal(block, oracle.follow_plan, OFFERED, plan_loads, mask)

    @pytest.mark.parametrize("balancer", [follow_plan, follow_demand])
    def test_block_is_read_only_and_owns_its_rows(self, balancer):
        plan_loads = PLANS["partial-plan"][0].copy()
        block = balancer(np.array([30.0, 80.0]), plan_loads, CAPS, ON)
        before = block.copy()
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
        plan_loads[:] = 99.0  # the caller's array is not the block
        np.testing.assert_array_equal(block, before)

    def test_follow_demand_wants_a_vector(self):
        plan_loads, mask = PLANS["partial-plan"]
        with pytest.raises(ConfigurationError, match="vector of loads"):
            follow_demand(30.0, plan_loads, CAPS, mask)

    def test_empty_offered_vector(self):
        plan_loads, mask = PLANS["partial-plan"]
        for balancer in (follow_plan, follow_demand):
            block = balancer(np.array([]), plan_loads, CAPS, mask)
            assert block.shape == (0, 6)


# --------------------------------------------------------------------- #
# The batched march against the per-substep march
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def ctx():
    return default_context(seed=2012, n_machines=6)


def _trajectory_bytes(run) -> bytes:
    """Every value a trajectory holds, exactly: floats by ``repr`` (the
    shortest round-trip form, which also tells ``-0.0`` and the type
    apart) and load rows by their raw bytes."""
    parts = [
        events_to_jsonl(run.events),
        repr((run.energy_joules, run.server_energy_joules,
              run.water_liters)),
    ]
    for interval in run.intervals:
        parts.append(repr((interval.time, interval.offered,
                           sorted(interval.on_set), interval.events_seen)))
        for step in interval.substeps:
            parts.append(repr((step.offered, step.hottest,
                               step.loads.dtype, step.loads.shape)))
            parts.append(step.loads.tobytes().hex())
    return "\n".join(parts).encode()


def _sim_clock(steps: int, dt: float) -> float:
    """``RoomSimulation.time`` after ``steps`` steps of ``dt``."""
    clock = 0.0
    for _ in range(steps):
        clock += dt
    return clock


def _off_lattice_faults(control_dt: float, sim_dt: float) -> FaultScenario:
    """A surge, a crash and a derate whose windows open and close
    between control decisions, one of them exactly on the simulation's
    accumulated clock and one a hair after it."""
    per = round(control_dt / sim_dt)

    def at(step, after=False):
        clock = _sim_clock(step, sim_dt)
        return float(np.nextafter(clock, np.inf)) if after else clock

    faults = (
        FaultSpec("load_surge", at=at(per + 7), until=at(3 * per + 4, True),
                  magnitude=1.7),
        FaultSpec("machine_crash", at=at(2 * per + 2, True),
                  until=at(4 * per + 9), machine=3),
        FaultSpec("ac_derate", at=at(per + 1), until=at(5 * per + 5),
                  magnitude=0.55),
        # Opens and closes inside one interval.
        FaultSpec("load_surge", at=at(6 * per + 3), until=at(6 * per + 6),
                  magnitude=0.4),
    )
    for spec in faults:
        for edge in (spec.at, spec.until):
            assert edge % control_dt != 0.0  # off the control lattice
    return FaultScenario(name="off-lattice", seed=5, faults=faults)


def _trace(ctx, duration):
    capacity = ctx.testbed.total_capacity
    return diurnal_trace(
        0.3 * capacity, 0.75 * capacity, duration=duration,
        peak_time=0.6 * duration, period=duration,
    )


STEPPINGS = [(60.0, 2.0), (3.0, 0.3)]


class TestSegmentSplit:
    @pytest.mark.parametrize(
        "control_dt, sim_dt", STEPPINGS, ids=["60/2", "3/0.3"]
    )
    @pytest.mark.parametrize(
        "controller_cls", [RuntimeController, ResilientController]
    )
    @pytest.mark.parametrize("balancer", ["follow_demand", "follow_plan"])
    def test_march_matches_per_substep_march(
        self, ctx, control_dt, sim_dt, controller_cls, balancer
    ):
        faults = _off_lattice_faults(control_dt, sim_dt)
        duration = 8 * control_dt
        demand = _trace(ctx, duration).grid(sim_dt).load_at

        def run(march_fn, balancer_fn):
            return march_fn(
                ctx.testbed, controller_cls(ctx.optimizer), faults, demand,
                balancer_fn, duration=duration, control_dt=control_dt,
                sim_dt=sim_dt, attach_injector=True,
            )

        shipped = run(march, {"follow_demand": follow_demand,
                              "follow_plan": follow_plan}[balancer])
        reference = run(oracle.march, getattr(oracle, balancer))
        assert len(shipped.events) == 8  # every transition fired
        assert _trajectory_bytes(shipped) == _trajectory_bytes(reference)

    @pytest.mark.parametrize(
        "control_dt, sim_dt", STEPPINGS, ids=["60/2", "3/0.3"]
    )
    def test_batches_split_at_the_firing_substep(
        self, ctx, control_dt, sim_dt
    ):
        faults = _off_lattice_faults(control_dt, sim_dt)
        per = round(control_dt / sim_dt)
        firing = sorted(
            round(t / sim_dt) if t == _sim_clock(round(t / sim_dt), sim_dt)
            else round(t / sim_dt) + 1
            for t, _, _ in faults.transitions()
        )
        batches = []

        def recording(offered, *args):
            batches.append(len(offered))
            return follow_demand(offered, *args)

        march(
            ctx.testbed, RuntimeController(ctx.optimizer), faults,
            _trace(ctx, 8 * control_dt).load_at, recording,
            duration=8 * control_dt, control_dt=control_dt, sim_dt=sim_dt,
        )
        # Each batch ends at the end of an interval or at the substep
        # whose step fires a transition (unless that is an interval's
        # last substep anyway).
        ends = np.cumsum(batches)
        expected = sorted(
            {per * i for i in range(1, 9)} | {j + 1 for j in firing}
        )
        assert list(ends) == expected

    def test_non_finite_loads_raise_before_stepping(self, ctx):
        n = ctx.testbed.n_machines

        def broken(offered, plan_loads, caps, mask):
            block = np.where(mask, np.nan, 0.0)
            return np.broadcast_to(block, (len(offered), n))

        with pytest.raises(ConfigurationError, match="must be finite"):
            march(
                ctx.testbed, RuntimeController(ctx.optimizer),
                FaultScenario(name="s", seed=1, faults=()),
                lambda t: 100.0, broken, duration=120.0,
            )


class TestCampaignDocuments:
    """Whole campaigns, shipped march vs the per-substep one: the same
    document, byte for byte."""

    def test_fault_campaign(self, ctx, monkeypatch):
        def document():
            results, doc = run_campaign(
                seed=2012, n_machines=6, quick=True, context=ctx
            )
            doc["fault_events"] = {
                f"{result.name}/{name}": [
                    e.to_dict() for e in run.fault_events
                ]
                for result in results
                for name, run in result.runs.items()
            }
            return json.dumps(doc, sort_keys=True)

        shipped = document()
        monkeypatch.setattr(faults_campaign, "march", oracle.march)
        monkeypatch.setattr(
            faults_campaign, "follow_plan", oracle.follow_plan
        )
        assert document() == shipped

    @pytest.mark.parametrize("priced", [False, True],
                             ids=["plain", "weather"])
    def test_mpc_campaign_with_mid_interval_faults(
        self, ctx, monkeypatch, priced
    ):
        duration = 900.0
        scenario = DemandScenario(
            name="off-lattice",
            trace=_trace(ctx, duration),
            faults=_off_lattice_faults(60.0, 2.0),
        )
        # With weather, every substep's cooling is priced through the
        # chiller plant and its cooling tower.
        weather = diurnal_wetbulb(
            mean=celsius_to_kelvin(12.0), swing=6.0, duration=duration,
            period=duration, seed=7,
        ) if priced else None

        def document():
            _, doc = run_mpc_campaign(
                seed=2012, n_machines=6, context=ctx, scenarios=[scenario],
                weather=weather,
            )
            return json.dumps(doc, sort_keys=True)

        shipped = document()
        monkeypatch.setattr(control_campaign, "march", oracle.march)
        monkeypatch.setattr(
            control_campaign, "follow_demand", oracle.follow_demand
        )
        assert document() == shipped
        if priced:
            assert '"water_liters"' in shipped
