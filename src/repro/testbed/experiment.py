"""Run control policies against the simulated testbed and account energy.

:class:`Testbed` is the façade the evaluation uses: it owns the ground
truth (room, cooling unit, server power laws) and offers

- :meth:`Testbed.profile` — run the paper's profiling campaign, producing
  the fitted :class:`~repro.core.model.SystemModel` the policies operate
  on;
- :meth:`Testbed.evaluate` — drive one policy decision to steady state and
  record the *true* powers and temperatures (the numbers the figures
  plot);
- :meth:`Testbed.run_workload` — the full-stack variant: actually generate
  batch tasks, dispatch them through the load balancer, let servers
  process them, and feed the measured utilizations into the thermal
  simulation.  Used to verify the throughput constraint the paper checks
  ("application throughput was not affected by the energy saving
  scheme").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.core.policies import PolicyDecision
from repro.power.server import ServerPowerModel
from repro.profiling.campaign import (
    CampaignConfig,
    ProfilingCampaign,
    ProfilingResult,
)
from repro.testbed.rack import TestbedConfig
from repro.thermal.cooling import CoolingUnit
from repro.thermal.room import MachineRoom
from repro.thermal.simulation import RoomSimulation, SteadyState
from repro.workload.balancer import Allocation, LoadBalancer
from repro.workload.cluster import Cluster, Server
from repro.workload.tasks import TaskGenerator


@dataclass(frozen=True)
class ExperimentRecord:
    """Ground-truth outcome of running one decision at steady state."""

    scenario: str
    total_load: float
    load_fraction: float
    machines_on: int
    t_sp: float
    t_ac: float
    t_room: float
    max_t_cpu: float
    server_power: float
    cooling_power: float
    total_power: float
    temperature_violated: bool
    regulated: bool

    def summary(self) -> str:
        """One-line human-readable record."""
        flag = " VIOLATION" if self.temperature_violated else ""
        return (
            f"{self.scenario:32s} load={self.load_fraction * 100.0:5.1f}% "
            f"on={self.machines_on:2d} Tsp={self.t_sp:6.2f}K "
            f"P={self.total_power:8.1f}W{flag}"
        )


@dataclass(frozen=True)
class WorkloadRunResult:
    """Outcome of a full-stack (task-level) run."""

    offered_load: float
    achieved_throughput: float
    utilizations: np.ndarray
    total_energy_joules: float
    mean_total_power: float
    max_t_cpu: float
    duration: float

    @property
    def throughput_ratio(self) -> float:
        """Achieved / offered throughput (1.0 means no loss)."""
        if self.offered_load <= 0.0:
            return 1.0
        return self.achieved_throughput / self.offered_load


class Testbed:
    """The simulated machine room plus its servers, as one facility."""

    __test__ = False  # not a pytest class, despite the Test* name

    def __init__(
        self,
        config: TestbedConfig,
        room: MachineRoom,
        cooler: CoolingUnit,
        power_models: Sequence[ServerPowerModel],
        rng: np.random.Generator,
        simulation=None,
    ) -> None:
        if len(power_models) != room.node_count:
            raise ConfigurationError(
                f"{room.node_count} nodes but {len(power_models)} power models"
            )
        self.config = config
        self.room = room
        self.cooler = cooler
        self.power_models = list(power_models)
        # The power laws as per-machine arrays, for true_server_powers.
        self._w1 = np.array([pm.w1 for pm in self.power_models], dtype=float)
        self._w2 = np.array([pm.w2 for pm in self.power_models], dtype=float)
        self._curvature = np.array(
            [pm.curvature for pm in self.power_models], dtype=float
        )
        self._capacity = np.array(
            [pm.capacity for pm in self.power_models], dtype=float
        )
        self.rng = rng
        # A custom simulation (e.g. the zonal substrate) may be supplied;
        # it must honour the RoomSimulation interface.
        self.simulation = (
            simulation
            if simulation is not None
            else RoomSimulation(room, cooler)
        )

    @property
    def n_machines(self) -> int:
        """Number of machines on the rack."""
        return self.room.node_count

    @property
    def total_capacity(self) -> float:
        """Total cluster capacity, tasks/s."""
        return sum(pm.capacity for pm in self.power_models)

    def fresh_cooler(self) -> CoolingUnit:
        """A copy of the cooling unit with cleared PI state.

        Harness runs (workload replays, transition measurements,
        campaign scenarios) must never step the shared ground-truth
        cooler: doing so leaks integral state and set-point changes
        into whatever runs next, breaking same-seed replay determinism.
        Scenario runners simulate against this copy instead — same
        set point, PI state zeroed.
        """
        cooler = replace(self.cooler)
        cooler.reset()
        return cooler

    # ------------------------------------------------------------------ #
    # Profiling
    # ------------------------------------------------------------------ #

    def profile(
        self, campaign_config: Optional[CampaignConfig] = None
    ) -> ProfilingResult:
        """Run the Section IV-A profiling campaign on this testbed."""
        campaign = ProfilingCampaign(
            simulation=self.simulation,
            power_models=self.power_models,
            t_max=self.config.t_max,
            rng=self.rng,
            config=campaign_config,
        )
        return campaign.run()

    # ------------------------------------------------------------------ #
    # Steady-state policy evaluation
    # ------------------------------------------------------------------ #

    def true_server_powers(
        self, loads: Sequence[float], on_ids: Sequence[int]
    ) -> np.ndarray:
        """Ground-truth per-machine electrical power for a decision, W.

        :meth:`ServerPowerModel.power` of every machine in ``on_ids``,
        as one array pass with the same expression order: loads above
        capacity are clamped, a negative or non-finite load raises
        (naming the machine), and the square is libm ``pow``
        (``np.float_power``), as Python's ``x**2`` computes it —
        ``np.square`` rounds differently in about 0.1% of cases.

        ``loads`` may carry leading batch axes — an ``(S, n)`` block
        holds one decision's loads per row — and the powers come back
        in the same shape, each row as if passed alone.
        """
        loads = np.asarray(loads, dtype=float)
        powers = np.zeros((*loads.shape[:-1], self.n_machines))
        ids = np.fromiter(on_ids, dtype=np.intp)
        if ids.size == 0:
            return powers
        load = loads[..., ids]
        bad = ~(np.isfinite(load) & (load >= 0.0))
        if bad.any():
            where = np.argwhere(bad)[0]
            value = float(load[tuple(where)])
            condition = "non-negative" if np.isfinite(value) else "finite"
            raise ConfigurationError(
                f"machine {int(ids[where[-1]])}: load must be {condition}, "
                f"got {value}"
            )
        effective = np.minimum(load, self._capacity[ids])
        powers[..., ids] = (
            self._w2[ids]
            + self._w1[ids] * effective
            + self._curvature[ids] * np.float_power(effective, 2)
        )
        return powers

    def steady_state_for(self, decision: PolicyDecision) -> SteadyState:
        """Ground-truth steady state the room settles into under a
        decision."""
        on_mask = np.zeros(self.n_machines, dtype=bool)
        on_mask[list(decision.on_ids)] = True
        powers = self.true_server_powers(decision.loads, decision.on_ids)
        return self.simulation.steady_state(
            powers=powers, on_mask=on_mask, set_point=decision.t_sp
        )

    def _record_for(
        self, decision: PolicyDecision, state: SteadyState
    ) -> ExperimentRecord:
        """Fold a solved steady state into an :class:`ExperimentRecord`."""
        on_cpu = state.t_cpu[list(decision.on_ids)]
        max_t = float(np.max(on_cpu)) if len(decision.on_ids) else state.t_room
        return ExperimentRecord(
            scenario=decision.scenario,
            total_load=decision.total_load,
            load_fraction=decision.total_load / self.total_capacity,
            machines_on=decision.machines_on,
            t_sp=decision.t_sp,
            t_ac=state.t_ac,
            t_room=state.t_room,
            max_t_cpu=max_t,
            server_power=state.total_server_power,
            cooling_power=state.p_ac,
            total_power=state.total_power,
            temperature_violated=bool(max_t > self.config.t_max + 1e-6),
            regulated=state.regulated,
        )

    def evaluate(self, decision: PolicyDecision) -> ExperimentRecord:
        """Run one decision to steady state and record the true outcome."""
        return self._record_for(decision, self.steady_state_for(decision))

    def evaluate_many(
        self, decisions: Sequence[PolicyDecision]
    ) -> list[ExperimentRecord]:
        """Evaluate a whole sweep of decisions in one batched solve.

        Uses :meth:`RoomSimulation.steady_state_many` when the underlying
        simulation offers it (per-decision :meth:`evaluate` calls solve
        through its one-row case, so the records are identical); falls
        back to one :meth:`evaluate` per decision for substrates without
        a batch solver, e.g. the zonal simulation.
        """
        decisions = list(decisions)
        if not decisions:
            return []
        solver = getattr(self.simulation, "steady_state_many", None)
        if solver is None:
            return [self.evaluate(d) for d in decisions]
        n = self.n_machines
        powers = np.zeros((len(decisions), n))
        masks = np.zeros((len(decisions), n), dtype=bool)
        set_points = np.empty(len(decisions))
        for r, decision in enumerate(decisions):
            masks[r, list(decision.on_ids)] = True
            powers[r] = self.true_server_powers(
                decision.loads, decision.on_ids
            )
            set_points[r] = decision.t_sp
        batch = solver(powers, masks, set_points)
        return [
            self._record_for(decision, batch.point(r))
            for r, decision in enumerate(decisions)
        ]

    # ------------------------------------------------------------------ #
    # Full-stack workload run
    # ------------------------------------------------------------------ #

    def build_cluster(self) -> Cluster:
        """A fresh task-processing cluster over this rack's machines."""
        return Cluster(
            [
                Server(
                    server_id=i,
                    power_model=self.power_models[i],
                    boot_time=self.config.boot_time,
                )
                for i in range(self.n_machines)
            ]
        )

    def run_workload(
        self,
        decision: PolicyDecision,
        duration: float = 600.0,
        dt: float = 1.0,
        warmup: float = 120.0,
        deterministic_arrivals: bool = False,
    ) -> WorkloadRunResult:
        """Drive the decision with real task traffic.

        The generator offers ``decision.total_load`` tasks/s, the balancer
        splits them according to the decision's rates, servers process
        them, and each tick the servers' *measured* utilizations are
        converted to watts and fed to the thermal integrator.  Statistics
        are collected after ``warmup`` seconds.
        """
        if duration <= warmup:
            raise ConfigurationError(
                f"duration {duration} must exceed warmup {warmup}"
            )
        cluster = self.build_cluster()
        balancer = LoadBalancer(cluster)
        balancer.set_allocation(
            Allocation.build(
                list(decision.loads), self.n_machines, decision.on_ids
            )
        )
        generator = TaskGenerator(
            rng=self.rng,
            rate=decision.total_load,
            deterministic=deterministic_arrivals,
        )
        cooler = self.fresh_cooler()
        sim = type(self.simulation)(self.room, cooler)
        sim.set_set_point(decision.t_sp)
        energy = 0.0
        power_samples: list[float] = []
        max_t_cpu = 0.0
        completed_after_warmup = 0
        elapsed = 0.0
        on_mask = np.array(cluster.on_mask())
        while elapsed < duration:
            balancer.dispatch_all(generator.tick(dt))
            done = cluster.tick(dt)
            powers = np.asarray(cluster.powers())
            on_mask = np.array(cluster.on_mask())
            sim.set_node_powers(powers, on_mask=on_mask)
            sim.step(dt)
            elapsed += dt
            if elapsed > warmup:
                completed_after_warmup += done
                total_p = sim.total_power
                power_samples.append(total_p)
                energy += total_p * dt
                on_idx = np.flatnonzero(on_mask)
                if on_idx.size:
                    max_t_cpu = max(
                        max_t_cpu, float(np.max(sim.t_cpu[on_idx]))
                    )
        window = duration - warmup
        throughput = completed_after_warmup / window
        utilizations = np.array(
            [server.utilization for server in cluster.servers]
        )
        return WorkloadRunResult(
            offered_load=decision.total_load,
            achieved_throughput=throughput,
            utilizations=utilizations,
            total_energy_joules=energy,
            mean_total_power=float(np.mean(power_samples)),
            max_t_cpu=max_t_cpu,
            duration=window,
        )
