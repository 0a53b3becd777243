"""Ground-truth construction of the simulated testbed.

The paper's testbed: one rack of 20 Dell PowerEdge R210 machines in a
departmental machine room, cooled from the ceiling by a Liebert
Challenger 3000 with a controllable set point.  This module builds the
simulated equivalent with physically motivated constants:

- **Servers.**  Idle draw ~38 W, full-load draw ~98 W (R210-class), with
  a slight super-linear bend so the fitted affine law has realistic
  residuals.  Capacity is 40 tasks/s of the text-processing workload.
- **Thermals.**  CPU+heatsink heat capacity ~600 J/K with a CPU-to-air
  conductance ~2.26 W/K gives the ~200 s settling time the paper
  observes, and a full-load CPU rise of ~46 K above inlet.
- **Air paths.**  Cool air falls from the ceiling vent, so machines low
  on the rack breathe mostly supply air (supply fraction 0.95 at the
  bottom) while machines high up ingest more recirculated room air
  (0.55 at the top).  Machines near the vent also see slightly stronger
  airflow (the paper notes position "may also affect the air flow rate
  through the machine", Eq. 6), so the bottom of the rack is cooler on
  both the ``alpha``/``gamma`` and the ``beta`` channel — the spatial
  diversity the optimization exploits, and the reason the bottom-up
  baseline fills low machines first.
- **Cooling unit.**  3000-CFM-class unit: 1.4 m^3/s constant flow,
  12 kW capacity, efficiency 0.25, 3 kW constant blower, minimum supply
  temperature 10 C, internal PI loop regulating return air at the set
  point.
- **Room.**  A modest envelope conductance to the warmer building
  (110 W/K toward 32 C) makes colder room operation genuinely more
  expensive — the physical trade-off behind the paper's AC-temperature
  knob.

Per-machine jitter (flows, conductances, vent fractions) is drawn from
the injected RNG so that no two racks are identical but every build is
reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.errors import ConfigurationError
from repro.power.server import ServerPowerModel
from repro.thermal.cooling import CoolingUnit
from repro.thermal.node import ComputeNodeThermal
from repro.thermal.room import MachineRoom


@dataclass(frozen=True)
class TestbedConfig:
    """Every ground-truth constant of the simulated rack.

    Defaults reproduce the paper-scale setup (20 machines); tests shrink
    ``n_machines`` for speed and the larger-room experiments grow it.
    """

    __test__ = False  # not a pytest class, despite the Test* name

    n_machines: int = 20
    # --- servers (Dell R210 class) ---
    capacity: float = 40.0  # tasks/s
    w1: float = 1.425  # W per task/s
    w2: float = 38.0  # W idle
    curvature: float = 0.002  # W per (task/s)^2
    boot_time: float = 60.0  # s
    # --- per-node thermals ---
    nu_cpu: float = 600.0  # J/K
    nu_box: float = 150.0  # J/K
    theta: float = 2.26  # W/K
    node_flow: float = 0.03  # m^3/s
    supply_fraction_bottom: float = 0.95
    supply_fraction_top: float = 0.55
    jitter: float = 0.10  # relative spread of per-node parameters
    # --- room ---
    room_volume: float = 50.0  # m^3
    envelope_conductance: float = 65.0  # W/K
    t_env: float = units.celsius_to_kelvin(32.0)
    # --- cooling unit (Liebert Challenger class) ---
    cooler_flow: float = 1.0  # m^3/s (~2100 CFM)
    cooler_efficiency: float = 0.25
    cooler_q_max: float = 12000.0  # W
    cooler_t_ac_min: float = units.celsius_to_kelvin(10.0)
    cooler_fan_power: float = 3000.0  # W
    initial_set_point: float = units.celsius_to_kelvin(24.0)
    # --- constraint ---
    t_max: float = units.celsius_to_kelvin(70.0)

    def __post_init__(self) -> None:
        if self.n_machines < 1:
            raise ConfigurationError(
                f"need at least one machine, got {self.n_machines}"
            )
        if not 0.0 < self.supply_fraction_top <= self.supply_fraction_bottom <= 1.0:
            raise ConfigurationError(
                "supply fractions must satisfy 0 < top <= bottom <= 1, got "
                f"top={self.supply_fraction_top}, "
                f"bottom={self.supply_fraction_bottom}"
            )
        if not 0.0 <= self.jitter < 0.5:
            raise ConfigurationError(
                f"jitter must be in [0, 0.5), got {self.jitter}"
            )
        # Worst case: every machine at the bottom's flow factor (1.10,
        # plus 5% spread) drawing the bottom supply fraction.
        drawn = (
            self.n_machines
            * self.node_flow
            * 1.10
            * 1.05
            * self.supply_fraction_bottom
        )
        if drawn >= self.cooler_flow:
            raise ConfigurationError(
                "node supply draws could exceed the cooler flow; increase "
                "cooler_flow or reduce n_machines/node_flow"
            )


def build_power_models(config: TestbedConfig) -> list[ServerPowerModel]:
    """Identical ground-truth power laws, one per machine (same hardware)."""
    return [
        ServerPowerModel(
            w1=config.w1,
            w2=config.w2,
            curvature=config.curvature,
            capacity=config.capacity,
        )
        for _ in range(config.n_machines)
    ]


def build_nodes(
    config: TestbedConfig, rng: np.random.Generator
) -> list[ComputeNodeThermal]:
    """Per-machine thermal ground truth with positional vent fractions.

    Machine 0 sits at the bottom of the rack (coolest); the supply
    fraction decreases linearly toward the top, with jitter on every
    parameter so the fitted coefficients genuinely differ per machine.
    """
    n = config.n_machines
    nodes = []
    for i in range(n):
        position = i / (n - 1) if n > 1 else 0.0
        fraction = config.supply_fraction_bottom + position * (
            config.supply_fraction_top - config.supply_fraction_bottom
        )
        fraction *= 1.0 + rng.uniform(-0.02, 0.02)
        fraction = float(np.clip(fraction, 0.05, 1.0))
        # Static pressure falls off with distance from the vent: bottom
        # machines breathe ~10% above nominal flow, top machines ~15%
        # below, with a little random spread on top.
        flow_factor = (1.10 - 0.25 * position) * (
            1.0 + rng.uniform(-0.05, 0.05)
        )
        nodes.append(
            ComputeNodeThermal(
                nu_cpu=config.nu_cpu
                * (1.0 + rng.uniform(-config.jitter, config.jitter) / 2.0),
                nu_box=config.nu_box,
                theta=config.theta
                * (1.0 + rng.uniform(-config.jitter, config.jitter) / 2.0),
                flow=config.node_flow * flow_factor,
                supply_fraction=fraction,
            )
        )
    return nodes


def build_room(
    config: TestbedConfig, rng: np.random.Generator
) -> MachineRoom:
    """The machine room around the rack."""
    return MachineRoom(
        nodes=tuple(build_nodes(config, rng)),
        nu_room=config.room_volume * units.C_AIR,
        envelope_conductance=config.envelope_conductance,
        t_env=config.t_env,
        supply_flow=config.cooler_flow,
    )


def build_cooler(config: TestbedConfig) -> CoolingUnit:
    """The Liebert-class cooling unit."""
    return CoolingUnit(
        supply_flow=config.cooler_flow,
        efficiency=config.cooler_efficiency,
        q_max=config.cooler_q_max,
        t_ac_min=config.cooler_t_ac_min,
        set_point=config.initial_set_point,
        fan_power=config.cooler_fan_power,
    )


def build_testbed(
    config: TestbedConfig | None = None,
    seed: int = 2012,
) -> "Testbed":
    """Assemble the full simulated testbed from a config and seed.

    The returned :class:`~repro.testbed.experiment.Testbed` owns the
    ground truth; callers interact with it through profiling and policy
    evaluation, never by peeking at the true coefficients (tests do peek,
    deliberately, to validate the fits).
    """
    from repro.testbed.experiment import Testbed

    cfg = config or TestbedConfig()
    rng = np.random.default_rng(seed)
    room = build_room(cfg, rng)
    cooler = build_cooler(cfg)
    power_models = build_power_models(cfg)
    return Testbed(
        config=cfg,
        room=room,
        cooler=cooler,
        power_models=power_models,
        rng=rng,
    )
