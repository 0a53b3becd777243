"""Seasonal weather sweep: siting the machine room under a real sky.

The paper's Eq. 10 prices heat removal at one lumped constant ``c``
fitted on the testbed's air-side unit.  A real facility sits behind a
chiller plant whose electrical cost per removed joule moves with the
outdoor wet-bulb (and collapses entirely when the economizer engages).
This experiment re-runs the joint optimization across a full seeded
year at several climate presets, re-linearizing ``c`` at each operating
point (:meth:`~repro.thermal.plant.ChillerPlant.linearized_model`), and
reports the facility-level scoreboard: PUE, economizer hours, mean COP,
water use (WUE) — plus a heat-wave stress day per site.

Artifact contract: :func:`run_weather_study` builds the
``cooling_plant.json`` document (kind ``cooling-plant``), validated
against the ``cooling-plant`` spec in
:data:`repro.obs.artifacts.ARTIFACTS` and gated by
``repro bench-check`` against the committed baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro import obs, units
from repro.analysis.series import format_table
from repro.core.optimizer import JointOptimizer
from repro.core.policies import PolicyDecision
from repro.errors import ConfigurationError
from repro.thermal.plant import ChillerPlant, default_plant
from repro.workload.weather import (
    DAY,
    SITES,
    WeatherTrace,
    heat_wave,
    site_weather,
)

#: Wet-bulb quantization for memoized re-linearization, K.  Within one
#: step the optimizer's answer is treated as constant; the plant's
#: electrical price is still evaluated at the exact wet-bulb.
WETBULB_QUANTUM = 0.5

#: Exactness budget for the tangent linearization at its own operating
#: point — machine epsilon territory; anything larger means the Eq. 10
#: seam leaks (see ``tests/test_cooling_plant.py``).
LINEARIZATION_GAP_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SiteYear:
    """One climate preset's year under the weather-aware optimizer."""

    site: str
    description: str
    buckets: int
    bucket_seconds: float
    it_energy_joules: float
    cooling_energy_joules: float
    water_liters: Optional[float]
    economizer_fraction: float
    mode_switches: int
    mean_cop: float
    linearization_gap: float

    @property
    def total_energy_joules(self) -> float:
        return self.it_energy_joules + self.cooling_energy_joules

    @property
    def pue(self) -> float:
        """Year-long power usage effectiveness (total over IT)."""
        return self.total_energy_joules / self.it_energy_joules

    @property
    def wue_l_per_kwh(self) -> Optional[float]:
        """Tower liters per IT kWh, ``None`` without a tower."""
        if self.water_liters is None:
            return None
        return self.water_liters / (self.it_energy_joules / 3.6e6)


@dataclass(frozen=True)
class HeatWaveDay:
    """A site's worst summer day, with and without the wave on top."""

    site: str
    amplitude_k: float
    baseline_pue: float
    wave_pue: float
    baseline_peak_w: float
    wave_peak_w: float

    @property
    def pue_penalty(self) -> float:
        return self.wave_pue - self.baseline_pue


@dataclass(frozen=True)
class WeatherStudyResult:
    """The whole multi-site study plus its artifact document."""

    sites: tuple[SiteYear, ...]
    heat_waves: tuple[HeatWaveDay, ...]
    seed: int
    machines: int
    load_fraction: float
    quick: bool

    def document(self) -> dict:
        """The ``cooling_plant.json`` document (kind ``cooling-plant``)."""
        entries = [
            {
                "site": s.site,
                "description": s.description,
                "buckets": s.buckets,
                "bucket_seconds": s.bucket_seconds,
                "it_energy_joules": s.it_energy_joules,
                "cooling_energy_joules": s.cooling_energy_joules,
                "total_energy_joules": s.total_energy_joules,
                "pue": s.pue,
                "water_liters": s.water_liters,
                "wue_l_per_kwh": s.wue_l_per_kwh,
                "economizer_fraction": s.economizer_fraction,
                "mode_switches": s.mode_switches,
                "mean_cop": s.mean_cop,
                "linearization_gap": s.linearization_gap,
            }
            for s in self.sites
        ]
        waves = [
            {
                "site": w.site,
                "amplitude_k": w.amplitude_k,
                "baseline_pue": w.baseline_pue,
                "wave_pue": w.wave_pue,
                "pue_penalty": w.pue_penalty,
                "baseline_peak_w": w.baseline_peak_w,
                "wave_peak_w": w.wave_peak_w,
            }
            for w in self.heat_waves
        ]
        return {
            "schema": 1,
            "kind": "cooling-plant",
            "seed": self.seed,
            "machines": self.machines,
            "load_fraction": self.load_fraction,
            "quick": self.quick,
            "entries": entries,
            "heat_wave": waves,
        }

    def table(self) -> str:
        """Human-readable site-comparison scoreboard."""
        rows = []
        waves = {w.site: w for w in self.heat_waves}
        for s in self.sites:
            wave = waves.get(s.site)
            rows.append(
                [
                    s.site,
                    f"{s.pue:.3f}",
                    f"{100.0 * s.economizer_fraction:.1f}",
                    f"{s.mean_cop:.2f}",
                    "-" if s.wue_l_per_kwh is None
                    else f"{s.wue_l_per_kwh:.2f}",
                    f"{s.total_energy_joules / 3.6e9:.1f}",
                    "-" if wave is None else f"+{wave.pue_penalty:.3f}",
                ]
            )
        return format_table(
            ["site", "PUE", "econ %", "mean COP", "WUE L/kWh",
             "MWh/yr", "heat-wave ΔPUE"],
            rows,
            title="Seasonal weather study: the same rack, four skies "
            "(Eq. 10 re-linearized per operating point)",
        )


def _operating_point(context, load_fraction: float) -> float:
    """Expected coil heat at the commanded load, W (Eq. 9 aggregate)."""
    model = context.model
    testbed = context.testbed
    total_load = load_fraction * testbed.total_capacity
    n = testbed.n_machines
    per_machine = testbed.total_capacity / n
    n_est = max(1, math.ceil(total_load / max(per_machine, 1e-9)))
    return max(model.power.w1 * total_load + model.power.w2 * n_est, 0.0)


class _PlantOptimizer:
    """Memoized (mode, quantized wet-bulb) -> solved operating point.

    Re-deriving Eq. 10's ``c`` at every bucket would mean thousands of
    optimizer builds for one year; within half a kelvin of wet-bulb the
    linearized model — and hence the whole decision — is unchanged, so
    the steady state is solved once per quantized key and only the
    plant's electrical pricing runs at the exact wet-bulb.
    """

    def __init__(self, context, plant: ChillerPlant, q_ref: float,
                 load_fraction: float) -> None:
        self.context = context
        self.plant = plant
        self.q_ref = q_ref
        self.total_load = load_fraction * context.testbed.total_capacity
        self._cache: dict = {}
        self.worst_gap = 0.0

    def solve(self, mode: str, t_wetbulb: float):
        key = (mode, round(t_wetbulb / WETBULB_QUANTUM))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        wb_q = key[1] * WETBULB_QUANTUM
        model2 = self.plant.linearized_model(
            self.context.model, wb_q, self.q_ref, mode=mode
        )
        result = JointOptimizer(model2).solve(self.total_load)
        decision = PolicyDecision(
            scenario=f"weather[{mode},{wb_q:.1f}K]",
            loads=result.loads,
            on_ids=result.on_ids,
            t_sp=result.t_sp,
            t_ac_target=result.t_ac,
        )
        record = self.context.testbed.evaluate(decision)
        # Exactness audit of the tangent at its own operating point:
        # the re-linearized CoolerModel must reproduce the plant's
        # watts at q_ref to machine precision (the Eq. 10 seam
        # contract, crossing linearize()'s c_f_ac/idle composition and
        # the delta-T round-trip).
        base = self.context.model.cooler
        lin = self.plant.linearize(base, wb_q, self.q_ref, mode=mode)
        dt0 = self.q_ref / (
            self.plant.cooling_unit.supply_flow * units.C_AIR
        )
        t_ac = 0.5 * (base.t_ac_min + base.t_ac_max)
        linear = lin.cooling_power(t_ac + dt0, t_ac) - base.idle_power
        exact = self.plant.chiller_power(self.q_ref, wb_q, mode=mode)
        gap = abs(linear - exact) / max(abs(exact), 1.0)
        self.worst_gap = max(self.worst_gap, gap)
        self._cache[key] = record
        return record


def _heat_removal(testbed, record) -> float:
    """Invert the air-side electrical draw back to coil heat, W."""
    cooler = testbed.cooler
    return max(
        0.0, (record.cooling_power - cooler.fan_power) * cooler.efficiency
    )


def _sweep(
    context,
    plant: ChillerPlant,
    trace: WeatherTrace,
    solver: _PlantOptimizer,
    dt: float,
    t0: float = 0.0,
    duration: Optional[float] = None,
):
    """March the plant through ``trace`` in ``dt`` buckets.

    Returns the accumulators ``(it_joules, cooling_joules, water_liters,
    economizer_buckets, mode_switches, sum_q, sum_chiller_power,
    buckets, peak_total_w)``.
    """
    testbed = context.testbed
    it_j = 0.0
    cool_j = 0.0
    water = 0.0 if plant.tower is not None else None
    econ = 0
    switches = 0
    sum_q = 0.0
    sum_chiller = 0.0
    peak = 0.0
    buckets = 0
    t = t0
    end = t0 + (trace.duration if duration is None else duration)
    while t < end - 1e-9:
        wb = trace.wetbulb_at(t)
        prev_mode = plant.mode
        plant.advance_mode(wb)
        if plant.mode != prev_mode:
            switches += 1
        if plant.mode == "economizer":
            econ += 1
        record = solver.solve(plant.mode, wb)
        q = _heat_removal(testbed, record)
        chiller_w = plant.chiller_power(q, wb)
        cooling_w = chiller_w + testbed.cooler.fan_power
        it_j += record.server_power * dt
        cool_j += cooling_w * dt
        sum_q += q
        sum_chiller += chiller_w
        peak = max(peak, record.server_power + cooling_w)
        rate = plant.water_rate(q, wb)
        if rate is not None and water is not None:
            water += rate * dt
        buckets += 1
        t += dt
    return it_j, cool_j, water, econ, switches, sum_q, sum_chiller, \
        buckets, peak


def run_weather_study(
    seed: int = 2012,
    n_machines: int = 20,
    *,
    quick: bool = False,
    sites: Optional[Sequence[str]] = None,
    load_fraction: float = 0.6,
    heat_wave_amplitude: float = 6.0,
    context=None,
) -> WeatherStudyResult:
    """Run the multi-site seasonal sweep; pure in ``(seed, knobs)``.

    ``quick`` coarsens the bucket width (24 h instead of 3 h) without
    changing the year's span or the workload shape, so quick and full
    artifacts stay bench-check comparable under the same
    ``(machines, load_fraction)`` context.
    """
    if not 0.0 < load_fraction <= 1.0:
        raise ConfigurationError(
            f"load_fraction must be in (0, 1], got {load_fraction}"
        )
    if context is None:
        from repro.experiments.common import default_context

        context = default_context(seed=seed, n_machines=n_machines)
    testbed = context.testbed
    names = list(sites) if sites is not None else list(SITES)
    unknown = [name for name in names if name not in SITES]
    if unknown:
        raise ConfigurationError(
            f"unknown weather sites {unknown}; have {sorted(SITES)}"
        )
    dt = DAY if quick else 3.0 * 3600.0
    q_ref = _operating_point(context, load_fraction)
    site_rows: list[SiteYear] = []
    wave_rows: list[HeatWaveDay] = []
    with obs.timed("experiments/weather_study"):
        for name in names:
            trace = site_weather(name, seed=seed)
            plant = default_plant(testbed.fresh_cooler())
            solver = _PlantOptimizer(
                context, plant, q_ref, load_fraction
            )
            (it_j, cool_j, water, econ, switches, sum_q, sum_chiller,
             buckets, _peak) = _sweep(context, plant, trace, solver, dt)
            site_rows.append(
                SiteYear(
                    site=name,
                    description=SITES[name].description,
                    buckets=buckets,
                    bucket_seconds=dt,
                    it_energy_joules=it_j,
                    cooling_energy_joules=cool_j,
                    water_liters=water,
                    economizer_fraction=econ / max(buckets, 1),
                    mode_switches=switches,
                    mean_cop=sum_q / max(sum_chiller, 1e-9),
                    linearization_gap=solver.worst_gap,
                )
            )
            wave_rows.append(
                _heat_wave_day(
                    context, trace, solver, name,
                    amplitude=heat_wave_amplitude,
                )
            )
        obs.set_span_attributes(
            sites=len(site_rows), buckets_per_site=buckets
        )
    return WeatherStudyResult(
        sites=tuple(site_rows),
        heat_waves=tuple(wave_rows),
        seed=seed,
        machines=testbed.n_machines,
        load_fraction=load_fraction,
        quick=quick,
    )


def _heat_wave_day(
    context,
    trace: WeatherTrace,
    solver: _PlantOptimizer,
    site: str,
    *,
    amplitude: float,
) -> HeatWaveDay:
    """Stress one midsummer day with a trapezoidal wet-bulb excursion.

    Midsummer for the seeded :func:`site_weather` presets sits at the
    ``warmest_day`` fraction of the year (0.55); the wave rides a full
    day centred there.  Both runs use hourly buckets and fresh plant
    mode state, so the comparison isolates the sky, not hysteresis
    history.
    """
    onset = 0.55 * trace.duration - 0.5 * DAY
    wave = heat_wave(
        trace, onset=onset, length=DAY, amplitude=amplitude
    )
    dt = 3600.0
    rows = []
    for sky in (trace, wave):
        plant = default_plant(context.testbed.fresh_cooler())
        it_j, cool_j, _w, _e, _s, _q, _c, _b, peak = _sweep(
            context, plant, sky, solver, dt, t0=onset, duration=DAY
        )
        rows.append(((it_j + cool_j) / it_j, peak))
    (base_pue, base_peak), (wave_pue, wave_peak) = rows
    return HeatWaveDay(
        site=site,
        amplitude_k=amplitude,
        baseline_pue=base_pue,
        wave_pue=wave_pue,
        baseline_peak_w=base_peak,
        wave_peak_w=wave_peak,
    )
