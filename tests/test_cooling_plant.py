"""Tests for the weather-aware chiller plant and its Eq. 10 seam.

Covers the PR-10 acceptance surface: COP monotonicity, economizer
hysteresis without chatter, exactness of the per-operating-point
re-linearization, weather-trace determinism, the fan-power accounting
contract, cooling-tower water, the ``cooling_plant.json`` validator,
and — with the plant in the loop — the MPC flash-crowd dominance gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs, units
from repro.errors import ConfigurationError
from repro.thermal.cooling import CoolingUnit
from repro.thermal.plant import (
    ChillerPlant,
    COPCurve,
    CoolingTowerConfig,
    EconomizerConfig,
    default_plant,
)
from repro.workload.weather import (
    DAY,
    SITES,
    YEAR,
    diurnal_wetbulb,
    heat_wave,
    seasonal_wetbulb,
    site_weather,
)


def celsius(value: float) -> float:
    return units.celsius_to_kelvin(value)


def make_unit(**overrides) -> CoolingUnit:
    params = dict(
        supply_flow=1.4,
        efficiency=0.25,
        q_max=12000.0,
        t_ac_min=283.15,
        set_point=297.15,
        fan_power=3000.0,
    )
    params.update(overrides)
    return CoolingUnit(**params)


def make_plant(**overrides) -> ChillerPlant:
    return default_plant(make_unit(), **overrides)


class TestCOPCurve:
    def test_rejects_invalid(self):
        for overrides in (
            dict(cop_nominal=0.0),
            dict(cop_min=0.0),
            dict(cop_min=5.0, cop_max=4.0),
            dict(wb_gain=-0.1),
            dict(plr_a=0.0),
            dict(plr_b=-1.0),
        ):
            with pytest.raises(ConfigurationError):
                COPCurve(**overrides)

    def test_full_load_cop_monotone_in_wetbulb(self):
        """Hotter condenser sky => never a better COP."""
        curve = COPCurve()
        wbs = [celsius(c) for c in range(-20, 41, 2)]
        cops = [curve.cop_full_load(wb) for wb in wbs]
        assert all(a >= b for a, b in zip(cops, cops[1:]))
        assert all(
            curve.cop_min <= cop <= curve.cop_max for cop in cops
        )

    def test_nominal_at_design_point(self):
        curve = COPCurve()
        assert curve.cop_full_load(curve.t_wb_design) == pytest.approx(
            curve.cop_nominal
        )

    def test_eir_normalized_at_full_load(self):
        curve = COPCurve()
        assert curve.eir_fraction(1.0) == pytest.approx(1.0)
        assert curve.cop(curve.t_wb_design, 1.0) == pytest.approx(
            curve.cop_nominal
        )

    def test_part_load_cop_degrades(self):
        """Cycling overhead: half load runs below the full-load COP."""
        curve = COPCurve()
        wb = celsius(20.0)
        assert curve.cop(wb, 0.5) < curve.cop(wb, 1.0)
        assert curve.cop(wb, 0.0) == 0.0


class TestEconomizerHysteresis:
    def test_engages_below_threshold_releases_above_band(self):
        plant = make_plant()
        on = plant.economizer.wetbulb_on
        off = on + plant.economizer.hysteresis
        assert plant.mode == "mechanical"
        plant.advance_mode(on - 0.5)
        assert plant.mode == "economizer"
        # Inside the dead band: stays engaged.
        plant.advance_mode(on + 0.5 * plant.economizer.hysteresis)
        assert plant.mode == "economizer"
        plant.advance_mode(off + 0.1)
        assert plant.mode == "mechanical"

    def test_no_chatter_when_hovering_at_threshold(self):
        """Wet-bulb oscillating inside the dead band switches at most
        once — the hysteresis exists to prevent compressor chatter."""
        plant = make_plant()
        on = plant.economizer.wetbulb_on
        switches = 0
        mode = plant.mode
        for k in range(200):
            wb = on + (0.4 if k % 2 else -0.4)  # straddles wetbulb_on
            plant.advance_mode(wb)
            if plant.mode != mode:
                switches += 1
                mode = plant.mode
        assert switches <= 1

    def test_without_economizer_mode_is_pinned(self):
        plant = make_plant(economizer=None)
        plant.advance_mode(celsius(-30.0))
        assert plant.mode == "mechanical"

    def test_reset_restores_mechanical_and_clears_coil(self):
        plant = make_plant()
        plant.advance_mode(celsius(-10.0))
        plant.cooling_unit.step(300.0, 1.0)
        plant.reset()
        assert plant.mode == "mechanical"
        assert plant.cooling_unit.q_cool == 0.0


class TestChillerPower:
    def test_zero_load_is_free_fan_excluded(self):
        plant = make_plant()
        assert plant.chiller_power(0.0, celsius(20.0)) == 0.0
        assert plant.electrical_power(0.0, celsius(20.0)) == (
            plant.cooling_unit.fan_power
        )

    def test_power_rises_with_wetbulb(self):
        plant = make_plant()
        q = 6000.0
        cool = plant.chiller_power(q, celsius(5.0), mode="mechanical")
        warm = plant.chiller_power(q, celsius(30.0), mode="mechanical")
        assert warm > cool

    def test_economizer_is_cheaper_than_compressor(self):
        plant = make_plant()
        q = 6000.0
        wb = celsius(5.0)
        assert plant.chiller_power(q, wb, mode="economizer") < (
            plant.chiller_power(q, wb, mode="mechanical")
        )
        assert plant.operating_cop(q, wb, mode="economizer") == (
            pytest.approx(plant.economizer.free_cooling_cop)
        )

    def test_rejects_unknown_mode(self):
        plant = make_plant()
        with pytest.raises(ConfigurationError):
            plant.chiller_power(1000.0, celsius(20.0), mode="magic")


class TestLinearization:
    """The Eq. 10 seam: tangent exactness and the re-derived ``c``."""

    @pytest.mark.parametrize("wb_c", [-10.0, 8.0, 24.0, 35.0])
    @pytest.mark.parametrize("load_frac", [0.15, 0.5, 0.9])
    def test_exact_at_operating_point(self, context, wb_c, load_frac):
        """Pinned acceptance tolerance: the re-linearized CoolerModel
        reproduces the plant's electrical power at the operating point
        to float round-off (relative 1e-9), across weather and load."""
        plant = default_plant(context.testbed.fresh_cooler())
        base = context.model.cooler
        wb = celsius(wb_c)
        q0 = load_frac * plant.cooling_unit.q_max
        lin = plant.linearize(base, wb, q0)
        # Drive the linear model at exactly the operating delta-T.
        dt0 = q0 / (plant.cooling_unit.supply_flow * units.C_AIR)
        t_ac = 0.5 * (base.t_ac_min + base.t_ac_max)
        linear = lin.cooling_power(t_ac + dt0, t_ac) - base.idle_power
        exact = plant.chiller_power(q0, wb)
        assert linear == pytest.approx(exact, rel=1e-9, abs=1e-6)

    def test_tangent_underestimates_nowhere(self, context):
        """The mechanical power curve is convex in q, so its tangent is
        a global lower bound — the optimizer can only be optimistic."""
        plant = default_plant(context.testbed.fresh_cooler())
        base = context.model.cooler
        wb = celsius(18.0)
        q0 = 0.5 * plant.cooling_unit.q_max
        lin = plant.linearize(base, wb, q0)
        t_ac = 0.5 * (base.t_ac_min + base.t_ac_max)
        flow_c = plant.cooling_unit.supply_flow * units.C_AIR
        for q in np.linspace(100.0, plant.cooling_unit.q_max, 40):
            linear = lin.cooling_power(t_ac + q / flow_c, t_ac) - (
                base.idle_power
            )
            assert linear <= plant.chiller_power(q, wb) + 1e-6

    def test_linearized_c_is_c_air_over_marginal_eta(self):
        plant = make_plant()
        wb = celsius(20.0)
        q0 = 7000.0
        eta = plant.effective_efficiency(wb, q0)
        assert plant.linearized_c(wb, q0) == pytest.approx(
            units.C_AIR / eta
        )
        # Marginal efficiency is a COP here, not a CRAC eta in (0, 1].
        assert eta > 1.0

    def test_economizer_linearization_prices_free_cooling(self):
        plant = make_plant()
        eta = plant.effective_efficiency(
            celsius(2.0), 5000.0, mode="economizer"
        )
        assert eta == pytest.approx(plant.economizer.free_cooling_cop)

    def test_linearized_model_touches_only_the_cooler(self, context):
        plant = default_plant(context.testbed.fresh_cooler())
        model2 = plant.linearized_model(
            context.model, celsius(25.0), 6000.0
        )
        assert model2.power is context.model.power
        assert model2.nodes is context.model.nodes
        assert model2.capacities is context.model.capacities
        assert model2.t_max == context.model.t_max
        assert model2.cooler.c_f_ac != context.model.cooler.c_f_ac


class TestWaterAccounting:
    def test_none_without_tower(self):
        plant = make_plant(tower=None)
        assert plant.water_rate(5000.0, celsius(20.0)) is None

    def test_rate_covers_heat_plus_compressor_work(self):
        plant = make_plant()
        q = 8000.0
        wb = celsius(25.0)
        rejected = q + plant.chiller_power(q, wb)
        expected = (
            rejected
            / plant.tower.latent_heat
            * plant.tower.bleed_factor
        )
        assert plant.water_rate(q, wb) == pytest.approx(expected)
        assert plant.water_rate(0.0, wb) == 0.0

    def test_bleed_factor(self):
        tower = CoolingTowerConfig(cycles_of_concentration=4.0)
        assert tower.bleed_factor == pytest.approx(4.0 / 3.0)
        with pytest.raises(ConfigurationError):
            CoolingTowerConfig(cycles_of_concentration=1.0)


class TestFanPowerContract:
    """Pin the blower accounting end-to-end (docs/cooling_plant.md).

    The constant CRAC blower draw appears exactly once per accounting
    path: inside :meth:`CoolingUnit.step`/``steady_state_power`` for
    air-side truth, and via :meth:`ChillerPlant.electrical_power` for
    weather-priced truth.  ``chiller_power`` never includes it, so
    wrapping the coil cannot double-count the fan.
    """

    def test_air_side_truth_includes_fan_once(self):
        unit = make_unit()
        assert unit.steady_state_power(0.0) == unit.fan_power
        q = 6000.0
        assert unit.steady_state_power(q) == pytest.approx(
            q / unit.efficiency + unit.fan_power
        )

    def test_plant_truth_includes_fan_once(self):
        plant = make_plant()
        wb = celsius(20.0)
        q = 6000.0
        assert plant.electrical_power(q, wb) == pytest.approx(
            plant.chiller_power(q, wb) + plant.cooling_unit.fan_power
        )

    def test_linearization_preserves_the_fitted_floor(self, context):
        """The fitted CoolerModel's idle_power carries the blower; the
        tangent offset stacks on top of it rather than replacing it —
        load-independent, so it never changes which subset wins."""
        plant = default_plant(context.testbed.fresh_cooler())
        base = context.model.cooler
        wb, q0 = celsius(20.0), 6000.0
        lin = plant.linearize(base, wb, q0)
        slope = 1.0 / plant.effective_efficiency(wb, q0)
        offset = plant.chiller_power(q0, wb) - slope * q0
        assert lin.idle_power == pytest.approx(base.idle_power + offset)


class TestWeatherTraces:
    def test_same_seed_same_trace(self):
        a = seasonal_wetbulb(celsius(0.0), celsius(20.0), 5.0, seed=7)
        b = seasonal_wetbulb(celsius(0.0), celsius(20.0), 5.0, seed=7)
        ts = np.linspace(0.0, YEAR, 500)
        assert np.array_equal(a.values_at(ts), b.values_at(ts))
        c = seasonal_wetbulb(celsius(0.0), celsius(20.0), 5.0, seed=8)
        assert not np.array_equal(a.values_at(ts), c.values_at(ts))

    def test_noise_is_pure_function_of_seed_and_bucket(self):
        """Query order and repetition cannot change the draw — the
        jitter is counter-based, not generator-based."""
        trace = diurnal_wetbulb(celsius(12.0), 6.0, seed=3)
        t = 31337.0
        first = trace.wetbulb_at(t)
        for earlier in (50000.0, 10.0, t):
            trace.wetbulb_at(earlier)
        assert trace.wetbulb_at(t) == first

    def test_scalar_and_vector_profiles_agree(self):
        trace = site_weather("coastal-temperate", seed=2012)
        ts = np.linspace(0.0, YEAR, 301)
        vector = trace.values_at(ts)
        scalar = np.array([trace.wetbulb_at(t) for t in ts])
        np.testing.assert_allclose(vector, scalar, rtol=0, atol=1e-9)

    def test_seasonal_shape(self):
        trace = seasonal_wetbulb(
            celsius(-10.0), celsius(20.0), 0.0, noise_std=0.0
        )
        # Crest sits at warmest_day (0.55 of the year); the trough is
        # half a year earlier, at 0.05 of the year — not at t=0.
        midwinter = trace.wetbulb_at(0.05 * YEAR)
        midsummer = trace.wetbulb_at(0.55 * YEAR)
        assert midsummer - midwinter == pytest.approx(30.0, abs=0.5)

    def test_heat_wave_trapezoid(self):
        base = diurnal_wetbulb(
            celsius(10.0), 0.0, noise_std=0.0, duration=10 * DAY
        )
        wave = heat_wave(
            base, onset=DAY, length=DAY, amplitude=5.0, ramp=0.25 * DAY
        )
        # Outside the excursion: untouched.
        assert wave.wetbulb_at(0.5 * DAY) == base.wetbulb_at(0.5 * DAY)
        assert wave.wetbulb_at(2.5 * DAY) == base.wetbulb_at(2.5 * DAY)
        # Plateau: the full amplitude.
        mid = 1.5 * DAY
        assert wave.wetbulb_at(mid) - base.wetbulb_at(mid) == (
            pytest.approx(5.0)
        )
        # Mid-ramp: half the amplitude, on both profile flavours.
        half = DAY + 0.125 * DAY
        assert wave.wetbulb_at(half) - base.wetbulb_at(half) == (
            pytest.approx(2.5)
        )
        ts = np.array([0.5 * DAY, half, mid, 2.5 * DAY])
        np.testing.assert_allclose(
            wave.values_at(ts) - base.values_at(ts),
            [0.0, 2.5, 5.0, 0.0],
            atol=1e-9,
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            diurnal_wetbulb(celsius(10.0), -1.0)
        with pytest.raises(ConfigurationError):
            seasonal_wetbulb(celsius(20.0), celsius(10.0), 3.0)
        trace = diurnal_wetbulb(celsius(10.0), 2.0)
        with pytest.raises(ConfigurationError):
            heat_wave(trace, onset=0.0, length=-1.0, amplitude=2.0)
        with pytest.raises(ConfigurationError):
            heat_wave(
                trace, onset=0.0, length=100.0, amplitude=2.0, ramp=60.0
            )
        with pytest.raises(ConfigurationError):
            site_weather("atlantis")

    def test_band_clamp(self):
        trace = diurnal_wetbulb(
            celsius(80.0), 0.0, noise_std=0.0
        )
        assert trace.wetbulb_at(0.0) == celsius(45.0)


class TestWeatherStudy:
    def test_quick_study_document_validates(self, context):
        from repro.experiments.weather import run_weather_study

        study = run_weather_study(seed=2012, quick=True, context=context)
        document = study.document()
        obs.validate_artifact("cooling-plant", document)
        assert {e["site"] for e in document["entries"]} == set(SITES)

    def test_climate_ordering(self, context):
        """Cold climates free-cool more and never pay a worse PUE."""
        from repro.experiments.weather import run_weather_study

        study = run_weather_study(seed=2012, quick=True, context=context)
        by_site = {s.site: s for s in study.sites}
        cold = by_site["cold-continental"]
        hot = by_site["hot-humid"]
        assert cold.economizer_fraction > hot.economizer_fraction
        assert cold.pue <= hot.pue
        assert all(s.linearization_gap <= 1e-6 for s in study.sites)
        assert all(w.pue_penalty > 0.0 for w in study.heat_waves)

    def test_rejects_unknown_site(self, context):
        from repro.experiments.weather import run_weather_study

        with pytest.raises(ConfigurationError):
            run_weather_study(
                seed=2012, quick=True, sites=["atlantis"],
                context=context,
            )


class TestCoolingPlantValidator:
    def _document(self) -> dict:
        entry = {
            "site": "coastal-temperate",
            "description": "marine",
            "buckets": 365,
            "bucket_seconds": 86400.0,
            "it_energy_joules": 4.0e10,
            "cooling_energy_joules": 1.0e10,
            "total_energy_joules": 5.0e10,
            "pue": 1.25,
            "water_liters": 1.0e6,
            "wue_l_per_kwh": 2.0,
            "economizer_fraction": 0.5,
            "mode_switches": 4,
            "mean_cop": 5.0,
            "linearization_gap": 1e-12,
        }
        wave = {
            "site": "coastal-temperate",
            "amplitude_k": 6.0,
            "baseline_pue": 1.25,
            "wave_pue": 1.30,
            "pue_penalty": 0.05,
            "baseline_peak_w": 5000.0,
            "wave_peak_w": 5200.0,
        }
        return {
            "schema": 1,
            "kind": "cooling-plant",
            "seed": 2012,
            "machines": 20,
            "load_fraction": 0.6,
            "quick": False,
            "entries": [entry],
            "heat_wave": [wave],
        }

    def test_round_trip(self, tmp_path):
        document = self._document()
        obs.validate_artifact("cooling-plant", document)
        path = obs.write_artifact(
            tmp_path / "cooling_plant.json", document
        )
        import json

        assert json.loads(path.read_text())["kind"] == "cooling-plant"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(kind="mpc"),
            lambda d: d.update(load_fraction=1.5),
            lambda d: d.pop("quick"),
            lambda d: d["entries"][0].update(pue=0.9),
            lambda d: d["entries"][0].update(linearization_gap=1e-3),
            lambda d: d["entries"][0].update(economizer_fraction=1.4),
            lambda d: d["entries"][0].update(total_energy_joules=9.9e10),
            lambda d: d["entries"][0].update(wue_l_per_kwh=None),
            lambda d: d["entries"][0].pop("mean_cop"),
            lambda d: d["heat_wave"][0].update(pue_penalty=0.5),
            lambda d: d["heat_wave"][0].update(site="atlantis"),
            lambda d: d.update(heat_wave=[]),
        ],
    )
    def test_rejects_malformed(self, mutate):
        document = self._document()
        mutate(document)
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("cooling-plant", document)


class TestWeatherAwareCampaign:
    @pytest.fixture(scope="class")
    def weather_campaign(self):
        from repro.control.campaign import run_mpc_campaign
        from repro.experiments.common import default_context

        ctx = default_context(seed=2012, n_machines=6)
        wx = diurnal_wetbulb(
            mean=celsius(12.0), swing=6.0, duration=4000.0,
            period=4000.0, seed=7,
        )
        return run_mpc_campaign(
            seed=2012, n_machines=6, quick=True, context=ctx, weather=wx
        )

    def test_flash_crowd_dominance_survives_the_plant(
        self, weather_campaign
    ):
        """Acceptance: with the weather-aware plant in the loop, MPC
        still rides the flash crowd at zero violation-seconds and no
        more energy than the reactive controller."""
        results, _ = weather_campaign
        runs = results["flash-crowd"]
        assert runs["mpc"].violation_seconds == 0.0
        assert runs["reactive"].violation_seconds > 0.0
        assert (
            runs["mpc"].energy_joules <= runs["reactive"].energy_joules
        )

    def test_heat_wave_scenario_joins_the_campaign(self, weather_campaign):
        results, document = weather_campaign
        assert "heat-wave" in results
        assert document["weather"]["cooling_tower"] is True
        obs.validate_artifact("mpc", document)

    def test_runs_carry_pue_and_wue(self, weather_campaign):
        results, document = weather_campaign
        for runs in results.values():
            for run in runs.values():
                assert run.pue is not None and run.pue > 1.0
                assert run.wue_l_per_kwh is not None
                assert run.water_liters >= 0.0
        row = document["scenarios"][0]["controllers"]["mpc"]
        assert "pue" in row and "wue_l_per_kwh" in row

    def test_plant_without_weather_is_rejected(self):
        from repro.control.campaign import run_mpc_campaign
        from repro.experiments.common import default_context

        ctx = default_context(seed=2012, n_machines=6)
        plant = default_plant(ctx.testbed.fresh_cooler())
        with pytest.raises(ConfigurationError):
            run_mpc_campaign(
                seed=2012, n_machines=6, quick=True, context=ctx,
                chiller=plant,
            )
