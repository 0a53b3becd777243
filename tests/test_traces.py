"""Tests for the time-varying load traces."""

import numpy as np
import pytest

from repro.control.campaign import demand_scenarios, heat_wave_scenario
from repro.errors import ConfigurationError
from repro.workload.traces import (
    LoadTrace,
    TraceGrid,
    clamped_trace,
    constant_trace,
    diurnal_trace,
    flash_crowd_trace,
    noisy_trace,
    overlay_traces,
    ramp_trace,
    step_trace,
)


class TestConstant:
    def test_value_everywhere(self):
        trace = constant_trace(120.0, duration=3600.0)
        assert trace.load_at(0.0) == pytest.approx(120.0)
        assert trace.load_at(1800.0) == pytest.approx(120.0)

    def test_rejects_negative_load(self):
        with pytest.raises(ConfigurationError):
            constant_trace(-1.0, 10.0)


class TestStep:
    def test_levels_and_dwell(self):
        trace = step_trace([10.0, 20.0, 5.0], dwell=100.0)
        assert trace.duration == pytest.approx(300.0)
        assert trace.load_at(50.0) == pytest.approx(10.0)
        assert trace.load_at(150.0) == pytest.approx(20.0)
        assert trace.load_at(250.0) == pytest.approx(5.0)

    def test_end_clamps_to_last_level(self):
        trace = step_trace([10.0, 20.0], dwell=100.0)
        assert trace.load_at(1e9) == pytest.approx(20.0)

    def test_rejects_empty_levels(self):
        with pytest.raises(ConfigurationError):
            step_trace([], dwell=10.0)


class TestDiurnal:
    def test_peak_at_peak_time(self):
        trace = diurnal_trace(base=100.0, peak=500.0)
        assert trace.load_at(14.0 * 3600.0) == pytest.approx(500.0)

    def test_trough_twelve_hours_later(self):
        trace = diurnal_trace(base=100.0, peak=500.0)
        assert trace.load_at(2.0 * 3600.0) == pytest.approx(100.0)

    def test_bounded_between_base_and_peak(self):
        trace = diurnal_trace(base=100.0, peak=500.0)
        samples = trace.sample(dt=600.0)
        assert samples.min() >= 100.0 - 1e-9
        assert samples.max() <= 500.0 + 1e-9

    def test_noise_requires_rng(self):
        with pytest.raises(ConfigurationError):
            diurnal_trace(base=1.0, peak=2.0, noise_std=0.1)

    def test_noise_never_negative(self, rng):
        trace = diurnal_trace(
            base=0.0, peak=1.0, noise_std=5.0, rng=rng
        )
        assert trace.sample(dt=3600.0).min() >= 0.0

    def test_rejects_base_above_peak(self):
        with pytest.raises(ConfigurationError):
            diurnal_trace(base=10.0, peak=5.0)

    def test_peak_helper(self):
        trace = diurnal_trace(base=100.0, peak=500.0)
        assert trace.peak(dt=60.0) == pytest.approx(500.0, rel=1e-3)


class TestDiurnalNoiseDeterminism:
    """Noise must be a pure function of (seed, bucket), not rng state."""

    def test_repeated_load_at_calls_agree(self):
        trace = diurnal_trace(
            base=100.0, peak=500.0, noise_std=20.0,
            rng=np.random.default_rng(7),
        )
        t = 12345.0
        first = trace.load_at(t)
        # A stateful implementation would advance the generator here and
        # return a different draw on the second call.
        assert trace.load_at(t) == first
        assert trace.load_at(t) == first

    def test_same_seed_same_trace(self):
        a = diurnal_trace(base=100.0, peak=500.0, noise_std=20.0,
                          rng=np.random.default_rng(7))
        b = diurnal_trace(base=100.0, peak=500.0, noise_std=20.0,
                          rng=np.random.default_rng(7))
        times = np.linspace(0.0, 86400.0, 101)
        np.testing.assert_array_equal(a.values_at(times), b.values_at(times))

    def test_different_seeds_differ(self):
        a = diurnal_trace(base=100.0, peak=500.0, noise_std=20.0,
                          rng=np.random.default_rng(7))
        b = diurnal_trace(base=100.0, peak=500.0, noise_std=20.0,
                          rng=np.random.default_rng(8))
        times = np.linspace(0.0, 86400.0, 101)
        assert not np.array_equal(a.values_at(times), b.values_at(times))

    def test_noise_constant_within_bucket(self):
        trace = diurnal_trace(
            base=300.0, peak=300.0, noise_std=20.0,
            rng=np.random.default_rng(7), noise_dt=60.0,
        )
        # A flat sinusoid isolates the jitter: both instants share the
        # t // 60 bucket so they must see the same draw.
        assert trace.load_at(120.0) == pytest.approx(trace.load_at(179.9))


class TestVectorizedSampling:
    """sample()/values_at must agree with the scalar profile pointwise."""

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: constant_trace(120.0, duration=3600.0),
            lambda: step_trace([10.0, 20.0, 5.0], dwell=500.0),
            lambda: ramp_trace(0.0, 100.0, duration=3600.0),
            lambda: diurnal_trace(base=100.0, peak=500.0, duration=3600.0,
                                  noise_std=15.0,
                                  rng=np.random.default_rng(3)),
            lambda: flash_crowd_trace(base=50.0, spike=200.0, onset=600.0,
                                      duration=3600.0, decay=300.0,
                                      rise=30.0),
            lambda: overlay_traces(
                constant_trace(40.0, duration=3600.0),
                flash_crowd_trace(base=0.0, spike=90.0, onset=900.0,
                                  duration=3600.0),
            ),
            lambda: noisy_trace(ramp_trace(0.0, 50.0, 3600.0),
                                noise_std=4.0, seed=99),
            lambda: clamped_trace(ramp_trace(0.0, 300.0, 3600.0),
                                  ceiling=200.0, floor=10.0),
        ],
        ids=["constant", "step", "ramp", "diurnal", "flash", "overlay",
             "noisy", "clamped"],
    )
    def test_vectorized_matches_scalar(self, maker):
        trace = maker()
        samples = trace.sample(dt=61.0)
        times = np.arange(0.0, trace.duration + 1e-9, 61.0)
        scalar = np.array([trace.load_at(t) for t in times])
        np.testing.assert_array_equal(samples, scalar)

    @pytest.mark.parametrize("quick", [False, True])
    def test_campaign_demand_bit_identical_on_half_second_grid(self, quick):
        # The closed-loop campaigns read demand from pre-sampled grids,
        # which is only exact if values_at never leaves load_at.
        capacity = 600.0
        traces = {
            s.name: s.trace
            for s in demand_scenarios(capacity, seed=2012, quick=quick)
        }
        traces["heat-wave"] = heat_wave_scenario(
            capacity, seed=2012, quick=quick
        ).trace
        assert set(traces) == {
            "diurnal", "flash-crowd", "derate-surge", "heat-wave"
        }
        for name, trace in traces.items():
            times = np.arange(0.0, trace.duration + 1e-9, 0.5)
            scalar = np.array([trace.load_at(t) for t in times])
            np.testing.assert_array_equal(
                trace.values_at(times), scalar, err_msg=name
            )


class TestTraceGrid:
    def _trace(self):
        return overlay_traces(
            noisy_trace(
                diurnal_trace(base=100.0, peak=400.0, duration=3000.0,
                              period=3000.0),
                noise_std=5.0, seed=4,
            ),
            flash_crowd_trace(base=0.0, spike=150.0, onset=900.0,
                              duration=3000.0, decay=300.0, rise=20.0),
        )

    def test_lookups_equal_load_at_on_and_off_the_grid(self):
        trace = self._trace()
        grid = trace.grid(2.0)
        assert len(grid) == 1501
        times = np.concatenate([
            np.arange(0.0, 3000.0 + 1e-9, 0.5),  # on and between points
            [-5.0, 3000.0 + 1e-7, 3120.0, 1e9, 0.3, 1234.567],
        ])
        for t in times:
            assert grid.load_at(float(t)) == trace.load_at(float(t))

    def test_grid_points_skip_the_profile(self, monkeypatch):
        trace = self._trace()
        grid = trace.grid(2.0)
        calls = []
        real = LoadTrace.load_at

        def counted(self, t):
            calls.append(t)
            return real(self, t)

        monkeypatch.setattr(LoadTrace, "load_at", counted)
        for k in range(0, 1501, 7):
            grid.load_at(2.0 * k)
        grid.load_at(4000.0)  # clamps onto the last grid point
        assert calls == []
        grid.load_at(1.0)  # off the grid: the trace (and its parts)
        assert calls[0] == 1.0

    def test_grid_is_built_once_per_dt(self):
        trace = self._trace()
        assert trace.grid(2.0) is trace.grid(2.0)
        assert trace.grid(0.5) is not trace.grid(2.0)
        assert isinstance(trace.grid(2.0), TraceGrid)

    def test_grid_off_the_lattice_duration(self):
        trace = ramp_trace(0.0, 100.0, duration=10.3)
        grid = TraceGrid(trace, 2.0)
        assert len(grid) == 6  # 0, 2, ..., 10
        for t in (0.0, 4.0, 10.0, 10.3, 11.0, 10.1):
            assert grid.load_at(t) == trace.load_at(t)

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigurationError):
            constant_trace(1.0, 10.0).grid(0.0)
        with pytest.raises(ConfigurationError):
            TraceGrid(constant_trace(1.0, 10.0), -1.0)


class TestPeak:
    def test_refinement_recovers_narrow_spike(self):
        # 30 s rise on a 600 s grid: the coarse pass lands on the
        # spike's flank, refinement walks to the summit.
        trace = flash_crowd_trace(
            base=100.0, spike=400.0, onset=1000.0, duration=7200.0,
            decay=120.0, rise=30.0,
        )
        coarse = trace.peak(dt=600.0, refine=False)
        refined = trace.peak(dt=600.0)
        assert refined > coarse
        assert refined == pytest.approx(500.0, rel=0.01)

    def test_documented_miss_without_refinement(self):
        trace = flash_crowd_trace(
            base=100.0, spike=400.0, onset=1000.0, duration=7200.0,
            decay=120.0, rise=30.0,
        )
        # The honesty contract: refine=False reports only the grid max.
        assert trace.peak(dt=600.0, refine=False) < 500.0


class TestFlashCrowd:
    def test_shape(self):
        trace = flash_crowd_trace(
            base=50.0, spike=200.0, onset=600.0, duration=3600.0,
            decay=300.0, rise=60.0,
        )
        assert trace.load_at(0.0) == pytest.approx(50.0)
        assert trace.load_at(599.9) == pytest.approx(50.0)
        assert trace.load_at(660.0) == pytest.approx(250.0)
        # One decay constant past the crest: base + spike / e.
        assert trace.load_at(960.0) == pytest.approx(
            50.0 + 200.0 * np.exp(-1.0), rel=1e-6
        )

    def test_rejects_onset_outside_duration(self):
        with pytest.raises(ConfigurationError):
            flash_crowd_trace(base=1.0, spike=1.0, onset=100.0,
                              duration=100.0)

    def test_rejects_nonpositive_spike(self):
        with pytest.raises(ConfigurationError):
            flash_crowd_trace(base=1.0, spike=0.0, onset=0.0,
                              duration=100.0)


class TestCompositors:
    def test_overlay_sums_and_spans_longest(self):
        a = constant_trace(10.0, duration=100.0)
        b = ramp_trace(0.0, 50.0, duration=200.0)
        both = overlay_traces(a, b)
        assert both.duration == pytest.approx(200.0)
        assert both.load_at(50.0) == pytest.approx(10.0 + 12.5)
        # Past a's duration its clamped (last) value still contributes.
        assert both.load_at(200.0) == pytest.approx(10.0 + 50.0)

    def test_overlay_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            overlay_traces()

    def test_noisy_trace_deterministic_per_seed(self):
        base = constant_trace(100.0, duration=3600.0)
        a = noisy_trace(base, noise_std=10.0, seed=42)
        b = noisy_trace(base, noise_std=10.0, seed=42)
        times = np.linspace(0.0, 3600.0, 61)
        np.testing.assert_array_equal(a.values_at(times), b.values_at(times))
        assert a.load_at(100.0) == a.load_at(100.0)

    def test_noisy_trace_never_negative(self):
        trace = noisy_trace(
            constant_trace(0.1, duration=3600.0), noise_std=50.0, seed=1
        )
        assert trace.sample(dt=10.0).min() >= 0.0

    def test_clamped_trace_clips_both_sides(self):
        trace = clamped_trace(
            ramp_trace(0.0, 300.0, duration=300.0), ceiling=200.0,
            floor=50.0,
        )
        assert trace.load_at(0.0) == pytest.approx(50.0)
        assert trace.load_at(150.0) == pytest.approx(150.0)
        assert trace.load_at(300.0) == pytest.approx(200.0)

    def test_clamped_rejects_bad_bounds(self):
        base = constant_trace(1.0, duration=10.0)
        with pytest.raises(ConfigurationError):
            clamped_trace(base, ceiling=5.0, floor=6.0)

    def test_duration_edges_clamp(self):
        trace = flash_crowd_trace(
            base=50.0, spike=200.0, onset=600.0, duration=3600.0
        )
        assert trace.load_at(-5.0) == trace.load_at(0.0)
        assert trace.load_at(1e9) == trace.load_at(3600.0)


class TestRamp:
    def test_endpoints(self):
        trace = ramp_trace(0.0, 100.0, duration=1000.0)
        assert trace.load_at(0.0) == pytest.approx(0.0)
        assert trace.load_at(1000.0) == pytest.approx(100.0)
        assert trace.load_at(500.0) == pytest.approx(50.0)

    def test_sampling_shape(self):
        trace = ramp_trace(0.0, 10.0, duration=100.0)
        assert trace.sample(dt=10.0).shape == (11,)

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigurationError):
            ramp_trace(0.0, 1.0, 10.0).sample(0.0)
