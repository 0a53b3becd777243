"""Tests for the linearized thermal plant extracted from the RK4 engine.

The room dynamics are linear for a fixed on-mask, so the extracted
discrete map must reproduce the transient engine *exactly* (to
roundoff) at arbitrary states and inputs — not just near a probe
point.  That exactness is what makes the MPC horizon an honest LP.
"""

import numpy as np
import pytest

from repro import obs
from repro.control.plant import LinearizedPlant
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.thermal.simulation import RoomSimulation
from tests.oracles import LoopLinearizedPlant


@pytest.fixture(scope="module")
def plant(small_testbed) -> LinearizedPlant:
    return LinearizedPlant.from_testbed(small_testbed, dt=60.0, rk_dt=2.0)


def _engine_rollout(testbed, plant, state, powers, t_ac, mask):
    """The ground-truth RK4 engine over one control interval."""
    sim = RoomSimulation(testbed.room, testbed.cooler)
    n = plant.n
    sim.on_mask = np.asarray(mask, dtype=bool)
    sim.t_cpu = np.array(state[:n], dtype=float)
    sim.t_box = np.array(state[n: 2 * n], dtype=float)
    sim.t_room = float(state[2 * n])
    sim.powers = np.asarray(powers, dtype=float)
    for _ in range(plant.substeps):
        sim._advance(plant.rk_dt, t_ac)
    return LinearizedPlant.pack_state(sim.t_cpu, sim.t_box, sim.t_room)


class TestExactness:
    def test_step_matches_engine_at_arbitrary_state(
        self, small_testbed, plant
    ):
        n = plant.n
        rng = np.random.default_rng(7)
        mask = np.array([True, True, False, True, False, True])[:n]
        state = np.concatenate([
            320.0 + 5.0 * rng.random(n),
            310.0 + 5.0 * rng.random(n),
            [300.0],
        ])
        powers = np.where(mask, 60.0 + 40.0 * rng.random(n), 0.0)
        t_ac = 288.0
        predicted = plant.step(state, powers, t_ac, mask)
        truth = _engine_rollout(
            small_testbed, plant, state, powers, t_ac, mask
        )
        # Exact linearity: no truncation term, only roundoff.
        np.testing.assert_allclose(predicted, truth, rtol=0, atol=1e-8)

    def test_exact_across_masks_and_inputs(self, small_testbed, plant):
        n = plant.n
        rng = np.random.default_rng(21)
        for trial in range(3):
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[0] = True
            state = np.concatenate([
                315.0 + 10.0 * rng.random(n),
                305.0 + 10.0 * rng.random(n),
                [295.0 + 10.0 * rng.random()],
            ])
            powers = np.where(mask, 30.0 + 80.0 * rng.random(n), 0.0)
            t_ac = 285.0 + 10.0 * rng.random()
            np.testing.assert_allclose(
                plant.step(state, powers, t_ac, mask),
                _engine_rollout(
                    small_testbed, plant, state, powers, t_ac, mask
                ),
                rtol=0, atol=1e-8,
            )

    def test_off_node_power_is_ignored(self, plant):
        n = plant.n
        mask = np.zeros(n, dtype=bool)
        mask[0] = True
        state = np.concatenate(
            [np.full(n, 320.0), np.full(n, 310.0), [300.0]]
        )
        powers_a = np.zeros(n)
        powers_a[0] = 80.0
        powers_b = powers_a.copy()
        powers_b[1] = 500.0  # off node: its B_power column is zero
        np.testing.assert_array_equal(
            plant.step(state, powers_a, 290.0, mask),
            plant.step(state, powers_b, 290.0, mask),
        )


def _masks(n: int) -> list[np.ndarray]:
    """All-on, all-off, single-on and 8 random on-masks."""
    single = np.zeros(n, dtype=bool)
    single[n // 2] = True
    rng = np.random.default_rng(18)
    return [np.ones(n, dtype=bool), np.zeros(n, dtype=bool), single] + [
        rng.random(n) < 0.6 for _ in range(8)
    ]


class TestStackedExtraction:
    """The one stacked rollout against one rollout per probe."""

    @pytest.mark.parametrize("bed", ["small_testbed", "testbed"])
    def test_matches_per_probe_oracle_bit_for_bit(self, bed, request):
        testbed = request.getfixturevalue(bed)
        stacked = LinearizedPlant.from_testbed(testbed, dt=60.0)
        oracle = LoopLinearizedPlant.from_testbed(testbed, dt=60.0)
        for mask in _masks(stacked.n):
            got = stacked.matrices(mask)
            want = oracle.matrices(mask)
            for name in ("a", "b_power", "b_supply", "offset"):
                np.testing.assert_array_equal(
                    getattr(got, name), getattr(want, name),
                    err_msg=f"{name} for mask {mask.astype(int)}",
                )
            # C order, as the per-probe fill makes them: the MPC's
            # matrix products see the same memory layout.
            assert got.a.flags.c_contiguous
            assert got.b_power.flags.c_contiguous

    def test_one_linearization_is_substeps_stacked_advances(
        self, small_testbed
    ):
        plant = LinearizedPlant.from_testbed(small_testbed, dt=60.0)
        probe = plant._probe
        advance = probe._advance
        widths = []

        def counted(dt, t_ac):
            widths.append(probe.t_cpu.shape)
            advance(dt, t_ac)

        probe._advance = counted
        mask = np.array([True, False, True, True, False, True])
        plant.matrices(mask)
        n, m = plant.n, plant.state_dim
        assert widths == [(n, m + n + 2)] * plant.substeps
        plant.matrices(mask)  # memoized: no further rollout
        assert len(widths) == plant.substeps


class TestPrediction:
    def test_predict_shape_and_initial_row(self, plant):
        n = plant.n
        mask = np.ones(n, dtype=bool)
        state = np.concatenate(
            [np.full(n, 320.0), np.full(n, 310.0), [300.0]]
        )
        horizon = 4
        trajectory = plant.predict(
            state,
            [np.full(n, 50.0)] * horizon,
            [290.0] * horizon,
            [mask] * horizon,
        )
        assert trajectory.shape == (horizon + 1, 2 * n + 1)
        np.testing.assert_array_equal(trajectory[0], state)

    def test_predict_composes_steps(self, plant):
        n = plant.n
        mask = np.ones(n, dtype=bool)
        state = np.concatenate(
            [np.full(n, 325.0), np.full(n, 312.0), [301.0]]
        )
        powers = np.full(n, 70.0)
        trajectory = plant.predict(
            state, [powers, powers], [288.0, 292.0], [mask, mask]
        )
        step1 = plant.step(state, powers, 288.0, mask)
        step2 = plant.step(step1, powers, 292.0, mask)
        np.testing.assert_allclose(trajectory[1], step1, atol=1e-12)
        np.testing.assert_allclose(trajectory[2], step2, atol=1e-12)

    def test_predict_rejects_length_mismatch(self, plant):
        n = plant.n
        mask = np.ones(n, dtype=bool)
        state = np.zeros(2 * n + 1)
        with pytest.raises(ConfigurationError):
            plant.predict(state, [np.zeros(n)], [290.0, 291.0], [mask])


class TestCaching:
    def test_matrices_memoized_per_mask(self, small_testbed):
        plant = LinearizedPlant.from_testbed(small_testbed, dt=60.0)
        n = plant.n
        mask_a = np.ones(n, dtype=bool)
        mask_b = np.ones(n, dtype=bool)
        mask_b[0] = False
        registry = obs.enable(MetricsRegistry())
        try:
            first = plant.matrices(mask_a)
            again = plant.matrices(mask_a)
            other = plant.matrices(mask_b)
        finally:
            obs.disable()
        assert again is first
        assert other is not first
        counters = registry.snapshot()["counters"]
        assert counters["mpc.plant_linearizations"] == 2
        assert counters["mpc.plant_cache_hits"] == 1

    def test_lru_eviction(self, small_testbed):
        plant = LinearizedPlant.from_testbed(
            small_testbed, dt=60.0, max_cached_masks=2
        )
        n = plant.n
        masks = [np.ones(n, dtype=bool) for _ in range(3)]
        masks[1][0] = False
        masks[2][1] = False
        first = plant.matrices(masks[0])
        plant.matrices(masks[1])
        plant.matrices(masks[2])  # evicts masks[0]
        assert plant.matrices(masks[0]) is not first

    def test_rejects_bad_mask_shape(self, plant):
        with pytest.raises(ConfigurationError):
            plant.matrices(np.ones(plant.n + 1, dtype=bool))


class TestValidation:
    def test_rejects_bad_dt(self, small_testbed):
        with pytest.raises(ConfigurationError):
            LinearizedPlant.from_testbed(small_testbed, dt=0.0)

    def test_rejects_rk_dt_above_dt(self, small_testbed):
        with pytest.raises(ConfigurationError):
            LinearizedPlant.from_testbed(small_testbed, dt=10.0, rk_dt=20.0)

    def test_pack_unpack_roundtrip(self):
        t_cpu = np.array([320.0, 321.0])
        t_box = np.array([310.0, 311.0])
        packed = LinearizedPlant.pack_state(t_cpu, t_box, 300.0)
        cpu, box, room = LinearizedPlant.unpack_state(packed, 2)
        np.testing.assert_array_equal(cpu, t_cpu)
        np.testing.assert_array_equal(box, t_box)
        assert room == 300.0
