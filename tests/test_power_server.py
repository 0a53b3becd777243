"""Tests for the ground-truth server power model (Eq. 9 substrate)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.power.server import ServerPowerModel


@pytest.fixture
def model() -> ServerPowerModel:
    return ServerPowerModel(w1=1.425, w2=38.0, curvature=0.002, capacity=40.0)


class TestConstruction:
    def test_rejects_non_positive_w1(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(w1=0.0, w2=38.0)

    def test_rejects_negative_w2(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(w1=1.0, w2=-1.0)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(w1=1.0, w2=10.0, capacity=0.0)


class TestPower:
    def test_idle_power_is_w2(self, model):
        assert model.power(0.0) == pytest.approx(38.0)

    def test_linear_part(self):
        linear = ServerPowerModel(w1=2.0, w2=10.0, capacity=50.0)
        assert linear.power(20.0) == pytest.approx(50.0)

    def test_curvature_adds_superlinear_term(self, model):
        linear_only = ServerPowerModel(w1=1.425, w2=38.0, capacity=40.0)
        assert model.power(40.0) > linear_only.power(40.0)

    def test_rejects_negative_load(self, model):
        with pytest.raises(ConfigurationError):
            model.power(-1.0)

    @pytest.mark.parametrize("load", [float("nan"), float("inf")])
    def test_rejects_non_finite_load(self, model, load):
        with pytest.raises(ConfigurationError, match="must be finite"):
            model.power(load)

    def test_clamps_above_capacity(self, model):
        # A saturated server can't do more work than its capacity.
        assert model.power(45.0) == pytest.approx(model.power(40.0))

    def test_peak_power_matches_full_load(self, model):
        assert model.peak_power == pytest.approx(model.power(40.0))

    @given(st.floats(0.0, 40.0), st.floats(0.0, 40.0))
    def test_monotone_in_load(self, a, b):
        model = ServerPowerModel(
            w1=1.425, w2=38.0, curvature=0.002, capacity=40.0
        )
        if a <= b:
            assert model.power(a) <= model.power(b) + 1e-12

    @given(st.floats(0.0, 1.0))
    def test_utilization_consistency(self, util):
        model = ServerPowerModel(w1=1.425, w2=38.0, capacity=40.0)
        assert model.power_at_utilization(util) == pytest.approx(
            model.power(util * 40.0)
        )

    def test_utilization_rejects_out_of_range(self, model):
        with pytest.raises(ConfigurationError):
            model.power_at_utilization(1.5)


class TestInverse:
    def test_load_for_power_inverts_linear_model(self):
        model = ServerPowerModel(w1=1.5, w2=40.0, capacity=40.0)
        assert model.load_for_power(model.power(25.0)) == pytest.approx(25.0)

    @given(st.floats(0.0, 40.0))
    def test_round_trip_without_curvature(self, load):
        model = ServerPowerModel(w1=1.5, w2=40.0, capacity=40.0)
        assert model.load_for_power(model.power(load)) == pytest.approx(
            load, abs=1e-9
        )
