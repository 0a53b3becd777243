"""Tests for the closed-form optimal load distribution (Eqs. 18-22)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closed_form import (
    kkt_multipliers,
    optimal_supply_temperature,
    paper_loads,
    solve_closed_form,
)
from repro.errors import ConfigurationError, InfeasibleError
from tests.conftest import make_system_model


class TestPaperFormulas:
    def test_equation_21_formula(self, system_model):
        on = [0, 1, 2, 3]
        load = 100.0
        k = system_model.k_values(on)
        b = np.array(
            [n.alpha / n.beta for n in system_model.nodes]
        )
        expected = (
            (k.sum() - load) * system_model.power.w1 / b.sum()
        )
        assert optimal_supply_temperature(
            system_model, on, load
        ) == pytest.approx(expected)

    def test_equation_22_loads_sum_to_total(self, system_model):
        loads = paper_loads(system_model, [0, 1, 2, 3], 120.0)
        assert loads.sum() == pytest.approx(120.0)

    def test_equation_22_puts_every_machine_at_t_max(self, system_model):
        # Eq. 17: at the optimum, T_cpu_i == T_max for every ON machine.
        on = [0, 1, 2, 3]
        load = 120.0
        loads = paper_loads(system_model, on, load)
        t_ac = optimal_supply_temperature(system_model, on, load)
        for i in on:
            power = system_model.power.power(float(loads[i]))
            temp = system_model.nodes[i].cpu_temperature(t_ac, power)
            assert temp == pytest.approx(system_model.t_max, abs=1e-9)

    def test_imbalance_favours_cool_machines(self, system_model):
        # "The optimal solution has a slightly imbalanced load
        # distribution": cooler spots (lower gamma) carry more load.
        loads = paper_loads(system_model, [0, 1, 2, 3], 120.0)
        assert loads[0] > loads[3]

    def test_kkt_multipliers_strictly_positive(self, system_model):
        lam, mu = kkt_multipliers(system_model, [0, 1, 2, 3])
        assert lam > 0.0
        assert np.all(mu > 0.0)

    def test_higher_load_means_colder_air(self, system_model):
        low = optimal_supply_temperature(system_model, [0, 1, 2, 3], 40.0)
        high = optimal_supply_temperature(system_model, [0, 1, 2, 3], 140.0)
        assert high < low


class TestSolveClosedForm:
    def test_matches_paper_formulas_when_unclamped(self):
        model = make_system_model(n=4, t_max=335.0)
        load = 130.0
        solution = solve_closed_form(model, [0, 1, 2, 3], load)
        if not solution.clamped:
            raw = paper_loads(model, [0, 1, 2, 3], load)
            assert np.allclose(solution.loads, raw, atol=1e-9)
            assert solution.common_temperature == pytest.approx(model.t_max)

    def test_loads_never_negative(self, system_model):
        solution = solve_closed_form(system_model, [0, 1, 2, 3], 5.0)
        assert np.all(solution.loads >= -1e-12)
        assert solution.total_load == pytest.approx(5.0)

    def test_loads_respect_capacity(self, system_model):
        solution = solve_closed_form(system_model, [0, 1, 2, 3], 159.0)
        assert np.all(
            solution.loads <= np.asarray(system_model.capacities) + 1e-9
        )

    def test_full_capacity_load_is_feasible(self, system_model):
        solution = solve_closed_form(system_model, [0, 1, 2, 3], 160.0)
        assert solution.total_load == pytest.approx(160.0)
        assert np.allclose(solution.loads, 40.0)

    def test_over_capacity_rejected(self, system_model):
        with pytest.raises(InfeasibleError):
            solve_closed_form(system_model, [0, 1, 2, 3], 161.0)

    def test_t_ac_respects_cooler_band(self, system_model):
        for load in (5.0, 60.0, 120.0, 155.0):
            solution = solve_closed_form(system_model, [0, 1, 2, 3], load)
            cooler = system_model.cooler
            assert (
                cooler.t_ac_min - 1e-9
                <= solution.t_ac
                <= cooler.t_ac_max + 1e-9
            )

    def test_no_machine_predicted_above_t_max(self, system_model):
        for load in (5.0, 50.0, 100.0, 150.0):
            solution = solve_closed_form(system_model, [0, 1, 2, 3], load)
            on_temps = solution.predicted_t_cpu[list(solution.on_ids)]
            assert np.all(on_temps <= system_model.t_max + 1e-6)

    def test_subset_of_machines(self, system_model):
        solution = solve_closed_form(system_model, [1, 3], 60.0)
        assert solution.loads[0] == pytest.approx(0.0)
        assert solution.loads[2] == pytest.approx(0.0)
        assert solution.total_load == pytest.approx(60.0)

    def test_single_machine(self, system_model):
        solution = solve_closed_form(system_model, [2], 30.0)
        assert solution.loads[2] == pytest.approx(30.0)

    def test_rejects_empty_on_set(self, system_model):
        with pytest.raises(ConfigurationError):
            solve_closed_form(system_model, [], 10.0)

    def test_rejects_duplicate_ids(self, system_model):
        with pytest.raises(ConfigurationError):
            solve_closed_form(system_model, [1, 1], 10.0)

    def test_rejects_negative_load(self, system_model):
        with pytest.raises(ConfigurationError):
            solve_closed_form(system_model, [0], -1.0)

    def test_rejects_nan_load(self, system_model):
        # ``nan < 0`` is false: unguarded, NaN gave all-zero loads and a
        # NaN t_ac with clamped=False.
        for solve in (solve_closed_form, paper_loads):
            with pytest.raises(ConfigurationError, match="got nan"):
                solve(system_model, [0, 1], float("nan"))

    def test_infinite_load_is_infeasible(self, system_model):
        with pytest.raises(InfeasibleError, match="exceeds"):
            solve_closed_form(system_model, [0, 1], float("inf"))

    def test_predicted_power_composition(self, system_model):
        solution = solve_closed_form(system_model, [0, 1, 2, 3], 80.0)
        assert solution.predicted_total_power == pytest.approx(
            float(solution.predicted_server_power.sum())
            + solution.predicted_cooling_power
        )

    def test_set_point_through_actuation_map(self, system_model):
        solution = solve_closed_form(system_model, [0, 1, 2, 3], 80.0)
        expected = system_model.cooler.set_point_for(
            solution.t_ac, float(solution.predicted_server_power.sum())
        )
        assert solution.t_sp == pytest.approx(expected)

    def test_infeasible_when_t_max_too_tight(self):
        model = make_system_model(n=4, t_max=300.0)
        with pytest.raises(InfeasibleError):
            solve_closed_form(model, [0, 1, 2, 3], 150.0)


class TestClosedFormProperties:
    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(1.0, 159.0),
        st.integers(2, 5),
        st.floats(0.05, 0.4),
    )
    def test_invariants_hold_for_any_load(self, load, n, spread):
        model = make_system_model(n=n, alpha_spread=spread)
        load = min(load, 0.99 * model.total_capacity)
        solution = solve_closed_form(model, list(range(n)), load)
        # (1) throughput constraint.
        assert solution.total_load == pytest.approx(load, rel=1e-9)
        # (2) non-negativity and capacity.
        assert np.all(solution.loads >= -1e-9)
        assert np.all(
            solution.loads <= np.asarray(model.capacities) + 1e-9
        )
        # (3) temperature constraint under the model.
        on_temps = solution.predicted_t_cpu[list(solution.on_ids)]
        assert np.all(on_temps <= model.t_max + 1e-6)
        # (4) supply temperature within the actuator band.
        assert (
            model.cooler.t_ac_min - 1e-9
            <= solution.t_ac
            <= model.cooler.t_ac_max + 1e-9
        )

    @settings(deadline=None, max_examples=30)
    @given(st.floats(5.0, 155.0))
    def test_active_machines_share_one_temperature(self, load):
        model = make_system_model(n=4)
        solution = solve_closed_form(model, [0, 1, 2, 3], load)
        active_temps = [
            solution.predicted_t_cpu[i]
            for i in solution.active_ids
            if solution.loads[i] > 1e-9
            and solution.loads[i] < model.capacities[i] - 1e-9
        ]
        if len(active_temps) >= 2:
            assert np.ptp(active_temps) < 1e-6
