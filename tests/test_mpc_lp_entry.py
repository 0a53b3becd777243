"""The MPC horizon LP's solver entries (``repro.control.mpc``).

The prepared HiGHS entry must return exactly what
``scipy.optimize.linprog(method="highs")`` returns, bit for bit, on
every LP the seeded campaigns pose, and accept a solution by the same
rule; anything it does not accept goes to the coordinate sweep.  The
entry is chosen once at import, so the fallbacks are exercised by
reloading the module with the private HiGHS binding (and then scipy)
hidden from the import system.
"""

import importlib
import json
import sys
import types

import numpy as np
import pytest

from repro.control import mpc as mpc_module
from repro.control.campaign import run_mpc_campaign
from repro.control.mpc import MPCController
from repro.control.plant import LinearizedPlant
from repro.experiments.common import default_context

scipy_optimize = pytest.importorskip("scipy.optimize")

SEED = 2012
CORE = "scipy.optimize._highspy._core"

try:
    highs_core = importlib.import_module(CORE)
except ImportError:  # a scipy that moved its private binding
    highs_core = None
needs_core = pytest.mark.skipif(
    highs_core is None, reason="scipy has no private HiGHS binding"
)


def _linprog(cost, rows, gaps, lo, hi):
    """``(success, x)`` of scipy's public ``linprog`` on one horizon LP."""
    some = len(rows) > 0
    solved = scipy_optimize.linprog(
        cost, A_ub=rows if some else None, b_ub=gaps if some else None,
        bounds=[(lo, hi)] * len(cost), method="highs",
    )
    return bool(solved.success), solved.x


@pytest.fixture(scope="module")
def recorded_lps():
    """Every ``(cost, rows, gaps, lo, hi)`` ``_solve_lp`` sees in the
    seed-2012 n=6 quick, n=6 full and n=20 full MPC campaigns."""
    lps = []
    solve = MPCController._solve_lp

    def recording(self, cost, rows, gaps, lo, hi):
        lps.append((cost.copy(), rows.copy(), gaps.copy(), lo, hi))
        return solve(self, cost, rows, gaps, lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MPCController, "_solve_lp", recording)
        for n, quick in ((6, True), (6, False), (20, False)):
            run_mpc_campaign(seed=SEED, n_machines=n, quick=quick)
    return lps


class TestPreparedEntry:
    @needs_core
    def test_highs_is_chosen_when_the_binding_is_present(self):
        assert mpc_module.LP_ENTRY == "highs"
        assert mpc_module._lp_entry.__name__ == "highs"

    def test_every_campaign_lp_matches_linprog_bit_for_bit(
        self, recorded_lps
    ):
        assert len(recorded_lps) > 600
        solved = 0
        for cost, rows, gaps, lo, hi in recorded_lps:
            success, x = _linprog(cost, rows, gaps, lo, hi)
            u = mpc_module._lp_entry(cost, rows, gaps, lo, hi)
            assert (u is not None) == success
            if success:
                solved += 1
                assert u.tobytes() == np.asarray(x, dtype=float).tobytes()
        assert solved > 0

    def test_empty_rows_are_accepted_without_a_ub(self):
        cost = np.full(4, -3.5)
        rows, gaps = np.zeros((0, 4)), np.zeros(0)
        success, x = _linprog(cost, rows, gaps, 285.0, 300.0)
        u = mpc_module._lp_entry(cost, rows, gaps, 285.0, 300.0)
        assert success and u is not None
        assert u.tobytes() == x.tobytes()
        assert np.all(u == 300.0)

    def test_explicit_zeros_are_dropped_like_csc(self):
        rows = np.array([[0.0, 1.0, 0.0], [0.5, -0.0, 2.0], [0.0, 0.0, 0.0]])
        gaps = np.array([1.0, 3.0, 0.0])
        cost = np.array([-1.0, -2.0, -0.5])
        success, x = _linprog(cost, rows, gaps, 0.0, 4.0)
        u = mpc_module._lp_entry(cost, rows, gaps, 0.0, 4.0)
        assert success and u.tobytes() == x.tobytes()

    @pytest.mark.parametrize("where", ["rows", "gaps", "cost"])
    def test_non_finite_input_is_refused_like_linprog(self, where):
        data = {
            "cost": np.array([-1.0, -1.0]),
            "rows": np.array([[1.0, 0.0], [0.0, 1.0]]),
            "gaps": np.array([2.0, 3.0]),
        }
        data[where][0] = np.nan
        with pytest.raises(ValueError):
            scipy_optimize.linprog(
                data["cost"], A_ub=data["rows"], b_ub=data["gaps"],
                bounds=[(0.0, 5.0)] * 2, method="highs",
            )
        assert mpc_module._lp_entry(
            data["cost"], data["rows"], data["gaps"], 0.0, 5.0
        ) is None


def _crafted_solver(core, *, status=None, x=None, row_value=None,
                    objective=0.0, model_error=False):
    """A stand-in for HiGHS' solver class that reports a fixed result."""

    class Crafted:
        def passOptions(self, options):
            return core.HighsStatus.kOk

        def passModel(self, lp):
            self.lp = lp
            if model_error:
                return core.HighsStatus.kError
            return core.HighsStatus.kOk

        def run(self):
            return core.HighsStatus.kOk

        def getModelStatus(self):
            return (
                core.HighsModelStatus.kOptimal if status is None else status
            )

        def getSolution(self):
            return types.SimpleNamespace(col_value=x, row_value=row_value)

        def getInfo(self):
            return types.SimpleNamespace(objective_function_value=objective)

    return Crafted


@needs_core
class TestAcceptanceRule:
    """Crafted HiGHS results: ``linprog``'s ``_check_result`` decides,
    and whatever it refuses goes to the coordinate sweep."""

    COST = np.array([-1.0, -1.0])
    ROWS = np.array([[1.0, 0.0], [0.0, 1.0]])
    GAPS = np.array([290.0, 295.0])
    LO, HI = 280.0, 300.0
    TOL = np.sqrt(1e-9) * 10

    def _entry(self, monkeypatch, **result):
        crafted = _crafted_solver(highs_core, **result)
        monkeypatch.setattr(highs_core, "_Highs", crafted)
        entry = mpc_module._choose_lp_entry()
        assert entry.__name__ == "highs"
        return entry

    #: What the stand-in sweep returns for a trajectory.
    SWEPT = "swept trajectory"

    def _routed(self, monkeypatch, entry):
        """What ``_solve_lp`` returns (``(trajectory, solver)``) with
        ``entry`` installed, and whether it took the sweep."""
        ctx = default_context(seed=SEED, n_machines=6)
        plant = LinearizedPlant.from_testbed(ctx.testbed, dt=60.0)
        controller = MPCController(ctx.optimizer, plant, horizon=2)
        swept = []
        controller._solve_sweep = (
            lambda *args: swept.append(args) or self.SWEPT
        )
        monkeypatch.setattr(mpc_module, "_lp_entry", entry)
        result = controller._solve_lp(
            self.COST, self.ROWS, self.GAPS, self.LO, self.HI
        )
        return result, bool(swept)

    def test_accepts_an_optimum_within_tolerance(self, monkeypatch):
        x = [290.0, 295.0 + 0.5 * self.TOL]
        entry = self._entry(
            monkeypatch, x=x, row_value=[290.0, 295.0 + 0.5 * self.TOL]
        )
        (u, solver), swept = self._routed(monkeypatch, entry)
        assert not swept and solver == "linprog"
        assert u.tobytes() == np.array(x).tobytes()

    def test_slack_below_tolerance_goes_to_the_sweep(self, monkeypatch):
        entry = self._entry(
            monkeypatch, x=[290.0, 295.0],
            row_value=[290.0, 295.0 + 2.0 * self.TOL],
        )
        assert entry(self.COST, self.ROWS, self.GAPS, self.LO, self.HI) is None
        assert self._routed(monkeypatch, entry) == ((self.SWEPT, "sweep"), True)

    def test_nan_in_x_goes_to_the_sweep(self, monkeypatch):
        entry = self._entry(
            monkeypatch, x=[np.nan, 295.0], row_value=[290.0, 295.0]
        )
        assert entry(self.COST, self.ROWS, self.GAPS, self.LO, self.HI) is None
        assert self._routed(monkeypatch, entry) == ((self.SWEPT, "sweep"), True)

    @pytest.mark.parametrize(
        "result",
        [
            {"x": [280.0 - 2.0 * TOL, 290.0], "row_value": [280.0, 290.0]},
            {"x": [290.0, 300.0 + 2.0 * TOL], "row_value": [290.0, 290.0]},
            {"x": [290.0, 295.0], "row_value": [290.0, np.nan]},
            {"x": [290.0, 295.0], "row_value": [290.0, 295.0],
             "objective": np.nan},
            {"x": [290.0, 295.0], "row_value": [290.0, 295.0],
             "model_error": True},
        ],
        ids=["below-lo", "above-hi", "nan-slack", "nan-objective",
             "model-error"],
    )
    def test_other_refusals_go_to_the_sweep(self, monkeypatch, result):
        entry = self._entry(monkeypatch, **result)
        assert self._routed(monkeypatch, entry) == ((self.SWEPT, "sweep"), True)

    def test_non_optimal_status_goes_to_the_sweep(self, monkeypatch):
        entry = self._entry(
            monkeypatch, status=highs_core.HighsModelStatus.kInfeasible,
            x=[290.0, 295.0], row_value=[290.0, 295.0],
        )
        assert self._routed(monkeypatch, entry) == ((self.SWEPT, "sweep"), True)

    def test_a_raising_entry_goes_to_the_sweep(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("solver crashed")

        assert self._routed(monkeypatch, broken) == ((self.SWEPT, "sweep"), True)


@pytest.fixture
def reload_mpc(monkeypatch):
    """Reload ``repro.control.mpc`` with the named modules hidden.

    The module's namespace is restored afterwards, so classes imported
    elsewhere before the reload stay the ones every other test uses.
    """
    saved = dict(mpc_module.__dict__)

    def reload(*hidden):
        for name in hidden:
            monkeypatch.setitem(sys.modules, name, None)
        return importlib.reload(mpc_module)

    yield reload
    mpc_module.__dict__.clear()
    mpc_module.__dict__.update(saved)


def _quick_campaign():
    _, doc = run_mpc_campaign(
        seed=SEED, n_machines=6, quick=True,
        context=default_context(seed=SEED, n_machines=6),
    )
    return json.dumps(doc, sort_keys=True)


class TestFallbacks:
    def test_missing_binding_falls_back_to_linprog(
        self, reload_mpc, monkeypatch
    ):
        prepared = _quick_campaign()
        calls = []
        linprog = scipy_optimize.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy_optimize, "linprog", counted)
        module = reload_mpc(CORE)
        assert module.LP_ENTRY == "linprog"
        assert module._lp_entry.__name__ == "linprog"
        assert _quick_campaign() == prepared
        assert calls

    @needs_core
    def test_missing_attribute_falls_back_to_linprog(
        self, reload_mpc, monkeypatch
    ):
        monkeypatch.delattr(highs_core, "HighsOptions")
        assert reload_mpc().LP_ENTRY == "linprog"

    def test_without_scipy_the_sweep_solves_every_horizon(self, reload_mpc):
        module = reload_mpc("scipy", "scipy.optimize", CORE)
        assert module.LP_ENTRY == "sweep"
        assert module._lp_entry is None
        ctx = default_context(seed=SEED, n_machines=6)
        plant = LinearizedPlant.from_testbed(ctx.testbed, dt=60.0)
        capacity = ctx.testbed.total_capacity
        cooler = ctx.optimizer.model.cooler
        controller = module.MPCController(
            ctx.optimizer, plant,
            forecast=lambda t: capacity * (0.3 + 0.5 * (t >= 240.0)),
        )
        swept = []
        sweep = controller._solve_sweep

        def checked(rows, gaps, lo, hi):
            u = sweep(rows, gaps, lo, hi)
            swept.append(u)
            if u is not None:
                assert np.all(rows @ u <= gaps + 1e-6)
                assert np.all((u >= lo) & (u <= hi))
                assert (lo, hi) == (cooler.t_ac_min, cooler.t_ac_max)
            return u

        controller._solve_sweep = checked
        n = plant.n
        solvers = []
        for step in range(8):
            time = 60.0 * step
            controller.observe_thermal_state(
                time, np.full(n, 318.0 + step), np.full(n, 310.0), 299.0
            )
            solves = controller.horizon_solves
            controller.observe(time, capacity * 0.3)
            if controller.horizon_solves > solves:
                solvers.append(controller.last_horizon.solver)
        assert swept and any(u is not None for u in swept)
        assert controller.horizon_solves >= 1
        assert controller.last_horizon is not None
        assert set(solvers) == {"sweep"}
