"""The refined query against the exhaustive reference.

Both index classes answer :meth:`query_refined` and :meth:`query_many`
through one per-cardinality sweep
(:class:`~repro.core.consolidation.RatioSweep`).  These tests pin its
answers to :func:`~repro.core.select.brute_force_subset` (or, past 12
machines, the exact per-``k`` scan :func:`~repro.core.select.optimal_subset`)
on equal Eq. 23 cost:

- randomized instances with the optimizer's real supply band and
  capacities, including loads whose optimal ratio saturates at
  ``t_max``, for the monolithic index and the pod-sharded one at one to
  three pods;
- the edge rules: the band-clamped fallback, the ``1e-9`` capacity
  tolerance, the ``1e-12`` band-edge tolerance, first-kept on near-tie
  costs and the inverted band;
- the serving benchmark's 48 load levels, where the monolithic and the
  pod-sharded optimizer must cost the same as the exact-scan reference
  (:class:`tests.oracles.ExactSelectionOptimizer`);
- the monolithic index's top-``k`` sums, read off its order rows'
  prefix sums: every row orders ``x(t)`` on its interval, and the
  answers equal those of the per-iterate partition
  (:class:`tests.oracles.PartitionConsolidationIndex`);
- the certified bisection over sizes, against the walk over every size
  (:class:`tests.oracles.LinearWalkConsolidationIndex`, whose ON sets
  also come from the full merge, and
  :class:`tests.oracles.LinearWalkPodShardedIndex`): the same ON sets
  and errors on the random sweeps, the serve levels, heterogeneous
  capacities (where the champion at the first saturated size can lack
  the capacity) and near ties within ``_COST_TOL``, and far fewer
  fixpoints.

Capacities in the comparisons with brute force and the exact scan are
uniform per instance, as the fitted models' are:
with heterogeneous capacities the sweep skips a size whose champion
lacks capacity, a bounded approximation pinned in
``tests/test_consolidation_scale.py`` and ``tests/test_sharding.py``.
"""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.core import consolidation
from repro.core.consolidation import ConsolidationIndex
from repro.core.optimizer import JointOptimizer
from repro.core.select import brute_force_subset, optimal_subset, ratio
from repro.core.sharding import PodShardedIndex, default_pod_count
from repro.errors import ConfigurationError, InfeasibleError
from repro.obs import MetricsRegistry
from repro.serving import AllocationServer
from repro.testbed.synthetic import make_system_model
from tests.oracles import (
    ExactSelectionOptimizer,
    LinearWalkConsolidationIndex,
    LinearWalkPodShardedIndex,
    PartitionConsolidationIndex,
)

#: Largest instance the exhaustive reference enumerates.
BRUTE_MAX = 12


def _heterogeneous(n, seed, capacities, bounds):
    rng = np.random.default_rng(seed)
    a = rng.uniform(50.0, 400.0, n)
    b = rng.uniform(0.5, 5.0, n)
    b[: max(2, n // 4)] = 1.5  # parallel particles never cross
    spec = {
        "pairs": [(float(x), float(y)) for x, y in zip(a, b)],
        "w2": float(rng.uniform(5.0, 60.0)),
        "rho": float(rng.uniform(50.0, 500.0)),
    }
    if capacities:
        spec["capacities"] = [float(rng.uniform(40.0, 90.0))] * n
    if bounds:
        spec["t_min"], spec["t_max"] = 20.0, 45.0
    return spec


def _clone_block(capacities, bounds):
    # 100 parallel clones and one fast crosser: the status table holds
    # ~100-row runs of duplicate subsets, and every size ties its
    # neighbours to within 1e-9 of coordinate.
    spec = {
        "pairs": [(50.0 + i * 1e-9, 1.0) for i in range(100)]
        + [(200.0, 5.0)],
        "w2": 1.0,
        "rho": 1.0,
    }
    if capacities:
        spec["capacities"] = [0.62] * 101
    if bounds:
        spec["t_min"], spec["t_max"] = 10.0, 45.0
    return spec


def _real_spec(n, seed):
    """The optimizer's own index parameters for a randomized
    ``make_system_model``, with the machines' ``(a, b)`` jittered so the
    particles cross in a seeded, non-monotone pattern.  The band and the
    capacities stay the optimizer's."""
    rng = np.random.default_rng(seed)
    model = make_system_model(
        n=n,
        alpha_spread=float(rng.uniform(0.1, 0.6)),
        capacity=float(rng.uniform(20.0, 60.0)),
    )
    optimizer = JointOptimizer(model)
    w2, rho = optimizer._cost_coefficients()
    t_min, t_max = optimizer._t_bounds()
    jitter = rng.uniform(0.85, 1.15, (n, 2))
    return {
        "pairs": [(a * ja, b * jb)
                  for (a, b), (ja, jb) in zip(model.ab_pairs(), jitter)],
        "w2": w2,
        "rho": rho,
        "t_min": t_min,
        "t_max": t_max,
        "capacities": list(model.capacities),
    }


def _reference(spec, load, **override):
    """``(subset, Eq. 23 power)`` of the exhaustive optimum, or of the
    exact per-``k`` scan past :data:`BRUTE_MAX` machines.  Without a
    band floor the candidates are the ratios ``t >= 0``, as in the
    index's tables."""
    s = {"t_min": 0.0, **spec, **override}
    if s["t_min"] is None:
        s["t_min"] = 0.0
    n = len(s["pairs"])
    solver = brute_force_subset if n <= BRUTE_MAX else optimal_subset
    best, _ = solver(
        s["pairs"], load, w2=s["w2"], rho=s["rho"], theta=0.0,
        t_min=s["t_min"], t_max=s.get("t_max"),
        capacities=s.get("capacities"),
    )
    return best, _power(s, best, load)


def _power(spec, subset, load):
    t = ratio(spec["pairs"], subset, load)
    if spec.get("t_max") is not None:
        t = min(t, spec["t_max"])
    return len(subset) * spec["w2"] - spec["rho"] * t


def _assert_matches_reference(index, spec, load):
    """``index.query_refined(load)`` costs what the reference's optimum
    costs; where no candidate is in band, it is the band-clamped
    fallback: the fewest machines that carry the load at some ratio
    ``t >= 0`` (the reference with the band collapsed onto ``t = 0``
    and one watt per machine)."""
    try:
        _, power = _reference(spec, load)
    except InfeasibleError:
        try:
            fallback, _ = _reference(
                spec, load, w2=1.0, rho=1.0, t_min=0.0, t_max=0.0
            )
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                index.query_refined(load)
            return
        chosen = index.query_refined(load)
        assert len(chosen) == len(fallback), load
    else:
        chosen = index.query_refined(load)
        assert _power(spec, chosen, load) == pytest.approx(
            power, rel=1e-12, abs=1e-9
        ), load
    capacities = spec.get("capacities")
    if capacities is not None:
        assert sum(capacities[i] for i in chosen) + 1e-9 >= load


def _loads(spec, count, seed):
    """Loads from nearly idle (ratios far above any band) to past the
    cluster's reach, half of them at high utilization, where the real
    band's optimum leaves ``t_max``."""
    rng = np.random.default_rng(seed)
    top = sum(a for a, _ in spec["pairs"])
    if spec.get("capacities") is not None:
        top = min(top, sum(spec["capacities"]))
    high = count // 2
    return (rng.uniform(0.01 * top, 1.05 * top, count - high).tolist()
            + rng.uniform(0.6 * top, top, high).tolist())


def _assert_all_match(index, spec, loads):
    for load in loads:
        _assert_matches_reference(index, spec, load)
    index._memo.clear()
    batch = index.query_many(loads, skip_infeasible=True)
    index._memo.clear()
    for load, answer in zip(loads, batch):
        try:
            assert answer == index.query_refined(load)
        except InfeasibleError:
            assert answer is None


CASES = [(c, b) for c in (True, False) for b in (True, False)]


class TestScanEquivalence:
    @pytest.mark.parametrize("capacities,bounds", CASES)
    @pytest.mark.parametrize("n,seed", [(6, 0), (13, 7), (24, 2012)])
    def test_heterogeneous(self, n, seed, capacities, bounds):
        spec = _heterogeneous(n, seed, capacities, bounds)
        _assert_all_match(
            ConsolidationIndex(**spec), spec, _loads(spec, 10, seed)
        )

    @pytest.mark.parametrize("capacities,bounds", CASES)
    def test_clone_block(self, capacities, bounds):
        spec = _clone_block(capacities, bounds)
        loads = [0.5, 40.0, 55.0, 120.0, 300.0, 5000.0]
        _assert_all_match(ConsolidationIndex(**spec), spec, loads)

    @pytest.mark.parametrize("band", [{"t_max": 1.0}, {"t_min": 1e6}],
                             ids=["t_max-pinned", "clamped"])
    def test_near_tie_costs_keep_the_first(self, band):
        # With every ratio pinned to one band edge, a candidate's cost
        # is k * w2 plus a constant, and w2 = 1e-13 puts every pair of
        # costs within the 1e-12 tolerance: the sweep keeps the first,
        # smallest size, which is the one the reference picks once a
        # machine costs a whole watt.
        spec = {**_heterogeneous(9, 11, False, False), "w2": 1e-13, **band}
        index = ConsolidationIndex(**spec)
        for load in _loads(spec, 10, 1):
            try:
                expected, _ = _reference(spec, load, w2=1.0)
            except InfeasibleError:
                _assert_matches_reference(index, spec, load)
                continue
            assert len(index.query_refined(load)) == len(expected)
            _assert_matches_reference(index, spec, load)

    @pytest.mark.parametrize("pods", [None, 1, 2])
    def test_exact_tie_keeps_the_smaller_size(self, pods):
        # Five clones at load 12: two machines (t* = 4) and three
        # (t* = 6) cost exactly 0 W with w2 = 2 rho, and the bound does
        # not prune the third.  The sweep keeps the first, as brute
        # force's lexicographic tie rule does.
        spec = {"pairs": [(10.0, 1.0)] * 5, "w2": 2.0, "rho": 1.0,
                "t_min": 0.0, "t_max": 100.0}
        index = (ConsolidationIndex(**spec) if pods is None
                 else PodShardedIndex(pods=pods, max_workers=1, **spec))
        best, power = _reference(spec, 12.0)
        assert power == 0.0 and len(best) == 2
        assert index.query_refined(12.0) == best

    def test_capacity_tolerance_matches_brute_force(self):
        # At low load every size saturates at t_max, so the fewest
        # machines with the capacity win: k machines while the load is
        # within 1e-9 of their capacity, k + 1 just beyond it.
        spec = _real_spec(8, 9)
        cap = spec["capacities"][0]
        index = ConsolidationIndex(**spec)
        for k in (2, 3):
            for excess, size in ((5e-10, k), (2e-9, k + 1)):
                load = k * cap + excess
                assert len(_reference(spec, load)[0]) == size
                assert len(index.query_refined(load)) == size
                _assert_matches_reference(index, spec, load)

    def test_band_edge_tolerance_matches_brute_force(self):
        # t_min a hair above the optimum's own ratio: within the 1e-12
        # band tolerance it stays a candidate, beyond it it does not.
        spec = _real_spec(8, 4)
        spec["t_max"] = 1e4  # keep the optimum's ratio unclamped
        for load in _loads(spec, 6, 2)[:4]:
            try:
                best, _ = _reference(spec, load)
            except InfeasibleError:
                continue
            t = ratio(spec["pairs"], best, load)
            for delta in (5e-13, 2e-12):
                edged = {**spec, "t_min": t + delta}
                _assert_matches_reference(
                    ConsolidationIndex(**edged), edged, load
                )

    def test_band_clamped_fallback_matches_brute_force(self):
        # A band floor above every subset's ratio: no candidate is in
        # band, and the fallback takes the fewest machines that carry
        # the load (cost grows with k at the clamped ratio).
        spec = {**_real_spec(7, 3), "t_min": 400.0, "t_max": 500.0}
        index = ConsolidationIndex(**spec)
        for load in _loads(spec, 8, 6):
            with pytest.raises(InfeasibleError):
                _reference(spec, load)
            _assert_matches_reference(index, spec, load)

    def test_inverted_band_matches_brute_force(self):
        # t_min > t_max: in-band candidates all price at t_max, so the
        # fewest in-band machines win; below the band the clamp sits at
        # min(t_min, t_max) = t_max.
        spec = _real_spec(8, 5)
        spec["t_min"], spec["t_max"] = spec["t_max"] + 5.0, spec["t_min"]
        index = ConsolidationIndex(**spec)
        _assert_all_match(index, spec, _loads(spec, 12, 8))


class TestRealBand:
    @pytest.mark.parametrize("seed", range(6))
    def test_monolithic_matches_brute_force(self, seed):
        n = int(np.random.default_rng(seed).integers(4, BRUTE_MAX + 1))
        spec = _real_spec(n, seed)
        loads = _loads(spec, 8, seed)
        _assert_all_match(ConsolidationIndex(**spec), spec, loads)

    @pytest.mark.parametrize("pods", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_sharded_matches_brute_force(self, seed, pods):
        spec = _real_spec(9, 100 + seed)
        index = PodShardedIndex(pods=pods, max_workers=1, **spec)
        _assert_all_match(index, spec, _loads(spec, 8, seed))

    def test_loads_saturate_at_t_max(self):
        # At low load the optimal subset's own ratio exceeds t_max, and
        # the fewest machines that reach it win.
        spec = _real_spec(10, 1)
        load = 0.1 * sum(spec["capacities"])
        best, _ = _reference(spec, load)
        assert ratio(spec["pairs"], best, load) > spec["t_max"]
        _assert_matches_reference(ConsolidationIndex(**spec), spec, load)


class TestServeLevels:
    def test_index_sharded_and_exact_cost_the_same(self):
        # The serving benchmark's 48 levels (10-80% of capacity).
        model = make_system_model(n=100)
        capacity = model.total_capacity
        levels = np.linspace(0.1 * capacity, 0.8 * capacity, 48).tolist()
        powers = {
            optimizer.method: [
                result.predicted_total_power
                for result in optimizer.solve_many(levels)
            ]
            for optimizer in (
                JointOptimizer(model),
                JointOptimizer(model, pods=default_pod_count(100)),
                ExactSelectionOptimizer(model),
            )
        }
        assert powers["index"] == pytest.approx(powers["exact"], abs=1e-6)
        assert powers["sharded"] == pytest.approx(powers["exact"], abs=1e-6)


def _serve_spec(n):
    """The optimizer's own index parameters for ``make_system_model(n)``
    (no jitter: the serving benchmark's index)."""
    model = make_system_model(n=n)
    optimizer = JointOptimizer(model)
    w2, rho = optimizer._cost_coefficients()
    t_min, t_max = optimizer._t_bounds()
    return {
        "pairs": model.ab_pairs(), "w2": w2, "rho": rho,
        "t_min": t_min, "t_max": t_max,
        "capacities": list(model.capacities),
    }


def _random_spec(rng, band, capacities):
    """A seeded random instance: a supply band (``"wide"``, ``"real"``
    -like, ``"negative"`` floor, or ``None``) and uniform,
    heterogeneous or no capacities."""
    n = int(rng.integers(3, 70))
    a = rng.uniform(20.0, 400.0, n)
    b = rng.uniform(0.3, 6.0, n)
    spec = {
        "pairs": list(zip(a.tolist(), b.tolist())),
        "w2": float(rng.uniform(1.0, 80.0)),
        "rho": float(rng.uniform(10.0, 500.0)),
    }
    if band == "wide":
        spec["t_min"], spec["t_max"] = 0.0, float(rng.uniform(100.0, 400.0))
    elif band == "real":
        t_min = float(rng.uniform(0.0, 30.0))
        spec["t_min"] = t_min
        spec["t_max"] = t_min + float(rng.uniform(0.0, 40.0))
    elif band == "negative":
        spec["t_min"] = float(rng.uniform(-20.0, 0.0))
        spec["t_max"] = float(rng.uniform(0.0, 100.0))
    if capacities == "uniform":
        spec["capacities"] = [float(rng.uniform(20.0, 120.0))] * n
    elif capacities == "heterogeneous":
        spec["capacities"] = rng.uniform(20.0, 120.0, n).tolist()
    return spec


def _outcomes(index, loads):
    """Per load: the ON set ``query_many`` serves, or the type and
    message of the error it raises for that load alone."""
    served = index.query_many(loads, skip_infeasible=True)
    outcomes = []
    for load, on_set in zip(loads, served):
        if on_set is None:
            with pytest.raises(InfeasibleError) as raised:
                index.query_many([load])
            on_set = (type(raised.value), str(raised.value))
        outcomes.append(on_set)
    return outcomes


def _row_order_holds(index, t, row):
    """Row ``row`` lists ``x(t)`` non-increasing, to within the
    rounding of ``a - t*b`` (a few ulps of ``|a| + |t b|``)."""
    order = index._orders_mat[row]
    a, b = index._a[order], index._b[order]
    x = a - t * b
    slack = 4.0 * np.finfo(float).eps * (np.abs(a) + np.abs(t * b))
    return bool(np.all(x[1:] <= x[:-1] + np.maximum(slack[1:], slack[:-1])))


class TestRowPrefixSums:
    """The monolithic sweep reads each top-``k`` off the order row valid
    at the ratio: the rows must order the coordinates on their
    intervals, and the answers must be the partition's."""

    @pytest.mark.parametrize("spec", [
        _clone_block(True, True),
        _heterogeneous(24, 2012, True, True),
        _heterogeneous(13, 7, False, False),
        {**_heterogeneous(9, 11, False, False), "w2": 1e-13},
        _serve_spec(100),
    ], ids=["clone-block", "heterogeneous", "unbanded", "near-ties",
            "system-100"])
    def test_every_row_orders_its_interval(self, spec):
        index = ConsolidationIndex(**spec)
        times = index._times
        rng = np.random.default_rng(len(times))
        for row, start in enumerate(times):
            end = (times[row + 1] if row + 1 < len(times)
                   else start + max(1.0, start))
            for t in (start, end, *rng.uniform(start, end, 4)):
                assert _row_order_holds(index, t, row), (row, t)

    @pytest.mark.parametrize("n", [100, 500])
    def test_serve_levels_match_the_partition(self, n):
        spec = _serve_spec(n)
        capacity = sum(spec["capacities"])
        loads = np.linspace(0.1 * capacity, 0.8 * capacity, 48).tolist()
        assert _outcomes(ConsolidationIndex(**spec), loads) == _outcomes(
            PartitionConsolidationIndex(**spec), loads
        )

    @pytest.mark.parametrize(
        "capacities", ["uniform", "heterogeneous", None]
    )
    @pytest.mark.parametrize("band", ["wide", "real", "negative", None])
    def test_random_instances_match_the_partition(self, band, capacities):
        rng = np.random.default_rng(
            [("wide", "real", "negative", None).index(band),
             ("uniform", "heterogeneous", None).index(capacities)]
        )
        for _ in range(4):
            spec = _random_spec(rng, band, capacities)
            top = sum(a for a, _ in spec["pairs"])
            if "capacities" in spec:
                top = min(top, sum(spec["capacities"]))
            # Half the loads near the top, where a negative band floor
            # admits sizes whose ratio lies below the tables' t = 0.
            loads = (rng.uniform(0.0, 1.1 * top, 15).tolist()
                     + rng.uniform(0.7 * top, top, 15).tolist())
            assert _outcomes(ConsolidationIndex(**spec), loads) == (
                _outcomes(PartitionConsolidationIndex(**spec), loads)
            )

    def test_negative_ratios_read_below_the_tables(self):
        # The particles cross at t = -1, before the tables' first row:
        # at t* = -3 the top one is machine 1, while row 0 (valid from
        # t = 0) lists machine 0 first.  Read off row 0, size 1 would
        # price at t = -5 and lose to both machines (10 - 4/3 W).
        spec = {"pairs": [(10.0, 1.0), (9.0, 2.0)], "w2": 5.0, "rho": 1.0,
                "t_min": -10.0, "t_max": 10.0}
        index = ConsolidationIndex(**spec)
        assert index._times[0] == 0.0
        best, power = brute_force_subset(
            spec["pairs"], 15.0, w2=5.0, rho=1.0, theta=0.0,
            t_min=-10.0, t_max=10.0,
        )
        assert (best, power) == ([1], 8.0)
        assert index.query_refined(15.0) == best
        assert PartitionConsolidationIndex(**spec).query_refined(15.0) == best

    def test_reloaded_index_matches_the_partition(self, tmp_path):
        spec = _serve_spec(100)
        path = ConsolidationIndex(**spec).save(tmp_path / "index.npz")
        capacity = sum(spec["capacities"])
        loads = np.random.default_rng(5).uniform(
            0.0, 1.05 * capacity, 60
        ).tolist()
        assert _outcomes(ConsolidationIndex.load(path), loads) == _outcomes(
            PartitionConsolidationIndex(**spec), loads
        )


def _walk_pairs(spec, pods=None):
    """``(sweep, walk)`` indexes over ``spec``: monolithic, or sharded
    into ``pods`` pods."""
    if pods is None:
        return (ConsolidationIndex(**spec),
                LinearWalkConsolidationIndex(**spec))
    return (PodShardedIndex(pods=pods, max_workers=1, **spec),
            LinearWalkPodShardedIndex(pods=pods, max_workers=1, **spec))


def _assert_walk_outcomes(spec, loads, pods=None):
    sweep, walk = _walk_pairs(spec, pods)
    assert _outcomes(sweep, loads) == _outcomes(walk, loads)


def _first_saturated(spec, load):
    """The smallest size, at least the capacity bound, whose top ``k``
    at ``t_max`` carries ``load`` (on the rising part of the top-``k``
    sums), or ``None``."""
    a, b = np.asarray(spec["pairs"]).T
    x = np.sort(a - spec["t_max"] * b)[::-1]
    saturated = np.cumsum(x[x > 0.0]) >= load
    k_cap = int(np.searchsorted(
        np.cumsum(np.sort(spec["capacities"])[::-1]), load - 1e-9
    )) + 1
    sizes = np.flatnonzero(saturated) + 1
    sizes = sizes[sizes >= k_cap]
    return int(sizes[0]) if sizes.size else None


def _capacity_spec(seed):
    """``make_system_model(12)``'s band and coefficients, jittered, with
    capacities drawn per machine from 5 to 80."""
    rng = np.random.default_rng(seed)
    model = make_system_model(n=12, alpha_spread=float(rng.uniform(0.1, 0.6)))
    optimizer = JointOptimizer(model)
    w2, rho = optimizer._cost_coefficients()
    t_min, t_max = optimizer._t_bounds()
    capacities = rng.uniform(5.0, 80.0, 12).tolist()
    jitter = rng.uniform(0.85, 1.15, (12, 2))
    return {
        "pairs": [(a * ja, b * jb)
                  for (a, b), (ja, jb) in zip(model.ab_pairs(), jitter)],
        "w2": w2, "rho": rho, "t_min": t_min, "t_max": t_max,
        "capacities": capacities,
    }


def _near_tie_spec(delta):
    """Five clones at load 2 with ``t_max = 8.5``: one machine
    (``t* = 8``) costs ``w2 - 8`` and two (``t* = 9``, saturated) cost
    ``2*w2 - 8.5``, so ``w2 = 0.5 + delta`` makes the larger size
    dearer by ``delta`` and ``w2 = 0.5 - delta`` cheaper by
    ``delta``."""
    return {"pairs": [(10.0, 1.0)] * 5, "w2": 0.5 + delta, "rho": 1.0,
            "t_min": 0.0, "t_max": 8.5}


class TestCertifiedSweep:
    """The certified bisection over sizes answers what the walk over
    every size answers, ON sets and errors, through far fewer
    fixpoints."""

    @pytest.mark.parametrize("capacities,bounds", CASES)
    @pytest.mark.parametrize("n,seed", [(6, 0), (13, 7), (24, 2012)])
    def test_scan_cases_match_the_walk(self, n, seed, capacities, bounds):
        spec = _heterogeneous(n, seed, capacities, bounds)
        loads = _loads(spec, 10, seed)
        for pods in (None, 2) if bounds else (None,):
            _assert_walk_outcomes(spec, loads, pods)

    @pytest.mark.parametrize("capacities,bounds", CASES)
    def test_clone_block_matches_the_walk(self, capacities, bounds):
        spec = _clone_block(capacities, bounds)
        loads = [0.5, 40.0, 55.0, 120.0, 300.0, 5000.0]
        for pods in (None, 3) if bounds else (None,):
            _assert_walk_outcomes(spec, loads, pods)

    @pytest.mark.parametrize(
        "capacities", ["uniform", "heterogeneous", None]
    )
    @pytest.mark.parametrize("band", ["wide", "real", "negative", None])
    def test_random_instances_match_the_walk(self, band, capacities):
        rng = np.random.default_rng(
            [7, ("wide", "real", "negative", None).index(band),
             ("uniform", "heterogeneous", None).index(capacities)]
        )
        for _ in range(4):
            spec = _random_spec(rng, band, capacities)
            top = sum(a for a, _ in spec["pairs"])
            if "capacities" in spec:
                top = min(top, sum(spec["capacities"]))
            loads = (rng.uniform(0.0, 1.1 * top, 15).tolist()
                     + rng.uniform(0.7 * top, top, 15).tolist())
            _assert_walk_outcomes(spec, loads)
            if band in ("wide", "real"):
                _assert_walk_outcomes(spec, loads, pods=2)

    @pytest.mark.parametrize("n,pods", [(100, default_pod_count(100)),
                                        (500, 10)])
    def test_serve_levels_match_the_walk(self, n, pods):
        spec = _serve_spec(n)
        capacity = sum(spec["capacities"])
        loads = np.linspace(0.1 * capacity, 0.8 * capacity, 48).tolist()
        _assert_walk_outcomes(spec, loads)
        _assert_walk_outcomes(spec, loads, pods)

    @pytest.mark.parametrize("seed", [22, 40, 140])
    def test_capacity_fallback_past_the_first_saturated_size(self, seed):
        # Capacities from 5 to 80: the champion at the first saturated
        # size often lacks the capacity, and the walk upward from it
        # finds a larger size.
        spec = _capacity_spec(seed)
        n = len(spec["pairs"])
        capacity = sum(spec["capacities"])
        loads = np.linspace(0.02 * capacity, capacity, 40).tolist()
        for pods in (None, 2):
            sweep, walk = _walk_pairs(spec, pods)
            outcomes = _outcomes(sweep, loads)
            assert outcomes == _outcomes(walk, loads)
            past = [
                load for load, on_set in zip(loads, outcomes)
                if isinstance(on_set, list)
                and len(on_set) > (_first_saturated(spec, load) or n)
            ]
            assert len(past) >= 10

    @pytest.mark.parametrize("band", ["wide", "real", None])
    def test_block_max_is_the_largest_top_k_sum(self, band):
        # Past #positive the top-k sums fall, so F_b understates a
        # block that straddles the peak.
        rng = np.random.default_rng(len(str(band)))
        for _ in range(4):
            spec = _random_spec(rng, band, None)
            index = ConsolidationIndex(**spec)
            n = len(spec["pairs"])
            ratios = [a / b for a, b in spec["pairs"]]
            for t in rng.uniform(0.0, max(ratios), 10).tolist():
                sums = [index._top_sum(t, k) for k in range(1, n + 1)]
                for a, b in ((1, n), (1, n // 2), (n // 3, n), (2, 2)):
                    assert index._block_max(t, a, b) == max(sums[a - 1:b])

    @pytest.mark.parametrize("pods", [None, 1, 2])
    @pytest.mark.parametrize("delta", [4e-13, -4e-13],
                             ids=["larger-dearer", "larger-cheaper"])
    def test_near_ties_keep_the_smaller_size(self, delta, pods):
        # The two sizes cost within _COST_TOL of each other, either
        # way round: the smaller one wins, as in the walk.
        spec = _near_tie_spec(delta)
        assert abs(delta) < consolidation._COST_TOL
        sweep, walk = _walk_pairs(spec, pods)
        assert sweep.query_refined(2.0) == walk.query_refined(2.0) == [0]

    @pytest.mark.parametrize("pods", [None, 2])
    def test_a_size_cheaper_beyond_the_tolerance_wins(self, pods):
        spec = _near_tie_spec(-4e-12)
        sweep, walk = _walk_pairs(spec, pods)
        assert sweep.query_refined(2.0) == walk.query_refined(2.0) == [0, 1]

    def test_serve_levels_take_few_fixpoints(self):
        # The walk prices every size from the smallest viable one up to
        # the t_max bound: 2,410 fixpoints on these 48 levels.
        spec = _serve_spec(500)
        capacity = sum(spec["capacities"])
        loads = np.linspace(0.1 * capacity, 0.8 * capacity, 48).tolist()
        counts = {}
        for index in (ConsolidationIndex(**spec),
                      PodShardedIndex(pods=10, max_workers=1, **spec),
                      LinearWalkConsolidationIndex(**spec)):
            registry = obs.enable(MetricsRegistry())
            try:
                index.query_many(loads)
                index.query_many(loads)  # memo hits count nothing
            finally:
                obs.disable()
            counters = registry.snapshot()["counters"]
            counts[type(index).__name__] = (
                counters[f"{index._OBS}.sweep_fixpoints"],
                counters[f"{index._OBS}.sweep_block_reads"],
            )
        for name in ("ConsolidationIndex", "PodShardedIndex"):
            fixpoints, reads = counts[name]
            assert fixpoints < 150 and reads > 0, name
        assert counts["LinearWalkConsolidationIndex"] == (2410, 0)


def _query_caches(index):
    return index._memo, index._row_cache, index._eval_cache


def _wide_band_spec():
    # Crossing particles and a band spanning every event time: a load
    # sweep lands its ratio iterates in hundreds of distinct rows.
    spec = _random_spec(np.random.default_rng(3), "wide", "uniform")
    spec["t_max"] = 1e4
    return spec


class TestLazyRows:
    """The query caches fill only as refined queries touch rows; they
    are never built up front or saved."""

    def test_not_built_at_construction_or_load(self, tmp_path):
        spec = _real_spec(8, 2)
        index = ConsolidationIndex(**spec)
        assert not any(_query_caches(index))
        assert not index._prefix_cache and index._time_list is None
        loaded = ConsolidationIndex.load(index.save(tmp_path / "i.npz"))
        assert not any(_query_caches(loaded))
        assert not loaded._prefix_cache and loaded._time_list is None
        load = 0.4 * sum(spec["capacities"])
        index.query(load)
        assert not any(_query_caches(index)) and not index._prefix_cache
        index.query_refined(load)
        assert all(_query_caches(index)) and index._prefix_cache

    def test_not_built_by_server_warm_up(self):
        server = AllocationServer(JointOptimizer(make_system_model(n=6)))

        async def scenario():
            await server.start()
            index = server.optimizer.query_index
            caches = (*_query_caches(index), index._prefix_cache)
            await server.drain()
            return caches, index._time_list

        caches, times = asyncio.run(scenario())
        assert not any(caches) and times is None

    def test_prefix_cache_stays_within_its_bound(self):
        spec = _wide_band_spec()
        index = ConsolidationIndex(**spec)
        capacity = sum(spec["capacities"])
        index.query_many(
            np.linspace(0.01 * capacity, capacity, 400).tolist(),
            skip_infeasible=True,
        )
        n = len(spec["pairs"])
        assert len(index._prefix_cache) >= 100
        assert len(index._prefix_cache) <= index._prefix_rows
        held = sum(sums.size for sums in index._prefix_cache.values())
        assert held <= consolidation._PREFIX_FLOATS
        assert index._prefix_rows * 3 * n <= consolidation._PREFIX_FLOATS

    def test_eviction_keeps_the_answers(self, monkeypatch):
        spec = _wide_band_spec()
        capacity = sum(spec["capacities"])
        loads = np.linspace(0.01 * capacity, capacity, 400).tolist()
        expected = ConsolidationIndex(**spec).query_many(
            loads, skip_infeasible=True
        )
        n = len(spec["pairs"])
        monkeypatch.setattr(consolidation, "_PREFIX_FLOATS", 8 * 3 * n)
        small = ConsolidationIndex(**spec)
        assert small._prefix_rows == 8
        assert small.query_many(loads, skip_infeasible=True) == expected
        assert len(small._prefix_cache) == 8


class TestNaNLoads:
    @pytest.fixture(params=["monolithic", "sharded"])
    def index(self, request):
        spec = _real_spec(6, 0)
        if request.param == "sharded":
            return PodShardedIndex(pods=2, max_workers=1, **spec)
        return ConsolidationIndex(**spec)

    def test_query_refined_rejects_nan(self, index):
        with pytest.raises(ConfigurationError,
                           match="total load must be a number, got nan"):
            index.query_refined(float("nan"))

    @pytest.mark.parametrize("skip_infeasible", [False, True])
    def test_query_many_rejects_nan(self, index, skip_infeasible):
        with pytest.raises(ConfigurationError,
                           match="total load must be a number, got nan"):
            index.query_many(
                [50.0, float("nan")], skip_infeasible=skip_infeasible
            )
