"""The vectorized refined Algorithm-2 scan against its loop oracle.

:meth:`ConsolidationIndex.query_refined` re-scores a bounded window of
candidate subsets in one numpy pass per load, deduplicating them by
exact subset ids over lazily built row arrays.  The per-position loop
it replaced lives on as :class:`tests.oracles.LoopConsolidationIndex`.
These tests pin the two together on answers, ``InfeasibleError``s and
the four scan counters, across heterogeneous and clone-block instances,
capacities and supply bands on and off, and several windows — including
a forced Zobrist collision — and check that the row arrays stay lazy.
"""

import asyncio
import itertools
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import consolidation
from repro.core.consolidation import (
    ConsolidationIndex,
    _first_cheapest,
    _subset_ids,
)
from repro.core.optimizer import JointOptimizer
from repro.errors import InfeasibleError
from repro.obs import MetricsRegistry
from repro.serving import AllocationServer
from repro.testbed.synthetic import make_system_model
from tests.oracles import LoopConsolidationIndex

#: The counters the refined scan reports per query.
SCAN_COUNTERS = (
    "consolidation.query_refined_rescored",
    "consolidation.query_refined_scanned",
    "consolidation.query_refined_truncated",
    "consolidation.query_band_clamped",
)

WINDOWS = (1, 3, 17, None)


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
        spec["capacities"] = [float(c) for c in rng.uniform(40.0, 90.0, n)]
    if bounds:
        spec["t_min"], spec["t_max"] = 20.0, 45.0
    return spec


def _clone_block(capacities, bounds):
    # The scan-cap instance: 100 parallel clones and one fast crosser,
    # so the status table holds ~100-row runs of duplicate subsets.
    spec = {
        "pairs": [(50.0 + i * 1e-9, 1.0) for i in range(100)]
        + [(200.0, 5.0)],
        "w2": 1.0,
        "rho": 1.0,
    }
    if capacities:
        spec["capacities"] = [0.6 + 0.01 * (i % 7) for i in range(101)]
    if bounds:
        spec["t_min"], spec["t_max"] = 10.0, 45.0
    return spec


def _oracle(index):
    """The loop oracle over ``index``'s own tables (the table build is
    pinned separately), so only the scan differs."""
    return LoopConsolidationIndex._from_tables(
        pairs=index.pairs, w2=index.w2, rho=index.rho,
        theta0=index.theta0, t_min=index.t_min, t_max=index.t_max,
        capacities=index.capacities, event_t=index._event_t,
        event_p=index._event_p, event_q=index._event_q,
        times=index._times, orders_mat=index._orders_mat,
        tab_row=index._tab_row, tab_k=index._tab_k,
        tab_lmax=index._tab_lmax,
    )


def _loads(index, count, seed):
    """Loads over the whole table — infeasible at the top end — plus
    exact table values, where the binary search ties."""
    rng = np.random.default_rng(seed)
    top = float(index._tab_lmax[-1])
    tied = rng.choice(index._tab_lmax, size=4).tolist()
    return rng.uniform(0.0, 1.05 * top, count).tolist() + tied


def _observe(call):
    """``(answer or "infeasible", scan counters)`` of one call."""
    registry = obs.enable(MetricsRegistry())
    try:
        try:
            answer = call()
        except InfeasibleError:
            answer = "infeasible"
    finally:
        obs.disable()
    counters = registry.snapshot()["counters"]
    return answer, {name: counters.get(name, 0) for name in SCAN_COUNTERS}


def _assert_scan_matches(index, oracle, loads):
    for window in WINDOWS:
        for load in loads:
            got = _observe(lambda: index.query_refined(load, window))
            want = _observe(lambda: oracle.query_refined(load, window))
            assert got == want, (load, window)


def _assert_batches_match(index, oracle, loads):
    for window in WINDOWS:
        index._memo.clear()
        oracle._memo.clear()
        got = _observe(lambda: index.query_many(
            loads, window=window, skip_infeasible=True))
        want = _observe(lambda: oracle.query_many(
            loads, window=window, skip_infeasible=True))
        assert got == want, window


CASES = list(itertools.product((True, False), (True, False)))


class TestScanEquivalence:
    @pytest.mark.parametrize("capacities,bounds", CASES)
    @pytest.mark.parametrize("n,seed", [(6, 0), (13, 7), (24, 2012)])
    def test_heterogeneous(self, n, seed, capacities, bounds):
        index = ConsolidationIndex(
            **_heterogeneous(n, seed, capacities, bounds)
        )
        oracle = _oracle(index)
        loads = _loads(index, 10, seed)
        _assert_scan_matches(index, oracle, loads)
        _assert_batches_match(index, oracle, loads)

    @pytest.mark.parametrize("capacities,bounds", CASES)
    def test_clone_block(self, capacities, bounds):
        index = ConsolidationIndex(**_clone_block(capacities, bounds))
        oracle = _oracle(index)
        loads = [0.5, 40.0, 55.0, 120.0, 300.0, 5000.0] + _loads(
            index, 4, 3
        )
        _assert_scan_matches(index, oracle, loads)
        _assert_batches_match(index, oracle, loads)

    @pytest.mark.parametrize("band", [{"t_max": 1.0}, {"t_min": 1e6}],
                             ids=["t_max-pinned", "clamped"])
    def test_near_tie_costs_keep_the_first(self, band):
        # With every ratio pinned to one band edge, a candidate's cost
        # is k * w2 plus a constant, and w2 = 1e-13 puts every pair of
        # costs within the 1e-12 tolerance: a later, marginally
        # cheaper subset must not displace the first one.
        spec = _heterogeneous(9, 11, False, False)
        spec.update(w2=1e-13, **band)
        index = ConsolidationIndex(**spec)
        _assert_scan_matches(index, _oracle(index), _loads(index, 10, 1))

    def test_scan_reaching_the_table_end_is_not_truncated(self):
        # Large a and small, well-spread b: every row's full set (one
        # subset) outweighs any smaller prefix, so the table ends in
        # one run of duplicates.  At pos = total - 8 * window the row
        # cap and the table end meet.
        rng = np.random.default_rng(5)
        pairs = [(5000.0 + float(c), 0.5 + 0.1 * i)
                 for i, c in enumerate(rng.uniform(0.0, 10.0, 16))]
        index = ConsolidationIndex(pairs, w2=2.0, rho=3.0)
        total = index.status_count
        assert len(set(index._tab_k[total - 25:].tolist())) == 1
        for window in (1, 2, 3):
            load = float(index._tab_lmax[total - 8 * window - 1])
            got = _observe(lambda: index.query_refined(load, window))
            assert got == _observe(
                lambda: _oracle(index).query_refined(load, window)
            )

    def test_capacity_tolerance_matches_the_loop(self):
        # Capacities a hair under a: at t = 0 a prefix's capacity sits
        # just below its Lmax, and a load between the two is within the
        # 1e-9 capacity tolerance.
        spec = _heterogeneous(10, 9, False, False)
        spec["capacities"] = [a - 1e-11 for a, _ in spec["pairs"]]
        index = ConsolidationIndex(**spec)
        start = np.cumsum([spec["pairs"][i][0]
                           for i in index._orders_mat[0]])
        loads = [float(v) - 5e-12 * k for k, v in enumerate(start, 1)]
        _assert_scan_matches(index, _oracle(index), loads)

    def test_band_edge_tolerance_matches_the_loop(self):
        # t_min a hair above the first candidate's own ratio: inside
        # the 1e-12 band tolerance, so it is still scored unclamped.
        spec = _heterogeneous(10, 4, False, False)
        probe = ConsolidationIndex(**spec)
        _, a_pref, b_pref, _ = probe._scan_arrays()
        n = len(probe.pairs)
        for load in _loads(probe, 6, 2)[:6]:
            pos = int(np.searchsorted(probe._tab_lmax, load, side="right"))
            if pos >= probe.status_count:
                continue
            e = int(probe._tab_row[pos]) * n + int(probe._tab_k[pos]) - 1
            t = (a_pref[e] - load) / b_pref[e]
            index = ConsolidationIndex(t_min=float(t) + 5e-13, **spec)
            _assert_scan_matches(index, _oracle(index), [load])

    def test_forced_zobrist_collisions(self, monkeypatch):
        # Constant keys make every prefix of odd length share one key
        # and every even one another: the bitset check must split them
        # all back into exact subsets.
        monkeypatch.setattr(
            consolidation, "_zobrist_keys",
            lambda n: np.full(n, 0x9E3779B97F4A7C15, dtype=np.uint64),
        )
        for spec in (
            _heterogeneous(13, 7, True, True),
            _heterogeneous(9, 1, False, False),
            _clone_block(True, False),
        ):
            index = ConsolidationIndex(**spec)
            oracle = _oracle(index)
            loads = _loads(index, 8, 5)
            _assert_scan_matches(index, oracle, loads)
            _assert_batches_match(index, oracle, loads)


def _loop_first_cheapest(power, eligible):
    best, best_power = None, float("inf")
    for i, (p, ok) in enumerate(zip(power.tolist(), eligible.tolist())):
        if ok and p < best_power - 1e-12:
            best, best_power = i, p
    return best


class TestFirstCheapest:
    def test_matches_the_running_loop(self):
        rng = np.random.default_rng(8)
        for size in (0, 1, 2, 5, 40, 300):
            for _ in range(50):
                power = 1.0 + rng.integers(-3, 4, size) * 4e-13
                power[rng.random(size) < 0.1] = np.nan
                power[rng.random(size) < 0.05] = -np.inf
                eligible = rng.random(size) < 0.8
                assert _first_cheapest(power, eligible) == (
                    _loop_first_cheapest(power, eligible)
                )


def _exact_partition(orders):
    """Reference subset ids: one per distinct prefix set, named by the
    bytes of its membership mask."""
    n = orders.shape[1]
    sizes = np.arange(1, n + 1)[:, None]
    names: dict = {}
    ids = []
    for row in orders:
        rank = np.empty(n, dtype=np.int64)
        rank[row] = np.arange(n)
        masks = np.packbits(rank[None, :] < sizes, axis=1)
        ids += [names.setdefault(mask.tobytes(), len(names))
                for mask in masks]
    return np.array(ids)


def _same_partition(ids, reference):
    pairs = set(zip(ids.tolist(), reference.tolist()))
    return len(pairs) == len(set(ids.tolist())) == len(set(reference.tolist()))


class TestSubsetIds:
    @pytest.mark.parametrize("one_row_blocks", [False, True])
    @pytest.mark.parametrize("constant_keys", [False, True])
    @pytest.mark.parametrize("spec", [
        _heterogeneous(11, 3, False, False),
        _clone_block(False, False),
        # Wider than 512 machines: two groups of eight bitset words.
        {"pairs": [(100.0 + 1e-6 * i, 1.0) for i in range(519)]
         + [(300.0, 5.0)], "w2": 1.0, "rho": 1.0},
    ], ids=["heterogeneous", "clone-block", "wide"])
    def test_ids_name_exact_subsets(
        self, spec, constant_keys, one_row_blocks, monkeypatch
    ):
        if constant_keys:
            monkeypatch.setattr(
                consolidation, "_zobrist_keys",
                lambda n: np.zeros(n, dtype=np.uint64),
            )
        if one_row_blocks:
            # Leaders and the members they confirm in different blocks.
            monkeypatch.setattr(consolidation, "_BITSET_BLOCK_WORDS", 1)
        orders = ConsolidationIndex(**spec)._orders_mat
        assert _same_partition(_subset_ids(orders), _exact_partition(orders))


class TestLazyRows:
    def test_not_built_at_construction_or_load(self, tmp_path):
        index = ConsolidationIndex(**_heterogeneous(8, 2, True, True))
        assert index._scan_rows is None
        loaded = ConsolidationIndex.load(index.save(tmp_path / "i.npz"))
        assert loaded._scan_rows is None
        index.query(float(index._tab_lmax[5]))
        assert index._scan_rows is None
        index.query_refined(float(index._tab_lmax[5]))
        assert index._scan_rows is not None

    def test_not_built_by_server_warm_up(self):
        server = AllocationServer(JointOptimizer(make_system_model(n=6)))

        async def scenario():
            await server.start()
            index = server.optimizer.query_index
            built_at_warm_up = index._scan_rows is not None
            await server.drain()
            return built_at_warm_up

        assert asyncio.run(scenario()) is False

    def test_concurrent_first_scans_build_once(self, monkeypatch):
        index = ConsolidationIndex(**_heterogeneous(12, 3, True, True))
        loads = _loads(index, 16, 4)
        expected = [_observe(lambda: _oracle(index).query_refined(load))[0]
                    for load in loads]
        builds = []
        build = consolidation._subset_ids

        def slow_build(orders):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the window for a racing second build
            return build(orders)

        monkeypatch.setattr(consolidation, "_subset_ids", slow_build)
        barrier = threading.Barrier(len(loads))
        answers = [None] * len(loads)

        def worker(i):
            barrier.wait(timeout=10)
            try:
                answers[i] = index.query_refined(loads[i])
            except InfeasibleError:
                answers[i] = "infeasible"

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(loads))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert answers == expected

    def test_prefix_sums_match_per_row_cumsum(self):
        index = ConsolidationIndex(**_heterogeneous(10, 6, True, False))
        _, a_pref, b_pref, cap_pref = index._scan_arrays()
        n = len(index.pairs)
        caps = np.asarray(index.capacities)
        for row, order in enumerate(index._orders_mat):
            span = slice(row * n, (row + 1) * n)
            assert np.array_equal(a_pref[span], np.cumsum(index._a[order]))
            assert np.array_equal(b_pref[span], np.cumsum(index._b[order]))
            assert np.array_equal(cap_pref[span], np.cumsum(caps[order]))
