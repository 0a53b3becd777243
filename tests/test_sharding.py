"""Tests for the pod-sharded consolidation index (repro.core.sharding)."""

import numpy as np
import pytest

from repro import obs
from repro.core.consolidation import ConsolidationIndex
from repro.core.optimizer import JointOptimizer
from repro.core.select import brute_force_subset
from repro.core.sharding import (
    PodShardedIndex,
    contiguous_pods,
    default_pod_count,
)
from repro.errors import ConfigurationError, InfeasibleError
from repro.obs import MetricsRegistry
from tests.conftest import make_system_model
from tests.oracles import ExactSelectionOptimizer, anneal_on_set, subset_power

W2 = 5.0
RHO = 1.0
T_MIN = 10.0
T_MAX = 30.0


@pytest.fixture
def registry():
    """Enable observability into a fresh registry; disable afterwards."""
    registry = MetricsRegistry()
    obs.enable(registry)
    yield registry
    obs.disable()


def make_pairs(rng, n):
    """Random particle pairs with everything alive inside the band."""
    a = rng.uniform(60.0, 150.0, n)
    b = rng.uniform(0.5, 3.0, n)
    return list(zip(a.tolist(), b.tolist()))


def make_sharded(pairs, pods, capacities=None, **kwargs):
    return PodShardedIndex(
        pairs, w2=W2, rho=RHO, t_min=T_MIN, t_max=T_MAX,
        capacities=capacities, pods=pods, **kwargs
    )


def make_monolithic(pairs, capacities=None):
    return ConsolidationIndex(
        pairs, w2=W2, rho=RHO, t_min=T_MIN, t_max=T_MAX,
        capacities=capacities,
    )


class TestContiguousPods:
    def test_partition_covers_everything_in_order(self):
        for n in (1, 5, 48, 97):
            for pods in (1, 2, 3, n):
                if pods > n:
                    continue
                ranges = contiguous_pods(n, pods)
                assert len(ranges) == pods
                flat = [i for ids in ranges for i in ids]
                assert flat == list(range(n))

    def test_sizes_differ_by_at_most_one(self):
        sizes = [len(ids) for ids in contiguous_pods(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            contiguous_pods(5, 0)
        with pytest.raises(ConfigurationError):
            contiguous_pods(5, 6)
        with pytest.raises(ConfigurationError):
            contiguous_pods(0, 1)

    def test_default_pod_count_targets_pod_size(self):
        assert default_pod_count(1) == 1
        assert default_pod_count(48) == 1
        assert default_pod_count(49) == 2
        assert default_pod_count(5000) >= 100


class TestSubsetPower:
    def test_matches_eq23_in_band(self):
        pairs = [(100.0, 2.0), (80.0, 1.0), (60.0, 3.0)]
        load = 120.0
        t = (180.0 - load) / 3.0  # machines 0 and 1
        expected = 2 * W2 - RHO * t
        assert subset_power(
            pairs, [0, 1], load, W2, RHO, t_min=T_MIN, t_max=T_MAX
        ) == pytest.approx(expected)

    def test_clamps_below_band_ratio_to_band_edge(self):
        pairs = [(100.0, 2.0), (80.0, 1.0)]
        # The subset's own ratio would be negative; the cooler pins at
        # the band edge instead (min(t_min, t_max) = t_min here).
        power = subset_power(
            pairs, [0, 1], 400.0, W2, RHO, t_min=T_MIN, t_max=T_MAX
        )
        assert power == pytest.approx(2 * W2 - RHO * T_MIN)

    def test_rejects_empty_and_undercapacity(self):
        pairs = [(100.0, 2.0), (80.0, 1.0)]
        with pytest.raises(InfeasibleError):
            subset_power(pairs, [], 10.0, W2, RHO)
        with pytest.raises(InfeasibleError):
            subset_power(
                pairs, [0], 50.0, W2, RHO, capacities=[20.0, 20.0]
            )


class TestConstruction:
    def test_band_is_mandatory(self, rng):
        pairs = make_pairs(rng, 8)
        with pytest.raises(ConfigurationError):
            PodShardedIndex(pairs, w2=W2, rho=RHO, t_min=T_MIN)
        with pytest.raises(ConfigurationError):
            PodShardedIndex(pairs, w2=W2, rho=RHO, t_max=T_MAX)
        with pytest.raises(ConfigurationError):
            PodShardedIndex(
                pairs, w2=W2, rho=RHO, t_min=T_MAX, t_max=T_MIN
            )

    def test_pod_tables_byte_identical_to_independent_builds(self, rng):
        pairs = make_pairs(rng, 17)
        sharded = make_sharded(pairs, pods=4)
        assert sharded.pod_count == 4
        for ids, pod in zip(sharded.pod_ranges, sharded.indexes):
            solo = ConsolidationIndex(
                [pairs[i] for i in ids], w2=W2, rho=RHO,
                t_min=T_MIN, t_max=T_MAX,
            )
            assert pod.cache_key == solo.cache_key
            np.testing.assert_array_equal(pod._times, solo._times)
            np.testing.assert_array_equal(
                pod._orders_mat, solo._orders_mat
            )

    def test_status_count_sums_pods(self, rng):
        pairs = make_pairs(rng, 12)
        sharded = make_sharded(pairs, pods=3)
        assert sharded.status_count == sum(
            pod.status_count for pod in sharded.indexes
        )
        # Sharding shrinks the table: sum m_p^3 << n^3.
        monolithic = make_monolithic(pairs)
        assert sharded.status_count < monolithic.status_count

    def test_serial_build_matches_parallel(self, rng):
        pairs = make_pairs(rng, 16)
        parallel = make_sharded(pairs, pods=4, max_workers=4)
        serial = make_sharded(pairs, pods=4, max_workers=1)
        assert parallel.cache_key == serial.cache_key


class TestQueryEquivalence:
    def test_single_pod_matches_monolithic(self, rng):
        pairs = make_pairs(rng, 14)
        sharded = make_sharded(pairs, pods=1)
        monolithic = make_monolithic(pairs)
        cum = np.cumsum(
            np.sort([a - T_MIN * b for a, b in pairs])[::-1]
        )
        for frac in (0.2, 0.5, 0.8):
            load = frac * float(cum[-1])
            assert sharded.query_refined(load) == (
                monolithic.query_refined(load)
            )

    def test_sharded_power_matches_monolithic(self, rng):
        # Without capacity constraints the shared-ratio scan and the
        # monolithic refined scan walk the same prefix family, so the
        # Eq. 23 powers must agree exactly (the ids may tie-differ).
        pairs = make_pairs(rng, 24)
        sharded = make_sharded(pairs, pods=5)
        monolithic = make_monolithic(pairs)
        cum = np.cumsum(
            np.sort([a - T_MIN * b for a, b in pairs])[::-1]
        )
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            load = frac * float(cum[-1])
            p_sharded = subset_power(
                pairs, sharded.query_refined(load), load, W2, RHO,
                t_min=T_MIN, t_max=T_MAX,
            )
            p_mono = subset_power(
                pairs, monolithic.query_refined(load), load, W2, RHO,
                t_min=T_MIN, t_max=T_MAX,
            )
            assert p_sharded == pytest.approx(p_mono, abs=1e-9)

    def test_matches_brute_force_on_small_instances(self, rng):
        for trial in range(3):
            pairs = make_pairs(rng, 9)
            sharded = make_sharded(pairs, pods=3)
            cum = np.cumsum(
                np.sort([a - T_MIN * b for a, b in pairs])[::-1]
            )
            for frac in (0.3, 0.6):
                load = frac * float(cum[-1])
                _, best_power = brute_force_subset(
                    pairs, load, W2, RHO, 0.0,
                    t_min=T_MIN, t_max=T_MAX,
                )
                power = subset_power(
                    pairs, sharded.query_refined(load), load, W2, RHO,
                    t_min=T_MIN, t_max=T_MAX,
                )
                assert power == pytest.approx(best_power, abs=1e-9)

    def test_bounded_gap_with_binding_capacities(self, rng):
        # With tight capacities both scans skip capacity-infeasible
        # ratio-optimal prefixes, so sharded and monolithic may pick
        # different sizes — but never drift more than a machine or two
        # of power apart.
        pairs = make_pairs(rng, 20)
        caps = rng.uniform(40.0, 90.0, 20).tolist()
        sharded = make_sharded(pairs, pods=4, capacities=caps)
        monolithic = make_monolithic(pairs, capacities=caps)
        load = 0.75 * sum(caps)
        p_sharded = subset_power(
            pairs, sharded.query_refined(load), load, W2, RHO,
            t_min=T_MIN, t_max=T_MAX, capacities=caps,
        )
        p_mono = subset_power(
            pairs, monolithic.query_refined(load), load, W2, RHO,
            t_min=T_MIN, t_max=T_MAX, capacities=caps,
        )
        assert abs(p_sharded - p_mono) <= 5.0 * W2

    @pytest.mark.parametrize("pods", [1, 2])
    def test_band_clamped_fallback_needs_a_prefix_that_carries_the_load(
        self, pods
    ):
        # Below the band at every size: the fallback may only take sizes
        # whose best prefix at t = 0 exceeds the load, as the monolithic
        # table does.
        pairs = [(10.0, 1.0)] * 4
        band = dict(w2=1.0, rho=1.0, t_min=5.0, t_max=6.0)
        sharded = PodShardedIndex(pairs, pods=pods, **band)
        monolithic = ConsolidationIndex(pairs, **band)
        assert monolithic.query_refined(35.0) == monolithic.query(35.0)
        assert sharded.query_refined(35.0) == monolithic.query_refined(35.0)

    def test_infeasible_messages_mirror_monolithic(self, rng):
        pairs = make_pairs(rng, 10)
        sharded = make_sharded(pairs, pods=2)
        with pytest.raises(InfeasibleError, match="cluster too small"):
            sharded.query_refined(1e9)
        caps = [1.0] * 10
        tight = make_sharded(pairs, pods=2, capacities=caps)
        with pytest.raises(InfeasibleError, match="capacity"):
            tight.query_refined(50.0)


class TestQueryMany:
    def test_matches_single_queries_and_dedups(self, rng, registry):
        pairs = make_pairs(rng, 15)
        sharded = make_sharded(pairs, pods=3)
        loads = [100.0, 150.0, 100.0, 220.0]
        batched = sharded.query_many(loads)
        assert batched[0] == batched[2]
        for load, answer in zip(loads, batched):
            assert answer == sharded.query_refined(load)

    def test_skip_infeasible_yields_none_per_entry(self, rng):
        pairs = make_pairs(rng, 12)
        sharded = make_sharded(pairs, pods=3)
        answers = sharded.query_many(
            [120.0, 1e9], skip_infeasible=True
        )
        assert answers[0] is not None
        assert answers[1] is None
        with pytest.raises(InfeasibleError):
            sharded.query_many([120.0, 1e9])

    def test_rejects_non_numeric(self, rng):
        sharded = make_sharded(make_pairs(rng, 6), pods=2)
        with pytest.raises(ConfigurationError):
            sharded.query_many(["a"])


class TestPodCache:
    def test_roundtrip_hits_every_pod(self, rng, tmp_path, registry):
        pairs = make_pairs(rng, 16)
        first = make_sharded(pairs, pods=4, cache_dir=tmp_path)
        assert registry.counter("sharding.pod_builds").value == 4
        assert len(list(tmp_path.glob("consolidation-*.npz"))) == 4
        second = make_sharded(pairs, pods=4, cache_dir=tmp_path)
        assert registry.counter("sharding.pod_cache_hits").value == 4
        assert registry.counter("sharding.pod_builds").value == 4
        assert second.cache_key == first.cache_key

    def test_corrupt_pod_file_is_rebuilt(self, rng, tmp_path, registry):
        pairs = make_pairs(rng, 12)
        first = make_sharded(pairs, pods=3, cache_dir=tmp_path)
        victim = sorted(tmp_path.glob("consolidation-*.npz"))[0]
        victim.write_bytes(b"not an npz")
        second = make_sharded(pairs, pods=3, cache_dir=tmp_path)
        assert registry.counter("sharding.pod_cache_invalid").value == 1
        assert second.cache_key == first.cache_key


class TestLPFallback:
    def test_identical_machines_trigger_lp_split(self, registry):
        # All particles coincide, so every water-filling cut is flat:
        # the greedy merge's tie rule must still land on an optimum.
        pairs = [(100.0, 2.0)] * 8
        sharded = make_sharded(pairs, pods=2)
        chosen = sharded.query_refined(150.0)
        assert len(chosen) == len(set(chosen))
        _, best_power = brute_force_subset(
            pairs, 150.0, W2, RHO, 0.0, t_min=T_MIN, t_max=T_MAX
        )
        assert subset_power(
            pairs, chosen, 150.0, W2, RHO, t_min=T_MIN, t_max=T_MAX
        ) == pytest.approx(best_power, abs=1e-9)


class TestMaxLoad:
    def test_monotone_in_budget(self, rng):
        pairs = make_pairs(rng, 18)
        sharded = make_sharded(pairs, pods=3)
        budgets = [k * W2 - RHO * T_MIN for k in (4, 8, 12, 18)]
        values = [sharded.max_load(b) for b in budgets]
        assert values == sorted(values)

    def test_matches_prefix_brute_force(self, rng):
        pairs = make_pairs(rng, 10)
        sharded = make_sharded(pairs, pods=2)
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        budget = 6 * W2 - RHO * 0.5 * (T_MIN + T_MAX)

        def brute(samples=20001):
            best = -np.inf
            for t in np.linspace(T_MIN, T_MAX, samples):
                k = int(np.floor((budget + RHO * t) / W2 + 1e-9))
                if k < 1:
                    continue
                x = np.sort(a - t * b)[::-1]
                best = max(best, float(np.max(np.cumsum(x[:k]))))
            return best

        assert sharded.max_load(budget) == pytest.approx(
            brute(), rel=1e-4
        )

    def test_budget_below_one_machine_raises(self, rng):
        sharded = make_sharded(make_pairs(rng, 6), pods=2)
        with pytest.raises(InfeasibleError):
            sharded.max_load(W2 - RHO * T_MAX - 1.0)

    def test_answered_load_is_servable(self, rng):
        pairs = make_pairs(rng, 14)
        sharded = make_sharded(pairs, pods=3)
        budget = 8 * W2 - RHO * T_MIN
        load = sharded.max_load(budget)
        chosen = sharded.query_refined(load - 1e-6)
        assert subset_power(
            pairs, chosen, load - 1e-6, W2, RHO,
            t_min=T_MIN, t_max=T_MAX,
        ) <= budget + 1e-6


class TestAnneal:
    def test_deterministic_per_seed(self, rng):
        pairs = make_pairs(rng, 20)
        kwargs = dict(
            w2=W2, rho=RHO, t_min=T_MIN, t_max=T_MAX,
            seed=7, iterations=2000,
        )
        first = anneal_on_set(pairs, 300.0, **kwargs)
        second = anneal_on_set(pairs, 300.0, **kwargs)
        assert first == second
        assert anneal_on_set(
            pairs, 300.0, w2=W2, rho=RHO, t_min=T_MIN, t_max=T_MAX,
            seed=8, iterations=2000,
        ).iterations == first.iterations

    def test_power_is_exact_eq23_of_its_on_set(self, rng):
        pairs = make_pairs(rng, 16)
        result = anneal_on_set(
            pairs, 250.0, w2=W2, rho=RHO, t_min=T_MIN, t_max=T_MAX,
            seed=3, iterations=3000,
        )
        assert result.power == pytest.approx(
            subset_power(
                pairs, result.on_ids, 250.0, W2, RHO,
                t_min=T_MIN, t_max=T_MAX,
            )
        )

    def test_never_beats_exact_without_capacities(self, rng):
        # The prefix scan is exact when nothing binds but the band, so
        # annealing can only tie or lose (it beats the scans only where
        # capacity constraints carve holes in the prefix family).
        pairs = make_pairs(rng, 15)
        sharded = make_sharded(pairs, pods=3)
        for load in (150.0, 300.0):
            exact = subset_power(
                pairs, sharded.query_refined(load), load, W2, RHO,
                t_min=T_MIN, t_max=T_MAX,
            )
            result = anneal_on_set(
                pairs, load, w2=W2, rho=RHO, t_min=T_MIN, t_max=T_MAX,
                seed=11, iterations=4000,
            )
            assert result.power >= exact - 1e-9

    def test_infeasible_load_raises(self, rng):
        pairs = make_pairs(rng, 8)
        with pytest.raises(InfeasibleError):
            anneal_on_set(
                pairs, 1e9, w2=W2, rho=RHO, t_min=T_MIN, t_max=T_MAX,
                capacities=[10.0] * 8, iterations=100,
            )


class TestOptimizerIntegration:
    def test_sharded_selection_matches_exact_power(self):
        # The pod-sharded sweep against the exact per-k scan, judged on
        # Eq. 23 power: a tie may keep a different ON set.
        model = make_system_model(n=10)
        sharded = JointOptimizer(model, pods=3)
        exact = ExactSelectionOptimizer(model)
        for load in (60.0, 150.0, 240.0):
            a = sharded.solve(load)
            b = exact.solve(load)
            assert a.predicted_total_power == pytest.approx(
                b.predicted_total_power, abs=1e-6
            )

    def test_sharded_solve_respects_exclusions(self):
        model = make_system_model(n=10)
        optimizer = JointOptimizer(model, pods=3)
        result = optimizer.solve(120.0, exclude=[0, 1])
        assert 0 not in result.on_ids
        assert 1 not in result.on_ids

    def test_sharded_max_load_matches_index(self):
        model = make_system_model(n=10)
        sharded = JointOptimizer(model, pods=3)
        indexed = JointOptimizer(model)
        budget = indexed.solve(150.0).predicted_total_power + 1.0
        load_sharded, _ = sharded.max_load_under_budget(budget)
        load_indexed, _ = indexed.max_load_under_budget(budget)
        assert load_sharded == pytest.approx(load_indexed, rel=1e-3)


class TestExcludedQueryPath:
    """Pins how ``maxL`` brackets probe when machines are excluded."""

    def test_excluded_max_load_hits_batched_probes(
        self, registry, monkeypatch
    ):
        # Exclusions select through one survivor index, exactly as solve
        # does: the grid probes are one solve_many call whose answers
        # equal solve's, all from the index built for the exclusion set.
        model = make_system_model(n=10)
        optimizer = JointOptimizer(model)
        calls = []
        solve_many = optimizer.solve_many

        def spy(loads, exclude=None):
            results = solve_many(loads, exclude=exclude)
            calls.append((list(loads), exclude, results))
            return results

        monkeypatch.setattr(optimizer, "solve_many", spy)
        optimizer.max_load_under_budget(
            optimizer.solve(120.0).predicted_total_power + 1.0,
            exclude=[0, 1],
        )
        (loads, exclude, results), = calls
        assert exclude == [0, 1] and len(loads) > 0
        for load, result in zip(loads, results):
            direct = optimizer.solve(load, exclude=[0, 1])
            assert result.on_ids == direct.on_ids
            assert result.loads.tobytes() == direct.loads.tobytes()
            assert result.t_ac == direct.t_ac
        assert registry.counter("optimizer.survivor_index_builds").value == 1

    def test_survivor_pods_stay_out_of_the_cache_dir(self, tmp_path):
        # Exclusion sets come from callers; only the healthy room's
        # tables are persisted, whatever the pod setting.
        model = make_system_model(n=10)
        for pods in (None, 2):
            cache = tmp_path / f"pods-{pods}"
            optimizer = JointOptimizer(model, index_cache_dir=cache, pods=pods)
            optimizer.solve(100.0)
            written = sorted(cache.iterdir())
            optimizer.solve(100.0, exclude=[3])
            optimizer.solve_many([60.0, 90.0], exclude=[0, 7])
            assert written and sorted(cache.iterdir()) == written

    def test_excluded_answer_matches_unbatched_reference(self):
        # Same question through the batched survivor path and through
        # sequential exact solves must land on the same load.
        model = make_system_model(n=8)
        batched = JointOptimizer(model)
        reference = ExactSelectionOptimizer(model)
        budget = reference.solve(100.0).predicted_total_power + 1.0
        load_b, _ = batched.max_load_under_budget(budget, exclude=[2])
        load_r, _ = reference.max_load_under_budget(budget, exclude=[2])
        assert load_b == pytest.approx(load_r, rel=1e-3)
