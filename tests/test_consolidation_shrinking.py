"""ConsolidationIndex under shrinking machine sets (quarantine path).

Safe-mode planning solves over the *surviving* machines: the optimizer
masks excluded ids and queries a pod-sharded index built on the
survivors, while a monolithic index rebuilt on only the survivors must
answer the same queries.  These tests pin both routes against each other
and against brute force, for growing numbers k of quarantined machines.
"""

import pytest

from repro.core.consolidation import ConsolidationIndex
from repro.core.optimizer import JointOptimizer
from repro.core.select import brute_force_subset, ratio
from repro.errors import InfeasibleError
from tests.conftest import make_system_model
from tests.oracles import BruteForceOptimizer


def survivors_of(n, excluded):
    return [i for i in range(n) if i not in excluded]


class TestRebuiltIndexMatchesBruteForce:
    """An index rebuilt on the surviving pairs answers exactly."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rebuilt_index_is_exact(self, rng, k):
        n = 9
        for _ in range(5):
            pairs = list(
                zip(
                    rng.uniform(50.0, 400.0, n).tolist(),
                    rng.uniform(0.5, 5.0, n).tolist(),
                )
            )
            w2 = float(rng.uniform(5.0, 60.0))
            rho = float(rng.uniform(50.0, 500.0))
            excluded = set(
                rng.choice(n, size=k, replace=False).tolist()
            )
            alive = survivors_of(n, excluded)
            sub_pairs = [pairs[i] for i in alive]
            load = float(
                rng.uniform(0.1, 0.5) * sum(a for a, _ in sub_pairs)
            )
            index = ConsolidationIndex(sub_pairs, w2=w2, rho=rho)
            chosen = index.query_refined(load)
            power = len(chosen) * w2 - rho * ratio(sub_pairs, chosen, load)
            _, brute_power = brute_force_subset(
                sub_pairs, load, w2=w2, rho=rho, theta=0.0
            )
            assert power == pytest.approx(brute_power, abs=1e-6)

    def test_rebuilt_index_infeasible_beyond_surviving_capacity(self, rng):
        n = 6
        pairs = list(
            zip(
                rng.uniform(50.0, 100.0, n).tolist(),
                rng.uniform(0.5, 5.0, n).tolist(),
            )
        )
        alive = survivors_of(n, {0, 1, 2})
        sub_pairs = [pairs[i] for i in alive]
        index = ConsolidationIndex(sub_pairs, w2=10.0, rho=100.0)
        too_much = sum(a for a, _ in sub_pairs) * 1.01
        with pytest.raises(InfeasibleError):
            index.query(too_much)


class TestMaskedOptimizerMatchesRebuild:
    """The optimizer's exclusion path (the one safe mode uses) agrees
    with rebuilding on the survivors, for growing quarantine sizes."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_masked_equals_brute_under_exclusions(self, k):
        model = make_system_model(n=10)
        indexed = JointOptimizer(model)
        brute = BruteForceOptimizer(model)
        excluded = list(range(k))
        capacity = sum(
            model.capacities[i] for i in survivors_of(10, set(excluded))
        )
        for fraction in (0.2, 0.45, 0.7):
            load = fraction * capacity
            a = indexed.solve(load, exclude=excluded)
            b = brute.solve(load, exclude=excluded)
            assert not set(a.on_ids) & set(excluded)
            assert a.predicted_total_power == pytest.approx(
                b.predicted_total_power, abs=1e-6
            )

    def test_index_unused_results_unchanged_by_exclusions_of_idle(self):
        # Excluding machines the optimum would not use anyway must not
        # change the answer (the survivor sweep is exact, not heuristic).
        model = make_system_model(n=10)
        optimizer = JointOptimizer(model)
        baseline = optimizer.solve(100.0)
        idle = [
            i for i in range(10) if i not in baseline.on_ids
        ][:2]
        masked = optimizer.solve(100.0, exclude=idle)
        assert masked.on_ids == baseline.on_ids
        assert masked.predicted_total_power == pytest.approx(
            baseline.predicted_total_power, abs=1e-9
        )

    def test_shrinking_sets_monotone_power(self):
        # Quarantining machines can never *improve* the optimum.
        model = make_system_model(n=10)
        optimizer = JointOptimizer(model)
        load = 0.4 * sum(model.capacities)
        last = -float("inf")
        for k in range(0, 5):
            result = optimizer.solve(load, exclude=list(range(k)))
            assert result.predicted_total_power >= last - 1e-9
            last = result.predicted_total_power

    def test_healthy_query_still_uses_index_after_masked_calls(self):
        # Interleaving masked and healthy solves must not corrupt the
        # prebuilt index (safe mode exits back to the index path).
        model = make_system_model(n=10)
        optimizer = JointOptimizer(model)
        healthy_before = optimizer.solve(120.0)
        optimizer.solve(120.0, exclude=[0, 1])
        healthy_after = optimizer.solve(120.0)
        assert healthy_after.on_ids == healthy_before.on_ids
        assert healthy_after.method == "index"
