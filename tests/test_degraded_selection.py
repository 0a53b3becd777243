"""Degraded queries: the survivor sweep equals the exact per-query scan.

A query with ``exclude=`` selects through a pod-sharded index built on
the surviving machines (``JointOptimizer._survivor_index``), the same
per-cardinality sweep a healthy query runs.  These tests pin ``solve``
and ``solve_many`` on that path to the exact per-``k`` scan over the
survivors (:class:`tests.oracles.ExactSelectionOptimizer`): the same ON
sets, and the same error type and message, over a seeded sweep of
exclusion sets and loads up to the whole surviving capacity.
"""

import numpy as np
import pytest

from repro import JointOptimizer
from repro.errors import ReproError
from repro.testbed.synthetic import make_system_model
from tests.oracles import ExactSelectionOptimizer

#: Exclusion sets drawn per room size.
EXCLUSION_SETS = 10

#: Loads per exclusion set, as fractions of the surviving capacity.
FRACTIONS = (0.02, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.97, 1.0, 1.001)


def _outcome(call):
    """``call()``'s ON set, or its error's type and message."""
    try:
        return call().on_ids
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def _entry(entry):
    if isinstance(entry, ReproError):
        return type(entry).__name__, str(entry)
    return entry.on_ids


def _cases(n, seed):
    """``(exclude, loads)`` pairs: random exclusion sets of every size up
    to all but one machine, and loads across the surviving capacity."""
    model = make_system_model(n=n)
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(EXCLUSION_SETS):
        size = int(rng.integers(1, n))
        exclude = sorted(rng.choice(n, size=size, replace=False).tolist())
        capacity = sum(
            c for i, c in enumerate(model.capacities) if i not in exclude
        )
        jitter = rng.uniform(0.97, 1.0, size=len(FRACTIONS))
        loads = [
            capacity * f * (j if f < 1.0 else 1.0)
            for f, j in zip(FRACTIONS, jitter)
        ]
        cases.append((exclude, loads))
    return model, cases


@pytest.mark.parametrize("n,seed", [(6, 1), (8, 2), (10, 3), (20, 4)])
class TestSurvivorSweepMatchesExactScan:
    def test_solve(self, n, seed):
        model, cases = _cases(n, seed)
        optimizer = JointOptimizer(model)
        exact = ExactSelectionOptimizer(model)
        for exclude, loads in cases:
            for load in loads:
                got = _outcome(lambda: optimizer.solve(load, exclude=exclude))
                want = _outcome(lambda: exact.solve(load, exclude=exclude))
                assert got == want, (exclude, load)

    def test_solve_many(self, n, seed):
        model, cases = _cases(n, seed)
        optimizer = JointOptimizer(model, pods=2)
        exact = ExactSelectionOptimizer(model)
        for exclude, loads in cases:
            got = optimizer.solve_many(loads, exclude=exclude)
            for load, entry in zip(loads, got):
                want = _outcome(lambda: exact.solve(load, exclude=exclude))
                assert _entry(entry) == want, (exclude, load)
