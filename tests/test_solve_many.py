"""One batched solve: ``JointOptimizer.solve_many`` and the daemon's
batched ``allocate`` and ``what-if`` replies equal per-load ``solve``.

The optimizer answers a batch of loads through
:meth:`~repro.core.optimizer.JointOptimizer.solve_many`, monolithic or
pod-sharded, healthy or degraded; these tests pin it to the single-load
route, bit for bit and error for error, and pin the daemon's replies to
it.  The exact-scan and brute-force references of
:mod:`tests.oracles.selection` are pinned the same way.
"""

import asyncio
import math

import pytest

from repro import JointOptimizer
from repro.core.consolidation import ConsolidationIndex
from repro.errors import ReproError
from repro.serving import AllocationServer, ServingConfig
from repro.testbed.synthetic import make_system_model
from tests.oracles import BruteForceOptimizer, ExactSelectionOptimizer

#: ``(selection, pods)`` of every optimizer the parity tests build: the
#: ``method`` label its answers carry, and its pod count.
SELECTIONS = [("index", None), ("sharded", 2), ("exact", None)]


def _optimizer(model, selection, pods):
    """The shipped optimizer, or the exact-scan oracle for ``"exact"``."""
    if selection == "exact":
        return ExactSelectionOptimizer(model)
    return JointOptimizer(model, pods=pods)


@pytest.fixture(scope="module")
def model():
    return make_system_model(n=20)


def _loads(model):
    capacity = sum(model.capacities)
    return [0.3 * capacity, 0.3 * capacity, 1.01 * capacity, -1.0, 0.0]


def _solve(optimizer, load, exclude=None):
    """``solve``'s result, or the library error it raises."""
    try:
        return optimizer.solve(load, exclude=exclude)
    except ReproError as exc:
        return exc


def _assert_same(entry, direct):
    if isinstance(direct, ReproError):
        assert type(entry) is type(direct)
        assert str(entry) == str(direct)
        return
    assert entry.on_ids == direct.on_ids
    assert entry.loads.tobytes() == direct.loads.tobytes()
    assert entry.t_ac == direct.t_ac
    assert entry.t_sp == direct.t_sp
    assert entry.method == direct.method


class TestSolveMany:
    @pytest.mark.parametrize("selection,pods", SELECTIONS)
    @pytest.mark.parametrize("exclude", [None, [0, 3]])
    def test_equals_per_load_solve(self, model, selection, pods, exclude):
        batched = _optimizer(model, selection, pods)
        single = _optimizer(model, selection, pods)
        capacity = sum(model.capacities)
        loads = _loads(model) + [0.65 * capacity, math.nan]
        results = batched.solve_many(loads, exclude=exclude)
        assert len(results) == len(loads)
        for load, result in zip(loads, results):
            _assert_same(result, _solve(single, load, exclude))
        assert results[0] is results[1]  # duplicates are answered once

    def test_brute_force_equals_per_load_solve(self):
        small = make_system_model(n=6)
        batched = BruteForceOptimizer(small)
        single = BruteForceOptimizer(small)
        for exclude in (None, [1]):
            loads = _loads(small)
            results = batched.solve_many(loads, exclude=exclude)
            for load, result in zip(loads, results):
                _assert_same(result, _solve(single, load, exclude))

    @pytest.mark.parametrize("selection,pods", SELECTIONS)
    def test_unknown_exclusions_fail_like_solve(self, model, selection, pods):
        optimizer = _optimizer(model, selection, pods)
        loads = _loads(model)
        for load, result in zip(
            loads, optimizer.solve_many(loads, exclude=[99])
        ):
            _assert_same(result, _solve(optimizer, load, [99]))

    def test_one_index_pass_over_the_distinct_loads(
        self, model, monkeypatch
    ):
        optimizer = JointOptimizer(model)
        calls = []
        query_many = ConsolidationIndex.query_many

        def spy(index, loads, *args, **kwargs):
            calls.append(list(loads))
            return query_many(index, loads, *args, **kwargs)

        monkeypatch.setattr(ConsolidationIndex, "query_many", spy)
        capacity = sum(model.capacities)
        optimizer.solve_many(
            [0.2 * capacity, 0.5 * capacity, 0.2 * capacity, -1.0]
        )
        assert calls == [[0.2 * capacity, 0.5 * capacity]]

    def test_empty_batch(self, model):
        assert JointOptimizer(model).solve_many([]) == []


def _serve(optimizer, scenario):
    async def main():
        server = AllocationServer(
            optimizer, ServingConfig(batch_window=0.02)
        )
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.drain()

    return asyncio.run(main())


def _allocate(load, request_id):
    return {"op": "allocate", "id": request_id, "load": load}


class TestServingParity:
    @pytest.mark.parametrize("selection,pods", SELECTIONS)
    def test_batched_replies_equal_solve(self, model, selection, pods):
        optimizer = _optimizer(model, selection, pods)
        reference = _optimizer(model, selection, pods)
        loads = _loads(model) + [-0.0]

        async def scenario(server):
            allocations = await asyncio.gather(*(
                server.handle(_allocate(load, k))
                for k, load in enumerate(loads)
            ))
            what_if = await server.handle(
                {"op": "what-if", "id": 99, "loads": loads}
            )
            return allocations, what_if, server.stats()

        allocations, what_if, stats = _serve(optimizer, scenario)
        assert stats["batches"] == 2 and stats["coalesced"] == 1
        entries = what_if["result"]["entries"]
        for load, reply, entry in zip(loads, allocations, entries):
            direct = _solve(reference, load)
            if isinstance(direct, ReproError):
                assert reply["error"] == {
                    "type": type(direct).__name__, "message": str(direct),
                }
                assert entry == {
                    "load": load, "feasible": False, "error": str(direct),
                }
                continue
            result = reply["result"]
            assert result["method"] == direct.method == selection
            assert result["on_ids"] == list(direct.on_ids)
            assert result["t_ac"] == direct.t_ac
            assert entry["machines_on"] == len(direct.on_ids)
            assert entry["t_sp"] == direct.t_sp
            assert entry["predicted_total_power"] == (
                direct.predicted_total_power
            )

    def test_sharded_daemon_coalesces_and_memoizes(self, model):
        optimizer = JointOptimizer(model, pods=2)
        capacity = sum(model.capacities)
        levels = [(0.1 + 0.07 * i) * capacity for i in range(10)]

        async def scenario(server):
            for burst in (levels + levels, levels):
                replies = await asyncio.gather(*(
                    server.handle(_allocate(load, k))
                    for k, load in enumerate(burst)
                ))
                assert all(reply["ok"] for reply in replies)
            return server.stats()

        stats = _serve(optimizer, scenario)
        assert stats["coalesced"] == 10
        assert stats["answer_memo"]["entries"] == 10
        assert stats["answer_memo"]["hits"] == 10
