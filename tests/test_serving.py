"""Serving daemon tests: protocol, batching, lifecycle, transports.

The lifecycle edge cases the daemon must survive are exercised for
real: warm start against a missing or corrupt ``.npz`` index cache
(rebuild, never trust), drain with in-flight batched requests (every
accepted request completes), SIGTERM against a live ``repro serve``
subprocess (graceful exit 0, socket removed), and malformed requests
round-tripping as structured errors without killing the connection.
"""

import asyncio
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import ConfigurationError, InfeasibleError, JointOptimizer
from repro.core.serialization import (
    load_consolidation_index,
    save_system_model,
)
from repro.errors import ServingUnavailableError
from repro.serving import (
    AllocationServer,
    EncodedResult,
    MicroBatcher,
    Request,
    ServingClient,
    ServingConfig,
    background_server,
    decode_request,
    encode,
    error_response,
    ok_response,
    parse_request,
    quantized_loads,
    raise_error,
    run_load,
)
from repro.serving import server as server_module
from repro.testbed.synthetic import make_system_model

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _optimizer(n: int = 6) -> JointOptimizer:
    return JointOptimizer(make_system_model(n=n))


def _serve(optimizer, scenario, **config):
    """Run ``await scenario(server)`` against a started in-process
    server, drain it, and return the scenario's result."""

    async def main():
        server = AllocationServer(optimizer, ServingConfig(**config))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.drain()

    return asyncio.run(main())


def _allocate(load, request_id=0):
    return {"op": "allocate", "id": request_id, "load": load}


class TestProtocol:
    def test_allocate_round_trip(self):
        request = decode_request(
            encode({"op": "allocate", "id": 7, "load": 42.5}).decode()
        )
        assert request == Request(op="allocate", id=7, load=42.5)

    def test_whatif_requires_numeric_loads(self):
        with pytest.raises(ConfigurationError):
            parse_request({"op": "what-if", "loads": []})
        with pytest.raises(ConfigurationError):
            parse_request({"op": "what-if", "loads": [1.0, "x"]})
        request = parse_request(
            {"op": "what-if", "loads": [1, 2.5], "on_ids": [0, 1]}
        )
        assert request.loads == (1.0, 2.5)
        assert request.on_ids == (0, 1)

    def test_shape_errors(self):
        with pytest.raises(ConfigurationError):
            parse_request(["not", "an", "object"])
        with pytest.raises(ConfigurationError):
            parse_request({"op": "teleport"})
        with pytest.raises(ConfigurationError):
            parse_request({"op": "allocate"})  # no load
        with pytest.raises(ConfigurationError):
            parse_request({"op": "allocate", "load": True})
        with pytest.raises(ConfigurationError):
            parse_request({"op": "maxL", "budget": 1.0, "exclude": [0]})
        with pytest.raises(ConfigurationError):
            decode_request("{not json")

    def test_error_envelope_maps_repro_errors(self):
        response = error_response(3, InfeasibleError("too big"))
        assert response == {
            "id": 3,
            "ok": False,
            "error": {"type": "InfeasibleError", "message": "too big"},
        }
        # Non-repro exceptions degrade to the raisable base class.
        assert (
            error_response(None, ValueError("x"))["error"]["type"]
            == "ReproError"
        )

    def test_raise_error_rehydrates_the_class(self):
        with pytest.raises(InfeasibleError, match="too big"):
            raise_error(error_response(1, InfeasibleError("too big")))
        with pytest.raises(ServingUnavailableError):
            raise_error(error_response(1, ServingUnavailableError("drain")))
        raise_error(ok_response(1, {}))  # success: no-op
        with pytest.raises(ConfigurationError):
            raise_error({"weird": "envelope"})

    @pytest.mark.parametrize("request_id", [
        7, 2.5, None, 'say "hi" \u00e9\u2603', [1, "a", None],
        {"k": [1, 2], "\u00fc": "x"},
    ])
    def test_spliced_encode_matches_json_dumps(self, request_id):
        result = EncodedResult({
            "on_ids": [0, 3], "t_ac": 17.25, "loads": {"0": 1.5, "3": 2.0},
            "note": "caf\u00e9", "clamped": False,
        })
        message = ok_response(request_id, result)
        assert message["result"] is result  # passed through, not copied
        expected = json.dumps(message, separators=(",", ":")) + "\n"
        assert encode(message) == expected.encode()

    def test_encoded_result_is_read_only(self):
        result = EncodedResult({"a": [1]})
        assert result == {"a": [1]}
        assert result.body == b'{"a":[1]}'
        for mutate in (
            lambda: result.__setitem__("a", 2),
            lambda: result.__delitem__("a"),
            lambda: result.update(b=1),
            lambda: result.pop("a"),
            lambda: result.setdefault("b", 1),
            lambda: result.clear(),
        ):
            with pytest.raises(TypeError):
                mutate()
        # Another key order than ok_response's is encoded in full.
        reordered = {"ok": True, "id": 1, "result": result}
        assert encode(reordered) == (
            json.dumps(reordered, separators=(",", ":")) + "\n"
        ).encode()

    @pytest.mark.parametrize("payload", [
        {"op": "allocate", "load": math.nan},
        {"op": "allocate", "load": math.inf},
        {"op": "allocate", "load": 10 ** 400},
        {"op": "maxL", "budget": math.nan},
        {"op": "maxL", "budget": -math.inf},
        {"op": "what-if", "loads": [math.nan, 10.0]},
        {"op": "what-if", "loads": [10.0, math.inf]},
    ])
    def test_non_finite_numbers_are_rejected(self, payload):
        with pytest.raises(ConfigurationError, match="finite"):
            parse_request(payload)
        with pytest.raises(ConfigurationError, match="finite"):
            decode_request(json.dumps(payload))

    def test_nan_what_if_does_not_poison_its_batch(self):
        optimizer = _optimizer()
        load = 0.4 * sum(optimizer.model.capacities)

        async def scenario(server):
            return await asyncio.gather(
                server.handle('{"op": "what-if", "id": 1, '
                              '"loads": [NaN, 10.0]}'),
                server.handle(json.dumps(_allocate(load, 2))),
            )

        what_if, allocate = _serve(optimizer, scenario, batch_window=0.05)
        assert what_if["ok"] is False
        assert what_if["error"]["type"] == "ConfigurationError"
        assert allocate["ok"] is True
        direct = optimizer.solve(load)
        assert allocate["result"]["on_ids"] == list(direct.on_ids)


class TestMicroBatcher:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    def test_concurrent_submits_coalesce_into_one_dispatch(self):
        batches = []

        async def dispatch(batch):
            batches.append(list(batch))
            return [value * 10 for value in batch]

        async def scenario():
            batcher = MicroBatcher(dispatch, batch_window=0.2)
            batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(k) for k in range(16))
            )
            await batcher.drain()
            return results

        results = self._run(scenario())
        assert results == [k * 10 for k in range(16)]
        assert len(batches) == 1 and sorted(batches[0]) == list(range(16))
        assert batches and len(batches[0]) == 16

    def test_window_counts_from_the_first_submit(self):
        dispatched = []

        async def dispatch(batch):
            dispatched.append(time.monotonic())
            return list(batch)

        async def scenario():
            batcher = MicroBatcher(dispatch, batch_window=0.2)
            batcher.start()
            start = time.monotonic()
            first = asyncio.ensure_future(batcher.submit(1))
            await asyncio.sleep(0)  # the first request is queued
            # The loop stays busy (say, parsing a burst) before the
            # collector wakes; that time counts against the window.
            time.sleep(0.2)
            await first
            await batcher.drain()
            return start

        start = self._run(scenario())
        assert len(dispatched) == 1
        assert dispatched[0] - start < 0.35

    def test_batching_off_dispatches_singletons(self):
        batches = []

        async def dispatch(batch):
            batches.append(list(batch))
            return batch

        async def scenario():
            batcher = MicroBatcher(dispatch, batching=False)
            batcher.start()
            await asyncio.gather(*(batcher.submit(k) for k in range(5)))
            await batcher.drain()

        self._run(scenario())
        assert [len(b) for b in batches] == [1] * 5

    def test_max_batch_caps_dispatch_size(self):
        sizes = []

        async def dispatch(batch):
            sizes.append(len(batch))
            return batch

        async def scenario():
            batcher = MicroBatcher(dispatch, batch_window=0.1, max_batch=4)
            batcher.start()
            await asyncio.gather(*(batcher.submit(k) for k in range(10)))
            await batcher.drain()

        self._run(scenario())
        assert max(sizes) <= 4 and sum(sizes) == 10

    def test_dispatch_exception_reaches_every_caller(self):
        async def dispatch(batch):
            raise RuntimeError("compute fell over")

        async def scenario():
            batcher = MicroBatcher(dispatch, batch_window=0.05)
            batcher.start()
            futures = [batcher.submit(k) for k in range(3)]
            outcomes = await asyncio.gather(
                *futures, return_exceptions=True
            )
            await batcher.drain()
            return outcomes

        outcomes = self._run(scenario())
        assert all(isinstance(o, RuntimeError) for o in outcomes)

    def test_drain_refuses_new_work_but_finishes_queued(self):
        async def dispatch(batch):
            await asyncio.sleep(0.01)
            return batch

        async def scenario():
            batcher = MicroBatcher(dispatch, batch_window=0.5)
            batcher.start()
            pending = [
                asyncio.create_task(batcher.submit(k)) for k in range(4)
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            drain = asyncio.create_task(batcher.drain())
            await asyncio.sleep(0)
            with pytest.raises(ServingUnavailableError):
                await batcher.submit(99)
            results = await asyncio.gather(*pending)
            await drain
            return results

        assert self._run(scenario()) == [0, 1, 2, 3]


class TestServerLifecycle:
    def test_warm_start_builds_missing_cache(self, tmp_path):
        model = make_system_model(n=5)
        optimizer = JointOptimizer(model, index_cache_dir=tmp_path)
        assert not list(tmp_path.glob("*.npz"))

        async def scenario():
            server = AllocationServer(optimizer)
            await server.start()
            load = 0.4 * sum(model.capacities)
            response = await server.handle(
                {"op": "allocate", "id": 0, "load": load}
            )
            await server.drain()
            return response

        response = asyncio.run(scenario())
        assert response["ok"]
        assert len(list(tmp_path.glob("consolidation-*.npz"))) == 1

    def test_warm_start_rebuilds_corrupt_cache(self, tmp_path):
        model = make_system_model(n=5)
        _ = JointOptimizer(model, index_cache_dir=tmp_path).index
        (cached,) = tmp_path.glob("consolidation-*.npz")
        cached.write_bytes(b"definitely not an npz index")

        optimizer = JointOptimizer(model, index_cache_dir=tmp_path)
        load = 0.4 * sum(model.capacities)

        async def scenario():
            server = AllocationServer(optimizer)
            await server.start()
            response = await server.handle(
                {"op": "allocate", "id": 0, "load": load}
            )
            await server.drain()
            return response

        response = asyncio.run(scenario())
        assert response["ok"]
        direct = JointOptimizer(model).solve(load)
        assert response["result"]["on_ids"] == list(direct.on_ids)
        # The rebuild wrote a fresh, loadable cache back.
        load_consolidation_index(cached)

    def test_drain_completes_inflight_batched_requests(self):
        optimizer = _optimizer()
        capacity = sum(optimizer.model.capacities)

        async def scenario():
            server = AllocationServer(
                optimizer,
                ServingConfig(batch_window=0.5, max_batch=64),
            )
            await server.start()
            pending = [
                asyncio.create_task(
                    server.handle(
                        {"op": "allocate", "id": k, "load": 0.3 * capacity}
                    )
                )
                for k in range(8)
            ]
            await asyncio.sleep(0.05)  # queued, window still open
            await server.drain()  # must not strand them
            responses = await asyncio.gather(*pending)
            refused = await server.handle(
                {"op": "allocate", "id": 99, "load": 0.3 * capacity}
            )
            ping = await server.handle({"op": "ping", "id": 100})
            return responses, refused, ping

        responses, refused, ping = asyncio.run(scenario())
        assert all(r["ok"] for r in responses)
        assert refused["ok"] is False
        assert refused["error"]["type"] == "ServingUnavailableError"
        assert ping["ok"] and ping["result"]["status"] == "draining"

    def test_batched_answers_match_unbatched_and_direct(self):
        optimizer = _optimizer()
        capacity = sum(optimizer.model.capacities)
        loads = quantized_loads(60, capacity, levels=5, seed=9)
        batched, batched_results = run_load(
            optimizer, loads, batching=True, batch_window=0.02
        )
        unbatched, unbatched_results = run_load(
            optimizer, loads, batching=False
        )
        assert batched_results == unbatched_results
        direct = optimizer.solve(loads[0])
        assert batched_results[0]["on_ids"] == list(direct.on_ids)
        assert batched.coalesced > 0  # 60 requests over 5 levels
        assert batched.mean_batch_size > 1.0
        assert unbatched.mean_batch_size == 1.0


class TestAnswerMemo:
    def test_hit_in_a_later_batch_equals_a_fresh_solve(self):
        optimizer = _optimizer(n=12)
        load = 0.55 * sum(optimizer.model.capacities)

        async def scenario(server):
            first = await server.handle(json.dumps(_allocate(load, 1)))
            second = await server.handle(json.dumps(_allocate(load, 2)))
            return first, second, server.stats()

        first, second, stats = _serve(optimizer, scenario)
        # The repeat is answered on admission: one batch, not two.
        assert stats["batches"] == 1
        assert stats["requests"]["allocate"] == 2
        assert stats["answer_memo"]["hits"] == 1
        assert stats["answer_memo"]["entries"] == 1
        assert second["result"] is first["result"]
        direct = optimizer.solve(load).solution
        wire = json.loads(encode(second))
        assert wire["id"] == 2
        for result in (second["result"], wire["result"]):
            assert result["on_ids"] == [int(i) for i in direct.on_ids]
            assert result["loads"] == {
                str(int(i)): float(direct.loads[i]) for i in direct.on_ids
            }
            assert result["predicted_total_power"] == pytest.approx(
                direct.predicted_total_power, rel=1e-12
            )

    def test_eviction_holds_the_byte_bound(self, monkeypatch):
        optimizer = _optimizer()
        capacity = sum(optimizer.model.capacities)
        a, b, c = (f * capacity for f in (0.3, 0.45, 0.6))

        async def scenario(server):
            memo = server._answer_memo
            body_c = len(EncodedResult(server._allocation_payload(
                optimizer.solve(c).solution, "index"
            )).body)
            for load in (a, b, a):  # the second ``a`` hits: most recent
                await server.handle(_allocate(load))
            # One byte short of holding a, b and c: c must evict b only.
            bound = memo.body_bytes + body_c - 1
            monkeypatch.setattr(
                server_module, "ANSWER_MEMO_MAX_BYTES", bound
            )
            await server.handle(_allocate(c))
            after_c = memo.stats()
            kept = await server.handle(_allocate(a))
            evicted = await server.handle(_allocate(b))
            return bound, after_c, kept, evicted, memo.stats()

        bound, after_c, kept, evicted, final = _serve(optimizer, scenario)
        assert after_c["entries"] == 2 and after_c["evictions"] == 1
        assert after_c["body_bytes"] <= bound
        assert kept["ok"] and evicted["ok"]
        # ``a`` hit twice; ``b`` was recomputed and evicted ``c``.
        assert final["hits"] == 2
        assert final["entries"] == 2 and final["evictions"] == 2
        assert final["body_bytes"] <= bound

    def test_other_paths_never_touch_the_memo(self):
        optimizer = _optimizer()
        capacity = sum(optimizer.model.capacities)

        async def scenario(server):
            responses = [
                await server.handle(request) for request in (
                    _allocate(9 * capacity),        # infeasible
                    _allocate(0.0),                 # not positive
                    {"op": "allocate", "load": 0.4 * capacity,
                     "exclude": [0]},
                    {"op": "maxL", "budget": 1e9},
                    {"op": "what-if", "loads": [0.4 * capacity]},
                    _allocate(9 * capacity),
                )
            ]
            return responses, server.stats()["answer_memo"]

        responses, memo = _serve(optimizer, scenario)
        assert [r["ok"] for r in responses] == [
            False, False, True, True, True, False,
        ]
        assert memo == {
            "entries": 0, "body_bytes": 0, "hits": 0, "evictions": 0,
        }

    def test_coalesced_counts_are_unchanged(self):
        optimizer = _optimizer()
        capacity = sum(optimizer.model.capacities)
        loads = quantized_loads(60, capacity, levels=5, seed=9)
        distinct = len(set(loads))

        async def scenario(server):
            counts = []
            for _ in range(2):
                responses = await asyncio.gather(*(
                    server.handle(_allocate(load, k))
                    for k, load in enumerate(loads)
                ))
                assert all(r["ok"] for r in responses)
                counts.append((
                    server.stats()["batches"], server.coalesced,
                    server.stats()["answer_memo"]["hits"],
                ))
            return counts

        counts = _serve(optimizer, scenario, batch_window=0.05)
        coalesced = len(loads) - distinct
        # The second round never reaches the batcher: each of its
        # requests is one memo hit on admission, and none coalesces.
        assert counts == [
            (1, coalesced, 0), (1, coalesced, len(loads)),
        ]


    def test_payload_bytes_match_the_per_machine_construction(self):
        # The payload builds its loads map from one tolist(); the wire
        # bytes must equal those of the per-machine float() construction
        # on the serving benchmark's 48 levels.
        optimizer = JointOptimizer(make_system_model(100))
        server = AllocationServer(optimizer)
        capacity = optimizer.model.total_capacity
        levels = [
            0.1 * capacity + k * (0.7 * capacity) / 47 for k in range(48)
        ]
        on_sets = optimizer.query_index.query_many(levels)

        def per_machine(solution, method):
            return {
                "method": method,
                "on_ids": [int(i) for i in solution.on_ids],
                "machines_on": len(solution.on_ids),
                "t_ac": float(solution.t_ac),
                "t_sp": float(solution.t_sp),
                "loads": {
                    str(int(i)): float(solution.loads[i])
                    for i in solution.on_ids
                },
                "predicted_total_power": float(
                    solution.predicted_total_power
                ),
                "clamped": bool(solution.clamped),
                "repaired": bool(solution.repaired),
            }

        for load, on_ids in zip(levels, on_sets):
            solution = server_module.solve_closed_form(
                optimizer.model, on_ids, load
            )
            body = EncodedResult(
                server._allocation_payload(solution, "index")
            ).body
            assert body == EncodedResult(per_machine(solution, "index")).body

    def test_concurrent_get_and_evicting_put_keep_the_tallies(
        self, monkeypatch
    ):
        # The loop thread reads the memo while the compute thread fills
        # and evicts it.  Three readers and a writer (more threads than
        # the cores of a small host) and a tiny switch interval make the
        # threads interleave inside get/put.
        memo = server_module._AnswerMemo()
        bodies = [
            EncodedResult({"load": k, "pad": "x" * k}) for k in range(37)
        ]
        puts = 300_000  # or as many as the writer makes in 1.5 s
        # Room for 64 entries: each put past them evicts one.
        monkeypatch.setattr(
            server_module, "ANSWER_MEMO_MAX_BYTES",
            sum(len(bodies[k % 37].body) for k in range(64)),
        )
        readers = 3
        done = threading.Event()
        written = [0]
        found = [0] * readers
        errors = []

        def writer():
            deadline = time.monotonic() + 1.5
            try:
                for k in range(puts):
                    if k % 1024 == 0 and time.monotonic() > deadline:
                        break
                    memo.put(float(k), bodies[k % 37])
                    written[0] = k + 1
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)
            finally:
                done.set()

        def reader(slot):
            try:
                while not done.is_set():
                    top = written[0]
                    # The oldest entries: the next ones put evicts.
                    for k in range(max(0, top - 66), top - 60):
                        if memo.get(float(k)) is not None:
                            found[slot] += 1
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(readers)
            ] + [threading.Thread(target=writer)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = memo.stats()
        resident = list(memo._entries.values())
        assert stats["evictions"] > 0
        assert stats["body_bytes"] == sum(len(e.body) for e in resident)
        assert stats["body_bytes"] <= server_module.ANSWER_MEMO_MAX_BYTES
        assert stats["entries"] == len(memo) == len(resident)
        assert stats["entries"] + stats["evictions"] == written[0]
        assert stats["hits"] == sum(found) > 0


class TestAdmissionHits:
    """A plain ``allocate`` whose load is memoized is answered on
    admission, without entering the batcher."""

    def test_repeat_creates_no_batch(self):
        optimizer = _optimizer()
        load = 0.4 * sum(optimizer.model.capacities)

        async def scenario(server):
            submits = []
            submit = server._batcher.submit

            async def counted(request):
                submits.append(request.id)
                return await submit(request)

            server._batcher.submit = counted
            first = await server.handle(_allocate(load, 1))
            before = server.stats()
            again = [await server.handle(_allocate(load, k)) for k in (2, 3)]
            return first, again, before, server.stats(), submits

        first, again, before, after, submits = _serve(optimizer, scenario)
        assert submits == [1]
        assert before["batches"] == after["batches"] == 1
        assert after["batch_size_histogram"] == {"1": 1}
        assert after["answer_memo"]["hits"] == 2
        assert after["requests"]["allocate"] == 3
        assert all(r["result"] is first["result"] for r in again)

    def test_wire_line_equals_the_batched_reply(self):
        optimizer = _optimizer(n=12)
        load = 0.55 * sum(optimizer.model.capacities)

        async def scenario(server):
            batched = await server.handle(json.dumps(_allocate(load, "a")))
            hit = await server.handle(json.dumps(_allocate(load, "a")))
            return batched, hit, server.stats()

        batched, hit, stats = _serve(optimizer, scenario)
        assert stats["batches"] == 1 and stats["answer_memo"]["hits"] == 1
        assert encode(hit) == encode(batched)
        assert encode(hit) == (
            json.dumps(batched, separators=(",", ":")).encode() + b"\n"
        )

    def test_traced_hit_has_no_batch_link(self):
        from repro.obs import TraceBuffer

        optimizer = _optimizer()
        load = 0.4 * sum(optimizer.model.capacities)

        async def scenario(server):
            for k in range(2):
                await server.handle(_allocate(load, k))
            return server.telemetry.trace_tail(limit=100)

        tail = _serve(optimizer, scenario)
        buffer = TraceBuffer.from_jsonl(tail["jsonl"])
        (batch,) = buffer.spans_named("serving.batch")
        miss, hit = buffer.spans_named("serving.request")
        assert miss.attributes["batch_span_id"] == batch.span_id
        assert "memo_hit" not in miss.attributes
        assert hit.attributes["memo_hit"] is True
        assert hit.attributes["ok"] is True
        assert hit.attributes["request_id"] == 1
        assert not {"batch_span_id", "wait_seconds", "compute_seconds"} & set(
            hit.attributes
        )
        assert hit.attributes["trace_id"] not in batch.attributes["trace_ids"]

    def test_hit_while_draining_is_refused(self):
        optimizer = _optimizer()
        load = 0.4 * sum(optimizer.model.capacities)

        async def main():
            server = AllocationServer(optimizer, ServingConfig())
            await server.start()
            first = await server.handle(_allocate(load, 1))
            drain = asyncio.create_task(server.drain())
            await asyncio.sleep(0)
            refused = await server.handle(_allocate(load, 2))
            await drain
            return first, refused, server.stats()

        first, refused, stats = asyncio.run(main())
        assert first["ok"]
        assert refused["ok"] is False
        assert refused["error"]["type"] == "ServingUnavailableError"
        assert stats["answer_memo"]["hits"] == 0
        assert stats["errors"] == {"allocate": 1}

    def test_exclude_bypasses_the_memo(self):
        optimizer = _optimizer()
        load = 0.4 * sum(optimizer.model.capacities)
        excluded = {"op": "allocate", "id": 2, "load": load, "exclude": [0]}

        async def scenario(server):
            first = await server.handle(_allocate(load, 1))
            routed = [await server.handle(dict(excluded)) for _ in range(2)]
            return first, routed, server.stats()

        first, routed, stats = _serve(optimizer, scenario)
        assert all(r["ok"] for r in routed)
        assert stats["batches"] == 3
        assert stats["answer_memo"] == {
            "entries": 1, "body_bytes": stats["answer_memo"]["body_bytes"],
            "hits": 0, "evictions": 0,
        }
        direct = optimizer.solve(load, exclude=[0])
        for reply in routed:
            assert reply["result"] is not first["result"]
            assert 0 not in reply["result"]["on_ids"]
            assert reply["result"]["on_ids"] == [
                int(i) for i in direct.on_ids
            ]


class TestSocketTransports:
    def test_unix_socket_end_to_end(self, tmp_path):
        optimizer = _optimizer()
        capacity = sum(optimizer.model.capacities)
        sock = str(tmp_path / "serve.sock")
        config = ServingConfig(socket_path=sock, batch_window=0.002)
        with background_server(optimizer, config) as server:
            assert server.address == ("unix", sock)
            with ServingClient(socket_path=sock) as client:
                assert client.ping()["status"] == "ok"
                result = client.allocate(load=0.5 * capacity)
                direct = optimizer.solve(0.5 * capacity)
                assert result["on_ids"] == list(direct.on_ids)
                assert result["t_sp"] == pytest.approx(direct.t_sp)
                budget = result["predicted_total_power"]
                answer = client.max_load(budget=budget)
                assert answer["max_load"] == pytest.approx(
                    0.5 * capacity, rel=1e-3
                )
                horizon = client.what_if(
                    loads=[0.2 * capacity, 5.0 * capacity]
                )
                assert horizon["entries"][0]["feasible"] is True
                assert horizon["entries"][1]["feasible"] is False
                with pytest.raises(InfeasibleError):
                    client.allocate(load=5.0 * capacity)
                with pytest.raises(ConfigurationError):
                    client.allocate(load=-1.0)
                stats = client.stats()
                assert stats["requests"]["allocate"] == 3
                assert stats["errors"]["allocate"] == 2
                assert stats["latency"]["allocate"]["count"] == 3
        assert not os.path.exists(sock)  # drain removed the socket file

    def test_malformed_requests_get_structured_errors(self, tmp_path):
        optimizer = _optimizer()
        sock = str(tmp_path / "serve.sock")
        with background_server(optimizer, ServingConfig(socket_path=sock)):
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(sock)
            reader = raw.makefile("rb")
            try:
                # Invalid JSON: error with no recoverable id.
                raw.sendall(b"{broken json\n")
                response = json.loads(reader.readline())
                assert response["ok"] is False
                assert response["id"] is None
                assert response["error"]["type"] == "ConfigurationError"
                # Unknown op: id echoed back, connection still alive.
                raw.sendall(b'{"op": "teleport", "id": 5}\n')
                response = json.loads(reader.readline())
                assert response["ok"] is False
                assert response["id"] == 5
                assert "teleport" in response["error"]["message"]
                # And the connection still answers good requests.
                raw.sendall(b'{"op": "ping", "id": 6}\n')
                response = json.loads(reader.readline())
                assert response["ok"] is True and response["id"] == 6
            finally:
                reader.close()
                raw.close()

    def test_tcp_ephemeral_port(self):
        optimizer = _optimizer()
        config = ServingConfig(port=0, batch_window=0.001)
        with background_server(optimizer, config) as server:
            kind, host, port = server.address
            assert kind == "tcp" and port > 0
            with ServingClient(host=host, port=port) as client:
                assert client.ping()["protocol"] == 2

    def test_config_rejects_both_transports(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(socket_path="x.sock", port=7077)

    def test_sharded_optimizer_serves_end_to_end(self, tmp_path):
        optimizer = JointOptimizer(make_system_model(n=6), pods=2)
        capacity = sum(optimizer.model.capacities)
        sock = str(tmp_path / "serve.sock")
        config = ServingConfig(socket_path=sock, batch_window=0.002)
        with background_server(optimizer, config):
            with ServingClient(socket_path=sock) as client:
                result = client.allocate(load=0.5 * capacity)
                direct = optimizer.solve(0.5 * capacity)
                assert result["on_ids"] == list(direct.on_ids)
                stats = client.stats()
                assert stats["cache_key"] == optimizer.query_index.cache_key


class TestClientUnavailable:
    """The satellite bugfix: daemon drains/restarts surface as the
    retryable ServingUnavailableError, never a raw socket traceback."""

    def test_missing_socket_is_unavailable_not_traceback(self, tmp_path):
        with pytest.raises(ServingUnavailableError, match="cannot reach"):
            ServingClient(socket_path=tmp_path / "never-started.sock")

    def test_connection_closed_mid_call_is_unavailable(self, tmp_path):
        # A listener that accepts and immediately hangs up — what a
        # client sees when the daemon drains between connect and call.
        sock_path = str(tmp_path / "drain.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(sock_path)
        listener.listen(1)

        def hang_up():
            conn, _ = listener.accept()
            conn.close()

        thread = threading.Thread(target=hang_up)
        thread.start()
        try:
            client = ServingClient(socket_path=sock_path, timeout=5.0)
            with pytest.raises(
                ServingUnavailableError, match="draining"
            ):
                client.ping()
            client.close()
        finally:
            thread.join()
            listener.close()

    def test_unavailable_is_retryable_after_daemon_returns(self, tmp_path):
        optimizer = _optimizer()
        sock = str(tmp_path / "serve.sock")
        with pytest.raises(ServingUnavailableError):
            ServingClient(socket_path=sock)
        # The daemon comes back; a fresh client just works.
        with background_server(optimizer, ServingConfig(socket_path=sock)):
            with ServingClient(socket_path=sock) as client:
                assert client.ping()["status"] == "ok"


class TestServeCommand:
    def _spawn(self, arguments, env):
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *arguments],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )

    @staticmethod
    def _wait_for(stream, needle, timeout):
        """Collect lines until one contains ``needle`` (or timeout)."""
        lines, hit = [], threading.Event()

        def reader():
            for line in stream:
                lines.append(line)
                if needle in line:
                    hit.set()
                    return

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        hit.wait(timeout)
        return hit.is_set(), lines

    def test_sigterm_drains_the_daemon(self, tmp_path):
        model = make_system_model(n=6)
        model_path = tmp_path / "model.json"
        save_system_model(model, model_path)
        sock = str(tmp_path / "serve.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = self._spawn(
            ["serve", "--socket", sock, "--model", str(model_path)], env
        )
        try:
            ready, lines = self._wait_for(proc.stdout, "serving on", 60)
            assert ready, f"daemon never came up: {lines}"
            deadline = time.time() + 10
            while not os.path.exists(sock) and time.time() < deadline:
                time.sleep(0.05)
            with ServingClient(socket_path=sock) as client:
                assert client.ping()["machines"] == 6
                result = client.allocate(
                    load=0.5 * sum(model.capacities)
                )
                assert result["machines_on"] >= 1
            proc.send_signal(signal.SIGTERM)
            remainder, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained cleanly" in remainder
        assert not os.path.exists(sock)

    def test_serve_requires_a_transport(self, capsys):
        from repro.cli import main

        assert main(["serve"]) == 2
        assert "--socket" in capsys.readouterr().err


class TestDashboardServingSection:
    @staticmethod
    def _document():
        entry = {
            "clients": 100, "batching": True,
            "batch_window_seconds": 0.005, "max_batch": 512,
            "requests": 100, "errors": 0, "duration_seconds": 0.05,
            "requests_per_second": 2000.0, "latency_mean_ms": 3.0,
            "latency_p50_ms": 2.5, "latency_p99_ms": 8.0,
            "batches": 2, "mean_batch_size": 50.0, "max_batch_size": 90,
            "coalesced": 80, "identical_answers": True,
            "batch_size_histogram": {"10": 1, "90": 1},
        }
        other = dict(
            entry, batching=False, latency_p50_ms=20.0,
            latency_p99_ms=40.0, batches=100, mean_batch_size=1.0,
            max_batch_size=1, coalesced=0,
        )
        return {
            "schema": 1, "kind": "serving", "seed": 1, "machines": 20,
            "index_statuses": 1234, "levels": 16,
            "warm_start_seconds": 0.02, "entries": [entry, other],
        }

    def test_render_dashboard_includes_serving(self):
        from repro import obs
        from repro.analysis.report import render_dashboard

        text = render_dashboard(obs.TraceBuffer(), serving=self._document())
        assert "## Serving" in text
        assert "req/s" in text and "p99 ms" in text
        assert "Batch sizes (batched runs):" in text

    def test_render_dashboard_omits_section_without_document(self):
        from repro import obs
        from repro.analysis.report import render_dashboard

        assert "## Serving" not in render_dashboard(obs.TraceBuffer())

    def test_timeline_lists_spans_whose_parent_is_elsewhere(self):
        from repro import obs
        from repro.analysis.report import render_dashboard

        buffer = obs.TraceBuffer()
        root = buffer.start_span("local.root", start=0.0)
        buffer.start_span("local.child", parent_id=root.span_id, start=0.1)
        # Parented to a span that lives in another buffer (the daemon's
        # tail, say), so this buffer holds no parent for it.
        buffer.start_span("orphan.work", parent_id=-1, start=0.2)
        text = render_dashboard(buffer)
        timeline = text.split("## Timeline")[1].split("## Constraint")[0]
        assert "local.root" in timeline
        assert "orphan.work" in timeline
        assert "local.child" not in timeline
