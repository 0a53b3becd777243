"""Span and record stacks are per thread and per asyncio task.

32 threads and 32 asyncio tasks run at once, each nesting ``obs.timed``,
``obs.trace.span`` and one ``obs.record_run`` to a known depth, with
barriers (threads) and yields (tasks) between every enter and exit so
the stacks interleave as much as the scheduler allows.  Every stage
path, trace parent and record must come out as if each worker had run
alone.
"""

import asyncio
import sys
import threading

import pytest

from repro import obs

DEPTH = 3
WORKERS = 32


def _expected_stages(worker: str) -> set:
    names = [f"{worker}.t{level}" for level in range(DEPTH)]
    return {"/".join(names[: level + 1]) for level in range(DEPTH)}


def _nest(worker: str, level: int, pause) -> None:
    if level == DEPTH:
        return
    with obs.timed(f"{worker}.t{level}"):
        with obs.trace.span(f"{worker}.s{level}"):
            obs.count(f"{worker}.count")
            pause()
            _nest(worker, level + 1, pause)
            pause()


async def _nest_async(worker: str, level: int) -> None:
    if level == DEPTH:
        return
    with obs.timed(f"{worker}.t{level}"):
        with obs.trace.span(f"{worker}.s{level}"):
            obs.count(f"{worker}.count")
            await asyncio.sleep(0)
            await _nest_async(worker, level + 1)
            await asyncio.sleep(0.0005)


@pytest.fixture
def recording():
    registry = obs.enable(obs.MetricsRegistry())
    buffer = obs.enable_tracing(obs.TraceBuffer())
    yield registry, buffer
    obs.disable_tracing()
    obs.disable()


def _run_threads_and_tasks() -> dict:
    records: dict = {}
    barrier = threading.Barrier(WORKERS, timeout=60.0)

    def thread_worker(i: int) -> None:
        worker = f"th{i}"
        with obs.record_run(worker) as record:
            barrier.wait()
            _nest(worker, 0, barrier.wait)
        records[worker] = record

    async def task_worker(i: int) -> None:
        worker = f"tk{i}"
        with obs.record_run(worker) as record:
            await asyncio.sleep(0)
            await _nest_async(worker, 0)
        records[worker] = record

    async def tasks() -> None:
        await asyncio.gather(*(task_worker(i) for i in range(WORKERS)))

    threads = [
        threading.Thread(target=thread_worker, args=(i,))
        for i in range(WORKERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        asyncio.run(tasks())
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return records


def _worker(name: str) -> str:
    return name.split(".")[0]


class TestPerTaskStacks:
    def test_paths_parents_and_records_stay_in_their_task(self, recording):
        registry, buffer = recording
        records = _run_threads_and_tasks()
        assert len(records) == 2 * WORKERS

        # No stage path is deeper than its nesting, nor mixes workers.
        timings = registry.timings()
        for path in timings:
            segments = path.split("/")
            assert len(segments) <= DEPTH, path[:200]
            assert len({_worker(s) for s in segments}) == 1, path[:200]
        assert len(timings) == 2 * WORKERS * DEPTH

        # Every span's parent was opened by the same thread or task.
        by_id = {s.span_id: s for s in buffer.spans}
        assert len(by_id) == 2 * WORKERS * (1 + 2 * DEPTH)
        for span in buffer.spans:
            assert span.end is not None, span.name
            if span.parent_id is None:
                assert span.name in records, span.name
                continue
            parent = by_id[span.parent_id]
            assert _worker(parent.name) == _worker(span.name), (
                span.name, parent.name,
            )

        # Each record holds only its own task's work.
        for worker, record in records.items():
            assert set(record.stages) == _expected_stages(worker)
            assert record.counters == {f"{worker}.count": float(DEPTH)}
        assert "obs.span_mismatch" not in registry.counters

    def test_repeated_runs_stay_clean(self, recording):
        registry, buffer = recording
        for _ in range(3):
            registry.reset()
            buffer.clear()
            records = _run_threads_and_tasks()
            assert max(
                len(path.split("/")) for path in registry.timings()
            ) == DEPTH
            for worker, record in records.items():
                assert set(record.stages) == _expected_stages(worker)


class TestMismatchedExits:
    @pytest.fixture
    def registry(self):
        registry = obs.enable(obs.MetricsRegistry())
        obs.disable()  # the counter is kept even while disabled
        yield registry
        obs.disable_tracing()

    def test_out_of_order_span_exit_pops_only_itself(self, registry):
        buffer = obs.enable_tracing(obs.TraceBuffer())
        outer = obs.trace.begin_span("outer")
        inner = obs.trace.begin_span("inner")
        obs.trace.end_span(outer)  # not the innermost: a mismatch
        assert registry.counter("obs.span_mismatch").value == 1.0
        assert obs.trace.current_span_id() == inner.span.span_id
        with obs.trace.span("child"):
            pass
        obs.trace.end_span(inner)  # innermost again: clean
        assert registry.counter("obs.span_mismatch").value == 1.0
        assert obs.trace.current_span_id() is None
        child = buffer.spans_named("child")[0]
        assert child.parent_id == inner.span.span_id
        assert all(s.end is not None for s in buffer.spans)

    def test_exit_from_another_context_is_counted(self, registry):
        import contextvars

        obs.enable_tracing(obs.TraceBuffer())
        elsewhere = contextvars.copy_context()
        handle = elsewhere.run(obs.trace.begin_span, "elsewhere")
        with obs.trace.span("here"):
            obs.trace.end_span(handle)
            assert obs.trace.current_span_id() is not None
        assert registry.counter("obs.span_mismatch").value == 1.0
        assert handle.span.end is not None
        assert obs.trace.current_span_id() is None

    def test_out_of_order_timer_exit_keeps_paths_and_records(self, registry):
        obs.enable(registry)
        try:
            with obs.record_run("run") as record:
                outer, inner = obs.timed("outer"), obs.timed("inner")
                outer.__enter__()
                inner.__enter__()
                outer.__exit__(None, None, None)
                with obs.timed("leaf"):
                    pass
                inner.__exit__(None, None, None)
                with obs.timed("next"):
                    pass
        finally:
            obs.disable()
        assert registry.counter("obs.span_mismatch").value == 1.0
        assert set(registry.timings()) == {
            "outer", "outer/inner", "outer/inner/leaf", "next",
        }
        assert set(record.stages) == set(registry.timings())

    def test_disable_inside_a_span_is_not_a_mismatch(self, registry):
        obs.enable(registry)
        obs.enable_tracing(obs.TraceBuffer())
        with obs.timed("open"), obs.trace.span("traced"):
            obs.disable()
            obs.disable_tracing()
        assert "obs.span_mismatch" not in registry.counters
