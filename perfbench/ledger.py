"""Per-layer ledger for the traced benchmark run.

The ledger wraps public entry points of the measured modules from
outside the program and keeps, per thread, a stack of open spans.  A
layer's *self* time is a span's duration minus the time covered by the
wrapped spans it called.  On one thread the self times of every span
add up exactly to the time that thread spent inside wrapped code, so
over a window with no span open at either edge::

    sum(self times on the thread) + unaccounted = window wall time

Counters (for example the distinct loads a query saw) and raw samples
(for example batcher waits) ride along so that ratios are measured
where the work happens.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

from repro.core import optimizer as optimizer_module
from repro.core.consolidation import ConsolidationIndex
from repro.core.optimizer import JointOptimizer
from repro.serving import server as server_module


class Patches:
    """Attribute replacements that :meth:`restore` undoes, newest first."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    @staticmethod
    def original(target: Any, attr: str) -> Any:
        """``target.attr``, or a clear error if the program dropped it."""
        try:
            return getattr(target, attr)
        except AttributeError:
            name = getattr(target, "__name__", repr(target))
            raise AttributeError(
                f"perfbench times {name}.{attr}, which no longer exists; "
                "update perfbench to the new entry point"
            ) from None

    def set(self, target: Any, attr: str, replacement: Any) -> None:
        self.original(target, attr)
        self._saved.append((target, attr, target.__dict__.get(attr)))
        setattr(target, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)


class Ledger:
    """Span stacks, self times and counters of one traced run.

    Self times are also summed per thread: ``main`` for the process's
    main thread (the event loop in the serving workloads), ``other``
    for every other thread (the server's compute thread).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.thread_self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list] = defaultdict(list)
        self.patches = Patches()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.thread = (
                "main"
                if threading.current_thread() is self._main
                else "other"
            )
        return stack

    def top_owner(self) -> Any:
        """The object that opened this thread's innermost span, if any."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def call(
        self,
        layer: str,
        fn: Callable,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        owner: Any = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a ``layer`` span."""
        stack = self._stack()
        frame = [0.0, owner]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            elapsed = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            own = elapsed - frame[0]
            thread = self._local.thread
            with self._lock:
                self.calls[layer] += 1
                self.self_s[layer] += own
                self.thread_self_s[thread] += own

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``layer`` span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)

        return wrapper

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def patch_layer(self, target: Any, attr: str, layer: str) -> None:
        """Wrap the callable ``target.attr`` as a ``layer`` span until
        ``self.patches.restore()``."""
        self.patches.set(
            target, attr, self.wrap(layer, self.patches.original(target, attr))
        )

    # ------------------------------------------------------------------ #
    # Windows
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Copy of every total, for :meth:`since`."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "thread_self_s": dict(self.thread_self_s),
                "counters": dict(self.counters),
                "samples": {k: len(v) for k, v in self.samples.items()},
            }

    def since(self, before: dict) -> dict:
        """Totals accumulated after ``before`` was taken."""
        now = self.snapshot()
        delta: dict = {}
        for part in ("calls", "self_s", "thread_self_s", "counters"):
            old = before[part]
            delta[part] = {
                k: v - old.get(k, 0) for k, v in now[part].items()
            }
        with self._lock:
            delta["samples"] = {
                k: list(v[before["samples"].get(k, 0):])
                for k, v in self.samples.items()
            }
        return delta


def instrument_core(ledger: Ledger) -> None:
    """Spans around the allocation layers both pipelines share.

    ``solve_closed_form`` is patched where it is imported, because the
    optimizer and the server call it through their own module names.
    """
    ledger.patch_layer(optimizer_module, "solve_closed_form", "closed_form")
    ledger.patch_layer(server_module, "solve_closed_form", "closed_form")
    ledger.patch_layer(JointOptimizer, "solve", "optimizer.solve")
    ledger.patch_layer(
        ConsolidationIndex, "__init__", "optimizer.index_build"
    )
    ledger.patch_layer(
        ConsolidationIndex, "query_refined", "consolidation.query_refined"
    )
    query_many = ledger.patches.original(ConsolidationIndex, "query_many")

    @functools.wraps(query_many)
    def counted_query_many(self, loads, *args, **kwargs):
        loads = list(loads)
        ledger.count("consolidation.query_many.distinct", len(set(loads)))
        return ledger.call(
            "consolidation.query_many", query_many, (self, loads, *args),
            kwargs,
        )

    ledger.patches.set(ConsolidationIndex, "query_many", counted_query_many)


def merge(windows: list[dict]) -> dict:
    """Sum several :meth:`Ledger.since` windows into one."""
    total: dict = {
        "calls": defaultdict(int),
        "self_s": defaultdict(float),
        "thread_self_s": defaultdict(float),
        "counters": defaultdict(float),
        "samples": defaultdict(list),
    }
    for window in windows:
        for part in ("calls", "self_s", "thread_self_s", "counters"):
            for k, v in window[part].items():
                total[part][k] += v
        for k, v in window["samples"].items():
            total["samples"][k].extend(v)
    return total
