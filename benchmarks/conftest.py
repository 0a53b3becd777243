"""Shared fixtures for the benchmark harness.

Each bench regenerates one table or figure of the paper.  Besides the
timing that pytest-benchmark records, every bench *emits* the regenerated
rows: printed to stdout (visible with ``-s``) and written to
``benchmarks/results/<name>.txt`` so the reproduction artifacts persist.

Observability (:mod:`repro.obs`) is enabled for the whole bench session;
at teardown the per-stage wall-clock attribution (selection vs closed
form vs actuation, index preprocessing, simulation stepping, profiling
sweeps) is written to ``benchmarks/results/observability.json`` — the
machine-readable perf trajectory.  Its schema is the ``observability``
spec in :data:`repro.obs.artifacts.ARTIFACTS`, pinned by
``tests/test_bench_schema.py``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import obs
from repro.experiments.common import EvaluationContext, default_context

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def observability():
    """Record per-stage timings (and a trace) for the whole bench session."""
    registry = obs.enable()
    buffer = obs.enable_tracing(obs.TraceBuffer())
    yield registry
    RESULTS_DIR.mkdir(exist_ok=True)
    obs.write_artifact(
        RESULTS_DIR / "observability.json",
        obs.bench_observability(registry, trace=buffer),
    )
    obs.disable_tracing()
    obs.disable()


@pytest.fixture(scope="session")
def context() -> EvaluationContext:
    """The profiled 20-machine testbed shared by all benches."""
    return default_context(seed=2012)


@pytest.fixture(scope="session")
def emit():
    """Writer for regenerated figure data."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _emit
