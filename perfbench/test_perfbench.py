"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import hostspeed
import metrics
import serve
from ledger import Ledger, Patches
from repro.core.optimizer import JointOptimizer
from repro.serving.server import AllocationServer, ServingConfig
from repro.testbed.synthetic import make_system_model

HERE = pathlib.Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed():
    table = {**metrics.END_TO_END, **metrics.per_layer()}
    assert len(table) == len(metrics.END_TO_END) + len(metrics.per_layer())
    for name, (unit, better) in table.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
        assert better in ("higher", "lower"), name


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == metrics.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == metrics.per_layer()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", sorted(serve.PROFILES))
def test_the_seed_fixes_schedule_and_loads(workload):
    profile = serve.PROFILES[workload]
    inputs = serve.make_inputs(profile, 7, 2.0, 20_000.0)
    assert inputs == serve.make_inputs(profile, 7, 2.0, 20_000.0)
    other = serve.make_inputs(profile, 8, 2.0, 20_000.0)
    assert inputs != other
    assert inputs.open_offsets == other.open_offsets
    assert len(inputs.open_loads) == profile.sends
    assert all(b > a for a, b in zip(inputs.open_offsets,
                                     inputs.open_offsets[1:]))
    assert len(inputs.sample) == serve.CHECK_SAMPLE
    pieces = serve.open_pieces(inputs)
    chunks = profile.sends // profile.chunk
    assert len(pieces) == chunks * profile.repeats
    for repeat in range(profile.repeats):
        own = pieces[repeat * chunks:(repeat + 1) * chunks]
        assert sum((p[2] for p in own), ()) == inputs.open_loads
    first_ids = [p[1] for p in pieces]
    assert len(set(first_ids)) == len(first_ids)
    for _, _, _, offsets in pieces:
        assert 0.0 < offsets[0] and list(offsets) == sorted(offsets)
    later = inputs.open_loads + sum(inputs.bursts, ())
    first = inputs.cold[0]
    assert len(set(first)) == len(first) == serve.COLD_REQUESTS
    assert all(sorted(cold) == sorted(first) for cold in inputs.cold)
    assert set(later) <= set(first)


def test_patching_a_missing_entry_point_names_it():
    with pytest.raises(AttributeError, match="no_such_entry_point"):
        Patches().set(serve, "no_such_entry_point", None)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_plus_unaccounted_equal_wall_time():
    clock = _Clock()
    ledger = Ledger(clock=clock)

    def inner():
        clock.now += 2.0

    wrapped_inner = ledger.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 3.0
        wrapped_inner()

    wrapped_outer = ledger.wrap("outer", outer)
    before, start = ledger.snapshot(), clock()
    wrapped_outer()
    clock.now += 4.0  # time outside every wrapped layer
    wrapped_inner()
    window, wall = ledger.since(before), clock() - start

    assert window["calls"] == {"outer": 1, "inner": 3}
    assert window["self_s"] == {"outer": 4.0, "inner": 6.0}
    unaccounted = wall - window["thread_self_s"]["main"]
    assert unaccounted == 4.0
    assert sum(window["self_s"].values()) + unaccounted == wall


def _serve_once(loads: list[float]) -> tuple[serve.Checker, JointOptimizer]:
    """Serve ``loads`` at once from a small server; every one is kept."""
    checker = serve.Checker(keep=set(range(len(loads))))
    record = serve.PhaseRecord("cold", 0, tuple(loads), (0.0,) * len(loads))

    async def main():
        server = AllocationServer(
            JointOptimizer(make_system_model(n=8)), ServingConfig()
        )
        await server.start()
        try:
            await serve.drive(server, record, checker)
        finally:
            await server.drain()

    asyncio.run(main())
    return checker, JointOptimizer(make_system_model(n=8))


def _outcome(checker: serve.Checker) -> metrics.Outcome:
    return metrics.Outcome(checker.attempted, len(checker.failures), {})


def test_correct_answers_pass_and_a_corrupted_one_fails():
    loads = [60.0, 120.0, 200.0]
    checker, reference = _serve_once(loads)
    checker.verify(reference)
    assert checker.attempted == 3 and not checker.failures
    assert _outcome(checker).fail_share == 0.0

    # A wrong ON set on the wire fails the check against a direct solve.
    load, wire = checker.kept[1]
    message = json.loads(wire)
    message["result"]["on_ids"] = message["result"]["on_ids"][1:]
    checker.kept[1] = (load, json.dumps(message).encode())
    checker.verify(reference)
    assert set(checker.failures) == {1}
    assert _outcome(checker).fail_share > 0.0


def test_a_load_map_that_misses_the_load_fails():
    checker, _ = _serve_once([150.0])
    load, wire = checker.kept[0]
    response = json.loads(wire)
    first = next(iter(response["result"]["loads"]))
    response["result"]["loads"][first] += 1e-3
    checker.served(0, load, response)
    assert 0 in checker.failures
    assert _outcome(checker).fail_share > 0.0


def test_without_package_sources_it_exits_nonzero_silently(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-quantized",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_piece_is_scaled_by_the_calibrations_either_side(monkeypatch):
    passes = iter([0.004, 0.006, 0.010])
    monkeypatch.setattr(hostspeed, "calibrate", lambda: next(passes))
    speed = hostspeed.Speed()
    assert speed.split()[1] == pytest.approx(hostspeed.REFERENCE_S / 0.005)
    assert speed.split()[1] == pytest.approx(hostspeed.REFERENCE_S / 0.008)
    assert speed.pass_ms == pytest.approx(6.0)
