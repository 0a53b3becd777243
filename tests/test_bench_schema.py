"""Schema checks for the benchmark results artifacts.

``benchmarks/conftest.py`` writes per-stage wall-clock attribution to
``benchmarks/results/observability.json`` at the end of every bench
session.  These tests pin that document's schema — both for a freshly
generated registry and for the baselines committed in
``benchmarks/baselines/``.  Fresh results in the git-ignored
``benchmarks/results/`` are validated by ``repro bench-check``, not
here, so a stale local result cannot fail the suite.
"""

import json
import pathlib

import pytest

from repro import obs
from repro.analysis.benchcheck import MetricSpec
from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.obs.artifacts import MAX_STAGE_SEGMENTS
from repro.testbed.synthetic import make_system_model

BASELINES_DIR = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "baselines"
)


@pytest.fixture
def solved_registry():
    """A registry populated by one instrumented solve."""
    registry = obs.enable(MetricsRegistry())
    try:
        model = make_system_model(n=8)
        JointOptimizer(model).solve(0.5 * sum(model.capacities))
    finally:
        obs.disable()
    return registry


def test_fresh_document_validates(solved_registry):
    document = obs.bench_observability(solved_registry)
    obs.validate_artifact("observability", document)
    # the stage timing map carries the solve pipeline's spans
    for stage in ("selection", "closed_form", "actuation"):
        assert document["stages"][stage]["count"] >= 1
    assert document["runs"] >= 1


def test_written_artifact_round_trips(solved_registry, tmp_path):
    path = obs.write_artifact(
        tmp_path / "observability.json",
        obs.bench_observability(solved_registry),
    )
    document = json.loads(path.read_text())
    obs.validate_artifact("observability", document)
    assert document == obs.bench_observability(solved_registry)


def test_stage_entries_are_complete(solved_registry):
    document = obs.bench_observability(solved_registry)
    for name, entry in document["stages"].items():
        assert set(entry) == {"count", "total", "mean", "min", "max"}, name
        assert entry["min"] <= entry["mean"] <= entry["max"]
        assert entry["count"] > 0


def test_existing_results_artifacts_validate():
    """The committed observability baseline must still parse."""
    path = BASELINES_DIR / "observability.json"
    obs.validate_artifact("observability", json.loads(path.read_text()))


def test_validator_requires_schema_stamp():
    with pytest.raises(ConfigurationError, match="schema"):
        obs.validate_artifact(
            "observability",
            {"stages": {}, "counters": {}, "gauges": {}, "runs": 0},
        )


def test_trace_section_included_when_traced(solved_registry):
    buffer = obs.TraceBuffer()
    buffer.start_span("selection")
    document = obs.bench_observability(solved_registry, trace=buffer)
    obs.validate_artifact("observability", document)
    assert document["trace"] == buffer.summary()
    assert document["trace"]["spans"] == 1


def test_trace_section_omitted_when_empty(solved_registry):
    document = obs.bench_observability(
        solved_registry, trace=obs.TraceBuffer()
    )
    assert "trace" not in document
    obs.validate_artifact("observability", document)


@pytest.mark.parametrize(
    "trace",
    [
        "not a map",
        {},
        {"schema": 1, "spans": 1, "events": 0, "dropped_spans": 0,
         "dropped_events": 0},  # missing 'violations'
        {"schema": 1, "spans": -1, "events": 0, "dropped_spans": 0,
         "dropped_events": 0, "violations": 0},
        {"schema": 1, "spans": 1.5, "events": 0, "dropped_spans": 0,
         "dropped_events": 0, "violations": 0},
    ],
)
def test_validator_rejects_malformed_trace_section(solved_registry, trace):
    document = obs.bench_observability(solved_registry)
    document["trace"] = trace
    with pytest.raises(ConfigurationError):
        obs.validate_artifact("observability", document)


_LEAKED_ALLOCATE = "/".join(["serving/allocate"] * 50)


@pytest.mark.parametrize(
    "path",
    [
        _LEAKED_ALLOCATE,  # the shape a shared span stack leaked
        _LEAKED_ALLOCATE + "/serving/batch",
        "serving/allocate/serving/ping/serving/allocate",
        "selection/selection",
        "/".join(f"s{i}" for i in range(MAX_STAGE_SEGMENTS + 1)),
    ],
)
def test_validator_rejects_leaked_stage_paths(solved_registry, path):
    document = obs.bench_observability(solved_registry)
    document["stages"][path] = dict(document["stages"]["selection"])
    with pytest.raises(ConfigurationError, match="leaked span stack"):
        obs.validate_artifact("observability", document)


def test_validator_accepts_deep_nesting_with_repeated_prefixes(
    solved_registry,
):
    document = obs.bench_observability(solved_registry)
    for path in (
        "control/mpc_campaign/control/mpc_horizon/control/linearize",
        "control/mpc_campaign/controller/replan/selection/"
        "consolidation/query",
        "/".join(f"s{i}" for i in range(MAX_STAGE_SEGMENTS)),
    ):
        document["stages"][path] = dict(document["stages"]["selection"])
    obs.validate_artifact("observability", document)


def _scale_entry(**overrides):
    entry = {
        "n": 20, "events": 150, "statuses": 3020, "queries": 64,
        "build_seconds": 0.01, "baseline_build_seconds": 0.2,
        "speedup": 20.0, "query_seconds_cold": 2e-3,
        "query_seconds_single": 1e-4,
        "query_seconds_batched": 5e-5, "identical_answers": True,
        "exact_gap": 0.0,
    }
    entry.update(overrides)
    return entry


def _scale_document(**entry_overrides):
    return {
        "schema": obs.SCHEMA_VERSION,
        "kind": "consolidation-scale",
        "seed": 2012,
        "entries": [_scale_entry(**entry_overrides)],
    }


class TestConsolidationScaleSchema:
    def test_fresh_document_validates(self):
        obs.validate_artifact("consolidation-scale", _scale_document())

    def test_baseline_skipped_entry_validates(self):
        obs.validate_artifact(
            "consolidation-scale",
            _scale_document(
                baseline_build_seconds=None, speedup=None,
                identical_answers=None,
            ),
        )

    def test_existing_scale_artifact_validates(self):
        path = BASELINES_DIR / "consolidation_scale.json"
        obs.validate_artifact(
            "consolidation-scale", json.loads(path.read_text())
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            {"schema": 99},
            {"kind": "something-else"},
            {"seed": "2012"},
            {"entries": []},
            {"entries": ["not a map"]},
        ],
        ids=["schema", "kind", "seed", "empty-entries", "entry-type"],
    )
    def test_rejects_malformed_documents(self, mutate):
        document = _scale_document()
        document.update(mutate)
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("consolidation-scale", document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"events": -1},
            {"build_seconds": -0.5},
            {"build_seconds": "fast"},
            {"queries": 1.5},
            # speedup / identical stamps must be null together with a
            # skipped baseline...
            {"baseline_build_seconds": None},
            {"baseline_build_seconds": None, "speedup": None},
            # ...and present (with identical_answers strictly true) when
            # the baseline ran.
            {"speedup": None},
            {"identical_answers": False},
            {"identical_answers": None},
        ],
        ids=["n", "events", "build-neg", "build-type", "queries-type",
             "null-baseline-speedup", "null-baseline-identical",
             "missing-speedup", "identical-false", "identical-null"],
    )
    def test_rejects_malformed_entries(self, overrides):
        with pytest.raises(ConfigurationError):
            obs.validate_artifact(
                "consolidation-scale", _scale_document(**overrides)
            )

    def test_rejects_missing_entry_keys(self):
        document = _scale_document()
        del document["entries"][0]["speedup"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_artifact("consolidation-scale", document)


def _sharded_entry(**overrides):
    entry = {
        "n": 80, "pods": 4, "statuses": 7120, "queries": 64,
        "build_seconds": 0.006, "query_seconds_single": 0.0004,
        "query_seconds_batched": 0.0005, "max_load_seconds": 0.006,
        "exact_gap": 0.0, "anneal_gap": -0.0035, "anneal_seconds": 0.02,
    }
    entry.update(overrides)
    return entry


class TestShardedScaleSection:
    def test_document_with_sharded_section_validates(self):
        document = _scale_document()
        document["sharded"] = [_sharded_entry()]
        obs.validate_artifact("consolidation-scale", document)

    def test_null_exact_gap_validates(self):
        # Above the exact-comparison cutoff no monolithic ground truth
        # is built; the gap is null, not fabricated.
        document = _scale_document()
        document["sharded"] = [_sharded_entry(exact_gap=None)]
        obs.validate_artifact("consolidation-scale", document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"pods": 0},
            {"pods": 81},
            {"build_seconds": -1.0},
            {"anneal_gap": None},
            {"exact_gap": "tiny"},
        ],
        ids=["pods-zero", "pods-gt-n", "build-neg", "anneal-null",
             "exact-type"],
    )
    def test_rejects_malformed_sharded_entries(self, overrides):
        document = _scale_document()
        document["sharded"] = [_sharded_entry(**overrides)]
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("consolidation-scale", document)

    def test_rejects_empty_or_missing_key_section(self):
        document = _scale_document()
        document["sharded"] = []
        with pytest.raises(ConfigurationError, match="non-empty"):
            obs.validate_artifact("consolidation-scale", document)
        entry = _sharded_entry()
        del entry["anneal_gap"]
        document["sharded"] = [entry]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_artifact("consolidation-scale", document)


def _sim_speed_entry(**overrides):
    entry = {
        "n": 20, "steps_numpy": 4000, "steps_python": 400,
        "seconds_numpy": 0.16, "seconds_python": 0.18,
        "steps_per_second_numpy": 25000.0,
        "steps_per_second_python": 2200.0,
        "speedup": 11.4, "identical_trajectory": True,
    }
    entry.update(overrides)
    return entry


def _sim_speed_document(**entry_overrides):
    return {
        "schema": obs.SCHEMA_VERSION,
        "kind": "simulation-speed",
        "seed": 2012,
        "dt": 0.5,
        "entries": [_sim_speed_entry(**entry_overrides)],
    }


class TestSimulationSpeedSchema:
    def test_fresh_document_validates(self):
        obs.validate_artifact("simulation-speed", _sim_speed_document())

    def test_existing_speed_artifact_validates(self):
        path = BASELINES_DIR / "simulation_speed.json"
        obs.validate_artifact("simulation-speed", json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "mutate",
        [
            {"schema": 99},
            {"kind": "consolidation-scale"},
            {"seed": "2012"},
            {"dt": 0.0},
            {"dt": "fast"},
            {"entries": []},
            {"entries": ["not a map"]},
        ],
        ids=["schema", "kind", "seed", "dt-zero", "dt-type",
             "empty-entries", "entry-type"],
    )
    def test_rejects_malformed_documents(self, mutate):
        document = _sim_speed_document()
        document.update(mutate)
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("simulation-speed", document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"steps_numpy": 0},
            {"steps_python": 2.5},
            {"seconds_numpy": 0.0},
            {"seconds_python": -1.0},
            {"steps_per_second_numpy": "fast"},
            {"speedup": 0.0},
            {"identical_trajectory": False},
            {"identical_trajectory": None},
        ],
        ids=["n", "steps-zero", "steps-type", "seconds-zero",
             "seconds-neg", "sps-type", "speedup-zero",
             "identical-false", "identical-null"],
    )
    def test_rejects_malformed_entries(self, overrides):
        with pytest.raises(ConfigurationError):
            obs.validate_artifact(
                "simulation-speed", _sim_speed_document(**overrides)
            )

    def test_rejects_missing_entry_keys(self):
        document = _sim_speed_document()
        del document["entries"][0]["speedup"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_artifact("simulation-speed", document)


def test_validator_rejects_inconsistent_stage_stats():
    bad = {
        "schema": obs.SCHEMA_VERSION,
        "stages": {
            "s": {"count": 2, "total": 1.0, "mean": 9.0,
                  "min": 0.4, "max": 0.6},
        },
        "counters": {},
        "gauges": {},
        "runs": 0,
    }
    with pytest.raises(ConfigurationError):
        obs.validate_artifact("observability", bad)


def _serving_entry(**overrides):
    entry = {
        "clients": 1000, "batching": True, "batch_window_seconds": 0.005,
        "max_batch": 512, "requests": 1000, "errors": 0,
        "duration_seconds": 0.05, "requests_per_second": 20000.0,
        "latency_mean_ms": 30.0, "latency_p50_ms": 28.0,
        "latency_p99_ms": 45.0, "batches": 2, "mean_batch_size": 500.0,
        "max_batch_size": 512, "coalesced": 900,
        "identical_answers": True,
        "batch_size_histogram": {"488": 1, "512": 1},
    }
    entry.update(overrides)
    return entry


def _serving_document(**entry_overrides):
    batched = _serving_entry(**entry_overrides)
    unbatched = _serving_entry(
        batching=False, latency_p50_ms=200.0, latency_p99_ms=400.0,
        batches=1000, mean_batch_size=1.0, max_batch_size=1,
        coalesced=0, batch_size_histogram={"1": 1000},
    )
    return {
        "schema": obs.SCHEMA_VERSION,
        "kind": "serving",
        "seed": 2012,
        "machines": 500,
        "index_statuses": 806500,
        "levels": 48,
        "warm_start_seconds": 0.2,
        "entries": [batched, unbatched],
    }


class TestServingSchema:
    def test_fresh_document_validates(self):
        obs.validate_artifact("serving", _serving_document())

    def test_existing_serving_artifact_validates(self):
        path = BASELINES_DIR / "serving.json"
        obs.validate_artifact("serving", json.loads(path.read_text()))

    def test_write_serving_round_trips(self, tmp_path):
        document = _serving_document()
        path = obs.write_artifact(tmp_path / "serving.json", document)
        assert json.loads(path.read_text()) == document

    def test_write_serving_refuses_invalid_documents(self, tmp_path):
        document = _serving_document()
        document["kind"] = "wrong"
        with pytest.raises(ConfigurationError):
            obs.write_artifact(tmp_path / "serving.json", document)
        assert not (tmp_path / "serving.json").exists()

    @pytest.mark.parametrize(
        "mutate",
        [
            {"schema": 99},
            {"kind": "consolidation-scale"},
            {"seed": "2012"},
            {"machines": 0},
            {"index_statuses": -1},
            {"levels": 0},
            {"warm_start_seconds": -0.1},
            {"entries": []},
            {"entries": ["not a map"]},
        ],
        ids=["schema", "kind", "seed", "machines", "statuses", "levels",
             "warm-start", "empty-entries", "entry-type"],
    )
    def test_rejects_malformed_documents(self, mutate):
        document = _serving_document()
        document.update(mutate)
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("serving", document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"clients": 0},
            {"requests": -1},
            {"errors": -1},
            {"duration_seconds": 0.0},
            {"requests_per_second": "fast"},
            {"latency_p99_ms": 0.0},
            {"mean_batch_size": 0.5},
            {"batching": "yes"},
            {"identical_answers": False},
            {"identical_answers": None},
            # p50 must not exceed p99
            {"latency_p50_ms": 50.0, "latency_p99_ms": 45.0},
            # histogram must be present, well-typed, and account for
            # every request
            {"batch_size_histogram": {}},
            {"batch_size_histogram": {"488": 1}},
            {"batch_size_histogram": {"-5": 1, "1005": 1}},
            {"batch_size_histogram": {"488": 1, "512": "one"}},
        ],
        ids=["clients", "requests", "errors", "duration", "rps-type",
             "p99-zero", "mean-batch", "batching-type",
             "identical-false", "identical-null", "p50-above-p99",
             "histogram-empty", "histogram-underaccounts",
             "histogram-bad-key", "histogram-bad-count"],
    )
    def test_rejects_malformed_entries(self, overrides):
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("serving", _serving_document(**overrides))

    def test_rejects_missing_entry_keys(self):
        document = _serving_document()
        del document["entries"][0]["coalesced"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_artifact("serving", document)

    def test_rejects_unpaired_client_counts(self):
        # Every client count must appear exactly twice: batching on+off.
        document = _serving_document()
        del document["entries"][1]  # drop the unbatched half
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("serving", document)
        both_batched = _serving_document()
        both_batched["entries"][1] = dict(
            both_batched["entries"][0]
        )
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("serving", both_batched)


_MPC_CONTROLLER_NAMES = ("reactive", "resilient", "mpc", "oracle")


def _mpc_row(**overrides):
    row = {
        "violation_seconds": 0.0, "energy_joules": 3.3e7,
        "energy_overhead_vs_oracle": 0.01,
        "offered_task_seconds": 8.0e5, "served_task_seconds": 7.9e5,
        "shed_task_seconds": 1.0e4, "reconfigurations": 4,
        "suppressed": 1, "on_set_changes": 2, "max_t_cpu": 341.8,
        "horizon_solves": 80, "fallbacks": 0, "precools": 7,
    }
    row.update(overrides)
    return row


def _mpc_document(**row_overrides):
    controllers = {}
    entries = []
    for name in _MPC_CONTROLLER_NAMES:
        row = _mpc_row(
            **(row_overrides if name == "mpc" else {}),
            **({"violation_seconds": 596.0} if name == "reactive" else {}),
        )
        if name == "oracle":
            row["energy_overhead_vs_oracle"] = 0.0
        controllers[name] = row
        entries.append({"scenario": "flash-crowd", "controller": name,
                        **row})
    mpc_viol = controllers["mpc"]["violation_seconds"]
    mpc_energy = controllers["mpc"]["energy_joules"]
    try:
        dominates = bool(mpc_viol < 596.0 and mpc_energy <= 3.34e7)
    except TypeError:
        dominates = False  # a mutated row; the validator rejects earlier
    return {
        "schema": obs.SCHEMA_VERSION,
        "kind": "mpc",
        "seed": 2012,
        "machines": 6,
        "horizon": 6,
        "control_dt": 60.0,
        "sim_dt": 2.0,
        "entries": entries,
        "scenarios": [
            {
                "name": "flash-crowd",
                "description": "surge over a steady base",
                "flash_crowd": True,
                "duration": 5400.0,
                "peak_load_fraction": 1.3,
                "controllers": controllers,
            }
        ],
        "dominance": [
            {
                "scenario": "flash-crowd",
                "flash_crowd": True,
                "mpc_violation_seconds": mpc_viol,
                "reactive_violation_seconds": 596.0,
                "mpc_energy_joules": mpc_energy,
                "reactive_energy_joules": 3.34e7,
                "dominates": dominates,
            }
        ],
    }


class TestMpcSchema:
    def test_fresh_document_validates(self):
        obs.validate_artifact("mpc", _mpc_document())

    def test_existing_mpc_artifact_validates(self):
        path = BASELINES_DIR / "mpc.json"
        obs.validate_artifact("mpc", json.loads(path.read_text()))

    def test_committed_baseline_validates_and_dominates(self):
        document = json.loads((BASELINES_DIR / "mpc.json").read_text())
        obs.validate_artifact("mpc", document)
        flash = [r for r in document["dominance"] if r["flash_crowd"]]
        assert flash and any(r["dominates"] for r in flash)

    def test_write_mpc_round_trips(self, tmp_path):
        document = _mpc_document()
        path = obs.write_artifact(tmp_path / "mpc.json", document)
        assert json.loads(path.read_text()) == document

    def test_write_mpc_refuses_invalid_documents(self, tmp_path):
        document = _mpc_document()
        document["kind"] = "wrong"
        with pytest.raises(ConfigurationError):
            obs.write_artifact(tmp_path / "mpc.json", document)
        assert not (tmp_path / "mpc.json").exists()

    def test_null_oracle_overhead_validates(self):
        document = _mpc_document()
        for name in _MPC_CONTROLLER_NAMES:
            document["scenarios"][0]["controllers"][name][
                "energy_overhead_vs_oracle"
            ] = None
        for entry in document["entries"]:
            entry["energy_overhead_vs_oracle"] = None
        obs.validate_artifact("mpc", document)

    @pytest.mark.parametrize(
        "mutate",
        [
            {"schema": 99},
            {"kind": "resilience"},
            {"seed": "2012"},
            {"machines": 0},
            {"horizon": 0},
            {"control_dt": 0.0},
            {"sim_dt": -1.0},
            {"scenarios": []},
            {"scenarios": ["not a map"]},
            {"entries": "not a list"},
            {"dominance": []},
        ],
        ids=["schema", "kind", "seed", "machines", "horizon",
             "control-dt", "sim-dt", "empty-scenarios", "scenario-type",
             "entries-type", "dominance-count"],
    )
    def test_rejects_malformed_documents(self, mutate):
        document = _mpc_document()
        document.update(mutate)
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("mpc", document)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"violation_seconds": -1.0},
            {"energy_joules": "cheap"},
            {"reconfigurations": -1},
            {"horizon_solves": 1.5},
            {"max_t_cpu": None},
            {"energy_overhead_vs_oracle": "low"},
            # served work cannot exceed offered work
            {"served_task_seconds": 9.0e5},
        ],
        ids=["violation-neg", "energy-type", "reconf-neg",
             "solves-type", "max-t-type", "overhead-type",
             "served-above-offered"],
    )
    def test_rejects_malformed_rows(self, overrides):
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("mpc", _mpc_document(**overrides))

    def test_rejects_missing_controller(self):
        document = _mpc_document()
        del document["scenarios"][0]["controllers"]["oracle"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_artifact("mpc", document)

    def test_rejects_missing_row_keys(self):
        document = _mpc_document()
        del document["scenarios"][0]["controllers"]["mpc"]["precools"]
        with pytest.raises(ConfigurationError, match="missing"):
            obs.validate_artifact("mpc", document)

    def test_rejects_incomplete_entry_product(self):
        document = _mpc_document()
        del document["entries"][0]
        with pytest.raises(ConfigurationError, match="product"):
            obs.validate_artifact("mpc", document)

    def test_rejects_unknown_entry_scenario(self):
        document = _mpc_document()
        document["entries"][0]["scenario"] = "ghost"
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            obs.validate_artifact("mpc", document)

    def test_rejects_inconsistent_dominance_flag(self):
        document = _mpc_document()
        document["dominance"][0]["dominates"] = False
        with pytest.raises(ConfigurationError, match="disagrees"):
            obs.validate_artifact("mpc", document)

    def test_rejects_duplicate_scenario_names(self):
        document = _mpc_document()
        clone = dict(document["scenarios"][0])
        document["scenarios"].append(clone)
        with pytest.raises(ConfigurationError, match="unique"):
            obs.validate_artifact("mpc", document)


def _with(document, path, value):
    """``document`` with the value at ``path`` (keys and indices) set."""
    target = document
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return document


_NAN, _INF = float("nan"), float("inf")


class TestNonFiniteAndBoolValues:
    """Every numeric field refuses NaN/±inf, and a bool never passes
    where an int or number is required (``bool`` subclasses ``int``)."""

    @pytest.mark.parametrize(
        "kind, build, path, value",
        [
            ("serving", _serving_document,
             ("entries", 0, "latency_p99_ms"), _NAN),
            ("serving", _serving_document,
             ("entries", 1, "requests_per_second"), _INF),
            ("serving", _serving_document, ("warm_start_seconds",), -_INF),
            ("mpc", _mpc_document, ("entries", 2, "energy_joules"), _NAN),
            ("mpc", _mpc_document,
             ("dominance", 0, "mpc_violation_seconds"), _NAN),
            ("mpc", _mpc_document, ("sim_dt",), _INF),
            ("consolidation-scale", _scale_document,
             ("entries", 0, "build_seconds"), _NAN),
            ("simulation-speed", _sim_speed_document,
             ("entries", 0, "steps_per_second_numpy"), _INF),
            ("simulation-speed", _sim_speed_document, ("dt",), _NAN),
        ],
        ids=["serving-p99-nan", "serving-rps-inf", "serving-warm-neg-inf",
             "mpc-energy-nan", "mpc-dominance-nan", "mpc-sim-dt-inf",
             "scale-build-nan", "sim-sps-inf", "sim-dt-nan"],
    )
    def test_rejects_non_finite_numbers(self, kind, build, path, value):
        document = _with(build(), path, value)
        with pytest.raises(ConfigurationError, match="finite"):
            obs.validate_artifact(kind, document)

    def test_rejects_non_finite_observability_values(self):
        document = {"schema": obs.SCHEMA_VERSION, "stages": {},
                    "counters": {"c": _INF}, "gauges": {}, "runs": 0}
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("observability", document)
        document["counters"] = {}
        document["gauges"] = {"g": _NAN}
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("observability", document)

    @pytest.mark.parametrize(
        "kind, build, path, value",
        [
            ("serving", _serving_document, ("machines",), True),
            ("serving", _serving_document, ("seed",), False),
            ("serving", _serving_document, ("entries", 0, "errors"), False),
            ("mpc", _mpc_document, ("horizon",), True),
            ("mpc", _mpc_document,
             ("scenarios", 0, "controllers", "mpc", "precools"), False),
            ("mpc", _mpc_document, ("entries", 0, "precools"), False),
            ("consolidation-scale", _scale_document,
             ("entries", 0, "n"), True),
            ("simulation-speed", _sim_speed_document,
             ("entries", 0, "speedup"), True),
        ],
        ids=["serving-machines", "serving-seed", "serving-errors",
             "mpc-horizon", "mpc-precools", "mpc-entry-precools",
             "scale-n", "sim-speedup"],
    )
    def test_rejects_bools_as_numbers(self, kind, build, path, value):
        document = _with(build(), path, value)
        with pytest.raises(ConfigurationError):
            obs.validate_artifact(kind, document)

    def test_writer_refuses_non_finite_json(self, tmp_path):
        document = _mpc_document()
        document["weather"] = {"mean_wetbulb": _NAN}  # an unchecked extra
        with pytest.raises(ConfigurationError, match="finite"):
            obs.write_artifact(tmp_path / "mpc.json", document)
        assert not (tmp_path / "mpc.json").exists()

    @pytest.mark.parametrize(
        "metric, current",
        [
            (MetricSpec("latency_p99_ms", "lower"), _NAN),
            (MetricSpec("latency_p99_ms", "lower"), _INF),
            (MetricSpec("latency_p99_ms", "lower"), -_INF),
            (MetricSpec("requests_per_second", "higher"), _NAN),
            (MetricSpec("requests_per_second", "higher"), _INF),
            (MetricSpec("requests_per_second", "higher"), -_INF),
            (MetricSpec("mpc_violation_seconds", "lower",
                        zero_baseline="strict"), _NAN),
            (MetricSpec("mpc_violation_seconds", "lower",
                        zero_baseline="strict"), -_INF),
        ],
        ids=["lower-nan", "lower-inf", "lower-neg-inf", "higher-nan",
             "higher-inf", "higher-neg-inf", "strict-zero-nan",
             "strict-zero-neg-inf"],
    )
    def test_non_finite_current_value_is_a_regression(self, metric, current):
        for baseline in (0.0, 5.0):
            assert metric.verdict(baseline, current) == "regression"

    def test_gate_flags_a_nan_mpc_violation(self):
        from repro.analysis.benchcheck import compare_documents

        baseline = _mpc_document()
        current = _mpc_document()
        current["dominance"][0]["mpc_violation_seconds"] = _NAN
        verdicts = {
            (row.subject, row.metric): row.verdict
            for row in compare_documents("mpc.json", baseline, current)
        }
        assert verdicts[
            ("dominance:scenario=flash-crowd", "mpc_violation_seconds")
        ] == "regression"


class TestClaims:
    """Claims are checked apart from the schema: a valid artifact can
    still fail to bear out the result it certifies."""

    def _failed(self, kind, document):
        obs.validate_artifact(kind, document)
        return [
            claim.name
            for claim, held in obs.evaluate_claims(kind, document)
            if not held
        ]

    def test_fixture_documents_bear_out_their_claims(self):
        assert self._failed("mpc", _mpc_document()) == []
        assert self._failed("serving", _serving_document()) == []

    def test_lost_dominance_fails_its_claim(self):
        document = _mpc_document(violation_seconds=600.0)
        assert self._failed("mpc", document) == ["flash_crowd_dominance"]

    def test_serving_errors_fail_their_claim(self):
        document = _serving_document(errors=2)
        assert self._failed("serving", document) == ["no_errors"]

    def test_scale_claim_needs_a_measured_exact_gap(self):
        document = _scale_document(exact_gap=None)
        document["sharded"] = [_sharded_entry(exact_gap=None)]
        assert self._failed("consolidation-scale", document) == [
            "exact_gap"
        ]
        document["entries"][0]["exact_gap"] = -1e-12
        assert self._failed("consolidation-scale", document) == []
        document["sharded"].append(_sharded_entry(exact_gap=1e-6))
        assert self._failed("consolidation-scale", document) == [
            "exact_gap"
        ]
        document["sharded"].pop()
        document["entries"][0]["exact_gap"] = 0.01
        assert self._failed("consolidation-scale", document) == [
            "exact_gap"
        ]

    def test_ci_bench_matrix_covers_every_stamped_kind(self):
        ci = (
            pathlib.Path(__file__).parent.parent
            / ".github" / "workflows" / "ci.yml"
        ).read_text()
        for spec in obs.ARTIFACTS.values():
            if spec.stamped:
                assert f"- kind: {spec.kind}" in ci, spec.kind
