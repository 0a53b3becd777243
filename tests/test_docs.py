"""Documentation consistency tests.

Docs rot silently; these tests keep the load-bearing parts honest: the
module map in DESIGN.md must list only files that exist, the README
quickstart must actually run, the per-experiment index must point at
real bench files, and **every fenced python block** in docs/api.md,
docs/observability.md, docs/resilience.md, docs/algorithms.md,
docs/serving.md, and docs/control.md executes — cumulatively, top to
bottom, the way a reader would paste them into one session.
"""

import pathlib
import re
import textwrap

import pytest

REPO = pathlib.Path(__file__).parent.parent


def python_blocks(path: pathlib.Path) -> list[str]:
    """All fenced ```python blocks of a markdown file, in order."""
    return [
        textwrap.dedent(block)
        for block in re.findall(
            r"```python\n(.*?)```", path.read_text(), re.DOTALL
        )
    ]


def run_document_blocks(path: pathlib.Path, tmp_path, monkeypatch):
    """Execute a document's python blocks in one shared namespace.

    Blocks run cumulatively (later blocks may use names bound earlier),
    with prints silenced and the cwd pointed at a scratch directory so
    examples that write files stay out of the repo.
    """
    blocks = python_blocks(path)
    assert blocks, f"{path.name} has no python examples"
    monkeypatch.chdir(tmp_path)
    namespace = {"print": lambda *a, **k: None}
    for i, block in enumerate(blocks):
        source = compile(block, f"<{path.name} block {i}>", "exec")
        exec(source, namespace)


class TestDesignDocument:
    def test_module_map_paths_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        block = design.split("```")[1]
        for line in block.splitlines():
            match = re.match(r"\s+(\S+\.py)\s", line)
            if not match:
                continue
            name = match.group(1)
            hits = list((REPO / "src" / "repro").rglob(name))
            assert hits, f"DESIGN.md lists {name} but no such module exists"

    def test_experiment_index_bench_targets_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        for target in re.findall(r"benchmarks/(bench_\w+\.py)", design):
            assert (REPO / "benchmarks" / target).exists(), target

    def test_no_title_collision_was_declared(self):
        design = (REPO / "DESIGN.md").read_text()
        assert "matches the target paper" in design


class TestReadme:
    def test_quickstart_snippet_runs(self):
        readme = (REPO / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README has no python quickstart"
        snippet = textwrap.dedent(blocks[0])
        # Silence the snippet's prints but execute it for real.
        namespace = {"print": lambda *a, **k: None}
        exec(compile(snippet, "<readme>", "exec"), namespace)

    def test_examples_table_lists_real_scripts(self):
        readme = (REPO / "README.md").read_text()
        for script in re.findall(r"`(\w+\.py)`", readme):
            in_examples = (REPO / "examples" / script).exists()
            in_benchmarks = (REPO / "benchmarks" / script).exists()
            hits = list((REPO / "src").rglob(script))
            assert in_examples or in_benchmarks or hits, script


class TestApiDocument:
    def test_every_python_block_executes(self, tmp_path, monkeypatch):
        run_document_blocks(REPO / "docs" / "api.md", tmp_path, monkeypatch)

    def test_documented_selection_methods_exist(self):
        from repro.core.optimizer import JointOptimizer
        from repro.testbed.synthetic import make_system_model
        from tests import oracles

        text = (REPO / "docs" / "api.md").read_text()
        model = make_system_model(n=4)
        assert "`pods`" in text
        for pods, method in ((None, "index"), (2, "sharded")):
            assert f"`method=\"{method}\"`" in text, method
            # doc claim holds
            assert JointOptimizer(model, pods=pods).method == method
        for oracle in ("ExactSelectionOptimizer", "BruteForceOptimizer"):
            assert f"`{oracle}`" in text, oracle
            assert hasattr(oracles, oracle), oracle
        assert "query_refined" in text


class TestObservabilityDocument:
    def test_every_python_block_executes(self, tmp_path, monkeypatch):
        from repro import obs

        try:
            run_document_blocks(
                REPO / "docs" / "observability.md", tmp_path, monkeypatch
            )
        finally:
            obs.disable()  # belt and braces: never leak the global switch
        assert not obs.enabled(), (
            "observability.md must leave recording disabled "
            "(end the walkthrough with obs.disable())"
        )

    def test_linked_from_readme_and_api(self):
        assert "docs/observability.md" in (REPO / "README.md").read_text()
        assert "observability.md" in (REPO / "docs" / "api.md").read_text()

    def test_artifact_specs_section_is_current(self):
        """Every declared artifact kind is named in the specs section."""
        from repro import obs

        text = (REPO / "docs" / "observability.md").read_text()
        section = text.split("## Artifact specs", 1)[1].split("\n## ")[0]
        for kind in obs.ARTIFACTS:
            assert f"`{kind}`" in section, kind

    def test_simulation_performance_section_is_current(self):
        """The one-engine story and bench schema docs must track the
        code: the reference loops are test oracles, not an option."""
        from repro import obs
        from tests import oracles

        text = (REPO / "docs" / "observability.md").read_text()
        assert "## Simulation performance" in text
        section = text.split("## Simulation performance", 1)[1]
        section = section.split("\n## ")[0]
        assert "tests/oracles" in section
        for name in oracles.__all__:
            assert name in section, name
        docs = [REPO / "README.md", *(REPO / "docs").rglob("*.md")]
        for path in docs:
            doc = path.read_text()
            for stale in ("sim_engine", "--sim-engine", 'engine="python"'):
                assert stale not in doc, (path.name, stale)
        assert "steady_state_many" in text
        assert 'validate_artifact("simulation-speed"' in text
        assert "simulation-speed" in obs.ARTIFACTS  # the documented spec
        assert obs.suspended_tracing  # the documented bench helper
        assert "REPRO_BENCH_SIM_NS" in text
        assert (REPO / "benchmarks" / "bench_simulation_speed.py").exists()

    def test_serving_telemetry_section_is_current(self):
        """The windowed-metrics walkthrough must track the obs surface."""
        from repro import obs

        text = (REPO / "docs" / "observability.md").read_text()
        assert "## Serving telemetry" in text
        for name in ("WindowedCounter", "SlidingHistogram",
                     "RotatingTraceExporter", "serving_monitors",
                     "render_prometheus", "validate_prometheus"):
            assert name in text, name
            assert hasattr(obs, name), name
        assert "repro top" in text
        assert "bench-check" in text


class TestResilienceDocument:
    def test_every_python_block_executes(self, tmp_path, monkeypatch):
        from repro import obs

        try:
            run_document_blocks(
                REPO / "docs" / "resilience.md", tmp_path, monkeypatch
            )
        finally:
            obs.disable()
        assert not obs.enabled(), (
            "resilience.md examples must not leave obs recording enabled"
        )

    def test_documented_fault_kinds_exist(self):
        from repro.faults import FAULT_KINDS

        text = (REPO / "docs" / "resilience.md").read_text()
        for kind in FAULT_KINDS:
            assert f"`{kind}`" in text, kind

    def test_documented_detector_defaults_match_code(self):
        import inspect

        from repro.faults import SensorQuarantine

        text = (REPO / "docs" / "resilience.md").read_text()
        signature = inspect.signature(SensorQuarantine.__init__)
        for name in ("stuck_window", "stuck_tolerance", "max_rate",
                     "dropout_window", "recovery_hold"):
            default = signature.parameters[name].default
            assert f"`{name}`" in text, name
            # The parenthesized default next to each threshold name must
            # match the code (docs rot check).
            assert f"({default:g}" in text or f"({default}" in text, (
                f"{name} default {default} not documented"
            )

    def test_linked_from_readme_and_api(self):
        assert "docs/resilience.md" in (REPO / "README.md").read_text()
        assert "resilience.md" in (REPO / "docs" / "api.md").read_text()


class TestAlgorithmsDocument:
    def test_every_python_block_executes(self, tmp_path, monkeypatch):
        run_document_blocks(
            REPO / "docs" / "algorithms.md", tmp_path, monkeypatch
        )

    def test_batched_query_contract_is_documented(self):
        from repro.core.consolidation import (
            ConsolidationIndex,
            consolidation_cache_key,
        )

        text = (REPO / "docs" / "algorithms.md").read_text()
        assert "query_many" in text
        assert "skip_infeasible" in text
        assert "consolidation_cache_key" in text
        assert ConsolidationIndex.query_many  # the documented API
        assert consolidation_cache_key


class TestServingDocument:
    def test_every_python_block_executes(self, tmp_path, monkeypatch):
        run_document_blocks(
            REPO / "docs" / "serving.md", tmp_path, monkeypatch
        )

    def test_documented_surface_exists(self):
        import repro.serving as serving

        text = (REPO / "docs" / "serving.md").read_text()
        for name in ("AllocationServer", "ServingClient", "ServingConfig",
                     "MicroBatcher", "background_server", "quantized_loads",
                     "run_load"):
            assert name in text, name
            assert hasattr(serving, name), name
        # Every wire op must appear in the protocol table.
        for op in serving.OPS:
            assert f"`{op}`" in text, op

    def test_documented_config_defaults_match_code(self):
        import inspect

        from repro.serving import ServingConfig

        text = (REPO / "docs" / "serving.md").read_text()
        fields = {
            f.name: f.default
            for f in inspect.signature(ServingConfig).parameters.values()
        }
        assert "512" in text and fields["max_batch"] == 512
        assert "5 ms" in text and fields["batch_window"] == 0.005

    def test_telemetry_section_is_current(self):
        from repro.serving import ServingTelemetry

        text = (REPO / "docs" / "serving.md").read_text()
        assert "## Telemetry, tracing, and SLOs" in text
        assert "ServingTelemetry" in text and ServingTelemetry
        for flag in ("--trace-path", "--slo-p99-ms", "--slo-policy"):
            assert flag in text, flag
        assert "repro top" in text
        assert "repro bench-check" in text

    def test_linked_from_readme_and_api(self):
        assert "docs/serving.md" in (REPO / "README.md").read_text()
        assert "serving.md" in (REPO / "docs" / "api.md").read_text()


class TestControlDocument:
    def test_every_python_block_executes(self, tmp_path, monkeypatch):
        run_document_blocks(
            REPO / "docs" / "control.md", tmp_path, monkeypatch
        )

    def test_documented_surface_exists(self):
        import repro.control as control
        import repro.workload.traces as traces
        from repro import obs

        text = (REPO / "docs" / "control.md").read_text()
        for name in ("LinearizedPlant", "MPCController",
                     "run_mpc_campaign", "demand_scenarios"):
            assert name in text, name
            assert hasattr(control, name), name
        for name in ("flash_crowd_trace", "overlay_traces",
                     "noisy_trace", "clamped_trace"):
            assert name in text, name
            assert hasattr(traces, name), name
        assert 'validate_artifact("mpc"' in text and obs.validate_artifact
        assert "write_artifact" in text and obs.write_artifact
        assert "flash_crowd_dominance" in text
        assert "flash_crowd_dominance" in {
            claim.name for claim in obs.ARTIFACTS["mpc"].claims
        }

    def test_documented_campaign_controllers_match_code(self):
        from repro.control import MPC_CONTROLLERS

        text = (REPO / "docs" / "control.md").read_text()
        for name in MPC_CONTROLLERS:
            assert f"`{name}`" in text, name
        assert "repro mpc" in text
        assert "bench-check" in text

    def test_linked_from_readme_and_api(self):
        assert "docs/control.md" in (REPO / "README.md").read_text()
        assert "control.md" in (REPO / "docs" / "api.md").read_text()


class TestCoolingPlantDocument:
    def test_every_python_block_executes(self, tmp_path, monkeypatch):
        run_document_blocks(
            REPO / "docs" / "cooling_plant.md", tmp_path, monkeypatch
        )

    def test_documented_surface_exists(self):
        from repro.experiments import weather as weather_exp
        from repro.thermal import plant as plant_mod
        from repro.workload import weather as weather_mod
        from repro import obs

        text = (REPO / "docs" / "cooling_plant.md").read_text()
        for name in ("ChillerPlant", "COPCurve", "EconomizerConfig",
                     "CoolingTowerConfig", "default_plant"):
            assert name in text, name
            assert hasattr(plant_mod, name), name
        for name in ("diurnal_wetbulb", "seasonal_wetbulb", "heat_wave",
                     "site_weather", "SITES"):
            assert name in text, name
            assert hasattr(weather_mod, name), name
        assert "run_weather_study" in text
        assert hasattr(weather_exp, "run_weather_study")
        assert 'validate_artifact("cooling-plant"' in text
        assert "cooling-plant" in obs.ARTIFACTS

    def test_documented_sites_match_code(self):
        from repro.workload.weather import SITES

        text = (REPO / "docs" / "cooling_plant.md").read_text()
        for site in SITES:
            assert site in text, site
        assert "repro weather" in text
        assert "bench-check" in text
        assert "bench matrix" in text
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "- kind: cooling-plant" in ci

    def test_linked_from_readme_and_api(self):
        assert "docs/cooling_plant.md" in (REPO / "README.md").read_text()
        assert "cooling_plant.md" in (REPO / "docs" / "api.md").read_text()


class TestReadmeTableOfContents:
    def test_links_every_docs_page(self):
        readme = (REPO / "README.md").read_text()
        pages = sorted(p.name for p in (REPO / "docs").glob("*.md"))
        assert len(pages) >= 6
        for page in pages:
            assert f"docs/{page}" in readme, (
                f"README table of contents does not link docs/{page}"
            )


class TestExperimentsDocument:
    def test_every_paper_figure_has_a_section(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for fig in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
            assert f"Fig. {fig}" in text, f"Fig. {fig} missing"
        assert "Table I" in text
        assert "Headline" in text

    def test_bench_result_artifacts_referenced_exist(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for target in set(re.findall(r"bench_\w+\.py", text)):
            assert (REPO / "benchmarks" / target).exists(), target
