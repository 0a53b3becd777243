"""Tests for the command-line interface."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs import MetricsRegistry


class TestCli:
    def test_list_target(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "headline" in out
        assert "metrics" in out

    def test_unknown_target(self, capsys):
        assert main(["figZZ"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_sim_engine_flag_is_rejected(self, capsys):
        # One integrator ships; there is no engine to select.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--load", "200", "--sim-engine", "numpy"])
        assert exc.value.code == 2
        assert "--sim-engine" in capsys.readouterr().err

    def test_fig1_runs_standalone(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "order=(3, 1, 4, 2)" in out

    def test_solve_requires_load(self, capsys):
        assert main(["solve"]) == 2
        assert "--load" in capsys.readouterr().err

    def test_solve_prints_decision(self, capsys):
        assert main(["solve", "--load", "200"]) == 0
        out = capsys.readouterr().out
        assert "ON set" in out
        assert "T_ac" in out

    # NB: seed 7 here, not 99 — the metrics test below depends on the
    # (seed=99, machines=6) default_context being built fresh under
    # instrumentation.
    def test_index_target_builds_and_saves(self, capsys, tmp_path):
        save = tmp_path / "idx.npz"
        assert main(
            ["index", "--machines", "6", "--seed", "7",
             "--save", str(save)]
        ) == 0
        out = capsys.readouterr().out
        assert "consolidation index for 6 machines" in out
        assert "statuses" in out
        assert save.exists()
        assert f"index written to {save}" in out

    def test_index_target_builds_sharded_pods(self, capsys, tmp_path):
        assert main(
            ["index", "--machines", "12", "--seed", "7", "--pods", "3",
             "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "12 machines in 3 pods" in out
        # One .npz per pod, keyed by the pod's own content hash.
        assert len(list(tmp_path.glob("consolidation-*.npz"))) == 3

    def test_index_rejects_pods_with_save(self, capsys, tmp_path):
        assert main(
            ["index", "--machines", "12", "--pods", "3",
             "--save", str(tmp_path / "idx.npz")]
        ) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_top_renders_unavailable_on_dead_socket(self, capsys, tmp_path):
        assert main(
            ["top", "--socket", str(tmp_path / "dead.sock"),
             "--iterations", "1"]
        ) == 0
        assert "server unavailable (draining?)" in capsys.readouterr().out

    def test_index_target_uses_cache_dir(self, capsys, tmp_path):
        args = ["index", "--machines", "6", "--seed", "7",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        cached = list(tmp_path.glob("consolidation-*.npz"))
        assert len(cached) == 1
        # Second invocation loads the persisted index (same key).
        assert main(args) == 0
        assert "key" in capsys.readouterr().out
        assert list(tmp_path.glob("consolidation-*.npz")) == cached

    def test_contextual_figure_runs(self, capsys):
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "avg power" in out

    def test_metrics_emits_valid_registry_json(self, capsys):
        # distinct seed/machines: the default_context cache must not
        # hand back an un-instrumented context from an earlier test
        assert main(["metrics", "--machines", "6", "--seed", "99"]) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out)
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.snapshot() == snapshot
        kinds = [record["kind"] for record in snapshot["records"]]
        assert "optimizer.solve" in kinds
        assert "profiling.campaign" in kinds
        solve = next(
            r for r in snapshot["records"] if r["kind"] == "optimizer.solve"
        )
        for stage in ("selection", "closed_form", "actuation"):
            assert solve["stages"][stage] > 0.0
        # the CLI restores the process-global switch
        assert not obs.enabled()
