"""MPC bench: receding-horizon control vs the reactive controller.

Replays the built-in demand scenarios (diurnal, capacity-exceeding
flash crowd, derate-window surge) through four controllers — the
paper's purely reactive re-planner, the PR4 shed-retry resilient
controller, the receding-horizon :class:`~repro.control.mpc.MPCController`,
and a clairvoyant oracle — on ground-truth transient thermals, scoring
each run on energy, violation-seconds, shed work, and reconfiguration
churn.  The per-scenario scoreboard lands in
``benchmarks/results/mpc.json`` (schema: the ``mpc`` spec in
:data:`repro.obs.artifacts.ARTIFACTS`) plus a readable table in
``benchmarks/results/mpc.txt``.

The acceptance criterion this bench *asserts* (and the committed
baseline gates via ``repro bench-check``'s strict zero-baseline rule on
the ``dominance`` section): on at least one flash-crowd scenario the
MPC strictly dominates the reactive controller — fewer
violation-seconds at equal-or-lower energy.  The mechanism: the flash
crowd tops out *above* cluster capacity, so the reactive controller's
replan raises ``InfeasibleError`` and it rides out the surge on its
stale pre-surge plan (warm cooling + saturated machines -> thermal
violations ~4 minutes in), while the MPC clamps admission at capacity
and keeps planning — and pre-cooling — through the overload.

Environment knobs (the CI bench matrix sets them for its smoke run):

- ``REPRO_BENCH_MPC_N`` — machines on the testbed (default ``6``);
- ``REPRO_BENCH_MPC_QUICK`` — ``1`` runs the time-compressed traces
  (default ``0``: the full-length scenarios, ~5 s total);
- ``REPRO_BENCH_MPC_HORIZON`` — lookahead depth in control intervals
  (default ``6``).
"""

from __future__ import annotations

import os
import pathlib

from repro import obs
from repro.control import MPC_CONTROLLERS, run_mpc_campaign

SEED = 2012

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _machines() -> int:
    return int(os.environ.get("REPRO_BENCH_MPC_N", "6"))


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_MPC_QUICK", "0") == "1"


def _horizon() -> int:
    return int(os.environ.get("REPRO_BENCH_MPC_HORIZON", "6"))


def run_mpc() -> dict:
    _, document = run_mpc_campaign(
        seed=SEED,
        n_machines=_machines(),
        quick=_quick(),
        horizon=_horizon(),
    )
    return document


def _table(document: dict) -> str:
    lines = [
        f"mpc: receding-horizon vs reactive control "
        f"(n={document['machines']}, horizon {document['horizon']} x "
        f"{document['control_dt']:g}s)",
        f"{'scenario':>14} {'controller':>10} {'viol s':>8} {'MJ':>8} "
        f"{'shed':>9} {'max K':>7} {'moves':>6} {'precools':>9}",
    ]
    for scenario in document["scenarios"]:
        for name in MPC_CONTROLLERS:
            row = scenario["controllers"][name]
            lines.append(
                f"{scenario['name']:>14} {name:>10} "
                f"{row['violation_seconds']:>8.0f} "
                f"{row['energy_joules'] / 1e6:>8.3f} "
                f"{row['shed_task_seconds']:>9.0f} "
                f"{row['max_t_cpu']:>7.1f} "
                f"{row['on_set_changes']:>6} "
                f"{row['precools']:>9}"
            )
    for row in document["dominance"]:
        verdict = "DOMINATES" if row["dominates"] else "no"
        lines.append(
            f"  {row['scenario']}: MPC vs reactive {verdict} "
            f"(viol {row['mpc_violation_seconds']:.0f} vs "
            f"{row['reactive_violation_seconds']:.0f} s, energy "
            f"{row['mpc_energy_joules'] / 1e6:.3f} vs "
            f"{row['reactive_energy_joules'] / 1e6:.3f} MJ)"
        )
    return "\n".join(lines)


def test_mpc(benchmark, emit):
    document = benchmark.pedantic(run_mpc, rounds=1, iterations=1)
    obs.write_artifact(RESULTS_DIR / "mpc.json", document)
    emit("mpc", _table(document))

    flash = [row for row in document["dominance"] if row["flash_crowd"]]
    assert flash, "campaign has no flash-crowd scenario"
    # The acceptance criterion: on some flash crowd, MPC strictly beats
    # the reactive controller on violation-seconds at <= energy.
    assert any(row["dominates"] for row in flash), (
        "MPC failed to dominate the reactive controller on every "
        f"flash-crowd scenario: {flash}"
    )
    for scenario in document["scenarios"]:
        mpc_row = scenario["controllers"]["mpc"]
        # The horizon solver must actually be exercising the LP path,
        # not living off the reactive fallback.
        assert mpc_row["horizon_solves"] > 0, scenario["name"]
        assert mpc_row["fallbacks"] <= mpc_row["horizon_solves"] // 2, (
            f"{scenario['name']}: MPC fell back on "
            f"{mpc_row['fallbacks']}/{mpc_row['horizon_solves']} solves"
        )
