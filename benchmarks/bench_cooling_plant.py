"""Cooling-plant bench: the seasonal weather sweep as a gated artifact.

Runs :func:`repro.experiments.weather.run_weather_study` — the same
seeded rack behind a chiller plant under several climate presets, with
Eq. 10's lumped cooling constant re-linearized at every operating point
— and lands the per-site scoreboard (PUE, economizer hours, mean COP,
WUE, heat-wave stress day) in ``benchmarks/results/cooling_plant.json``
(schema: the ``cooling-plant`` spec in
:data:`repro.obs.artifacts.ARTIFACTS`) plus a readable
table in ``benchmarks/results/cooling_plant.txt``.

What this bench *asserts* (and the committed baseline gates via
``repro bench-check``):

- every site's ``linearization_gap`` is float round-off — the
  re-linearized optimizer model and the plant agree exactly at the
  operating point (the artifact spec enforces the same bound on write);
- the economizer actually engages where the climate allows it: the
  coldest preset logs more free-cooling hours than the hottest, and its
  PUE is no worse;
- the heat-wave day costs PUE at every site (a hotter sky can never be
  free).

Environment knobs (the CI bench matrix sets them for its smoke run):

- ``REPRO_BENCH_PLANT_N`` — machines on the testbed (default ``20``);
- ``REPRO_BENCH_PLANT_QUICK`` — ``1`` sweeps daily instead of 3-hour
  buckets (default ``0``); the year's span and the workload context are
  unchanged, so quick results stay comparable to the full baseline.
"""

from __future__ import annotations

import os
import pathlib

from repro import obs
from repro.experiments.weather import run_weather_study

SEED = 2012

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _machines() -> int:
    return int(os.environ.get("REPRO_BENCH_PLANT_N", "20"))


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_PLANT_QUICK", "0") == "1"


def run_study():
    return run_weather_study(
        seed=SEED, n_machines=_machines(), quick=_quick()
    )


def test_cooling_plant(benchmark, emit):
    study = benchmark.pedantic(run_study, rounds=1, iterations=1)
    document = study.document()
    obs.write_artifact(RESULTS_DIR / "cooling_plant.json", document)
    emit("cooling_plant", study.table())

    by_site = {entry["site"]: entry for entry in document["entries"]}
    for site, entry in by_site.items():
        assert entry["linearization_gap"] <= 1e-6, (
            f"{site}: re-linearized Eq. 10 drifted off the plant "
            f"(gap {entry['linearization_gap']:.3e})"
        )
    cold = by_site["cold-continental"]
    hot = by_site["hot-humid"]
    assert cold["economizer_fraction"] > hot["economizer_fraction"], (
        "free cooling should engage more in the cold climate: "
        f"{cold['economizer_fraction']:.2f} vs "
        f"{hot['economizer_fraction']:.2f}"
    )
    assert cold["pue"] <= hot["pue"], (
        f"cold climate PUE {cold['pue']:.3f} should not exceed "
        f"hot climate PUE {hot['pue']:.3f}"
    )
    for wave in document["heat_wave"]:
        assert wave["pue_penalty"] > 0.0, (
            f"{wave['site']}: a heat wave cannot improve PUE "
            f"(penalty {wave['pue_penalty']:.4f})"
        )
        assert wave["wave_peak_w"] >= wave["baseline_peak_w"], wave["site"]
