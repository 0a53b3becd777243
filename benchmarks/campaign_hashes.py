"""Fingerprint the closed-loop campaign documents and the served answers
of one source tree.

Runs six seeded, deterministic campaigns and two batches of refined
queries, and prints one line per document: its name and the first 16
hex digits of the SHA-256 of its ``json.dumps(doc, sort_keys=True)``.
A refactor of the closed loop (:func:`repro.faults.loop.march` and what
it calls) or of the refined query that claims bit identity must leave
all eight lines unchanged.  To compare two trees, run the script
against each one's ``src`` and ``cmp`` the outputs::

    PYTHONPATH=base/src python benchmarks/campaign_hashes.py > base.txt
    PYTHONPATH=src python benchmarks/campaign_hashes.py > head.txt
    cmp base.txt head.txt

With a directory argument the documents are also written there, one
``<name>.json`` each, for a ``diff`` when a hash moves.  The eight runs
take about 30 s on a two-core Xeon.

The documents:

- ``faults-quick=True`` / ``faults-quick=False`` — the fault campaign
  at n=6, with every run's fault events folded in;
- ``mpc6-quick=True`` / ``mpc6-quick=False`` — the MPC campaign at n=6;
- ``mpc20`` — the full MPC campaign at n=20, the ``control-replay``
  benchmark's workload;
- ``mpc6-weather-quick`` — the quick MPC campaign priced through the
  chiller plant under a diurnal wet-bulb trace;
- ``answers`` — the ON sets ``query_many`` serves (``None`` for an
  infeasible load) from the default index of ``make_system_model(n)``:
  the serving benchmark's 48 levels (10-80% of capacity) at n=100 and
  n=500, and 200 seeded loads at n=500 up to 1.05x capacity;
- ``answers-pods`` — the ON sets ``solve_many`` serves (``None`` for a
  load it rejects) from ``make_system_model(500)`` split into 10 pods,
  on the n=500 loads of ``answers``, and from ``make_system_model(200)``
  with seeded per-machine capacities (10 to 70), monolithic and in 4
  pods, on its 48 serve levels and 100 seeded loads: the pod merge and
  the sweep's capacity checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys
from typing import Optional

import numpy as np

from repro.control.campaign import run_mpc_campaign
from repro.core.optimizer import JointOptimizer
from repro.experiments.common import default_context
from repro.faults.campaign import run_campaign
from repro.testbed.synthetic import make_system_model
from repro.units import celsius_to_kelvin
from repro.workload.weather import diurnal_wetbulb

SEED = 2012


def _loads(model, seeded: int) -> list:
    """The serve levels (10-80% of capacity), then ``seeded`` loads up
    to 1.05x capacity."""
    capacity = model.total_capacity
    loads = np.linspace(0.1 * capacity, 0.8 * capacity, 48).tolist()
    rng = np.random.default_rng(SEED)
    return loads + rng.uniform(0.0, 1.05 * capacity, seeded).tolist()


def served_answers() -> dict:
    """``query_many``'s ON sets for the serve levels and seeded loads."""
    answers = {}
    for n in (100, 500):
        model = make_system_model(n=n)
        loads = _loads(model, 200 if n == 500 else 0)
        index = JointOptimizer(model).query_index
        answers[f"n={n}"] = [
            [load, on_set]
            for load, on_set in zip(
                loads, index.query_many(loads, skip_infeasible=True)
            )
        ]
    return answers


def solved_on_sets(optimizer: JointOptimizer, loads: list) -> list:
    """``[load, ON set or None]`` of ``optimizer.solve_many(loads)``."""
    return [
        [load, getattr(result, "on_ids", None)]
        for load, result in zip(loads, optimizer.solve_many(loads))
    ]


def pod_and_capacity_answers() -> dict:
    """``solve_many``'s ON sets through pods and unequal capacities."""
    model = make_system_model(n=500)
    answers = {"n=500/pods=10": solved_on_sets(
        JointOptimizer(model, pods=10), _loads(model, 200)
    )}
    base = make_system_model(n=200)
    rng = np.random.default_rng(SEED)
    model = dataclasses.replace(
        base, capacities=tuple(rng.uniform(10.0, 70.0, 200).tolist())
    )
    loads = _loads(model, 100)
    for pods in (None, 4):
        answers[f"n=200/capacities/pods={pods}"] = solved_on_sets(
            JointOptimizer(model, pods=pods), loads
        )
    return answers


def documents():
    """``(name, document)`` for each of the six campaigns, in order,
    then the served answers through the optimizer's index and through
    pods and unequal capacities."""
    for quick in (True, False):
        results, doc = run_campaign(seed=SEED, n_machines=6, quick=quick)
        doc["fault_events"] = {
            f"{result.name}/{name}": [e.to_dict() for e in run.fault_events]
            for result in results
            for name, run in result.runs.items()
        }
        yield f"faults-quick={quick}", doc
        yield f"mpc6-quick={quick}", run_mpc_campaign(
            seed=SEED, n_machines=6, quick=quick
        )[1]
    yield "mpc20", run_mpc_campaign(seed=SEED, n_machines=20)[1]
    weather = diurnal_wetbulb(
        mean=celsius_to_kelvin(12.0), swing=6.0, duration=4000.0,
        period=4000.0, seed=7,
    )
    yield "mpc6-weather-quick", run_mpc_campaign(
        seed=SEED, n_machines=6, quick=True,
        context=default_context(seed=SEED, n_machines=6), weather=weather,
    )[1]
    yield "answers", served_answers()
    yield "answers-pods", pod_and_capacity_answers()


def main(out: Optional[pathlib.Path]) -> None:
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for name, doc in documents():
        text = json.dumps(doc, sort_keys=True)
        if out is not None:
            (out / f"{name}.json").write_text(text)
        print(name, hashlib.sha256(text.encode()).hexdigest()[:16],
              flush=True)


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else None)
