"""Fingerprint the closed-loop campaign documents and the served answers
of one source tree.

Runs six seeded, deterministic campaigns, two batches of refined
queries, a batch of algebraic steady states, the paper's Algorithm
1-2 tables and verbatim lookups, a batch of closed-form solves and the
arrays of saved index documents, and prints one line per document: its name and the first 16 hex digits of
the SHA-256 of its ``json.dumps(doc, sort_keys=True)``.  A refactor of
the closed loop (:func:`repro.faults.loop.march` and what it calls), of
the refined query, of the steady-state solver, of Algorithm 1-2, of
the closed form or of the saved index that claims bit identity must
leave all twelve lines unchanged.  To compare two trees, run
the script against each one's ``src`` and ``cmp`` the outputs::

    PYTHONPATH=base/src python benchmarks/campaign_hashes.py > base.txt
    PYTHONPATH=src python benchmarks/campaign_hashes.py > head.txt
    cmp base.txt head.txt

With a directory argument the documents are also written there, one
``<name>.json`` each, for a ``diff`` when a hash moves.  The twelve
runs take about 30 s on a two-core Xeon.

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
  the sweep's capacity checks;
- ``steady`` — every field of seeded steady states of the n=20
  testbed, each row solved by ``steady_state`` and all rows by one
  ``steady_state_many``: 200 regulated rows with mixed ON masks, 200
  saturated rows under a cooler with a lowered ``q_max`` (half
  capacity-, half coil-limited) and 40 floating rows (set point above
  ``t_env``, all machines off or a light load);
- ``algorithm2`` — Algorithm 1's tables (``order_timeline()``,
  ``events``, ``status_count`` and every ``all_status`` row) of the
  fitted seed-2012 n=20 index and of ``make_system_model(100)``'s, and
  the verbatim Algorithm-2 ``query()`` answer (or error) at n=500 for
  the loads of ``answers`` and two loads past the table's largest
  ``Lmax``;
- ``closed-form`` — every ``ClosedFormSolution`` field (or the error)
  of ``solve_closed_form`` for the fitted seed-2012 n=20 model and
  ``make_system_model(20, t_max=343.15, alpha_spread=0.3)``: every
  machine on from 1% of capacity (negative loads dropped) to near and
  at capacity (capacity pins and the supply-temperature back-off), and
  seeded ON sets up to 1.1x their capacity;
- ``index-npz`` — dtype, shape and SHA-256 of every array
  ``save_consolidation_index`` writes for the default index of
  ``make_system_model(500)``, saved fresh and again after
  ``solve_many`` has answered the serve levels, and for each pod of
  ``make_system_model(100)`` split into 3 pods.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys
import tempfile
from typing import Optional

import numpy as np

from repro import obs
from repro.control.campaign import run_mpc_campaign
from repro.core.closed_form import solve_closed_form
from repro.core.optimizer import JointOptimizer
from repro.core.serialization import save_consolidation_index
from repro.errors import InfeasibleError
from repro.experiments.common import default_context
from repro.faults.campaign import run_campaign
from repro.testbed.rack import TestbedConfig, build_testbed
from repro.testbed.synthetic import make_system_model
from repro.thermal.simulation import RoomSimulation
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


def _fields(state) -> dict:
    """Every field of a steady state (or batch) as JSON values."""
    return {
        field.name: np.asarray(getattr(state, field.name)).tolist()
        for field in dataclasses.fields(state)
    }


def steady_states() -> dict:
    """Seeded steady states of the n=20 testbed in the solver's three
    modes, row by row and as one batch."""
    testbed = build_testbed(TestbedConfig(n_machines=20), seed=SEED)
    n = testbed.n_machines
    rng = np.random.default_rng(SEED)

    def rows(count, low, high, on_share):
        powers = rng.uniform(low, high, (count, n))
        masks = rng.random((count, n)) < on_share
        powers[~masks] = 0.0
        return powers, masks

    def set_points(count, low, high):
        return rng.uniform(low, high, count)

    regulated = rows(200, 30.0, 240.0, rng.uniform(0.2, 1.0, (200, 1)))
    # Heavy rows hold the weak cooler at q_max; light rows with a set
    # point just above t_ac_min hit the coil limit first.
    heavy = rows(100, 120.0, 240.0, 1.0)
    light = rows(100, 30.0, 100.0, 0.5)
    weak = testbed.fresh_cooler()
    weak.q_max = 3000.0
    # Above t_env the room floats: with every machine off, or with a
    # load the envelope alone can shed.
    idle = np.zeros((20, n)), np.zeros((20, n), dtype=bool)
    warm = rows(20, 5.0, 50.0, 0.5)
    t_env = testbed.room.t_env
    cases = {
        "regulated": (
            testbed.simulation, *regulated,
            set_points(200, celsius_to_kelvin(16.0), celsius_to_kelvin(30.0)),
        ),
        "saturated": (
            RoomSimulation(testbed.room, weak),
            np.vstack([heavy[0], light[0]]),
            np.vstack([heavy[1], light[1]]),
            np.concatenate([
                set_points(100, celsius_to_kelvin(16.0),
                           celsius_to_kelvin(30.0)),
                set_points(100, weak.t_ac_min + 0.2, weak.t_ac_min + 1.2),
            ]),
        ),
        "floating": (
            testbed.simulation,
            np.vstack([idle[0], warm[0]]),
            np.vstack([idle[1], warm[1]]),
            np.concatenate([
                set_points(20, t_env + 0.5, t_env + 20.0),
                set_points(20, t_env + 15.0, t_env + 20.0),
            ]),
        ),
    }
    doc = {}
    for name, (sim, p, m, sp) in cases.items():
        batch = sim.steady_state_many(p, m, sp)
        assert (batch.regulated == (name == "regulated")).all(), name
        doc[name] = {
            "rows": [
                _fields(sim.steady_state(p[r], m[r], sp[r]))
                for r in range(len(sp))
            ],
            "batch": _fields(batch),
        }
    q_cool = np.asarray(doc["saturated"]["batch"]["q_cool"])
    assert (q_cool == weak.q_max).any() and (q_cool < weak.q_max).any()
    assert not any(doc["floating"]["batch"]["q_cool"])
    return doc


def _algorithm1_tables(index) -> dict:
    """Everything Algorithm 1 tabulates for ``index``."""
    return {
        "order_timeline": index.order_timeline(),
        "events": [[e.t, e.p, e.q] for e in index.events],
        "status_count": index.status_count,
        "all_status": [
            [s.t, s.k, s.l_max, s.p_b] for s in index.all_status
        ],
    }


def algorithm2() -> dict:
    """Algorithm 1's tables at n=20 (fitted) and n=100, and Algorithm
    2's verbatim answers and errors at n=500."""
    fitted = default_context(seed=SEED, n_machines=20).optimizer
    doc = {
        "n=20/fitted": _algorithm1_tables(fitted.index),
        "n=100": _algorithm1_tables(
            JointOptimizer(make_system_model(n=100)).index
        ),
    }
    model = make_system_model(n=500)
    index = JointOptimizer(model).index
    # The table's largest Lmax (and above) is past every status.
    ceiling = index.all_status[-1].l_max
    answers = []
    for load in _loads(model, 200) + [ceiling, 2.0 * ceiling]:
        try:
            answers.append([load, index.query(load)])
        except InfeasibleError as exc:
            answers.append([load, f"{type(exc).__name__}: {exc}"])
    doc["n=500/query"] = answers
    return doc


def _solution_fields(solution) -> dict:
    """Every field of a ``ClosedFormSolution`` as JSON values."""
    return {
        field.name: np.asarray(getattr(solution, field.name)).tolist()
        for field in dataclasses.fields(solution)
    }


def closed_form_solutions() -> dict:
    """``solve_closed_form``'s solution (every field) or error on seeded
    inputs reaching each repair path, the supply-temperature back-off
    included, for the fitted seed-2012 n=20 model and for
    ``make_system_model(20, t_max=343.15, alpha_spread=0.3)``."""
    models = {
        "n=20/fitted": default_context(seed=SEED, n_machines=20).model,
        "n=20/synthetic": make_system_model(
            20, t_max=343.15, alpha_spread=0.3
        ),
    }
    rng = np.random.default_rng(SEED)
    registry = obs.enable(obs.MetricsRegistry())
    doc = {}
    try:
        for name, model in models.items():
            every = list(range(model.node_count))
            # Every machine on, from a light load (negative loads dropped)
            # to near and at capacity (pins and back-off), then random
            # ON sets up to 1.1x their capacity (idle machines too hot,
            # no supply cold enough, over capacity).
            cases = [
                (every, fraction * model.total_capacity)
                for fraction in [0.01, 0.05, 0.3, 0.6, 1.0]
                + rng.uniform(0.85, 1.0, 40).tolist()
            ]
            for _ in range(60):
                size = int(rng.integers(1, model.node_count + 1))
                on_ids = sorted(
                    rng.choice(model.node_count, size, replace=False).tolist()
                )
                capacity = sum(model.capacities[i] for i in on_ids)
                cases.append((on_ids, float(rng.uniform(0.0, 1.1)) * capacity))
            rows = []
            for on_ids, load in cases:
                try:
                    row = _solution_fields(
                        solve_closed_form(model, on_ids, load)
                    )
                except InfeasibleError as exc:
                    row = f"{type(exc).__name__}: {exc}"
                rows.append([on_ids, load, row])
            doc[name] = rows
    finally:
        obs.disable()
    assert registry.counter("closed_form.backoff_bisections").value > 0
    return doc


def _saved_arrays(index) -> dict:
    """``[dtype, shape, SHA-256]`` of every array of ``index``'s saved
    ``.npz`` document (the zip container itself is not hashed: it
    stamps the write time)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = save_consolidation_index(index, pathlib.Path(tmp) / "i.npz")
        with np.load(path, allow_pickle=False) as data:
            return {
                name: [
                    data[name].dtype.str,
                    list(data[name].shape),
                    hashlib.sha256(data[name].tobytes()).hexdigest(),
                ]
                for name in data.files
            }


def saved_indexes() -> dict:
    """The saved documents of the n=500 default index, fresh and after
    serving the serve levels, and of the 3 pods of an n=100 index."""
    model = make_system_model(n=500)
    served = JointOptimizer(model)
    served.solve_many(_loads(model, 0))
    doc = {
        "n=500": _saved_arrays(JointOptimizer(model).index),
        "n=500/after-serve": _saved_arrays(served.index),
    }
    assert doc["n=500"] == doc["n=500/after-serve"]
    pods = JointOptimizer(make_system_model(n=100), pods=3).query_index
    for p, index in enumerate(pods.indexes):
        doc[f"n=100/pods=3/pod={p}"] = _saved_arrays(index)
    return doc


def documents():
    """``(name, document)`` for each of the six campaigns, in order,
    then the served answers through the optimizer's index and through
    pods and unequal capacities, then the steady states, then Algorithm
    1-2's tables and verbatim answers, then the closed-form solves,
    then the saved index documents."""
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
    yield "steady", steady_states()
    yield "algorithm2", algorithm2()
    yield "closed-form", closed_form_solutions()
    yield "index-npz", saved_indexes()


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
