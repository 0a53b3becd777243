"""The array closed form against its per-node loop reference.

``repro.core.closed_form`` works on the model's coefficient arrays; the
loops it replaced live in ``tests/oracles/closed_form.py``.  Both must
agree bit for bit: every solution field (arrays compared by their
bytes), every error's type and message, the bisection counter, and,
where the solve does not back off the supply temperature, the
active-set counter and the per-round trace events.  A back-off replays
the reference's bisection step for step but skips the repair solves
its certified bracket decides, so there it makes fewer rounds and
events.  The cases cover the serving benchmark's 48 load levels, seeded
random ON sets and loads, inputs built to reach each repair path and a
seeded sweep of back-off inputs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.control.campaign import run_mpc_campaign
from repro.core import closed_form as cf
from repro.core.closed_form import optimal_supply_temperature
from repro.core.model import ModelArrays
from repro.core.optimizer import JointOptimizer
from repro.errors import ReproError
from repro.obs.trace import TraceBuffer
from repro.testbed.synthetic import make_system_model
from tests.oracles import closed_form as oracle

COUNTERS = (
    "closed_form.active_set_rounds",
    "closed_form.backoff_bisections",
    "closed_form.backoff_evaluations",
)


def _same(x, y) -> bool:
    """Equal to the bit: arrays by dtype, shape and bytes, floats by
    ``repr`` (which tells ``-0.0`` from ``0.0`` and prints every bit)."""
    if isinstance(x, np.ndarray):
        return (
            isinstance(y, np.ndarray)
            and x.dtype == y.dtype
            and x.shape == y.shape
            and x.tobytes() == y.tobytes()
        )
    if isinstance(x, (tuple, list)):
        return (
            type(x) is type(y)
            and len(x) == len(y)
            and all(_same(a, b) for a, b in zip(x, y))
        )
    return type(x) is type(y) and repr(x) == repr(y)


def _run(fn, *args, **kwargs):
    """``fn``'s result or error, its counters and its round events."""
    registry = obs.enable(obs.MetricsRegistry())
    buffer = obs.enable_tracing(TraceBuffer())
    try:
        try:
            outcome = fn(*args, **kwargs)
        except ReproError as exc:
            outcome = (type(exc), str(exc))
    finally:
        obs.disable_tracing()
        obs.disable()
    counters = tuple(registry.counter(name).value for name in COUNTERS)
    events = [
        dict(e.attributes)
        for e in buffer.events_named("closed_form.active_set_round")
    ]
    return outcome, counters, events


def assert_solves_alike(model, on_ids, load, enforce_capacity=True):
    """Shipped and loop solver agree on ``(on_ids, load)``; returns the
    shipped outcome."""
    new = _run(
        cf.solve_closed_form, model, on_ids, load,
        enforce_capacity=enforce_capacity,
    )
    old = _run(
        oracle.solve_closed_form, oracle.loop_model(model), on_ids, load,
        enforce_capacity=enforce_capacity,
    )
    outcome, counters, events = new
    ref_outcome, ref_counters, ref_events = old
    if isinstance(ref_outcome, cf.ClosedFormSolution):
        assert isinstance(outcome, cf.ClosedFormSolution), outcome
        for field in dataclasses.fields(cf.ClosedFormSolution):
            a = getattr(outcome, field.name)
            b = getattr(ref_outcome, field.name)
            assert _same(a, b), (field.name, a, b)
    else:
        assert outcome == ref_outcome
    rounds, bisections, evaluations = counters
    ref_rounds, ref_bisections, _ = ref_counters
    assert bisections == ref_bisections
    # The reference solves once at t_ac_min and once per bisection step.
    assert evaluations <= ref_bisections + 1
    assert len(events) == rounds and len(ref_events) == ref_rounds
    if ref_bisections:
        assert rounds < ref_rounds
        return outcome, counters
    assert rounds == ref_rounds
    for a, b in zip(events, ref_events):
        assert a.keys() == b.keys()
        assert all(_same(a[k], b[k]) for k in a), (a, b)
    return outcome, counters


def _call(fn, *args):
    try:
        return fn(*args)
    except ReproError as exc:
        return (type(exc), str(exc))


def assert_functions_alike(model, on_ids, load):
    """The public Eq. 21/22/KKT helpers agree with their loop forms."""
    loop = oracle.loop_model(model)
    for name in (
        "optimal_supply_temperature", "paper_loads", "kkt_multipliers"
    ):
        args = (on_ids,) if name == "kkt_multipliers" else (on_ids, load)
        new = _call(getattr(cf, name), model, *args)
        old = _call(getattr(oracle, name), loop, *args)
        assert _same(new, old), (name, new, old)


# --------------------------------------------------------------------- #
# The serving benchmark's levels
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module", params=[100, 500])
def serve_levels(request):
    """A ``make_system_model(n)`` and the index's ON sets for the
    serving benchmark's 48 evenly spaced levels (10-80% of capacity)."""
    model = make_system_model(request.param)
    capacity = model.total_capacity
    levels = [
        float(v) for v in np.linspace(0.1 * capacity, 0.8 * capacity, 48)
    ]
    on_sets = JointOptimizer(model).query_index.query_many(
        levels, skip_infeasible=True
    )
    return model, list(zip(on_sets, levels))


def test_serve_levels_match_the_loops(serve_levels):
    model, cases = serve_levels
    for on_ids, load in cases:
        assert on_ids is not None
        outcome, _ = assert_solves_alike(model, on_ids, load)
        assert isinstance(outcome, cf.ClosedFormSolution)


def test_serve_levels_functions_match_the_loops(serve_levels):
    model, cases = serve_levels
    for on_ids, load in cases[::6]:
        assert_functions_alike(model, on_ids, load)


# --------------------------------------------------------------------- #
# Seeded random ON sets and loads
# --------------------------------------------------------------------- #


def _random_model(rng, n, spread):
    """``make_system_model`` with a drawn ``t_max`` and per-machine
    capacities, so that clamping, capacity pins and back-off all occur."""
    model = make_system_model(
        n, t_max=float(rng.uniform(330.0, 350.0)), alpha_spread=spread
    )
    capacities = tuple(rng.uniform(20.0, 60.0, n).tolist())
    return dataclasses.replace(model, capacities=capacities)


@pytest.mark.parametrize("enforce_capacity", [True, False])
@pytest.mark.parametrize("spread", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("n, cases", [(3, 12), (20, 12), (100, 10), (500, 4)])
def test_random_cases_match_the_loops(n, cases, spread, enforce_capacity):
    rng = np.random.default_rng([n, int(spread * 10), enforce_capacity])
    model = _random_model(rng, n, spread)
    for _ in range(cases):
        size = int(rng.integers(1, n + 1))
        on_ids = sorted(rng.choice(n, size, replace=False).tolist())
        capacity = sum(model.capacities[i] for i in on_ids)
        load = float(rng.uniform(0.0, 1.1) * capacity)
        assert_solves_alike(model, on_ids, load, enforce_capacity)
        # Eq. 21/22 sum in the caller's order: pass the set shuffled.
        assert_functions_alike(model, rng.permutation(on_ids).tolist(), load)


# --------------------------------------------------------------------- #
# Each path, reached on purpose
# --------------------------------------------------------------------- #


def _moves(events) -> tuple[int, int]:
    """How many rounds dropped a machine at zero load, and how many
    pinned one at capacity, read off consecutive round events."""
    dropped = pinned = 0
    for before, after in zip(events, events[1:]):
        if after["pinned"] == before["pinned"] + 1:
            pinned += 1
        elif after["active"] == before["active"] - 1:
            dropped += 1
    return dropped, pinned


@pytest.mark.parametrize(
    "t_max, fraction, path",
    [
        (343.15, 0.01, "negative"),
        (350.0, 0.97, "capacity"),
        (343.15, 0.97, "backoff"),
        (315.0, 0.05, "idle machine"),
        (335.0, 1.0, "coldest supply temperature"),
    ],
)
def test_each_repair_path(t_max, fraction, path):
    model = make_system_model(20, t_max=t_max, alpha_spread=0.3)
    load = fraction * model.total_capacity
    outcome, counters = assert_solves_alike(model, list(range(20)), load)
    _, _, events = _run(cf.solve_closed_form, model, list(range(20)), load)
    dropped, pinned = _moves(events)
    if path == "negative":
        assert dropped > 0 and pinned == 0
        assert len(outcome.active_ids) < 20
    elif path == "capacity":
        assert pinned > 0 and counters[1] == 0
        assert outcome.loads.max() == 40.0
    elif path == "backoff":
        assert pinned > 0 and counters[1] > 0
        assert outcome.clamped
        # 35 bisection steps, decided by at most 8 repair solves.
        assert counters[2] <= 8
    else:
        assert path in outcome[1]


@pytest.mark.parametrize(
    "on_ids, load",
    [
        ([], 10.0),
        ([0, 0, 1], 10.0),
        ([0, 20], 10.0),
        ([-1, 2], 10.0),
        ([0, 1, 2], -1.0),
        ([0, 1, 2], 500.0),            # beyond the ON set's capacity
        ([0, 1, 2], 0.0),
        ([0, 1, 2], float("nan")),     # rejected like a negative load
        ([5], 39.0),
    ],
)
@pytest.mark.parametrize("enforce_capacity", [True, False])
def test_errors_and_edges_match(on_ids, load, enforce_capacity):
    model = make_system_model(20, alpha_spread=0.3)
    assert_solves_alike(model, on_ids, load, enforce_capacity)
    assert_functions_alike(model, on_ids, load)


# --------------------------------------------------------------------- #
# Back-off inputs, drawn at its edges
# --------------------------------------------------------------------- #


def _common_at(model, on_ids, load, t_ac, enforce_capacity=True):
    """The repair's shared temperature at ``t_ac``; it does not depend
    on ``t_max``, so a model can be given the ``t_max`` that puts the
    back-off's root where a case wants it."""
    idx = np.array(on_ids, dtype=np.intp)
    return cf._active_set_loads(
        model, model.arrays.take(idx), idx, load, t_ac, enforce_capacity
    )[1]


def _backoff_case(rng, kind):
    """``(model, on_ids, load, enforce_capacity)`` drawn for ``kind``."""
    model = _random_model(rng, 20, float(rng.choice([0.1, 0.3])))
    size = int(rng.integers(2, 21))
    on_ids = sorted(rng.choice(20, size, replace=False).tolist())
    capacity = sum(model.capacities[i] for i in on_ids)
    t_min = model.cooler.t_ac_min
    enforce = kind != "no capacity"
    if kind in ("upward clamp", "no capacity"):
        # Eq. 21 below the band: t_max a few K under the shared
        # temperature at t_ac_min without capacity pins (which only
        # raise it).
        load = float(rng.uniform(0.5, 1.0)) * capacity
        t_max = _common_at(model, on_ids, load, t_min, False)
        t_max -= float(rng.uniform(0.1, 5.0))
    elif kind == "all pinned":
        load = capacity
        t_max = _common_at(
            model, on_ids, load, t_min + float(rng.uniform(0.5, 10.0))
        )
    else:
        load = float(rng.uniform(0.85, 1.0)) * capacity
        if kind == "root near t_ac_min":
            t_ac = t_min + float(rng.uniform(0.0, 1e-9))
            t_max = _common_at(model, on_ids, load, t_ac)
        else:  # "common_lo just above t_max"
            t_max = _common_at(model, on_ids, load, t_min)
            t_max -= 10.0 ** float(rng.uniform(-13.0, -6.0))
    return dataclasses.replace(model, t_max=t_max), on_ids, load, enforce


BACKOFF_KINDS = (
    "root near t_ac_min",
    "common_lo just above t_max",
    "all pinned",
    "no capacity",
    "upward clamp",
)


@pytest.mark.parametrize("kind", BACKOFF_KINDS)
def test_backoff_edges_match_the_loops(kind):
    """The certified back-off returns the bisection's ``t_ac`` where its
    root sits within a step of ``t_ac_min`` or below it, where every
    machine is pinned, and where Eq. 21 is clamped up (with and without
    capacity limits)."""
    rng = np.random.default_rng([31, BACKOFF_KINDS.index(kind)])
    for _ in range(8):
        model, on_ids, load, enforce = _backoff_case(rng, kind)
        outcome, counters = assert_solves_alike(model, on_ids, load, enforce)
        t_min = model.cooler.t_ac_min
        if kind in ("upward clamp", "no capacity"):
            assert optimal_supply_temperature(model, on_ids, load) < t_min
            assert "coldest supply temperature" in outcome[1]
            assert counters[1:] == (0, 1)
            continue
        assert counters[1] > 0
        if kind == "all pinned":
            assert isinstance(outcome, cf.ClosedFormSolution)
            assert outcome.loads.sum() == pytest.approx(load)
        elif isinstance(outcome, cf.ClosedFormSolution):
            assert outcome.t_ac - t_min < 1e-9


def test_campaign_backoffs_take_few_repair_solves():
    """Every back-off of the seed-2012 n=20 MPC campaign returns the
    loop bisection's ``t_ac`` from at most 8 repair solves (35 for the
    bisection alone)."""
    calls = []
    backoff = cf._backoff_supply_temperature

    def recording(model, on, idx, load, t_ac_high, common, enforce):
        before = registry.counter("closed_form.backoff_evaluations").value
        t_ac = backoff(model, on, idx, load, t_ac_high, common, enforce)
        solves = registry.counter("closed_form.backoff_evaluations").value
        calls.append(
            (model, idx.tolist(), load, t_ac_high, enforce, t_ac,
             solves - before)
        )
        return t_ac

    registry = obs.enable(obs.MetricsRegistry())
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cf, "_backoff_supply_temperature", recording)
            run_mpc_campaign(seed=2012, n_machines=20)
    finally:
        obs.disable()
    assert len(calls) > 20
    for model, on_ids, load, t_ac_high, enforce, t_ac, solves in calls:
        assert solves <= 8
        reference = oracle._backoff_supply_temperature(
            oracle.loop_model(model), on_ids, load, t_ac_high, enforce
        )
        assert _same(t_ac, reference)


def test_capacity_check_sums_like_the_loop():
    """The ON-set capacity is the builtin ``sum``: on a load within an
    ulp of it, numpy's pairwise sum can decide the other way."""
    rng = np.random.default_rng(7)
    n = 40
    while True:
        capacities = rng.uniform(20.0, 60.0, n)
        builtin, pairwise = sum(capacities.tolist()), float(capacities.sum())
        if builtin != pairwise:
            break
    model = dataclasses.replace(
        make_system_model(n), capacities=tuple(capacities.tolist())
    )
    for total in (builtin, pairwise):
        load = total + cf._TOL
        assert_solves_alike(model, list(range(n)), load)


def test_empty_active_set_paths():
    """The repair's empty-active branch: everything removed as negative
    (a negative remainder), and everything pinned with load left over."""
    model = make_system_model(6, alpha_spread=0.3)
    loop = oracle.loop_model(model)
    on_ids = list(range(6))
    t_ac = model.cooler.t_ac_min
    for load, enforce in ((-5.0, False), (400.0, True)):
        idx = np.array(on_ids)
        new = _run(
            cf._active_set_loads, model, model.arrays.take(idx), idx, load,
            t_ac, enforce,
        )
        old = _run(oracle._active_set_loads, loop, on_ids, load, t_ac, enforce)
        assert _same(new[0], old[0]) and new[1:] == old[1:]
        assert old[2][-1]["active"] == 0


def test_fitted_testbed_model_matches(context):
    model = context.model
    capacity = model.total_capacity
    optimizer = JointOptimizer(model)
    for fraction in (0.1, 0.3, 0.5, 0.7, 0.9):
        load = fraction * capacity
        on_ids = optimizer.select_on_set(load)
        assert_solves_alike(model, on_ids, load)
        assert_solves_alike(model, list(range(model.node_count)), load)


# --------------------------------------------------------------------- #
# The model's array methods
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("n, spread", [(1, 0.0), (7, 0.3), (100, 0.1)])
def test_model_methods_match_the_loops(n, spread):
    rng = np.random.default_rng(n)
    model = _random_model(rng, n, spread)
    loop = oracle.loop_model(model)
    assert _same(model.k_values(), loop.k_values())
    subset = rng.permutation(n)[: max(1, n // 2)].tolist()
    assert _same(model.k_values(subset), loop.k_values(subset))
    assert _same(model.k_values([]), loop.k_values([]))
    assert _same(model.ab_pairs(), loop.ab_pairs())
    loads = rng.uniform(0.0, 60.0, n)
    for t_ac in (283.15, 295.0):
        assert _same(
            model.predicted_cpu_temperatures(loads, t_ac),
            loop.predicted_cpu_temperatures(loads, t_ac),
        )
    for on_ids in (subset, range(n), []):
        # The loop's min() hands back a numpy scalar for array loads.
        assert _same(
            float(model.max_feasible_t_ac(loads, on_ids)),
            float(loop.max_feasible_t_ac(loads, on_ids)),
        )
    bad = loads.tolist()
    bad[n // 2] = -1
    for fn, args in (
        ("predicted_cpu_temperatures", (bad, 295.0)),
        ("max_feasible_t_ac", (bad, range(n))),
        ("predicted_cpu_temperatures", (bad[:-1], 295.0)),
    ):
        assert _same(
            _call(getattr(model, fn), *args), _call(getattr(loop, fn), *args)
        )


def test_model_arrays_match_the_scalar_methods():
    model = _random_model(np.random.default_rng(3), 50, 0.3)
    arrays = model.arrays
    assert isinstance(arrays, ModelArrays) and model.arrays is arrays
    assert not arrays.table.flags.writeable
    subset = arrays.take(np.array([4, 1]))
    assert _same(subset.table, arrays.table[:, [4, 1]])
    for i, node in enumerate(model.nodes):
        expected = {
            "alpha": node.alpha,
            "beta": node.beta,
            "gamma": node.gamma,
            "k": node.k_constant(model.t_max, model.power),
            "alpha_over_beta": node.alpha / node.beta,
            "beta_w1": node.beta * model.power.w1,
            "inv_beta_w1": 1.0 / (node.beta * model.power.w1),
            "capacities": model.capacities[i],
            "idle_supply_limit": node.max_supply_temperature(
                0.0, model.t_max, model.power
            ),
        }
        for name, value in expected.items():
            assert _same(getattr(arrays, name)[i].item(), value), name
