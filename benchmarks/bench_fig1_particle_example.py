"""Fig. 1: the particle-system consolidation example.

Regenerates the order timeline of the paper's illustrative 4-particle
instance and times the Algorithm-1 pre-processing on it.
"""

from repro.experiments.algorithms import full_algorithm1
from repro.experiments.fig1_particle_example import FIG1_PAIRS, run_fig1


def test_fig1_particle_example(benchmark, emit):
    result = run_fig1()
    emit("fig1", result.table())
    assert result.orders == ((3, 1, 4, 2), (1, 3, 4, 2), (1, 4, 3, 2))
    benchmark(full_algorithm1, pairs=FIG1_PAIRS, w2=1.0, rho=1.0)
