"""Timings of inverse-CDF sampling from |psi|^2, with pytest-benchmark.

The module name keeps it out of the test suite's collection.  Run it as

    OPENBLAS_NUM_THREADS=1 pytest tests/bench_ensembles.py --benchmark-only

and compare two checkouts with ``--benchmark-save`` / ``--benchmark-compare``
(pytest-benchmark keeps its runs under ``.benchmarks/``).  The three cases
are the three sizes the package draws at: one GRW centre from the rate
density of an n = 128 ring run (one point, where the per-call cost counts),
the start of a ``ring-ensemble`` task (10^4 points on an n = 256 ring) and
the start of a ``pair-ensemble`` task (2000 pairs on a 64^2 torus).
"""

import numpy as np

from topobohm import collapse
from topobohm.ensembles import sample_from_grid_density
from topobohm.factors import Character
from topobohm.propagation import (
    make_gaussian_state,
    symmetrized_product_state,
    wrapped_gaussian,
)


def test_one_grw_centre(benchmark):
    state = make_gaussian_state(Character.ring(0.9), 3.0, 0.5, 1.0,
                                n_points=128).normalized()
    rates = collapse.rate_over_centers(state, 1.0, 0.3)
    rng = np.random.default_rng(3)
    benchmark(sample_from_grid_density, rates, 1, rng)


def test_ring_ensemble_start(benchmark):
    state = make_gaussian_state(Character.ring(2.31), 1.17, 0.44, 3.62,
                                n_points=256)
    rho = state.density()
    rng = np.random.default_rng(4)
    points = benchmark(sample_from_grid_density, rho, 10_000, rng)
    assert points.shape == (10_000,)


def test_pair_ensemble_start(benchmark):
    state = symmetrized_product_state(
        lambda t: wrapped_gaussian(t, 2.0, 0.5, 2.0),
        lambda t: wrapped_gaussian(t, 4.3, 0.5, -1.0), -1, n_points=64)
    rho = state.density()
    rng = np.random.default_rng(5)
    points = benchmark(sample_from_grid_density, rho, 2000, rng)
    assert points.shape == (2000, 2)
