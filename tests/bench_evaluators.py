"""Per-call timings of the guiding-field evaluators and of one RK4 transport
step, with pytest-benchmark.

The module name keeps it out of the test suite's collection.  Run it as

    OPENBLAS_NUM_THREADS=1 pytest tests/bench_evaluators.py --benchmark-only

and compare two checkouts with ``--benchmark-save`` / ``--benchmark-compare``
(pytest-benchmark keeps its runs under ``.benchmarks/``).  The evaluator
cases also record the minor page faults per call in ``extra_info``.
"""

import resource

import numpy as np
import pytest

from topobohm.covering import TWO_PI
from topobohm.ensembles import sample_density
from topobohm.factors import Character
from topobohm.propagation import (
    Potential,
    angle_grid,
    make_gaussian_state,
    symmetrized_product_state,
    wrapped_gaussian,
)
from topobohm.trajectories import (
    STATUS_COMPLETED,
    _RingEvaluator,
    _TorusEvaluator,
    transport,
)


def _span(modes):
    return int(modes[-1] - modes[0] + 1)


def _record_faults(benchmark, ev, points, calls=50):
    """The minor page faults per call (the ru_minflt delta over ``calls``
    calls after one warm call), into the benchmark's extra_info."""
    ev(points)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        ev(points)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    benchmark.extra_info["minor_faults_per_call"] = (after - before) / calls


@pytest.mark.parametrize("momentum, gapped", [(-11.19, True), (11.19, False)],
                         ids=["gapped", "ungapped"])
def test_torus_evaluator(benchmark, momentum, gapped):
    # momenta of one sign alias one packet's tail across the Nyquist edge:
    # 45 kept modes in a span of 64 per axis; of opposite signs, all 64 kept
    state = symmetrized_product_state(
        lambda t: wrapped_gaussian(t, 2.0, 0.241, -10.8),
        lambda t: wrapped_gaussian(t, 4.3, 0.241, momentum), -1, n_points=64)
    ev = _TorusEvaluator(state)
    for modes in (ev.modes_a, ev.modes_b):
        assert (modes.size < _span(modes)) is gapped
    q = np.random.default_rng(1).uniform(0, TWO_PI, (2000, 2))
    benchmark(ev, q)
    _record_faults(benchmark, ev, q)


@pytest.mark.parametrize("m", [10 ** 4, 8], ids=["ensemble", "small-bundle"])
def test_ring_evaluator(benchmark, m):
    # a span of 25 modes: three full giant steps of 8 baby steps and one
    # of a single mode, zero-padded
    state = make_gaussian_state(Character.ring(0.9), 2.0, 0.45, 3.0)
    ev = _RingEvaluator(state)
    assert ev.span == 25 and ev.block.shape == (4 * 2, 8)
    thetas = np.random.default_rng(2).uniform(0, TWO_PI, m)
    benchmark(ev, thetas)
    _record_faults(benchmark, ev, thetas)


def _time_one_step(benchmark, state, potential, q, dt):
    """One ``transport`` step: two half-step waves, their evaluators and the
    four RK4 stages, on a bundle in which no particle halts."""
    result, _ = benchmark(transport, state, potential, q, dt, 1)
    assert np.all(result.status == STATUS_COMPLETED)


def test_ring_transport_step(benchmark):
    # the ring-ensemble task's shape: 10^4 particles drawn from |psi|^2
    state = make_gaussian_state(Character.ring(0.9), 2.0, 0.45, 3.0)
    assert _RingEvaluator(state).span == 25
    theta = angle_grid(state.n_points)
    potential = Potential.scalar(0.5 * np.cos(theta - 1.0), label="trig")
    _time_one_step(benchmark, state, potential,
                   sample_density(state, 10 ** 4, 1), 2e-3)


def test_pair_transport_step(benchmark):
    # the pair-ensemble task's shape: 2000 pairs on the 64^2 torus
    state = symmetrized_product_state(
        lambda t: wrapped_gaussian(t, 2.0, 0.241, -10.8),
        lambda t: wrapped_gaussian(t, 4.3, 0.241, 11.19), -1, n_points=64)
    theta = angle_grid(64)
    delta = theta[:, None] - theta[None, :]
    potential = Potential.scalar(0.6 * np.cos(delta) + 0.2 * np.cos(2 * delta),
                                 label="pair-interaction")
    _time_one_step(benchmark, state, potential, sample_density(state, 2000, 1),
                   4e-3)
