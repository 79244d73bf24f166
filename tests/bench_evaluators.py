"""Per-call timings of the guiding-field evaluators, with pytest-benchmark.

The module name keeps it out of the test suite's collection.  Run it as

    OPENBLAS_NUM_THREADS=1 pytest tests/bench_evaluators.py --benchmark-only

and compare two checkouts with ``--benchmark-save`` / ``--benchmark-compare``
(pytest-benchmark keeps its runs under ``.benchmarks/``).
"""

import numpy as np
import pytest

from topobohm.covering import TWO_PI
from topobohm.factors import Character
from topobohm.propagation import (
    make_gaussian_state,
    symmetrized_product_state,
    wrapped_gaussian,
)
from topobohm.trajectories import _RingEvaluator, _TorusEvaluator


def _span(modes):
    return int(modes[-1] - modes[0] + 1)


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


def test_ring_evaluator(benchmark):
    state = make_gaussian_state(Character.ring(0.9), 2.0, 0.45, 3.0)
    ev = _RingEvaluator(state)
    assert ev.rows.shape[0] == 25
    thetas = np.random.default_rng(2).uniform(0, TWO_PI, 10 ** 4)
    benchmark(ev, thetas)
