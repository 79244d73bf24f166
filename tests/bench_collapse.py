"""Timings of the GRW event path, with pytest-benchmark.

The module name keeps it out of the test suite's collection.  Run it as

    OPENBLAS_NUM_THREADS=1 pytest tests/bench_collapse.py --benchmark-only

and compare two checkouts with ``--benchmark-save`` / ``--benchmark-compare``
(pytest-benchmark keeps its runs under ``.benchmarks/``).  One event is what
``simulate_grw`` does at each collapse of an n = 128 ring run: draw the
centre from the rate density, collapse there, check the twist.  The public
functions build their set-up per call, so the event times the run's own
set-up, built once on the state, as the run does.  The lam = 20 run
times a whole ``simulate_grw`` call of about 100 events.
"""

import numpy as np

from topobohm import collapse
from topobohm.factors import Character
from topobohm.propagation import Potential, TwistMonitor, make_gaussian_state

LAM, A = 1.0, 0.3


def _ring_state():
    return make_gaussian_state(Character.ring(0.9), 3.0, 0.5, 1.0,
                               n_points=128).normalized()


def test_one_event(benchmark):
    state = _ring_state()
    rates = collapse._RateDensity(state, LAM, A)
    twist = TwistMonitor(state)
    rng = np.random.default_rng(3)

    def event():
        center = collapse._draw(rates(state), rng)
        collapsed, _ = collapse.apply_collapse(state, center, LAM, A)
        return twist(collapsed)

    assert event() <= collapse.TWIST_PRESERVATION_TOL
    benchmark(event)


def test_frequent_collapse_run(benchmark):
    # grw-ring's grid, step and length at lam = 20: about 100 events
    state = _ring_state()
    potential = Potential.from_callable(lambda t: 0.4 * np.cos(t), 128)
    result = benchmark(collapse.simulate_grw, state, potential, 6.65, 20.0, A,
                       seed=7, dt=2e-3)
    assert result.n_events > 50
