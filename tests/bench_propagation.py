"""Timings of one split step by grid size and number of sectors, with
pytest-benchmark.

The module name keeps it out of the test suite's collection.  Run it as

    OPENBLAS_NUM_THREADS=1 pytest tests/bench_propagation.py --benchmark-only

and compare two checkouts with ``--benchmark-save`` / ``--benchmark-compare``
(pytest-benchmark keeps its runs under ``.benchmarks/``).  Every timing is
an ``evolve`` call on a state that carries its set-up, so it holds no
set-up cost, except where a case says otherwise.  Each case asserts the
``SplitStep.path`` it times.

* dense: rings of at most ``DENSE_STEP_MAX`` values step by products with
  the cached binary powers of the stored unitary, one per set bit of the
  step count: one step at n = 64 and 128; the 3,300-step run of a
  ``grw-ring`` task at n = 128 on a warm set-up, whose powers are already
  squared, so it times about ten vector-matrix products; the same run on
  a fresh set-up, which builds the unitary and squares it eleven times,
  as a ``grw-ring`` task does; 20 chunks of 100 steps on a warm set-up,
  each chunk carrying the run's origin and step count forward; and a
  chain of 400 one-step calls, as transport's half-steps and
  ``ab-compare`` make them, each of which rebuilds its result from the
  chain's origin, one product per set bit of the chain's step count.
* fft: larger layouts whose field varies along the ring step by the FFT
  pair: a scalar ring at n = 256, and two sectors of 4,096 points under a
  spin field that varies along the ring.
* spectral: the ``spinor-evolve`` layout itself, two sectors of 4,096
  points under a constant field, steps by a power of one Fourier
  multiplier, taken by square-and-multiply of the state's total step
  count: one step (mostly the inverse transform each call ends with), a
  100-step call, one monitor chunk of a ``spinor-evolve`` task, and a
  2,000-step call, a whole task's steps.
"""

import numpy as np
import pytest

from topobohm.factors import Character, MatrixRep
from topobohm.propagation import (
    DENSE_STEP_MAX,
    Potential,
    angle_grid,
    evolve,
    make_gaussian_state,
    twist_embed,
    wrapped_gaussian,
)
from topobohm.scenario import PAULI, spin_exponential

DT = 2e-3


def _ring_case(n):
    state = make_gaussian_state(Character.ring(0.9), 3.0, 0.5, 1.0,
                                n_points=n).normalized()
    return state, Potential.from_callable(lambda t: 0.4 * np.cos(t), n)


def _spinor_case(n, varying=False):
    # spinor-evolve's layout: a tilted spin_exp factor and a constant
    # V = a I + b e.sigma, which keeps the two character sectors; with
    # a = 0.2 + 0.1 cos(theta) the field keeps them too but varies along
    # the ring
    tilted = np.array([0.48, 0.6, 0.64])
    e_sigma = sum(c * PAULI[ax] for c, ax in zip(tilted, "xyz"))
    theta = angle_grid(n)
    state = twist_embed([wrapped_gaussian(theta, 3.0, 0.5, 2.0),
                         0.5j * wrapped_gaussian(theta, 2.0, 0.4, -1.0)],
                        MatrixRep.ring(spin_exponential(1.3, tilted)))
    if varying:
        a = 0.2 + 0.1 * np.cos(theta)
        return state, Potential.matrix_field(a[:, None, None] * np.eye(2)
                                             + 0.9 * e_sigma)
    return state, Potential.matrix_constant(0.2 * np.eye(2) + 0.9 * e_sigma, n)


def _varying_spinor_case(n):
    return _spinor_case(n, varying=True)


def _with_set_up(state, potential):
    """The state after one step, carrying the set-up that later calls reuse."""
    return evolve(state, potential, DT, 1)


@pytest.mark.parametrize("n", [64, 128])
def test_dense_step(benchmark, n):
    state = _with_set_up(*_ring_case(n))
    assert state._split_step.path == "dense"
    benchmark(evolve, state, state._split_step.potential, DT, 1)


def test_dense_grw_task_run(benchmark):
    # one grw-ring task's steps at n = 128, in one call
    state = _with_set_up(*_ring_case(128))
    evolve(state, state._split_step.potential, DT, 3300)  # square once
    benchmark(evolve, state, state._split_step.potential, DT, 3300)


def test_dense_grw_task_run_on_a_fresh_set_up(benchmark):
    # the same call on a state that carries no set-up: the unitary's build
    # and its squarings included, as in every grw-ring task
    state, potential = _ring_case(128)
    out = benchmark(evolve, state, potential, DT, 3300)
    assert out._split_step.path == "dense"


def test_dense_chunked_run(benchmark):
    # 20 calls of 100 steps at n = 128 from a state that carries the
    # set-up but no memo, as after a collapse
    warm = _with_set_up(*_ring_case(128))
    start, potential = warm.with_values(warm.values), warm._split_step.potential

    def chunked():
        state = start
        for _ in range(20):
            state = evolve(state, potential, DT, 100)
        return state

    assert chunked()._origin_steps == 2000
    benchmark(chunked)


def test_dense_one_step_chain(benchmark):
    # 400 one-step calls at n = 128, each from the one before, from a state
    # that carries the set-up but no memo
    warm = _with_set_up(*_ring_case(128))
    start, potential = warm.with_values(warm.values), warm._split_step.potential

    def chain():
        state = start
        for _ in range(400):
            state = evolve(state, potential, DT, 1)
        return state

    assert chain()._origin_steps == 400
    benchmark(chain)


@pytest.mark.parametrize("case", [(_ring_case, 256),
                                  (_varying_spinor_case, 4096)],
                         ids=["ring-256", "spinor-2x4096"])
def test_fft_step(benchmark, case):
    build, n = case
    state = _with_set_up(*build(n))
    assert state.values.size > DENSE_STEP_MAX
    assert state._split_step.path == "fft"
    benchmark(evolve, state, state._split_step.potential, DT, 1)


@pytest.mark.parametrize("n_steps", [1, 100, 2000],
                         ids=["spinor-2x4096-1", "spinor-2x4096-100",
                              "spinor-2x4096-2000"])
def test_spectral_step(benchmark, n_steps):
    state = _with_set_up(*_spinor_case(4096))
    assert state._split_step.path == "spectral"
    benchmark(evolve, state, state._split_step.potential, DT, n_steps)
