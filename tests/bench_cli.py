"""Timings of the CLI's artifact writing, with pytest-benchmark.

The module name keeps it out of the test suite's collection.  Run it as

    OPENBLAS_NUM_THREADS=1 pytest tests/bench_cli.py --benchmark-only

and compare two checkouts with ``--benchmark-save`` / ``--benchmark-compare``
(pytest-benchmark keeps its runs under ``.benchmarks/``).  The state has a
``spinor-evolve`` task's shape: two sectors of 4,096 points under a tilted
``spin_exp`` factor, written as ``state.json`` by ``write_json``: 16,384
floats, which ``cli._repr_texts`` spells.
"""

import numpy as np

from topobohm.cli import write_json
from topobohm.factors import MatrixRep
from topobohm.propagation import (
    angle_grid,
    state_to_dict,
    twist_embed,
    wrapped_gaussian,
)
from topobohm.scenario import spin_exponential


def test_write_spinor_state_json(benchmark, tmp_path):
    theta = angle_grid(4096)
    state = twist_embed([wrapped_gaussian(theta, 3.0, 0.5, 2.0),
                         0.5j * wrapped_gaussian(theta, 2.0, 0.4, -1.0)],
                        MatrixRep.ring(spin_exponential(
                            1.3, np.array([0.48, 0.6, 0.64])))).normalized()
    payload = state_to_dict(state)
    assert np.shape(payload["components"]) == (2, 4096, 2)
    benchmark(write_json, str(tmp_path / "state.json"), payload)
