"""Timings of scenario checking and construction, with pytest-benchmark.

The module name keeps it out of the test suite's collection.  Run it as

    OPENBLAS_NUM_THREADS=1 pytest tests/bench_scenario.py --benchmark-only

and compare two checkouts with ``--benchmark-save`` / ``--benchmark-compare``
(pytest-benchmark keeps its runs under ``.benchmarks/``).  The config has a
``grw-ring`` task's shape: an n = 128 ring, a character factor, one trig
term, a Gaussian packet and a GRW block.  Every CLI run validates its
config once, in ``Scenario(cfg)``, which then builds the space, factor and
potential.
"""

from topobohm.scenario import SCENARIO_SCHEMA_TAG, Scenario, validate_scenario

GRW_RING = {
    "schema": SCENARIO_SCHEMA_TAG,
    "space": {"kind": "ring", "n_points": 128},
    "factor": {"type": "character", "beta": 0.9},
    "potential": {"type": "trig", "terms": [{"amplitude": 0.4,
                                             "harmonic": 1}]},
    "initial_state": {"type": "gaussian", "center": 3.0, "width": 0.5,
                      "momentum": 1.0},
    "numerics": {"dt": 2e-3, "t_final": 6.65},
    "grw": {"lam": 1.0, "a": 0.3},
    "seed": 12,
}


def test_validate_scenario(benchmark):
    benchmark(validate_scenario, GRW_RING)


def test_scenario(benchmark):
    benchmark(Scenario, GRW_RING)
