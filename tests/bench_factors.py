"""Timings of the factor algebra, with pytest-benchmark.

The module name keeps it out of the test suite's collection.  Run it as

    OPENBLAS_NUM_THREADS=1 pytest tests/bench_factors.py --benchmark-only

and compare two checkouts with ``--benchmark-save`` / ``--benchmark-compare``
(pytest-benchmark keeps its runs under ``.benchmarks/``).  It times the
character census of S_5 and S_6, the twisted-law check of the largest
table ``twisted-check`` accepts, as it runs it (3 fermions on a
3-dimensional value space, tensor dimension 27, with 4 generators: the
758 deck elements of the ball against 6 generators, the ball built and
every entry evaluated afresh each round), and the permutation operator of
a 3-cycle at N = 3 and dim = 3, which that check builds for every
holonomy.
"""

import numpy as np
import pytest

from topobohm.covering import Permutation
from topobohm.factors import (
    FiniteGroup,
    TwistedRepTable,
    enumerate_characters,
    permutation_operator,
    random_unitary,
    verify_twisted_law,
)


@pytest.mark.parametrize("n", [5, 6])
def test_symmetric_census(benchmark, n):
    group = FiniteGroup.symmetric(n)
    chars = benchmark(enumerate_characters, group)
    assert len(chars) == 2


def test_nfermion_twisted_law(benchmark):
    rng = np.random.default_rng(7)
    gens = [random_unitary(3, rng) for _ in range(4)]

    def walk():
        table = TwistedRepTable.nfermion(3, 3, gens)
        return len(table.space.ball), verify_twisted_law(table)

    size, residual = benchmark(walk)
    assert size == 758
    assert residual <= 1e-12


def test_permutation_operator(benchmark):
    op = benchmark(permutation_operator, Permutation((1, 2, 0)), 3)
    assert op.shape == (27, 27)
