import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from topobohm.covering import FreeWord, Permutation, SemidirectElement, Winding
from topobohm.scenario import PAULI


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def src_env():
    """The environment for a child Python process that imports the package
    from this checkout's ``src``, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def pauli():
    return PAULI


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def _permutations(n):
    return st.permutations(range(n)).map(lambda images: Permutation(tuple(images)))


@pytest.fixture(scope="session")
def deck_groups():
    """For each kind of deck group, a hypothesis strategy for its elements
    and its identity: windings of the ring, S_4, the free group on two
    letters, and the 3-fermion cover over that free group."""
    words = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((-1, 1))),
                     max_size=8).map(lambda letters: FreeWord.from_letters(letters, 2))
    return {
        "ring": (st.integers(-40, 40).map(Winding), Winding(0)),
        "sym": (_permutations(4), Permutation.identity(4)),
        "free": (words, FreeWord.identity(2)),
        "nfermion": (st.builds(SemidirectElement, _permutations(3),
                               st.tuples(words, words, words)),
                     SemidirectElement.identity(3, 2)),
    }
