import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from oracles import word_from_letters
from topobohm.covering import FreeWord, Permutation, SemidirectElement, Winding
from topobohm.scenario import PAULI, SCENARIO_SCHEMA_TAG


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
                     max_size=8).map(lambda letters: word_from_letters(letters, 2))
    return {
        "ring": (st.integers(-40, 40).map(Winding), Winding(0)),
        "sym": (_permutations(4), Permutation.identity(4)),
        "free": (words, FreeWord.identity(2)),
        "nfermion": (st.builds(SemidirectElement, _permutations(3),
                               st.tuples(words, words, words)),
                     SemidirectElement.identity(3, 2)),
    }


# ---------------------------------------------------------------------------
# scenarios drawn from the schema
# ---------------------------------------------------------------------------

_REAL = st.floats(-3.0, 3.0)
_ANGLE = st.floats(0.0, 2 * math.pi)
_WIDTH = st.floats(0.2, 1.5)
_PAIR = st.lists(_REAL, min_size=2, max_size=2)
_TERMS = st.lists(st.fixed_dictionaries(
    {"amplitude": st.floats(-1.0, 1.0), "harmonic": st.integers(-3, 3)},
    optional={"phase": _ANGLE}), max_size=2)


@st.composite
def _complex_matrix(draw, dim, kind=None):
    """Rows of (re, im) pairs: any entries, a Hermitian matrix or a unitary
    (a phased diagonal or anti-diagonal)."""
    kind = kind or draw(st.sampled_from(["any", "hermitian", "unitary"]))
    if kind == "any":
        return draw(st.lists(st.lists(_PAIR, min_size=dim, max_size=dim),
                             min_size=dim, max_size=dim))
    if kind == "hermitian":
        m = np.diag(draw(st.lists(_REAL, min_size=dim, max_size=dim))) + 0j
        for i in range(dim):
            for j in range(i + 1, dim):
                m[i, j] = complex(*draw(_PAIR))
                m[j, i] = m[i, j].conjugate()
    else:
        angles = draw(st.lists(_ANGLE, min_size=dim, max_size=dim))
        m = np.diag(np.exp(1j * np.array(angles)))
        if draw(st.booleans()):
            m = m[::-1]
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _typed(kind, optional=None, **required):
    return st.fixed_dictionaries({"type": st.just(kind), **required},
                                 optional=optional or {})


_PACKET = {"center": _ANGLE, "width": _WIDTH, "momentum": _REAL}


def _blocks(n, dim, coherent):
    """Strategies for each type of factor, potential and initial state on
    an ``n``-point grid, matrices ``dim`` x ``dim``; ``coherent`` keeps
    generators unitary and matrix fields Hermitian."""
    generator = _complex_matrix(dim, "unitary" if coherent else None)
    field = _complex_matrix(dim, "hermitian" if coherent else None)
    factors = {
        "character": _typed("character", {"beta": _ANGLE}),
        "flux": _typed("flux", {"flux": _REAL, "charge": _REAL}),
        "exchange": _typed("exchange", {"sign": st.sampled_from([1, -1])}),
        "matrix": _typed("matrix", generator=generator),
        "spin_exp": _typed("spin_exp", {"angle": _REAL, "axis": st.lists(
            _REAL, min_size=3, max_size=3)}),
    }
    potentials = {
        "zero": _typed("zero"),
        "trig": _typed("trig", {"terms": _TERMS}),
        "tabulated": _typed("tabulated", values=st.lists(
            _REAL, min_size=n, max_size=n)),
        "matrix_const": _typed("matrix_const", matrix=field),
        "covariant_const": _typed("covariant_const", matrix=field),
        "pair_onebody": _typed("pair_onebody", {"terms": _TERMS}),
        "pair_interaction": _typed("pair_interaction", {"terms": _TERMS}),
    }
    states = {
        "eigenstate": _typed("eigenstate", {"n": st.integers(-3, 3)}),
        "gaussian": _typed("gaussian", _PACKET),
        "spinor_gaussian": _typed("spinor_gaussian", _PACKET, amplitudes=(
            st.lists(_PAIR, min_size=dim, max_size=dim) if coherent
            else st.lists(_PAIR, min_size=1, max_size=2))),
        "pair_eigenstate": _typed("pair_eigenstate", {
            "n1": st.integers(-3, 3), "n2": st.integers(-3, 3)}),
        "pair_gaussian": _typed("pair_gaussian", {"centers": st.lists(
            _ANGLE, min_size=2, max_size=2), "width": _WIDTH,
            "momenta": _PAIR}),
    }
    return factors, potentials, states


# the types a coherent draw picks from: a pair of particles takes an
# exchange factor, a scalar pair field and a pair state; a ring character
# takes a scalar field and state, and a ring 2 x 2 factor any ring field
# and a spinor
_PAIR_TYPES = (["exchange"], ["zero", "pair_onebody", "pair_interaction"],
               ["pair_eigenstate", "pair_gaussian"])
_CHARACTER_TYPES = (["flux", "character"], ["zero", "trig", "tabulated"],
                    ["eigenstate", "gaussian"])
_MATRIX_TYPES = (["matrix", "spin_exp"],
                 ["zero", "trig", "matrix_const", "covariant_const"],
                 ["spinor_gaussian"])


@st.composite
def _twisted(draw):
    w = draw(st.integers(1, 3))
    block = {"n_particles": draw(st.integers(1, 3)), "w_dim": w}
    if draw(st.booleans()):
        block["generators"] = draw(st.lists(_complex_matrix(w), min_size=1,
                                            max_size=2))
    elif draw(st.booleans()):
        block["random_generators"] = draw(st.integers(1, 2))
    return {**block, **draw(st.fixed_dictionaries({}, optional={
        "corrupt": st.booleans()}))}


@st.composite
def scenario_configs(draw):
    """A scenario config that the scenario schema accepts: a ring or a pair
    of particles on a ring of 16 or 32 points, every type of factor,
    potential and initial state, at most 10 steps, and optional seed and
    subcommand blocks (equivariance at 1000 samples and one checkpoint,
    twisted tables of at most 2 generators).  Most draws are coherent (types that fit
    together, unitary generators, Hermitian fields) and carry the seed and
    every block, so that many runs get past set-up; the rest pick each
    type freely or leave blocks out, and may be refused."""
    pair = draw(st.booleans())
    n = draw(st.sampled_from([16, 32]))
    space = {"kind": "two_particle_ring" if pair else "ring", "n_points": n}
    if draw(st.booleans()):
        space["radius"] = draw(st.floats(0.5, 2.0))
    coherent = not draw(st.booleans())
    matrix = not pair and draw(st.booleans())
    dim = 2 if coherent and matrix else draw(st.integers(1, 2))
    strategies = _blocks(n, dim, coherent)
    if coherent:
        types = _PAIR_TYPES if pair else (
            _MATRIX_TYPES if matrix else _CHARACTER_TYPES)
    else:
        types = [list(choices) for choices in strategies]
    factor, potential, initial_state = (
        draw(choices[draw(st.sampled_from(names))])
        for choices, names in zip(strategies, types))
    dt = draw(st.sampled_from([1e-3, 5e-3, 1e-2]))
    t_final = dt * draw(st.integers(1, 10))
    numerics = {"dt": dt, "t_final": t_final, **draw(st.fixed_dictionaries(
        {}, optional={"transport_dt": st.just(dt),
                      "n_levels": st.integers(1, 4),
                      "monitor_every": st.integers(1, 10),
                      "max_norm_drift": st.sampled_from([0.0, 1e-7, 1e-3]),
                      "max_twist_residual": st.sampled_from([0.0, 1e-9]),
                      "eps_node": st.sampled_from([1e-12, 1e-3])}))}
    cfg = {"schema": SCENARIO_SCHEMA_TAG, "space": space, "factor": factor,
           "potential": potential, "initial_state": initial_state,
           "numerics": numerics}
    extras = {
        "seed": st.integers(0, 10 ** 6),
        "trajectories": st.fixed_dictionaries(
            {"starts": st.lists(_PAIR if pair else _ANGLE, min_size=1,
                                max_size=3)},
            optional={"record_every": st.integers(1, 3)}),
        "equivariance": st.fixed_dictionaries(
            {"n_samples": st.just(1000), "checkpoints": st.just([t_final]),
             "bins": st.sampled_from([2, 4, 8, 16, 64])},
            optional={"velocity_factor": st.sampled_from([1.0, 0.5]),
                      "emit_samples": st.booleans()}),
        "grw": st.fixed_dictionaries({"a": st.floats(0.2, 1.5)}, optional={
            "lam": st.floats(0.0, 5.0)}),
        "twisted": _twisted(),
    }
    sparse = draw(st.booleans())
    for key, extra in extras.items():
        if not (sparse and draw(st.booleans())):
            cfg[key] = draw(extra)
    return cfg
