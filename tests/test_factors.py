"""Characters, matrix representations, twisted tables, classification."""

import functools
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ball_words,
    deck_elements,
    homomorphism_residual,
    twisted_law_residual,
    unitary_fractional_power,
    untwisted_table,
    word_from_letters,
)
from topobohm.covering import (
    BALL_RADIUS,
    CoveringSpace,
    FreeWord,
    Permutation,
    SemidirectElement,
    Winding,
    deck_compose,
)
from topobohm.errors import ConfigError, NonUnimodularFactorError
from topobohm.spaces import PairGrid, RingGrid
from topobohm.factors import (
    CHARACTER_COUNT_CAP,
    Character,
    MatrixRep,
    TwistedRepTable,
    _adjacent_transposition_word,
    abelianization,
    check_commutes,
    character_sectors,
    classify_dynamics,
    decompose_by_character,
    enumerate_characters,
    permutation_operator,
    random_unitary,
    symmetric_relators,
    verify_twisted_law,
    worse,
)
from topobohm.propagation import twist_embed
from topobohm.scenario import spin_exponential


class TestMakeCharacter:
    """Characters built from their generator values."""

    def test_antiperiodic_ring_character(self):
        ch = Character.ring(np.pi)
        assert ch.value(Winding(1)) == pytest.approx(-1.0)
        for k in range(-4, 5):
            assert ch.value(Winding(k)) == pytest.approx((-1.0) ** k)

    def test_trivial_character(self):
        ch = Character.ring(0.0)
        assert ch.is_trivial
        assert ch.value(Winding(3)) == pytest.approx(1.0)

    def test_non_unimodular_rejected(self):
        with pytest.raises(NonUnimodularFactorError):
            Character.nfermion(2, [1.1])

    def test_exchange_relation_enforced(self):
        # a transposition squares to the identity: its value is +1 or -1
        with pytest.raises(ConfigError, match="sign must be"):
            Character.exchange(3, 1j)

    @pytest.mark.parametrize("sign", [0, 2])
    def test_sign_must_be_plus_or_minus_one(self, sign):
        with pytest.raises(ConfigError, match="sign must be"):
            Character.exchange(3, sign)
        with pytest.raises(ConfigError, match="sign must be"):
            Character.nfermion(3, [1.0], sign=sign)

    def test_exchange_sign_character(self):
        ch = Character.exchange(3, -1)
        odd = Permutation.swap(3, 0, 1)
        even = odd.compose(Permutation.swap(3, 1, 2))
        assert ch.value(odd) == -1
        assert ch.value(even) == 1


class TestHomomorphism:
    @pytest.mark.parametrize("factor,space", [
        (Character.ring(0.9), RingGrid()),
        (Character.free([np.exp(0.4j), np.exp(-1.2j)]), CoveringSpace.free_cover(2)),
        (Character.nfermion(3, [np.exp(0.8j)], sign=-1),
         CoveringSpace.nfermion_cover(3, 1)),
    ])
    def test_character_residual(self, factor, space):
        assert homomorphism_residual(factor, space) <= 1e-12

    def test_matrix_rep_residual(self, rng):
        rep = MatrixRep.free((random_unitary(3, rng), random_unitary(3, rng)))
        space = CoveringSpace.free_cover(2)
        assert homomorphism_residual(rep, space) <= 1e-12

    def test_long_products_stay_unitary(self, rng):
        rep = MatrixRep.free((random_unitary(3, rng), random_unitary(3, rng)))
        letters = [(int(rng.integers(0, 2)), int(rng.choice((-1, 1))))
                   for _ in range(64)]
        value = rep.evaluate(word_from_letters(letters, 2))
        assert np.max(np.abs(value.conj().T @ value - np.eye(3))) <= 1e-10


phases = st.floats(-np.pi, np.pi).map(lambda angle: np.exp(1j * angle))


def _characters(group):
    if group == "ring":
        return st.floats(-10.0, 10.0).map(Character.ring)
    if group == "sym":
        return st.sampled_from((1, -1)).map(lambda sign: Character.exchange(4, sign))
    if group == "free":
        return st.lists(phases, min_size=2, max_size=2).map(Character.free)
    return st.builds(lambda ph, sign: Character.nfermion(3, ph, sign=sign),
                     st.lists(phases, min_size=2, max_size=2),
                     st.sampled_from((1, -1)))


def _matrix_rep(group, seed):
    rng = np.random.default_rng(seed)
    if group == "ring":
        return MatrixRep.ring(random_unitary(3, rng))
    if group == "sym":  # S_4 permuting the axes of C^4, times a sign
        swaps = [np.eye(4)[list(Permutation.swap(4, i, i + 1).images)]
                 for i in range(3)]
        return MatrixRep.exchange(4, [-s for s in swaps])
    return MatrixRep.free((random_unitary(3, rng), random_unitary(3, rng)))


class TestHomomorphismLaws:
    """value(a b) = value(a) value(b) on random deck elements."""

    @pytest.mark.parametrize("group", ["ring", "sym", "free", "nfermion"])
    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_character_value(self, deck_groups, group, data):
        elements, identity = deck_groups[group]
        ch = data.draw(_characters(group))
        a, b = data.draw(st.tuples(elements, elements))
        assert ch.value(identity) == 1
        assert abs(ch.value(deck_compose(a, b))
                   - ch.value(a) * ch.value(b)) <= 1e-12

    @pytest.mark.parametrize("group", ["ring", "sym", "free"])
    @settings(derandomize=True, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matrix_rep_evaluate(self, deck_groups, group, data, seed):
        elements, identity = deck_groups[group]
        rep = _matrix_rep(group, seed)
        a, b = data.draw(st.tuples(elements, elements))
        assert np.array_equal(rep.evaluate(identity), np.eye(rep.dim))
        lhs = rep.evaluate(deck_compose(a, b))
        assert np.max(np.abs(lhs - rep.evaluate(a) @ rep.evaluate(b))) <= 1e-12


def _relator_residual(character, relators):
    return max((abs(character.value(r) - 1) for r in relators), default=0.0)


def _multiply_out(word, letters, identity):
    """A relator's element of a package group: its letters' elements and
    their inverses multiplied out with ``deck_compose``."""
    steps = [letters[g] if e > 0 else letters[g].inverse()
             for g, e in word.syllables for _ in range(abs(e))]
    return functools.reduce(deck_compose, steps, identity)


def _braid_relators(n):
    """Artin's relators of the braid group B_n on s_0 .. s_{n-2}."""
    g = n - 1
    return ([word_from_letters([(i, 1), (i + 1, 1), (i, 1),
                                (i + 1, -1), (i, -1), (i + 1, -1)], g)
             for i in range(g - 1)]
            + [word_from_letters([(i, 1), (j, 1), (i, -1), (j, -1)], g)
               for i in range(g) for j in range(i + 2, g)])


def _nfermion_relators(n, g):
    """(F_g)^n x| S_n on ``nfermion_cover(n, g).generators``: s_0 .. s_{n-2},
    then slot 0's letters a_{0,k}.  Slot p's letters are a_{p,k} = s_{p-1}
    a_{p-1,k} s_{p-1}^-1.  The relators are S_n's, the commutators of two
    slots' letters, and s_i a_{p,k} s_i^-1 = a_{s_i(p),k}."""
    size = n - 1 + g
    swaps = [FreeWord.generator(i, size) for i in range(n - 1)]

    def letter(p, k):
        word = FreeWord.generator(n - 1 + k, size)
        for s in swaps[:p]:
            word = s * word * s.inverse()
        return word

    def commutator(x, y):
        return x * y * x.inverse() * y.inverse()

    slots = [(p, k) for p in range(n) for k in range(g)]
    return ([FreeWord(w.syllables, size) for w in symmetric_relators(n)]
            + [commutator(letter(*x), letter(*y))
               for x, y in itertools.combinations(slots, 2) if x[0] != y[0]]
            + [s * letter(p, k) * s.inverse()
               * letter(Permutation.swap(n, i, i + 1)(p), k).inverse()
               for i, s in enumerate(swaps) for p, k in slots])


def _d4_relators():
    """The symmetries of a square: r^4, s^2 and (r s)^2."""
    return [FreeWord.generator(0, 2, 4), FreeWord.generator(1, 2, 2),
            word_from_letters([(0, 1), (1, 1)] * 2, 2)]


def _z4_z6_relators():
    return [FreeWord.generator(0, 2, 4), FreeWord.generator(1, 2, 6),
            word_from_letters([(0, 1), (1, 1), (0, -1), (1, -1)], 2)]


def _presentations():
    """The table of abelianizations: for each group its generators' count,
    relators, H_1, and the package's elements for its generators and
    identity.  B_n has no deck group in the package, so its relators are
    multiplied out in its quotient S_n."""
    def swaps(n):
        return [Permutation.swap(n, i, i + 1) for i in range(n - 1)]

    def case(name, g, relators, h1, letters, identity):
        return pytest.param(g, relators, h1, letters, identity, id=name)

    out = [case(f"S{n}", n - 1, symmetric_relators(n), (0, (2,)), swaps(n),
                Permutation.identity(n)) for n in (2, 3, 4, 6)]
    out += [case(f"B{n}", n - 1, _braid_relators(n), (1, ()), swaps(n),
                 Permutation.identity(n)) for n in (2, 3, 4)]
    for n, g, h1 in [(2, 1, (1, (2,))), (3, 1, (1, (2,))), (3, 2, (2, (2,)))]:
        cover = CoveringSpace.nfermion_cover(n, g)
        out.append(case(f"nfermion-{n}-{g}", n - 1 + g, _nfermion_relators(n, g),
                        h1, cover.generators, cover.identity))
    free = CoveringSpace.free_cover(2)
    out.append(case("F2", 2, [], (2, ()), free.generators, free.identity))
    out.append(case("Z", 1, [], (1, ()), [Winding(1)], Winding(0)))
    out.append(case("D4", 2, _d4_relators(), (0, (2, 2)),
                    [Permutation((1, 2, 3, 0)), Permutation((0, 3, 2, 1))],
                    Permutation.identity(4)))
    # two commuting cycles, Z/4 + Z/6: the Smith form rebalances the
    # diagonal (4, 6) to (2, 12)
    out.append(case("Z4xZ6", 2, _z4_z6_relators(), (0, (2, 12)),
                    [Permutation((1, 2, 3, 0) + tuple(range(4, 10))),
                     Permutation(tuple(range(4)) + (5, 6, 7, 8, 9, 4))],
                    Permutation.identity(10)))
    for n in (2, 3, 5, 12):
        out.append(case(f"Z{n}", 1, [FreeWord.generator(0, 1, n)], (0, (n,)),
                        [Permutation(tuple(range(1, n)) + (0,))],
                        Permutation.identity(n)))
    return out


@pytest.mark.parametrize("g,relators,h1,letters,identity", _presentations())
def test_presentation_table(g, relators, h1, letters, identity):
    # each relator multiplies out to the identity of the package's own
    # group, so the table checks its groups and not a hand-typed guess
    assert len(letters) == g
    for word in relators:
        assert _multiply_out(word, letters, identity) == identity
    assert abelianization(g, relators) == h1


class TestEnumerateCharacters:
    def test_s3_has_two(self):
        chars = enumerate_characters(2, symmetric_relators(3))
        assert len(chars) == 2
        assert sorted(c.is_trivial for c in chars) == [False, True]

    def test_s4_has_two(self):
        assert len(enumerate_characters(3, symmetric_relators(4))) == 2

    def test_z2(self):
        chars = enumerate_characters(1, [FreeWord.generator(0, 1, 2)])
        values = sorted(np.real(c.generator_phases[0]) for c in chars)
        assert np.allclose(values, [-1.0, 1.0])

    def test_z3_has_three(self):
        assert len(enumerate_characters(1, [FreeWord.generator(0, 1, 3)])) == 3

    def test_enumerated_are_homomorphisms(self):
        # a character of the free group is a homomorphism; it is one of the
        # quotient when it sends every relator to 1
        for g, relators, count in [(3, symmetric_relators(4), 2),
                                   (5, symmetric_relators(6), 2),
                                   (2, _z4_z6_relators(), 24)]:
            chars = enumerate_characters(g, relators)
            assert len({tuple(np.round(c.generator_phases, 9))
                        for c in chars}) == count
            assert max(_relator_residual(c, relators) for c in chars) <= 1e-12

    def test_relators_on_another_generator_count_are_refused(self):
        with pytest.raises(ConfigError, match="words on 2 generators"):
            abelianization(2, [FreeWord.generator(2, 3, 2)])

    def test_infinite_group_unsupported(self):
        with pytest.raises(ConfigError, match="continuous character families"):
            enumerate_characters(1, [])

    @pytest.mark.parametrize("n", [5, 6])
    def test_larger_symmetric_groups_have_trivial_and_sign(self, n):
        chars = enumerate_characters(n - 1, symmetric_relators(n))
        assert len(chars) == 2
        perms = [Permutation(p) for p in itertools.permutations(range(n))]
        for c in chars:
            values = [np.prod([c.generator_phases[i]
                               for i in _adjacent_transposition_word(p)])
                      for p in perms]
            expected = [1 if c.is_trivial else p.sign for p in perms]
            assert np.allclose(values, expected, rtol=0, atol=1e-12)

    def test_dihedral_group_of_order_eight_has_four(self):
        # the quarter turn r has order 4 but order 2 modulo the commutators,
        # so no character sends it to +-i
        relators = _d4_relators()
        chars = enumerate_characters(2, relators)
        assert len(chars) == 4
        assert sorted(np.real(c.generator_phases[0]) for c in chars) == [-1, -1, 1, 1]
        assert max(_relator_residual(c, relators) for c in chars) <= 1e-12

    def test_trivial_group_has_one(self):
        chars = enumerate_characters(1, [FreeWord.generator(0, 1)])
        assert len(chars) == 1 and chars[0].generator_phases == (1,)

    def test_order_cap(self):
        # (Z/10)^4 has exactly the cap's 10^4 characters; one more factor
        # Z/2 is refused before any is listed
        def tens(g):
            return [FreeWord.generator(i, g, 10) for i in range(4)]

        assert len(enumerate_characters(4, tens(4))) == CHARACTER_COUNT_CAP
        with pytest.raises(ConfigError, match="count cap"):
            enumerate_characters(5, tens(5) + [FreeWord.generator(4, 5, 2)])


class TestMatrixRep:
    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnimodularFactorError):
            MatrixRep.ring(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_sym_relations_enforced(self):
        good = [np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
                np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)]
        rep = MatrixRep.exchange(3, good)
        rng = np.random.default_rng(0)
        # permutation-matrix rep reproduces the action on basis vectors
        for _ in range(50):
            p = Permutation(tuple(int(i) for i in rng.permutation(3)))
            q = Permutation(tuple(int(i) for i in rng.permutation(3)))
            lhs = rep.evaluate(p.compose(q))
            rhs = rep.evaluate(p) @ rep.evaluate(q)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
        bad = [np.diag([1j, 1, 1]), good[1]]
        with pytest.raises(ConfigError, match="s\\^2"):
            MatrixRep.exchange(3, bad)

    def test_fractional_power_branch(self, pauli):
        gamma = spin_exponential(0.9, [1, 0, 0])
        assert np.allclose(unitary_fractional_power(gamma, 1.0), gamma)
        assert np.allclose(unitary_fractional_power(gamma, 0.0), np.eye(2))
        half = unitary_fractional_power(gamma, 0.5)
        assert np.allclose(half @ half, gamma)


class TestCheckCommutes:
    def test_scalar_factor_commutes_with_anything(self, pauli, rng):
        v = rng.normal(size=(2, 2))
        v = v + v.T
        rep = MatrixRep.ring(np.exp(0.3j) * np.eye(2))
        assert check_commutes(rep, [v])

    def test_minus_identity_commutes(self, pauli):
        gamma = spin_exponential(np.pi, [0.6, 0.0, 0.8])
        assert np.allclose(gamma, -np.eye(2), atol=1e-12)
        assert check_commutes(MatrixRep.ring(gamma), [pauli["x"], pauli["z"]])

    def test_quarter_turn_fails_against_sigma_x(self, pauli):
        gamma = spin_exponential(np.pi / 2, [0, 0, 1])
        assert not check_commutes(MatrixRep.ring(gamma), [pauli["x"]])

    def test_nan_field_fails_the_gate(self, pauli):
        # a NaN commutator is no evidence of commuting
        rep = MatrixRep.ring(spin_exponential(0.7, [0, 0, 1]))
        assert not check_commutes(rep, [pauli["z"], np.full((2, 2), np.nan)])

    def test_worse_keeps_a_nan_from_either_side(self):
        assert worse(0.0, 2.0) == worse(2.0, 0.0) == 2.0
        assert math.isnan(worse(0.0, math.nan))
        assert math.isnan(worse(math.nan, 0.0))

    def test_non_hermitian_sample_rejected(self):
        rep = MatrixRep.ring(np.eye(2))
        with pytest.raises(ConfigError, match="Hermitian"):
            check_commutes(rep, [np.array([[0, 1], [0, 0]])])


class TestClassify:
    def test_character_is_c1(self):
        verdict = classify_dynamics(Character.ring(np.pi), [np.eye(1) * 0.3])
        assert verdict.label == "C1"

    def test_trivial_is_c0(self):
        verdict = classify_dynamics(Character.ring(0.0), [np.eye(1) * 0.3])
        assert verdict.label == "C0"

    def test_magnetic_moment_factor_is_c2(self, pauli):
        gamma = spin_exponential(0.7, [0, 0, 1])  # non-scalar SU(2) element
        verdict = classify_dynamics(MatrixRep.ring(gamma),
                                    [np.zeros((2, 2))])
        assert verdict.label == "C2"
        assert not verdict.scalar_factor

    def test_generic_potential_incompatible(self, rng, pauli):
        gamma = spin_exponential(0.5, [0, 0, 1])
        samples = []
        for _ in range(2):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            samples.append(a + a.conj().T)
        verdict = classify_dynamics(MatrixRep.ring(gamma), samples)
        assert verdict.label == "incompatible"
        assert verdict.span_dim == 4
        assert verdict.spans_full_algebra

    def test_conjugation_invariance(self, rng, pauli):
        u = random_unitary(2, rng)
        gamma = spin_exponential(0.7, [0, 0, 1])
        samples = [pauli["z"], 0.4 * pauli["z"] + 0.2 * np.eye(2)]
        before = classify_dynamics(MatrixRep.ring(gamma), samples)
        after = classify_dynamics(
            MatrixRep.ring(u @ gamma @ u.conj().T),
            [u @ v @ u.conj().T for v in samples])
        assert before.label == after.label == "C2"
        assert before.span_dim == after.span_dim


def word_closure_dim(mats, tol=1e-8):
    """Uncapped reference: grow the span of words until no product is new.

    Each product that leaves the span joins it and is multiplied again, so
    the final span contains the identity and is closed under left
    multiplication by every generator, i.e. it is the generated algebra.
    """
    k = mats[0].shape[0]
    basis = []

    def join(m):
        v = m.ravel() / np.linalg.norm(m)
        for _ in range(2):  # Gram-Schmidt twice against rounding
            for b in basis:
                v = v - (b.conj() @ v) * b
        if np.linalg.norm(v) <= tol:
            return False
        basis.append(v / np.linalg.norm(v))
        return True

    frontier = [np.eye(k, dtype=complex)]
    join(frontier[0])
    while frontier:
        p = frontier.pop()
        for a in mats:
            q = a @ p
            if np.linalg.norm(q) > 0 and join(q):
                frontier.append(q / np.linalg.norm(q))
    return len(basis)


def random_hermitian(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


@st.composite
def block_hermitian_sets(draw):
    """Hermitian sets of the form sum over blocks of A_i kron I_(m_i), k <= 4.

    Block sizes d_i and multiplicities m_i are drawn (m_i = 2 gives the
    A kron I_2 form), so the generated algebra has dimension from 1 up to
    16; a random unitary then hides the block structure.
    """
    shapes = [(d, m) for d in (1, 2, 3, 4) for m in (1, 2) if d * m <= 4]
    blocks, k = [], 0
    for d, m in draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=4)):
        if k + d * m <= 4:
            blocks.append((d, m))
            k += d * m
    count = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(count):
        mats.append(scipy.linalg.block_diag(
            *(np.kron(random_hermitian(d, rng), np.eye(m)) for d, m in blocks)))
    if draw(st.booleans()):
        mats.append(0.5 * np.eye(k))
    return np.array(mats, dtype=complex), random_unitary(k, rng)


class TestAlgebraDimension:
    @settings(derandomize=True, deadline=None)
    @given(block_hermitian_sets())
    def test_span_dim_is_the_word_closure(self, drawn):
        mats, u = drawn
        conjugated = np.array([u @ v @ u.conj().T for v in mats])
        verdict = classify_dynamics(Character.ring(0.0), mats)
        assert verdict.span_dim == word_closure_dim(list(mats))
        assert classify_dynamics(Character.ring(0.0),
                                 conjugated).span_dim == verdict.span_dim


def _degenerate_generator():
    u = random_unitary(3, np.random.default_rng(11))
    return u @ np.diag(np.exp(1j * np.array([0.3, 0.3, -1.1]))) @ u.conj().T


class TestDecompose:
    def test_already_diagonal(self):
        rep = MatrixRep.ring(np.diag([np.exp(1j * np.pi / 3),
                                      np.exp(-1j * np.pi / 3)]))
        sectors = decompose_by_character(rep)
        betas = sorted(c.beta for c, _ in sectors)
        assert np.allclose(betas, [-np.pi / 3, np.pi / 3])
        for _, basis in sectors:
            assert abs(np.abs(basis.ravel()).max() - 1.0) < 1e-12  # axes

    def test_pauli_x_rotation(self):
        phi = 0.8
        rep = MatrixRep.ring(spin_exponential(phi, [1, 0, 0]))
        sectors = decompose_by_character(rep)
        betas = sorted(c.beta for c, _ in sectors)
        assert np.allclose(betas, [-phi, phi], atol=1e-12)
        for _, basis in sectors:
            assert np.allclose(np.abs(basis.ravel()), [np.sqrt(0.5)] * 2)

    def test_identity_single_sector(self):
        sectors = decompose_by_character(MatrixRep.ring(np.eye(3)))
        assert len(sectors) == 1
        character, basis = sectors[0]
        assert character.is_trivial
        assert basis.shape == (3, 3)

    def test_reconstruction(self, rng):
        u = random_unitary(3, rng)
        rep = MatrixRep.ring(u @ np.diag(np.exp(1j * np.array([0.3, 0.3, -1.1]))) @ u.conj().T)
        sectors = decompose_by_character(rep)
        for k in (-3, 1, 2):
            rebuilt = sum(c.value(Winding(k)) * (b @ b.conj().T)
                          for c, b in sectors)
            assert np.max(np.abs(rebuilt - rep.evaluate(Winding(k)))) <= 1e-10

    def test_noncommuting_rejected(self, rng, pauli):
        rep = MatrixRep.free((scipy.linalg.expm(1j * pauli["x"]),
                              scipy.linalg.expm(1j * pauli["z"])))
        with pytest.raises(ConfigError, match="commute"):
            decompose_by_character(rep)

    @pytest.mark.parametrize("generator", [
        spin_exponential(0.8, [1, 0, 0]),
        spin_exponential(1.9, [0.48, -0.6, 0.64]),
        _degenerate_generator(),
        np.eye(3),
    ], ids=["x-axis", "tilted", "degenerate", "identity"])
    def test_sectors_are_the_state_layout_columns(self, generator):
        rep = MatrixRep.ring(generator)
        layout = twist_embed(np.ones((rep.dim, 16)), rep)
        betas, basis = layout.sector_betas, layout.sector_basis
        widths = 0
        for character, sector_basis in decompose_by_character(rep):
            cols = [j for j in range(rep.dim)
                    if np.round(betas[j], 9) == np.round(character.beta, 9)]
            assert character.beta == betas[cols[0]]
            assert np.array_equal(sector_basis, basis[:, cols])
            widths += len(cols)
        assert widths == rep.dim

    def test_ring_character_decomposes_to_itself(self):
        # a twist angle is kept unreduced, as the flux gauge stores it
        for character in (Character.ring(0.7), Character.ring(-7.5)):
            assert decompose_by_character(character) == [(character, None)]

    @settings(derandomize=True, deadline=None)
    @given(data=st.data(), k=st.integers(2, 4), n_gens=st.integers(2, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_commuting_free_split(self, data, k, n_gens, seed):
        # commuting generators, each with a repeated eigenvalue
        u = random_unitary(k, np.random.default_rng(seed))
        gens = []
        for _ in range(n_gens):
            angles = data.draw(st.lists(st.floats(-np.pi, np.pi),
                                        min_size=k - 1, max_size=k - 1))
            angles = np.array(angles[:1] + angles)
            gens.append(u @ np.diag(np.exp(1j * angles)) @ u.conj().T)
        rep = MatrixRep.free(gens)
        phases, basis = character_sectors(rep)
        again = character_sectors(rep)
        assert np.array_equal(phases, again[0])
        assert np.array_equal(basis, again[1])
        for g, gen in enumerate(gens):
            rebuilt = (basis * np.exp(1j * phases[g])) @ basis.conj().T
            assert np.max(np.abs(rebuilt - gen)) <= 1e-10
        sectors = decompose_by_character(rep)
        for g, gen in enumerate(gens):
            rebuilt = sum(c.generator_phases[g] * (b @ b.conj().T)
                          for c, b in sectors)
            assert np.max(np.abs(rebuilt - gen)) <= 1e-10


class TestNFermionFactor:
    def test_pure_swap_is_minus_identity(self, rng):
        u = random_unitary(2, rng)
        sigma = SemidirectElement(Permutation.swap(2, 0, 1),
                                  (FreeWord.identity(1), FreeWord.identity(1)))
        table = TwistedRepTable.nfermion(2, 2, [u])
        assert np.allclose(table.factor(sigma), -np.eye(4))

    def test_identity_is_identity(self, rng):
        u = random_unitary(2, rng)
        sigma = SemidirectElement.identity(2, 1)
        table = TwistedRepTable.nfermion(2, 2, [u])
        assert np.allclose(table.factor(sigma), np.eye(4))

    def test_single_word_tensor_slot(self, rng):
        u = random_unitary(2, rng)
        sigma = SemidirectElement(Permutation.identity(2),
                                  (FreeWord.generator(0, 1), FreeWord.identity(1)))
        table = TwistedRepTable.nfermion(2, 2, [u])
        assert np.allclose(table.factor(sigma), np.kron(u, np.eye(2)))

    def test_tag_reorders_slots(self, rng):
        u = random_unitary(2, rng)
        sigma = SemidirectElement(Permutation.identity(2),
                                  (FreeWord.generator(0, 1), FreeWord.identity(1)))
        # particle 0 carries the larger label, so it sits in the second slot
        table = TwistedRepTable.nfermion(2, 2, [u], qhat_tag=(1.0, 0.5))
        assert np.allclose(table.factor(sigma), np.kron(np.eye(2), u))

    def test_dimension_cap(self, rng):
        sigma = SemidirectElement.identity(3, 1)
        # 3 particles with a dim-3 value space is exactly the 27 cap
        table = TwistedRepTable.nfermion(3, 3, [random_unitary(3, rng)])
        out = table.factor(sigma)
        assert out.shape == (27, 27)
        with pytest.raises(ConfigError, match="cap"):
            TwistedRepTable.nfermion(3, 4, [random_unitary(4, rng)]).factor(sigma)

    @pytest.mark.parametrize("shapes", [[3], [2, 3], [(2, 3)]],
                             ids=["3x3-on-2", "second-of-two", "2x3"])
    def test_generators_of_another_size_are_refused(self, rng, shapes):
        # a 3 x 3 generator on w_dim 2 used to give a table of dim 4 with
        # 9 x 9 factors, which verify_twisted_law met as a matmul ValueError
        gens = [random_unitary(s, rng) if isinstance(s, int)
                else np.ones(s, dtype=complex) for s in shapes]
        with pytest.raises(ConfigError, match="must be 2 x 2") as exc:
            TwistedRepTable.nfermion(2, 2, gens)
        assert exc.value.field_path == f"$.twisted.generators[{len(gens) - 1}]"

    def test_output_unitary(self, rng):
        table = TwistedRepTable.nfermion(3, 2, [random_unitary(2, rng)])
        for sigma in deck_elements(CoveringSpace.nfermion_cover(3, 1)):
            m = table.factor(sigma)
            assert np.max(np.abs(m.conj().T @ m - np.eye(8))) <= 1e-10


class TestTwistedLaw:
    def test_matrix_rep_embeds_with_trivial_holonomy(self, rng):
        rep = MatrixRep.free((random_unitary(2, rng),))
        table = untwisted_table(rep, CoveringSpace.free_cover(1))
        assert verify_twisted_law(table) <= 1e-12

    @pytest.mark.parametrize("character,space,sigma", [
        (Character.ring(0.9), RingGrid(), Winding(1)),
        (Character.free([np.exp(0.4j), np.exp(-1.2j)]), CoveringSpace.free_cover(2),
         FreeWord.generator(0, 2)),
        (Character.exchange(2, -1), PairGrid(),
         Permutation.swap(2, 0, 1)),
    ], ids=["ring", "free", "exchange"])
    def test_character_embeds_as_one_by_one(self, character, space, sigma):
        table = untwisted_table(character, space)
        assert table.factor(sigma).shape == (1, 1)
        assert table.factor(sigma)[0, 0] == character.value(sigma)
        pairs = list(itertools.product(deck_elements(space), repeat=2))
        assert twisted_law_residual(table, pairs) <= 1e-12
        # the law holds for the character, so a wrong entry must break it
        bad = table.corrupted(sigma, 1j * character.value(sigma) * np.eye(1))
        assert twisted_law_residual(bad, pairs) > 0.1

    def test_nfermion_table(self, rng):
        table = TwistedRepTable.nfermion(2, 2, [random_unitary(2, rng)])
        assert verify_twisted_law(table) <= 1e-12

    def test_three_particles_with_tag(self, rng):
        table = TwistedRepTable.nfermion(3, 2, [random_unitary(2, rng)],
                                         qhat_tag=(2.5, 0.1, 1.3))
        assert verify_twisted_law(table) <= 1e-12

    def test_corruption_detected(self, rng):
        table = TwistedRepTable.nfermion(2, 2, [random_unitary(2, rng)])
        sigma = list(table.space.ball)[-1]
        bad = table.corrupted(sigma, -table.factor(sigma))
        assert verify_twisted_law(bad) > 0.1

    def test_a_written_entry_leaves_the_table_as_it_was(self, rng):
        # the table caches its entries, and a corrupted copy starts from them
        table = TwistedRepTable.nfermion(2, 2, [random_unitary(2, rng)])
        assert verify_twisted_law(table) <= 1e-12
        for sigma in table.space.ball:
            table.factor(sigma)[:] = 0
        matrix = np.eye(4)
        bad = table.corrupted(next(iter(table.space.ball)), matrix)
        matrix[:] = 0
        assert verify_twisted_law(table) <= 1e-12
        assert np.array_equal(bad.factor(next(iter(table.space.ball))), np.eye(4))

    def test_the_walk_agrees_with_the_pairwise_law(self, rng):
        # the walk's batched products against the oracle's one pair at a time
        table = TwistedRepTable.nfermion(
            3, 2, [random_unitary(2, rng) for _ in range(2)],
            qhat_tag=(2.5, 0.1, 1.3))
        space = table.space
        pairs = list(itertools.product(space.ball, space.generators))
        bad = table.corrupted(pairs[40][0], np.eye(8))
        for t in (table, bad):
            assert verify_twisted_law(t) == pytest.approx(
                twisted_law_residual(t, pairs), rel=1e-12, abs=1e-15)

    def test_the_ball_has_every_short_word(self):
        # on a free cover the ball is the set of reduced words of <= 3 letters
        space = CoveringSpace.free_cover(2)
        assert set(space.ball) == set(ball_words(2, BALL_RADIUS))
        assert len(space.ball) == 1 + 4 + 12 + 36
        for s, products in space.ball.items():
            assert products == [deck_compose(s, t) for t in space.generators]

    @pytest.mark.parametrize("n, g, size", [(2, 1, 22), (2, 3, 302), (3, 4, 758)])
    def test_the_ball_of_the_nfermion_cover(self, n, g, size):
        # the walk against every product of three steps, the identity a step
        space = CoveringSpace.nfermion_cover(n, g)
        ball = list(space.ball)
        assert len(ball) == len(set(ball)) == size
        assert ball[0].is_identity
        steps = [ball[0]] + space.generators + [t.inverse() for t in space.generators]
        assert set(ball) == {functools.reduce(deck_compose, word)
                             for word in itertools.product(steps, repeat=3)}

    def test_every_negated_ball_entry_is_caught(self):
        # the 1 x 1 table of seed 13 has a ball entry 0.034 from i, so i * I
        # there moves the law by 0.034 only; a negated entry moves it by 2
        rng = np.random.default_rng(13)
        table = TwistedRepTable.nfermion(
            2, 1, [random_unitary(1, rng) for _ in range(3)])
        assert verify_twisted_law(table) <= 1e-12
        near_i = min(table.space.ball, key=lambda s: abs(table.factor(s)[0, 0] - 1j))
        assert verify_twisted_law(table.corrupted(near_i, 1j * np.eye(1))) < 0.1
        worst = min(verify_twisted_law(table.corrupted(s, -table.factor(s)))
                    for s in table.space.ball)
        assert worst >= 2.0 - 1e-12

    def test_permutation_operator_is_action(self, rng):
        # operator of p acts on slot contents like p acts on particle slots
        d, n = 2, 3
        for _ in range(10):
            p = Permutation(tuple(int(i) for i in rng.permutation(n)))
            q = Permutation(tuple(int(i) for i in rng.permutation(n)))
            lhs = permutation_operator(p.compose(q), d)
            rhs = permutation_operator(p, d) @ permutation_operator(q, d)
            assert np.allclose(lhs, rhs)


def test_decompose_commuting_free_generators(rng):
    # two commuting unitaries split into joint character sectors
    u = random_unitary(3, rng)
    d1 = np.diag(np.exp(1j * np.array([0.3, -0.7, 0.3])))
    d2 = np.diag(np.exp(1j * np.array([1.1, 0.2, -0.4])))
    rep = MatrixRep.free((u @ d1 @ u.conj().T, u @ d2 @ u.conj().T))
    sectors = decompose_by_character(rep)
    assert len(sectors) == 3   # the (0.3, 1.1), (-0.7, 0.2), (0.3, -0.4) joints
    for sigma in deck_elements(CoveringSpace.free_cover(2)):
        rebuilt = sum(c.value(sigma) * (b @ b.conj().T) for c, b in sectors)
        assert np.max(np.abs(rebuilt - rep.evaluate(sigma))) <= 1e-10
