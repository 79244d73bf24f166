"""Deck-group algebra, the deck action, and projectability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FreePoint,
    RingPoint,
    SheetWindowIntegrator,
    deck_apply,
    is_projectable_field,
    projectability_residual,
)
from topobohm.covering import (
    TWO_PI,
    CoveringSpace,
    FreeWord,
    Permutation,
    SemidirectElement,
    Winding,
    deck_compose,
)
from topobohm.spaces import PairGrid, RingGrid
from topobohm.errors import ConfigError, PhysicsError
from topobohm.factors import Character, MatrixRep
from topobohm.propagation import angle_grid, make_eigenstate, wrapped_gaussian
from topobohm.scenario import PAULI, spin_exponential


def word(*letters, g=2):
    return FreeWord.from_letters(letters, g)


class TestDeckApply:
    def test_ring_winding(self):
        space = RingGrid()
        moved = deck_apply(space, Winding(1), RingPoint(0, 0.5))
        assert moved == RingPoint(1, 0.5)
        assert moved.unwrapped == pytest.approx(0.5 + TWO_PI)

    def test_ring_identity(self):
        space = RingGrid()
        p = RingPoint(2, 1.25)
        assert deck_apply(space, Winding(0), p) == p

    def test_ring_accepts_unwrapped_floats(self):
        space = RingGrid()
        moved = deck_apply(space, Winding(-1), 0.5 + TWO_PI)
        assert moved == RingPoint(0, pytest.approx(0.5))

    def test_sheet_window_overflow(self):
        space = RingGrid(sheet_window=3)
        with pytest.raises(PhysicsError, match="window"):
            deck_apply(space, Winding(4), RingPoint(0, 0.0))

    def test_two_particle_swap(self):
        space = PairGrid()
        assert deck_apply(space, Permutation.swap(2, 0, 1), (1.0, 2.0)) == (2.0, 1.0)

    def test_nfermion_action(self):
        # swap with words (a1, e) sends (x1, x2) to (x2, a1 x1)
        space = CoveringSpace.nfermion_cover(2, 1)
        sigma = SemidirectElement(
            Permutation.swap(2, 0, 1),
            (FreeWord.generator(0, 1), FreeWord.identity(1)))
        x1 = FreePoint(FreeWord.identity(1), "x1")
        x2 = FreePoint(FreeWord.identity(1), "x2")
        out = deck_apply(space, sigma, (x1, x2))
        assert out[0] == FreePoint(FreeWord.identity(1), "x2")
        assert out[1] == FreePoint(FreeWord.generator(0, 1), "x1")


class TestDeckCompose:
    def test_winding_addition(self):
        assert deck_compose(Winding(2), Winding(3)) == Winding(5)

    def test_word_cancellation(self):
        a = FreeWord.generator(0, 2)
        assert deck_compose(a, a.inverse()).is_identity

    def test_semidirect_example(self):
        # hand-composed: (swap,(a1,e)) * (swap,(e,e)) = (id,(e,a1))
        g = 1
        s1 = SemidirectElement(Permutation.swap(2, 0, 1),
                               (FreeWord.generator(0, g), FreeWord.identity(g)))
        s2 = SemidirectElement(Permutation.swap(2, 0, 1),
                               (FreeWord.identity(g), FreeWord.identity(g)))
        product = deck_compose(s1, s2)
        assert product.perm.is_identity
        assert product.words[0].is_identity
        assert product.words[1] == FreeWord.generator(0, g)

    def test_mixed_groups_rejected(self):
        with pytest.raises(TypeError):
            deck_compose(Winding(1), FreeWord.identity(1))

    @pytest.mark.parametrize("space", [
        RingGrid(sheet_window=20),
        CoveringSpace.free_cover(2),
        CoveringSpace.nfermion_cover(3, 2),
    ])
    def test_associativity(self, space):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = (space.random_deck(rng, max_word_length=4) for _ in range(3))
            assert deck_compose(deck_compose(a, b), c) == deck_compose(a, deck_compose(b, c))

    def test_compose_matches_action(self):
        space = CoveringSpace.nfermion_cover(3, 2)
        rng = np.random.default_rng(11)
        base = tuple(FreePoint(FreeWord.identity(2), f"x{i}") for i in range(3))
        for _ in range(100):
            s1 = space.random_deck(rng, max_word_length=3)
            s2 = space.random_deck(rng, max_word_length=3)
            assert deck_apply(space, deck_compose(s1, s2), base) \
                == deck_apply(space, s1, deck_apply(space, s2, base))

    def test_semidirect_inverse(self):
        space = CoveringSpace.nfermion_cover(3, 2)
        rng = np.random.default_rng(13)
        for _ in range(50):
            s = space.random_deck(rng, max_word_length=4)
            assert deck_compose(s, s.inverse()).is_identity
            assert deck_compose(s.inverse(), s).is_identity


@pytest.mark.parametrize("group", ["ring", "sym", "free", "nfermion"])
class TestDeckGroupLaws:
    """``deck_compose`` is a group product on every kind of deck group."""

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_associativity(self, deck_groups, group, data):
        elements, _ = deck_groups[group]
        a, b, c = data.draw(st.tuples(elements, elements, elements))
        assert deck_compose(deck_compose(a, b), c) == deck_compose(a, deck_compose(b, c))

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_identity_and_inverse(self, deck_groups, group, data):
        elements, identity = deck_groups[group]
        a = data.draw(elements)
        assert deck_compose(identity, a) == a == deck_compose(a, identity)
        assert deck_compose(a, a.inverse()) == identity
        assert deck_compose(a.inverse(), a) == identity


class TestWords:
    def test_reduction(self):
        w = word((0, 1), (1, 1), (1, -1), (0, -1))
        assert w.is_identity

    def test_non_reduced_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="reduced"):
            FreeWord(((0, 1), (0, 1)), 2)

    def test_length_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            FreeWord(((0, 65),), 1)

    def test_inverse(self):
        w = word((0, 1), (1, -1))
        assert (w * w.inverse()).is_identity


def test_free_action_on_samples():
    space = RingGrid()
    elements = [Winding(k) for k in (-2, -1, 0, 1, 2)]
    points = [RingPoint(0, a) for a in np.linspace(0, TWO_PI, 7, endpoint=False)]
    assert all(deck_apply(space, sigma, q) != q
               for sigma in elements if not sigma.is_identity for q in points)


class TestProjectability:
    def test_constant_field_projects(self):
        # phase-gradient of a twisted eigenstate is the same on every sheet
        v = np.full(64, 0.5)
        samples = {Winding(k): v for k in range(3)}
        assert is_projectable_field(samples, tol=1e-9)

    def test_quadratic_phase_fails(self):
        # d/dtheta of theta^2 shifts by 4 pi per sheet
        theta = angle_grid(64)
        samples = {Winding(k): 2 * (theta + TWO_PI * k) for k in range(3)}
        assert not is_projectable_field(samples, tol=1e-9)

    @pytest.mark.parametrize("axis, projects", [("z", True), ("x", False)],
                             ids=["commuting-z", "noncommuting-x"])
    def test_cover_sheet_velocity(self, axis, projects):
        # the ungauged sheet window keeps the twist only while the potential
        # commutes with the factor: sigma_z does, sigma_x does not (the
        # sheets then differ by 2.5e-6, against 1.3e-14 under sigma_z)
        rep = MatrixRep.ring(spin_exponential(math.pi / 2, [0, 0, 1]))
        integ = SheetWindowIntegrator(rep, PAULI[axis], n_points=64)
        psi, _ = integ.run(wrapped_gaussian(angle_grid(64), math.pi, 0.5),
                           1e-3, 100)
        psi = psi.reshape(integ.n_sheets * integ.n, integ.k)
        dpsi = np.gradient(psi, TWO_PI / integ.n * integ.radius, axis=0)
        rho = np.sum(np.abs(psi) ** 2, axis=1)
        v = np.sum(np.imag(np.conj(psi) * dpsi), axis=1) / rho / integ.radius
        rho = rho.reshape(integ.n_sheets, integ.n)
        v = v.reshape(integ.n_sheets, integ.n)
        mid = integ.n_sheets // 2
        ok = rho[mid] > 1e-3 * np.max(rho[mid])
        samples = {Winding(0): v[mid][ok], Winding(1): v[mid + 1][ok]}
        assert is_projectable_field(samples, tol=1e-10) == projects

    def test_nan_sample_does_not_project(self):
        samples = {Winding(0): np.zeros(8), Winding(1): np.full(8, np.nan)}
        assert not is_projectable_field(samples, tol=1e-9)

    def test_needs_two_sheets(self):
        with pytest.raises(ConfigError, match="2 deck translates"):
            is_projectable_field({Winding(0): np.zeros(8)}, tol=1e-9)


class TestProjectDensity:
    """A density projects to the base when it is the same on every sheet."""

    def test_unit_modulus_density_projects(self):
        state = make_eigenstate(1, Character.ring(0.7), n_points=64)
        sheets = state.reconstruct_sheets(3)
        samples = {w: np.sum(np.abs(psi) ** 2, axis=0) for w, psi in sheets.items()}
        assert is_projectable_field(samples, tol=1e-9)
        assert np.sum(samples[Winding(0)]) * state.dx == pytest.approx(1.0, abs=1e-12)

    def test_growing_density_rejected(self):
        # a modulus-1.1 twist would scale the density by 1.1^2 per sheet
        base = np.ones(32)
        samples = {Winding(k): base * 1.1 ** (2 * k) for k in range(3)}
        assert not is_projectable_field(samples, tol=1e-9)

    @pytest.mark.parametrize("samples, match", [
        ({Winding(0): np.ones(8), Winding(1): np.ones(1)}, "one base-grid shape"),
        ({Winding(1): np.ones(8), Winding(2): np.ones(8)}, "identity deck element"),
    ], ids=["mismatched-shapes", "no-identity-sheet"])
    def test_malformed_samples_refused(self, samples, match):
        with pytest.raises(ConfigError, match=match):
            projectability_residual(samples)


def test_ring_compose_matches_action_exactly():
    space = RingGrid(sheet_window=10)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = Winding(int(rng.integers(-4, 5)))
        b = Winding(int(rng.integers(-4, 5)))
        p = RingPoint(0, float(rng.uniform(0, TWO_PI)))
        assert deck_apply(space, deck_compose(a, b), p) \
            == deck_apply(space, a, deck_apply(space, b, p))
