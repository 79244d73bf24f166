"""Reference implementations that the tests check the package against.

None of this is part of the package: no command, demo or benchmark reaches
it, and nothing under ``src/`` imports it.  Each piece is slow or general
by design.  Two read a piece of the package that they do not check: the
Crank-Nicolson oracle steps the grid Hamiltonian that ``spectrum``
diagonalizes, and ``collapse_rate`` sums the bump that ``apply_collapse``
multiplies by.  ``velocity_field`` is the guiding field on the grid points,
by FFT derivatives, against which the point evaluators are checked.
``cover_evolve`` and ``fold`` are the paper's construction of the twisted
dynamics: plain Strang steps of psi itself on a finite cyclic cover, with no
twist, sector or shifted wavenumber, folded down by the factor.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Mapping, NamedTuple

import numpy as np
import scipy.linalg

from topobohm.covering import (
    TWO_PI,
    FreeWord,
    Permutation,
    SemidirectElement,
    Winding,
    deck_compose,
)
from topobohm.errors import ConfigError, PhysicsError
from topobohm.factors import (
    Character,
    MatrixRep,
    TwistedRepTable,
    max_abs,
    unitary_eig,
    worse,
)
from topobohm.collapse import collapse_multiplier
from topobohm.spaces import PairGrid, RingGrid
from topobohm.propagation import (
    WaveGrid,
    _hamiltonian_blocks,
    _require_scalar_ring,
    fourier_modes,
)


# ---------------------------------------------------------------------------
# cover points and the deck action: the oracle for ``deck_compose``
# ---------------------------------------------------------------------------

class RingPoint(NamedTuple):
    """Point on the ring cover: sheet index plus angle in [0, 2pi)."""

    sheet: int
    angle: float

    @property
    def unwrapped(self):
        return self.angle + TWO_PI * self.sheet

    @classmethod
    def from_unwrapped(cls, theta):
        sheet = math.floor(theta / TWO_PI)
        return cls(sheet, theta - TWO_PI * sheet)


class FreePoint(NamedTuple):
    """Symbolic cover point of a free cover: a word and a base label."""

    word: FreeWord
    base: object


def deck_apply(space, sigma, qhat):
    """Apply the deck transformation ``sigma`` to the cover point ``qhat``.

    Ring points are a sheet index and an angle; free-cover points are
    symbolic.
    """
    if sigma.group_id[0] == "ring":
        if space.kind != "ring":
            raise TypeError("winding acts on the ring cover only")
        if isinstance(qhat, RingPoint):
            point = qhat
        else:
            point = RingPoint.from_unwrapped(float(qhat))
        return RingPoint(point.sheet + sigma.k, point.angle)

    if sigma.group_id[0] == "sym":
        if space.kind != "two_particle_ring" or sigma.n != 2:
            raise TypeError("permutation action supported on the two-particle ring")
        q = tuple(qhat)
        pinv = sigma.inverse()
        return tuple(q[pinv(i)] for i in range(sigma.n))

    if sigma.group_id[0] == "free":
        if not isinstance(qhat, FreePoint):
            raise TypeError("free-cover points are symbolic FreePoint values")
        return FreePoint(sigma * qhat.word, qhat.base)

    if sigma.group_id[0] == "nfermion":
        q = tuple(qhat)
        if len(q) != sigma.n:
            raise TypeError("configuration size does not match deck element")
        pinv = sigma.perm.inverse()
        out = []
        for i in range(sigma.n):
            j = pinv(i)
            out.append(FreePoint(sigma.words[j] * q[j].word, q[j].base))
        return tuple(out)

    raise TypeError(f"unknown deck element {sigma!r}")


# ---------------------------------------------------------------------------
# projectability of cover-side samples
# ---------------------------------------------------------------------------

def is_projectable_field(samples: Mapping, tol: float) -> bool:
    """Check deck equivariance of a cover-side field.

    ``samples`` maps each materialized deck element sigma to the array of
    pushed-forward field values at the translated points, expressed in base
    coordinates (so for the ring, entry sigma holds v(theta + 2 pi k) as a
    function of theta, and the pushforward is trivial).  The field is
    projectable iff all entries agree with the identity entry within ``tol``.
    """
    return projectability_residual(samples) <= tol


def projectability_residual(samples: Mapping) -> float:
    """Max deviation over deck translates from the identity sheet.

    Raises ``ConfigError`` unless there are samples on at least two deck
    translates, one of them the identity, all of one shape.  A NaN sample
    gives a NaN residual, which no tolerance accepts.
    """
    if len(samples) < 2:
        raise ConfigError("need samples on at least 2 deck translates")
    identity_key = next((k for k in samples if k.is_identity), None)
    if identity_key is None:
        raise ConfigError("samples must include the identity deck element")
    base = np.asarray(samples[identity_key])
    arrays = [np.asarray(values) for values in samples.values()]
    if any(arr.shape != base.shape for arr in arrays):
        raise ConfigError("sample arrays must share one base-grid shape")
    return float(np.max([np.max(np.abs(arr - base)) for arr in arrays]))


# ---------------------------------------------------------------------------
# factor laws
# ---------------------------------------------------------------------------

def untwisted_table(rep, space):
    """Untwisted table of a matrix rep, or of a character as 1 x 1."""
    factor_fn = rep.evaluate if isinstance(rep, MatrixRep) \
        else lambda sigma: [[rep.value(sigma)]]
    return TwistedRepTable(space,
                           factor_fn=factor_fn,
                           holonomy_fn=lambda sigma: np.eye(rep.dim))


def word_from_letters(letters, n_generators):
    """The reduced word of a string of (generator, +-1) letters."""
    return functools.reduce(
        operator.mul, (FreeWord.generator(g, n_generators, e) for g, e in letters),
        FreeWord.identity(n_generators))


def ball_words(n_generators, length):
    """Every reduced word of at most ``length`` letters, reduced from every
    string of letters rather than walked as the package walks its ball."""
    letters = [(g, e) for g in range(n_generators) for e in (1, -1)]
    return list(dict.fromkeys(
        word_from_letters(string, n_generators)
        for size in range(length + 1)
        for string in itertools.product(letters, repeat=size)))


def deck_elements(space, length=3):
    """Deck elements to check a law on: the windings of at most ``length``
    turns on the ring, both orderings of the pair, the reduced words of at
    most ``length`` letters on a free cover, and on the N-fermion cover
    each permutation with one such word in the first slot (products of
    two carry words in two slots)."""
    if isinstance(space, RingGrid):
        return [Winding(k) for k in range(-length, length + 1)]
    if isinstance(space, PairGrid):
        return [Permutation.identity(2), Permutation.swap(2, 0, 1)]
    words = ball_words(space.n_generators, length)
    if space.n_particles is None:
        return words
    rest = (FreeWord.identity(space.n_generators),) * (space.n_particles - 1)
    return [SemidirectElement(Permutation(images), (w,) + rest)
            for images in itertools.permutations(range(space.n_particles))
            for w in words]


def twisted_law_residual(table, pairs):
    """Max residual of G(s1 s2) = h(s2) G(s1) h(s2)^-1 G(s2) over the
    given (s1, s2) pairs, one pair at a time."""
    worst = 0.0
    for s1, s2 in pairs:
        h2 = table.holonomy(s2)
        rhs = h2 @ table.factor(s1) @ h2.conj().T @ table.factor(s2)
        worst = worse(worst, max_abs(table.factor(deck_compose(s1, s2)) - rhs))
    return worst


def homomorphism_residual(factor, space, length=3):
    """Max |f(s t) - f(s) f(t)| over every pair of ``deck_elements``.

    Works for characters and matrix representations alike (matrix case uses
    the max-abs matrix norm): the twisted law of the untwisted table.
    """
    elements = deck_elements(space, length)
    return twisted_law_residual(untwisted_table(factor, space),
                                itertools.product(elements, repeat=2))


def unitary_fractional_power(u, t):
    """u^t with eigenphases on the principal branch (-pi, pi]."""
    eigvals, basis = unitary_eig(u)
    phases = np.angle(eigvals)  # principal branch (-pi, pi]
    powered = np.exp(1j * phases * t)
    return (basis * powered) @ basis.conj().T


# ---------------------------------------------------------------------------
# flux gauge: the round trip of ``gauge_map``
# ---------------------------------------------------------------------------

def gauge_unmap(state_twisted, flux, charge=1.0):
    """Lift a twisted state to the flux gauge, twist angle -charge * flux.

    Inverse of gauge_map: the integer winding between the two angles moves
    out of the periodic data again.
    """
    _require_scalar_ring(state_twisted)
    beta = state_twisted.beta
    m = (charge * flux + beta) / TWO_PI
    m_int = round(m)
    if abs(m - m_int) > 1e-9:
        raise PhysicsError(
            "state twist is not gauge-equivalent to the given flux")
    psi_a = state_twisted.values * np.exp(1j * m_int * state_twisted.theta)[None, :]
    flux_beta = -charge * flux
    return WaveGrid(space=state_twisted.space, values=psi_a,
                    twist=Character.ring(flux_beta),
                    sector_betas=np.array([flux_beta]))


# ---------------------------------------------------------------------------
# the guiding field on the grid
# ---------------------------------------------------------------------------

def velocity_field(state, eps_node=1e-12):
    """Velocity samples on the base grid plus a node mask.

    Returns (v, node_mask): velocity is meaningless where the density is
    below eps_node times its maximum, and those samples are flagged.  A
    pair's velocity has one component per particle on its last axis.
    """
    if state.space.kind == "two_particle_ring":
        return _velocity_field_torus(state, eps_node)
    values = state.values
    n = state.n_points
    modes = fourier_modes(n)
    coeffs = np.fft.fft(values, axis=1)
    dvalues = np.fft.ifft(1j * modes[None, :] * coeffs, axis=1)
    rho = np.sum(np.abs(values) ** 2, axis=0)
    current = np.sum(np.imag(np.conj(values) * dvalues), axis=0)
    current = current + np.sum(
        (state.sector_betas[:, None] / TWO_PI) * np.abs(values) ** 2, axis=0)
    node_mask = rho < eps_node * np.max(rho)
    v = np.zeros_like(rho)
    ok = ~node_mask
    v[ok] = current[ok] / rho[ok] / state.radius ** 2
    return v, node_mask


def _velocity_field_torus(state, eps_node):
    values = state.values
    n = state.n_points
    modes = fourier_modes(n)
    coeffs = np.fft.fft2(values)
    d1 = np.fft.ifft2(1j * modes[:, None] * coeffs)
    d2 = np.fft.ifft2(1j * modes[None, :] * coeffs)
    rho = np.abs(values) ** 2
    node_mask = rho < eps_node * np.max(rho)
    v = np.zeros(values.shape + (2,))
    ok = ~node_mask
    v[..., 0][ok] = np.imag(np.conj(values[ok]) * d1[ok]) / rho[ok]
    v[..., 1][ok] = np.imag(np.conj(values[ok]) * d2[ok]) / rho[ok]
    return v / state.radius ** 2, node_mask


# ---------------------------------------------------------------------------
# collapse: the direct sum behind ``rate_over_centers``
# ---------------------------------------------------------------------------

def collapse_rate(state, x, lam, a):
    """r(x|psi): expectation of the rate operator in the current state."""
    mult = collapse_multiplier(state, x, lam, a)
    rho = state.density()
    if state.space.kind == "ring":
        return float(np.sum(mult * rho) * state.dx)
    return float(np.sum(mult * rho) * state.dx ** 2)


# ---------------------------------------------------------------------------
# reference integrators
# ---------------------------------------------------------------------------

def crank_nicolson_evolve(state, potential, dt, n_steps):
    """Dense Crank-Nicolson reference on the same periodic grid.

    Independent time-integration oracle: one step solves
    (1 + i dt H / 2) psi' = (1 - i dt H / 2) psi against the explicitly
    built grid Hamiltonian.  Scalar ring states only; slow by design.
    """
    if state.space.kind != "ring" or not state.is_scalar:
        raise ConfigError("the Crank-Nicolson reference handles scalar ring states")
    h = _hamiltonian_blocks(state, potential)[0]
    h = (h + h.conj().T) / 2.0
    eye = np.eye(state.n_points, dtype=complex)
    lhs = eye + 0.5j * dt * h
    rhs = eye - 0.5j * dt * h
    lu, piv = scipy.linalg.lu_factor(lhs)
    psi = state.values[0].copy()
    for _ in range(n_steps):
        psi = scipy.linalg.lu_solve((lu, piv), rhs @ psi)
    return state.with_values(psi[None, :])


# ---------------------------------------------------------------------------
# the paper's construction: evolve on a finite cyclic cover, then fold
# ---------------------------------------------------------------------------

def cover_evolve(psi, field, dt, n_steps, sheets, radius=1.0):
    """n_steps plain Strang steps V/2 - T - V/2 of a (k, N, ..., N) wave on
    the W-fold cyclic cover (W = ``sheets``) of the ring, or of the torus
    of d rings: N = n W points on each angle axis of length 2 pi W, and
    wavenumbers m / (W radius).  ``field`` is the base grid's Hermitian
    (k, k) matrix at each of its n^d points, shape (n,) * d + (k, k),
    tiled W times along each axis.  No twist enters."""
    psi = np.asarray(psi, dtype=complex)
    axes = tuple(range(1, psi.ndim))
    eigvals, basis = np.linalg.eigh(field)
    half = (basis * np.exp(-0.5j * dt * eigvals)[..., None, :]) \
        @ basis.conj().swapaxes(-1, -2)
    kick = np.tile(half, (sheets,) * len(axes) + (1, 1))
    m = np.fft.fftfreq(psi.shape[1], 1.0 / psi.shape[1]) / (sheets * radius)
    kinetic = np.exp(-0.5j * dt * functools.reduce(np.add.outer,
                                                   [m ** 2] * len(axes)))
    for _ in range(n_steps):
        psi = np.einsum("...ab,b...->a...", kick, psi)
        psi = np.fft.ifftn(kinetic * np.fft.fftn(psi, axes=axes), axes=axes)
        psi = np.einsum("...ab,b...->a...", kick, psi)
    return psi


def fold(psi, gamma, sheets):
    """psi(theta) = sum_w Gamma^-w psi~(theta + 2 pi w) of a (k, n W) wave
    psi~ on the W-fold cover of the ring: the (k, n) wave on the ring with
    psi(theta + 2 pi) = Gamma psi(theta) when Gamma^W = 1 (Duerr, Goldstein,
    Taylor, Tumulka and Zanghi, J. Phys. A 40:2997, 2007)."""
    k, size = np.shape(psi)
    down = np.linalg.inv(np.reshape(gamma, (k, k)))
    pieces = np.reshape(psi, (k, sheets, size // sheets))
    return sum(np.linalg.matrix_power(down, w) @ pieces[:, w]
               for w in range(sheets))


def lift(psi, gamma, sheets):
    """A (k, n) wave on the ring laid out on the W-fold cover, sheet w
    holding Gamma^w psi; ``fold`` takes it back to W psi."""
    up = np.reshape(gamma, (len(psi), len(psi)))
    return np.concatenate([np.linalg.matrix_power(up, w) @ psi
                           for w in range(sheets)], axis=1)
