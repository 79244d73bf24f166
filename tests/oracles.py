"""Reference implementations that the tests check the package against.

None of this is part of the package: no command, demo or benchmark reaches
it, and nothing under ``src/`` imports it.  Each piece is slow or general
by design.  Two read a piece of the package that they do not check: the
Crank-Nicolson oracle steps the grid Hamiltonian that ``spectrum``
diagonalizes, and ``collapse_rate`` sums the bump that ``apply_collapse``
multiplies by.  ``velocity_field`` is the guiding field on the grid points,
by FFT derivatives, against which the point evaluators are checked.
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


class SheetWindowIntegrator:
    """Ungauged cover-sheet reference integrator (negative control).

    Evolves psi directly on a window of cover sheets (a Dirichlet-walled
    segment of the cover) with the lifted potential, imposing the twist only
    on the initial data.  When the factor commutes with the potential the
    interior twist relation survives; when it does not, the relation decays
    visibly within a few steps.  Finite differences + Crank-Nicolson; this
    integrator is deliberately independent of the gauge-fixed machinery.
    """

    def __init__(self, factor, potential_matrix, n_points=64, n_sheets=7,
                 radius=1.0):
        if isinstance(factor, Character):
            self.gamma = np.array([[np.exp(1j * factor.beta)]])
        else:
            self.gamma = factor.generators[0]
        self.k = self.gamma.shape[0]
        self.n = n_points
        self.n_sheets = n_sheets
        self.radius = radius
        v = np.asarray(potential_matrix, dtype=complex)
        if v.ndim == 2:
            v = np.broadcast_to(v, (n_points, self.k, self.k))
        self.v_base = v

    def _hamiltonian(self):
        n_total = self.n * self.n_sheets
        dx = TWO_PI / self.n * self.radius
        main = np.full(n_total, 1.0 / dx ** 2)
        h_kin = (np.diag(main)
                 - 0.5 / dx ** 2 * np.eye(n_total, k=1)
                 - 0.5 / dx ** 2 * np.eye(n_total, k=-1))
        h = np.kron(h_kin, np.eye(self.k, dtype=complex)).astype(complex)
        for j in range(n_total):
            vj = self.v_base[j % self.n]
            h[j * self.k:(j + 1) * self.k, j * self.k:(j + 1) * self.k] += vj
        return h

    def initial_from_profile(self, chi_profile):
        """Twisted initial data: packet on the middle sheet, neighbours scaled
        by the matching powers of the factor."""
        mid = self.n_sheets // 2
        psi = np.zeros((self.n_sheets, self.n, self.k), dtype=complex)
        profile = np.asarray(chi_profile, dtype=complex)
        if profile.ndim == 1:
            profile = np.tile(profile[:, None], (1, self.k)) / math.sqrt(self.k)
        gamma_inv = self.gamma.conj().T
        for s in range(self.n_sheets):
            power = s - mid
            gpow = np.linalg.matrix_power(self.gamma if power >= 0 else gamma_inv,
                                          abs(power))
            psi[s] = profile @ gpow.T
        return psi.reshape(-1)

    def initial_from_state(self, state):
        """The physical wave of a gauge-fixed WaveGrid, laid out on the window
        (sheet s carries Gamma^s times the fundamental-sheet wave)."""
        if state.n_points != self.n:
            raise ConfigError("state grid does not match the sheet window")
        return self.initial_from_profile(state.psi().T)

    def central_sheet(self, psi_flat):
        """(k, n) wave on the fundamental (middle) sheet."""
        psi = psi_flat.reshape(self.n_sheets, self.n, self.k)
        return psi[self.n_sheets // 2].T.copy()

    def twist_residual(self, psi_flat):
        """Relative violation of psi(theta + 2 pi) = Gamma psi(theta) on the
        two central sheets."""
        psi = psi_flat.reshape(self.n_sheets, self.n, self.k)
        mid = self.n_sheets // 2
        lhs = psi[mid + 1]
        rhs = psi[mid] @ self.gamma.T
        scale = max(max_abs(psi[mid]), 1e-300)
        return max_abs(lhs - rhs) / scale

    def run(self, chi_profile, dt, n_steps, residual_every=10):
        return self.run_from(self.initial_from_profile(chi_profile), dt,
                             n_steps, residual_every)

    def run_from(self, psi_flat, dt, n_steps, residual_every=10):
        h = self._hamiltonian()
        eye = np.eye(h.shape[0], dtype=complex)
        lu, piv = scipy.linalg.lu_factor(eye + 0.5j * dt * h)
        rhs_op = eye - 0.5j * dt * h
        psi = np.asarray(psi_flat, dtype=complex).reshape(-1)
        history = [(0, self.twist_residual(psi))]
        for step in range(1, n_steps + 1):
            psi = scipy.linalg.lu_solve((lu, piv), rhs_op @ psi)
            if step % residual_every == 0 or step == n_steps:
                history.append((step, self.twist_residual(psi)))
        return psi, history
