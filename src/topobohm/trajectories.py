"""Bohmian velocity fields and trajectory integration on the base space.

The velocity on the ring, in the gauge-fixed storage, is

    v(theta) = [ Im(chi, d chi) + sum_j (beta_j / 2 pi) |chi_j|^2 ]
               / (chi, chi) / radius^2

which reproduces the cover-side phase-gradient formula; for a flux-gauge
state, stored with the unreduced twist angle beta = -e flux, the same term
is the constant -e A shift.  The gauge-fixed storage holds one sheet, so a
field derived this way is deck equivariant by construction and the motion
downstairs does not depend on the choice of lift; there is no cover-side
field here to check.  Projectability is tested where it can fail, on the
ungauged cover sheets of the tests' reference integrator
(``SheetWindowIntegrator`` in ``tests/oracles.py``).

Integration is RK4 in the base coordinates with spectral (trigonometric)
interpolation of the wave in space and half-step propagation in time; the
half-step states keep RK4's formal order without temporal interpolation.
Trajectories halt cleanly when they reach a node (interpolated density
below eps_node times the grid maximum); nodes carry zero measure, so the
halt policy does not disturb ensemble statistics.

A bundle of trajectories is one ``TransportResult``: the record times, the
unwrapped positions with one column per particle (the continuous lift of
each path), each particle's status and halt time, and the base angles and
windings read off the positions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .covering import TWO_PI
from .errors import ToleranceError
from .factors import max_abs
from .propagation import evolve, fourier_modes, require_step_count, whole_steps

DEFAULT_EPS_NODE = 1e-12
# Fourier coefficients below this fraction of the spectral peak are dropped
# before point evaluation
COEFF_CUT = 1e-13
# BLAS rounds the columns beyond the last multiple of its kernel's width
# through another kernel; the torus evaluator pads its points to a multiple
# of this, so each point's bits do not depend on the bundle's size
_GEMM_COLUMNS = 8

STATUS_COMPLETED = "completed"
STATUS_HALTED = "halted-at-node"


# ---------------------------------------------------------------------------
# unit phases
# ---------------------------------------------------------------------------

# exp(i theta) = T[j mod N] exp(i r) with j = rint(theta N / 2 pi) and
# |r| <= pi / N (Tang, ACM TOMS 15:144, 1989).  The step 2 pi / N is split
# Cody-Waite style: _H1 and _H2 carry 19 bits each, so j _H1 and j _H2 are
# exact for |j| < 2^34, which covers |theta| <= _PHASE_LIMIT; _H3 carries the
# rest of the step together with 2 pi's own low double, without which the
# error would grow with |theta|.
_PHASE_N = 4096
_PHASE_LIMIT = 2.0 ** 24
_TWO_PI_LO = 2.4492935982947064e-16         # 2 pi - TWO_PI
_PHASE_STEP = TWO_PI / _PHASE_N
_PHASE_STEP_LO = _TWO_PI_LO / _PHASE_N


def _leading_bits(x, bits):
    m, e = math.frexp(x)
    return math.ldexp(math.floor(math.ldexp(m, bits)), e - bits)


_H1 = _leading_bits(_PHASE_STEP, 19)
_H2 = _leading_bits(_PHASE_STEP - _H1, 19)
_H3 = (_PHASE_STEP - _H1 - _H2) + _PHASE_STEP_LO


def _phase_table():
    """exp(2 pi i j / N) for j < N, each part within 1 ulp.

    libm gives the first octant, its angles corrected to first order for
    the low part of the step; the rest follows by exact symmetries.
    """
    eighth = _PHASE_N // 8
    j = np.arange(eighth + 1)
    angle, low = _PHASE_STEP * j, _PHASE_STEP_LO * j
    cos, sin = np.cos(angle), np.sin(angle)
    cos, sin = cos - low * sin, sin + low * cos
    re = np.concatenate([cos, sin[eighth - 1:0:-1]])        # first quadrant
    im = np.concatenate([sin, cos[eighth - 1:0:-1]])
    table = np.concatenate([re + 1j * im, -im + 1j * re,
                            -re - 1j * im, im - 1j * re])
    table.flags.writeable = False
    return table


_PHASE_TABLE = _phase_table()


def _unit_phase(theta):
    """exp(i theta) for a float array, within about 1 eps of libm's value.

    Element by element: a bundle gives each angle the bits it gets alone.
    Angles beyond _PHASE_LIMIT and non-finite angles take np.exp's value.
    """
    theta = np.asarray(theta, dtype=float)
    wild = None
    if theta.size and not (-_PHASE_LIMIT <= theta.min()
                           and theta.max() <= _PHASE_LIMIT):
        wild = ~(np.abs(theta) <= _PHASE_LIMIT)
        theta_ok = np.where(wild, 0.0, theta)
    else:
        theta_ok = theta
    j = theta_ok * (_PHASE_N / TWO_PI)
    np.rint(j, out=j)
    t = j * _H1
    r = theta_ok - t
    r -= np.multiply(j, _H2, out=t)
    r -= np.multiply(j, _H3, out=t)
    r2 = np.multiply(r, r, out=t)
    c = r2 * (1.0 / 24.0)                   # cos r - 1 = -r^2/2 + r^4/24
    c -= 0.5
    c *= r2
    s = r2 * r                              # sin r = r - r^3/6
    s *= 1.0 / 6.0
    np.subtract(r, s, out=s)
    em1 = np.empty(theta.shape, dtype=complex)          # exp(i r) - 1
    em1.real = c
    em1.imag = s
    idx = j.astype(np.intp)
    idx &= _PHASE_N - 1
    table = _PHASE_TABLE[idx]
    # T + T (exp(i r) - 1): the product is small, so its rounding is too.
    # The multiply is out of place: an in-place complex multiply rounds a
    # length-1 array differently from a longer one
    out = table * em1
    out += table
    if wild is not None:
        out[wild] = np.exp(1j * theta[wild])
    return out


# ---------------------------------------------------------------------------
# guiding-field evaluators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _mode_numbers(n):
    """The integer wavenumbers of an n-point grid in FFT order, read-only."""
    modes = fourier_modes(n).astype(int)
    modes.flags.writeable = False
    return modes


class _RingEvaluator:
    """Spectral point evaluation of the velocity of one wave snapshot.

    Fourier coefficients below COEFF_CUT of the spectral peak are dropped; a
    smooth packet keeps a few dozen modes.  ``truncation`` is the l1 norm of
    the dropped coefficients of all sectors over the peak coefficient, so
    the kept sum misses each chi_j by at most truncation x peak at any
    point.  The kept modes are filled out to their contiguous span [lo, hi],
    gaps taking zero coefficients, so any spectrum is evaluated correctly.
    The chi and d chi coefficients of all sectors are stacked, highest mode
    first, and summed by Horner's rule in z = exp(i theta): one table phase
    per point (``_unit_phase``, about 1 eps from libm's exp), then one
    multiply-add per mode on a (2k, M) accumulator.  The sums lack the
    factor exp(i lo theta) that every term shares; chi and d chi carry the
    same factor, so it cancels in |chi|^2 and in Im(conj(chi) d chi), the
    only two things the velocity uses.
    """

    def __init__(self, state, velocity_factor=1.0):
        n = state.n_points
        coeffs = np.fft.fft(state.values, axis=1) / n              # (k, n)
        size = np.abs(coeffs)
        weight = np.max(size, axis=0)
        peak = np.max(weight)
        keep = weight > COEFF_CUT * peak
        self.truncation = float(np.sum(size[:, ~keep]) / peak)
        kept = _mode_numbers(n)[keep]
        hi, lo = int(kept.max()), int(kept.min())
        span = np.arange(hi, lo - 1, -1)                            # hi .. lo
        chi = np.zeros((coeffs.shape[0], span.size), dtype=complex)
        chi[:, hi - kept] = coeffs[:, keep]
        rows = np.concatenate([chi, chi * (1j * span)])            # (2k, L)
        self.rows = np.ascontiguousarray(rows.T)[:, :, None]       # (L, 2k, 1)
        self.betas = (state.sector_betas / TWO_PI)[:, None]
        self.inv_r2 = 1.0 / state.radius ** 2
        self.max_density = float(np.max(np.sum(np.abs(state.values) ** 2, axis=0)))
        self.velocity_factor = velocity_factor

    def __call__(self, thetas):
        """(velocity, density) at the angles.

        rho and the current are formed in place, one (k, M) scratch for
        every product; a single sector skips the sum over sectors, which
        would only turn a -0.0 current into +0.0, and a factor of 1.0 is
        not multiplied.
        """
        z = _unit_phase(thetas)
        acc = np.empty((self.rows.shape[1], z.size), dtype=complex)
        acc[...] = self.rows[0]
        for row in self.rows[1:]:
            acc *= z
            acc += row
        k = acc.shape[0] // 2
        chi, dchi = acc[:k], acc[k:]
        density = np.square(chi.real)                               # (k, M)
        scratch = np.square(chi.imag)
        density += scratch
        current = np.multiply(chi.real, dchi.imag)
        current -= np.multiply(chi.imag, dchi.real, out=scratch)
        current += np.multiply(self.betas, density, out=scratch)
        if k == 1:
            rho, current = density[0], current[0]
        else:
            rho, current = np.sum(density, axis=0), np.sum(current, axis=0)
        safe = np.maximum(rho, 1e-300, out=scratch[0])
        if self.velocity_factor != 1.0:         # a product with 1.0 is exact
            current *= self.velocity_factor
        current /= safe
        if self.inv_r2 != 1.0:
            current *= self.inv_r2
        return current, rho


class _TorusEvaluator:
    """Spectral point evaluation of the velocity of a two-particle wave.

    The same COEFF_CUT is applied to the n x n Fourier coefficients C, and
    each axis is evaluated over its kept modes only: the sorted distinct a,
    and the sorted distinct b, of the kept coefficients.  A mode that no
    kept coefficient uses gets no row or column, so an aliased tail mode
    across the Nyquist edge adds no zeros to the product.  Everything is
    stored mode-major, one contiguous row of M points per mode.  The power
    bases P1[j] = z1^(a_j - a_0) and P2[j] = z2^(b_j - b_0), z = exp(i q)
    from the table phase ``_unit_phase``, come from one recurrence that
    walks every mode of the span, each row the previous one times z, and
    stores the kept rows; so a row has the same bits whatever is kept
    around it.  One BLAS product [C^T ; (i a C)^T] @ P1 gives the
    first-axis sums T of psi and d1 psi, (2 |B|, M); multiplying by P2 in
    place and summing over the mode axis finishes them.  The points are
    padded with zeros to a multiple of _GEMM_COLUMNS, so a bundle gives each
    point the bits it gets alone.  d2 psi needs no GEMM block of its own:
    its factor i b belongs to the second axis alone, so it can be applied
    after the first-axis sum, as weights on the psi block:
    psi = sum_j T_psi[j] P2[j] and d2 psi = sum_j (i b_j) T_psi[j] P2[j].
    The factor z1^a_0 z2^b_0 common to all three cancels in the density and
    in Im(conj(psi) d psi).  ``truncation`` is the l1 norm of the dropped
    coefficients over the peak one, a bound on |psi_kept - psi| / peak.
    """

    def __init__(self, state, velocity_factor=1.0):
        n = state.n_points
        modes = fourier_modes(n).astype(int)
        coeffs = np.fft.fft2(state.values) / n ** 2
        weight = np.abs(coeffs)
        keep = weight > COEFF_CUT * np.max(weight)
        self.truncation = float(np.sum(weight[~keep]) / np.max(weight))
        rows, cols = np.nonzero(keep)
        a, b = modes[rows], modes[cols]
        self.modes_a, self.modes_b = np.unique(a), np.unique(b)
        c = np.zeros((self.modes_b.size, self.modes_a.size), dtype=complex)
        c[np.searchsorted(self.modes_b, b),
          np.searchsorted(self.modes_a, a)] = coeffs[rows, cols]   # C^T
        self.blocks = np.vstack([c, c * (1j * self.modes_a)])       # (2|B|, |A|)
        self.ib = 1j * self.modes_b
        self.inv_r2 = 1.0 / state.radius ** 2
        self.max_density = float(np.max(np.abs(state.values) ** 2))
        self.velocity_factor = velocity_factor

    @staticmethod
    def _powers(angles, modes):
        """z^(m - modes[0]) for each of the sorted modes m, one row each.

        The recurrence steps through the modes between two kept ones too,
        into a two-row scratch, so each row has the bits of a contiguous
        recurrence.
        """
        z = _unit_phase(angles)
        p = np.empty((modes.size, angles.size), dtype=complex)
        p[0] = 1.0
        scratch = np.empty((2, angles.size), dtype=complex)
        prev = p[0]
        for j, step in enumerate(np.diff(modes).tolist(), start=1):
            for g in range(step - 1):
                np.multiply(prev, z, out=scratch[g % 2])
                prev = scratch[g % 2]
            np.multiply(prev, z, out=p[j])
            prev = p[j]
        return p

    def __call__(self, q):
        nb = self.ib.size
        m = q.shape[0]
        q = np.concatenate([q, np.zeros((-m % _GEMM_COLUMNS, 2))])
        u = self.blocks @ self._powers(q[:, 0], self.modes_a)
        u = u.reshape(2, nb, -1)                                    # T_psi, T_d1
        u *= self._powers(q[:, 1], self.modes_b)
        psi, d1 = np.sum(u, axis=1)[:, :m]
        d2 = (self.ib @ u[0])[:m]
        rho = psi.real ** 2 + psi.imag ** 2
        safe = np.maximum(rho, 1e-300)
        v = np.stack([psi.real * d1.imag - psi.imag * d1.real,
                      psi.real * d2.imag - psi.imag * d2.real], axis=1)
        return self.velocity_factor * v / safe[:, None] * self.inv_r2, rho


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

@dataclass
class TransportResult:
    times: np.ndarray          # (n_records,)
    positions: np.ndarray      # (n_records, M) or (n_records, M, 2), unwrapped
    status: np.ndarray         # (M,) strings
    halt_times: np.ndarray     # (M,) float, nan when not halted
    truncation: float          # max over the snapshots of evaluator truncation

    @property
    def node_halt_fraction(self):
        return float(np.mean(self.status != STATUS_COMPLETED))

    @property
    def angles(self):
        """The recorded positions reduced mod 2 pi: base angles."""
        return np.mod(self.positions, TWO_PI)

    @property
    def windings(self):
        """The full turns of each recorded position, as ints.

        From 2**52 in magnitude a double resolves a position no better than
        one radian, so neither its angle nor its turns mean anything there:
        such a position (or a NaN) raises ``ToleranceError``, not a cast.
        """
        peak = max_abs(self.positions)
        if not peak < 2.0 ** 52:
            raise ToleranceError("trajectory-angle-resolution", peak, 2.0 ** 52)
        return np.floor_divide(self.positions, TWO_PI).astype(int)


def _stage_point(q, h, k):
    """q + h k, an RK4 stage's point, in a fresh array: k is summed later."""
    point = np.multiply(h, k)
    point += q
    return point


def transport(state, potential, q0, dt, n_steps, eps_node=DEFAULT_EPS_NODE,
              velocity_factor=1.0, record_every=1):
    """Integrate a bundle of Bohmian trajectories driven by the evolving wave.

    The wave advances by two half-steps per trajectory step, providing the
    mid-step snapshot RK4 needs.  ``velocity_factor`` rescales the guiding
    field (the -1 setting is the deliberately wrong field used as a negative
    control in the equivariance tests).  Positions are returned unwrapped
    (continuous lifts); reduce mod 2 pi for base angles.  The result's
    ``truncation`` is the largest dropped-coefficient l1 norm, over the peak
    coefficient, of all the snapshots that guided the bundle.
    """
    require_step_count(n_steps)
    space = state.space
    # (m,) angles on the ring, (m, d) on a d-torus
    q = np.asarray(q0, dtype=float).reshape((-1, space.dims)[:space.dims]).copy()

    m = q.shape[0]
    active = None                    # every particle moves until one halts
    status = np.array([STATUS_COMPLETED] * m, dtype=object)
    halt_times = np.full(m, np.nan)
    times = [0.0]
    records = [q.copy()]
    ev0 = space.evaluator(state, velocity_factor)
    truncation = ev0.truncation
    t = 0.0
    for step in range(n_steps):
        s_half = evolve(state, potential, 0.5 * dt, 1)
        s_full = evolve(s_half, potential, 0.5 * dt, 1)
        ev_half = space.evaluator(s_half, velocity_factor)
        ev_full = space.evaluator(s_full, velocity_factor)
        truncation = max(truncation, ev_half.truncation, ev_full.truncation)
        qa = q if active is None else q[active]
        if qa.shape[0]:
            k1, r1 = ev0(qa)
            k2, r2 = ev_half(_stage_point(qa, 0.5 * dt, k1))
            k3, r3 = ev_half(_stage_point(qa, 0.5 * dt, k2))
            k4, r4 = ev_full(_stage_point(qa, dt, k3))
            threshold = eps_node * ev0.max_density
            hit_node = r1 < threshold
            hit_node |= r2 < threshold
            hit_node |= r3 < threshold
            hit_node |= r4 < threshold
            # (dt / 6) (k1 + 2 k2 + 2 k3 + k4), added left to right in k2
            move = k2
            move *= 2
            move += k1
            k3 *= 2
            move += k3
            move += k4
            move *= dt / 6.0
            halts = bool(hit_node.any())
            if halts:
                move[hit_node] = 0.0
            if active is None:
                q += move
            else:
                q[active] = qa + move
            if halts:
                if active is None:
                    active = np.ones(m, dtype=bool)
                idx = np.flatnonzero(active)[hit_node]
                status[idx] = STATUS_HALTED
                halt_times[idx] = t
                active[idx] = False
        state = s_full
        ev0 = ev_full
        t = (step + 1) * dt
        if (step + 1) % record_every == 0 or step == n_steps - 1:
            times.append(t)
            records.append(q.copy())
    return TransportResult(
        times=np.array(times),
        positions=np.stack(records),
        status=status,
        halt_times=halt_times,
        truncation=truncation,
    ), state


def integrate_trajectories(state, potential, starts, dt, t_final,
                           eps_node=DEFAULT_EPS_NODE, record_every=1):
    """Bohmian trajectories from each start over [0, t_final], as one bundle:
    the ``TransportResult`` of ``transport``, whose column i is the path of
    start i.

    The wave is propagated once for all starts, and the guiding field is
    evaluated point by point, so each path is the one its start would follow
    alone.  Ring starts are angles; two-particle starts are angle pairs.
    """
    result, _ = transport(state, potential, np.asarray(starts, dtype=float),
                          dt, whole_steps(t_final, dt), eps_node=eps_node,
                          record_every=record_every)
    return result
