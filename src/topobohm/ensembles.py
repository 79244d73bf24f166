"""Sampling from |psi|^2 and statistical equivariance checks.

The headline property: an ensemble of configurations drawn from the initial
density and transported along the Bohmian flow stays distributed like the
evolving density.  The check is Monte Carlo, so the pass thresholds are
sampling bands, not the exact statement.  One scorer serves every grid
space: ``tv_distance``, the total variation between a cloud's histogram and
the exact bin masses of the band-limited density (``exact_bin_masses``),
which the sampler's multilinear cells (``_cell_masses``) miss by O(h^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .covering import TWO_PI
from .errors import ConfigError, PhysicsError
from .propagation import fourier_modes, whole_steps
from .trajectories import DEFAULT_EPS_NODE, STATUS_COMPLETED, transport

DEFAULT_BINS = 64


# ---------------------------------------------------------------------------
# inverse-CDF sampling on the periodic grid
# ---------------------------------------------------------------------------

def _cell_masses(rho):
    """Masses of the multilinear cells of a periodic grid density, one cell
    from each grid point to its upper neighbours, on every axis: on the
    ring the trapezoid rule, on the torus bilinear cells."""
    mass = rho
    for axis, size in enumerate(rho.shape):
        upper = np.take(mass, np.arange(1, size + 1), axis=axis, mode="wrap")
        mass = (mass + upper) * (0.5 * (TWO_PI / size))
    return mass


def _linear_offsets(left, right, u, h):
    """Offsets s in [0, h] below which lies the fraction u of a density
    linear from ``left`` at 0 to ``right`` at h: the root of
    left s + (right - left) s^2 / 2h = u (left + right) h / 2, in a form
    with no cancellation; a density zero at both ends takes u h."""
    denominator = left + np.sqrt((1.0 - u) * left ** 2 + u * right ** 2)
    flat = denominator <= 0.0
    s = np.where(flat, u, u * (left + right) / np.where(flat, 1.0, denominator))
    return np.minimum(s * h, h)


def sample_from_grid_density(rho, n, rng):
    """Draw n points from a periodic grid density on d = ``rho.ndim`` axes
    via inverse CDF: shape (n,) on the ring, (n, d) otherwise.

    Each cell's density is multilinear (``_cell_masses``), so no axis is
    shifted.  A point takes d uniforms: the first picks a cell by its mass
    and, by its place within the cell's share of the CDF, the offset along
    the cell's linear marginal on the first axis; each further axis
    inverts the density along it at the offsets drawn before.  The bounds
    of ``rho`` decide both refusals (a GRW run draws one point per event).
    """
    rho = np.asarray(rho, dtype=float)
    lo, hi = rho.min(), rho.max()
    # max |rho| is max(hi, -lo); with no value below -1e-12 of it, a
    # density whose largest value is not positive is zero everywhere
    if lo < -1e-12 * max(hi, -lo):
        raise ConfigError("density must be nonnegative")
    if hi <= 0.0:
        raise PhysicsError("density vanishes everywhere; nothing to sample")
    rho = np.maximum(rho, 0.0)
    d = rho.ndim
    cdf = np.concatenate([[0.0], np.cumsum(_cell_masses(rho))])
    uniforms = rng.random((d, n))
    u = uniforms[0] * cdf[-1]
    cells = np.minimum(np.searchsorted(cdf, u, side="right") - 1, cdf.size - 2)
    # the first axis inverts u's place in its cell's share of the CDF, a
    # share zero only where u rounds onto the total past a dead cell
    uniforms[0] = (u - cdf[cells]) / np.maximum(cdf[cells + 1] - cdf[cells],
                                               1e-300)
    index = np.unravel_index(cells, rho.shape)
    # the cell's 2^d corner values, corner axes first: (2,) * d + (n,)
    corner_index = [(i + np.arange(2).reshape((2,) + (1,) * (d - k))) % size
                    for k, (i, size) in enumerate(zip(index, rho.shape))]
    corners = rho[tuple(corner_index)]
    points = np.empty((n, d))
    for k, size in enumerate(rho.shape):
        h = TWO_PI / size
        # the cell's density at this axis's two ends, over the later axes
        ends = corners.sum(axis=tuple(range(1, d - k)))
        s = _linear_offsets(ends[0], ends[1], uniforms[k], h)
        points[:, k] = index[k] * h + s
        corners = corners[0] + (corners[1] - corners[0]) * (s / h)
    points = np.mod(points, TWO_PI)
    return points[:, 0] if d == 1 else points


def sample_density(state, n, seed):
    """I.i.d. draws from the state's base density; deterministic per seed."""
    return sample_from_grid_density(state.density(), n,
                                    np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# distances between sample clouds and grid densities
# ---------------------------------------------------------------------------

def _require_bins(n, bins):
    if bins > n or n % bins != 0:
        raise ConfigError("bins must divide the grid size",
                          field_path="$.equivariance.bins")


@functools.lru_cache(maxsize=8)
def _bin_integrals(n, bins):
    """(bins, n), read-only: entry (k, m) is the integral of exp(i m theta)
    over the k-th of ``bins`` equal bins, m the n-point grid's wavenumbers."""
    modes = fourier_modes(n)
    edges = np.exp(1j * np.outer(np.arange(bins + 1) * (TWO_PI / bins), modes))
    per_axis = (edges[1:] - edges[:-1]) / np.where(modes == 0, 1.0, 1j * modes)
    per_axis[:, modes == 0] = TWO_PI / bins
    per_axis.flags.writeable = False
    return per_axis


def exact_bin_masses(rho, bins):
    """Masses of the equal angle bins, ``bins`` per axis, of a band-limited
    grid density on the ring or a torus: the integral over each bin of the
    Fourier series through the grid values, exact to rounding when rho has
    no mode at or above the grid's Nyquist mode.  Each axis applies its bin
    matrix (``_bin_integrals``) to the density's Fourier coefficients."""
    rho = np.asarray(rho, dtype=float)
    masses = np.fft.fftn(rho) / rho.size
    for axis, n in enumerate(rho.shape):
        _require_bins(n, bins)
        masses = np.moveaxis(np.tensordot(_bin_integrals(n, bins), masses,
                                          axes=(1, axis)), 0, axis)
    masses = masses.real
    return masses / masses.sum()


def tv_distance(samples, rho, bins=DEFAULT_BINS):
    """Total variation between a sample cloud and a grid density on d =
    ``rho.ndim`` axes: each point's bin, ``bins`` per axis, is counted
    against ``exact_bin_masses``.  Ring samples have shape (M,), torus
    samples (M, d); a cloud with a non-finite coordinate scores NaN."""
    rho = np.asarray(rho, dtype=float)
    d = rho.ndim
    points = np.asarray(samples, dtype=float)
    if points.shape[1:] != (() if d == 1 else (d,)):
        raise ConfigError(f"samples of shape {points.shape} are not points "
                          f"of a {d}-axis grid")
    masses = exact_bin_masses(rho, bins)
    if not np.all(np.isfinite(points)):
        return math.nan
    points = np.mod(points.reshape(len(points), d), TWO_PI)
    # a coordinate that wraps onto 2 pi itself falls in the last bin
    cells = np.minimum((points * (bins / TWO_PI)).astype(np.intp), bins - 1)
    counts = np.bincount(np.ravel_multi_index(tuple(cells.T), masses.shape),
                         minlength=masses.size).reshape(masses.shape)
    return 0.5 * float(np.sum(np.abs(counts / len(points) - masses)))


# ---------------------------------------------------------------------------
# equivariance verification
# ---------------------------------------------------------------------------

@dataclass
class EnsembleReport:
    n_samples: int
    seed: int
    times: list
    tv_values: list
    tv_threshold: float
    passed: bool
    node_halt_fraction: float
    valid: bool
    bins: int = DEFAULT_BINS
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "bins": self.bins,
            "times": [float(t) for t in self.times],
            "tv_values": [float(v) for v in self.tv_values],
            "tv_threshold": float(self.tv_threshold),
            "passed": bool(self.passed),
            "node_halt_fraction": float(self.node_halt_fraction),
            "valid": bool(self.valid),
            "notes": self.notes,
        }


def equivariance_threshold(n, bins=DEFAULT_BINS):
    """Monte Carlo band: 0.03 systematic allowance plus 2 sqrt(bins / n)."""
    return 0.03 + 2.0 * np.sqrt(bins / n)


def verify_equivariance(state, potential, n, t_final, checkpoints, seed,
                        dt=2e-3, bins=DEFAULT_BINS, velocity_factor=1.0,
                        eps_node=DEFAULT_EPS_NODE):
    """Transport a |psi_0|^2 ensemble and compare against |psi_t|^2.

    ``velocity_factor=-1`` runs the sign-flipped negative control.  A
    trajectory that halts at a node (``transport``'s ``eps_node`` rule)
    stays where it halted: later checkpoint
    segments transport only the others.  The report is flagged invalid when
    more than 1% of trajectories halt at nodes over the whole run (which a
    smooth scenario should never approach).  Each checkpoint must be a
    whole number of ``dt`` steps (the rule of ``whole_steps``), so the
    ensemble is compared at the time it reports.  An off-grid checkpoint,
    one outside [0, t_final] and ``bins`` that do not divide the grid raise
    ``ConfigError`` before any transport.
    """
    if n < 1000:
        raise ConfigError("need at least 10^3 samples for the band to mean much")
    if state.space.dims != 1:
        raise ConfigError("equivariance verification runs on ring states",
                          field_path="$.space.kind")
    _require_bins(state.n_points, bins)
    checkpoints = sorted(float(t) for t in checkpoints)
    if checkpoints and (checkpoints[0] < 0 or checkpoints[-1] - t_final > 1e-12):
        raise ConfigError("checkpoints must lie between 0 and the final time",
                          field_path="$.equivariance.checkpoints")
    samples = sample_density(state, n, seed)
    times, tvs = [], []
    current = state
    position = samples.copy()
    halted = np.zeros(n, dtype=bool)
    done = 0
    threshold = equivariance_threshold(n, bins)
    for t in checkpoints:
        try:
            n_steps = whole_steps(t, dt) - done
        except ConfigError:
            raise ConfigError(f"checkpoint {t:g} is not a whole number of "
                              f"dt = {dt:g} steps",
                              field_path="$.equivariance.checkpoints") from None
        if n_steps > 0:
            moving = np.flatnonzero(~halted)
            # only the segment's last positions are read
            result, current = transport(
                current, potential, position[moving], dt, n_steps,
                eps_node=eps_node, velocity_factor=velocity_factor,
                record_every=n_steps)
            position[moving] = result.positions[-1]
            halted[moving] = result.status != STATUS_COMPLETED
        times.append(t)
        tvs.append(tv_distance(position, current.density(), bins))
        done += n_steps
    halt_fraction = float(np.mean(halted))
    valid = halt_fraction <= 0.01
    return EnsembleReport(
        n_samples=n, seed=seed, times=times, tv_values=tvs,
        tv_threshold=threshold,
        passed=valid and all(tv <= threshold for tv in tvs),    # NaN fails
        node_halt_fraction=halt_fraction, valid=valid,
        bins=bins,
        notes={"dt": dt, "velocity_factor": velocity_factor},
    )
