"""Sampling from |psi|^2 and statistical equivariance checks.

The headline property: an ensemble of configurations drawn from the initial
density and transported along the Bohmian flow stays distributed like the
evolving density.  The check is Monte Carlo, so the pass thresholds are
sampling bands, not the exact statement: total variation over a 64-bin
histogram is the primary metric (robust on the circle), Kolmogorov-Smirnov
with a fixed cut point at angle zero is reported secondarily.
"""

from __future__ import annotations

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

def _trapezoid_cells(rho):
    """Cell width, right-hand neighbours and trapezoid cell masses of a
    periodic grid density."""
    h = TWO_PI / rho.size
    right = np.concatenate((rho[1:], rho[:1]))
    return h, right, 0.5 * (rho + right) * h


def sample_from_grid_density(rho, n, rng):
    """Draw n points from a periodic grid density via inverse CDF.

    The density is trapezoid-interpolated between grid points, so each cell
    mass is quadratic in the offset and inverted exactly.  A GRW run draws
    one point per event, where the per-call cost of each numpy call counts:
    the bounds of ``rho`` decide both refusals, and plain ufuncs clip.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1:
        raise ConfigError("grid density must be one-dimensional")
    lo, hi = rho.min(), rho.max()
    # max |rho| is max(hi, -lo); with no value below -1e-12 of it, a
    # density whose largest value is not positive is zero everywhere
    if lo < -1e-12 * max(hi, -lo):
        raise ConfigError("density must be nonnegative")
    if hi <= 0.0:
        raise PhysicsError("density vanishes everywhere; nothing to sample")
    rho = np.maximum(rho, 0.0)
    m = rho.size
    h, right, cell_mass = _trapezoid_cells(rho)
    cdf = np.concatenate([[0.0], np.cumsum(cell_mass)])
    total = cdf[-1]
    u = rng.random(n) * total
    cells = np.searchsorted(cdf, u, side="right") - 1
    cells = np.minimum(np.maximum(cells, 0), m - 1)
    residual = u - cdf[cells]
    a = rho[cells]
    slope = (right[cells] - a) / h
    # solve a*s + slope*s^2/2 = residual for s in [0, h]
    s = np.empty_like(residual)
    linear = np.abs(slope) < 1e-14 * np.maximum(a, 1e-30)
    s[linear] = residual[linear] / np.maximum(a[linear], 1e-300)
    q = ~linear
    disc = a[q] ** 2 + 2.0 * slope[q] * residual[q]
    s[q] = (np.sqrt(np.maximum(disc, 0.0)) - a[q]) / slope[q]
    s = np.minimum(np.maximum(s, 0.0), h)
    return np.mod(cells * h + s, TWO_PI)


def sample_density(state, n, seed):
    """I.i.d. draws from the state's base density; deterministic per seed."""
    return state.space.sample(state.density(), n, np.random.default_rng(seed))


def _linear_offsets(left, right, u, h):
    """Offsets s in [0, h] below which lies the fraction u of a density
    linear from ``left`` at 0 to ``right`` at h: the root of
    left s + (right - left) s^2 / 2h = u (left + right) h / 2, in a form
    with no cancellation; a density zero at both ends takes u h."""
    denominator = left + np.sqrt((1.0 - u) * left ** 2 + u * right ** 2)
    flat = denominator <= 0.0
    s = np.where(flat, u, u * (left + right) / np.where(flat, 1.0, denominator))
    return np.minimum(s * h, h)


def _sample_torus_density(rho, n, rng):
    """Draws from the bilinear interpolant of a torus grid density, the
    ring's trapezoid rule on each axis: a cell by its mass, then the first
    offset from the cell's marginal, linear between its two edges, and the
    second from the density along that offset."""
    rho = np.clip(rho, 0.0, None)
    if rho.max() == 0:
        raise PhysicsError("density vanishes everywhere; nothing to sample")
    h = TWO_PI / rho.shape[0]
    up = np.roll(rho, -1, axis=0)       # corners (i + 1, j)
    corners = (rho, np.roll(rho, -1, axis=1), up, np.roll(up, -1, axis=1))
    mass = (corners[0] + corners[1] + corners[2] + corners[3]).ravel()
    cells = rng.choice(mass.size, size=n, p=mass / mass.sum())
    r00, r01, r10, r11 = (c.ravel()[cells] for c in corners)
    s = _linear_offsets(r00 + r01, r10 + r11, rng.random(n), h)
    t = _linear_offsets(r00 + (r10 - r00) * (s / h), r01 + (r11 - r01) * (s / h),
                        rng.random(n), h)
    i, j = np.unravel_index(cells, rho.shape)
    return np.mod(np.stack([i * h + s, j * h + t], axis=1), TWO_PI)


# ---------------------------------------------------------------------------
# distances between sample clouds and grid densities
# ---------------------------------------------------------------------------

def _require_bins(n, bins):
    if bins > n or n % bins != 0:
        raise ConfigError("bins must divide the grid size",
                          field_path="$.equivariance.bins")


def density_bin_masses(rho, bins):
    """Exact masses of equal angle bins under the trapezoid density."""
    rho = np.asarray(rho, dtype=float)
    m = rho.size
    _require_bins(m, bins)
    _, _, cell_mass = _trapezoid_cells(rho)
    masses = cell_mass.reshape(bins, m // bins).sum(axis=1)
    return masses / masses.sum()


def exact_bin_masses(rho, bins):
    """Masses of the equal angle bins, ``bins`` per axis, of a band-limited
    grid density on the ring or a torus: the integral over each bin of the
    Fourier series through the grid values, exact to rounding when rho has
    no mode at or above the grid's Nyquist mode.  One bin matrix per axis,
    its entry (k, m) the integral of exp(i m theta) over bin k."""
    rho = np.asarray(rho, dtype=float)
    n = rho.shape[0]
    _require_bins(n, bins)
    modes = fourier_modes(n)
    edges = np.exp(1j * np.outer(np.arange(bins + 1) * (TWO_PI / bins), modes))
    per_axis = (edges[1:] - edges[:-1]) / np.where(modes == 0, 1.0, 1j * modes)
    per_axis[:, modes == 0] = TWO_PI / bins
    masses = np.fft.fftn(rho) / rho.size
    for axis in range(rho.ndim):
        masses = np.moveaxis(np.tensordot(per_axis, masses, axes=(1, axis)),
                             0, axis)
    masses = masses.real
    return masses / masses.sum()


def tv_distance(samples, rho, bins=DEFAULT_BINS):
    """Total variation between a sample cloud and a grid density."""
    counts, _ = np.histogram(np.mod(samples, TWO_PI), bins=bins,
                             range=(0.0, TWO_PI))
    empirical = counts / counts.sum()
    return 0.5 * float(np.sum(np.abs(empirical - density_bin_masses(rho, bins))))


def ks_distance(samples, rho):
    """Kolmogorov-Smirnov distance with the circle cut open at angle zero."""
    rho = np.asarray(rho, dtype=float)
    m = rho.size
    h, _, cell_mass = _trapezoid_cells(rho)
    angles = np.sort(np.mod(np.asarray(samples), TWO_PI))
    cdf_grid = np.concatenate([[0.0], np.cumsum(cell_mass)])
    cdf_grid /= cdf_grid[-1]
    positions = np.arange(m + 1) * h
    model = np.interp(angles, positions, cdf_grid)
    n = len(angles)
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(empirical_hi - model)),
                     np.max(np.abs(model - empirical_lo))))


# ---------------------------------------------------------------------------
# equivariance verification
# ---------------------------------------------------------------------------

@dataclass
class EnsembleReport:
    n_samples: int
    seed: int
    times: list
    tv_values: list
    ks_values: list
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
            "ks_values": [float(v) for v in self.ks_values],
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
    times, tvs, kss = [], [], []
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
        rho = current.density()
        times.append(t)
        tvs.append(tv_distance(position, rho, bins))
        kss.append(ks_distance(position, rho))
        done += n_steps
    halt_fraction = float(np.mean(halted))
    valid = halt_fraction <= 0.01
    return EnsembleReport(
        n_samples=n, seed=seed, times=times, tv_values=tvs, ks_values=kss,
        tv_threshold=threshold,
        passed=valid and all(tv <= threshold for tv in tvs),    # NaN fails
        node_halt_fraction=halt_fraction, valid=valid,
        bins=bins,
        notes={"dt": dt, "velocity_factor": velocity_factor},
    )
