"""Sampling from |psi|^2 and statistical equivariance checks.

The headline property: an ensemble of configurations drawn from the initial
density and transported along the Bohmian flow stays distributed like the
evolving density.  The check is Monte Carlo, so the pass thresholds are
sampling bands, not the exact statement: total variation over a 64-bin
histogram is the primary metric (robust on the circle), Kolmogorov-Smirnov
with a fixed cut point at angle zero is reported secondarily.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .covering import TWO_PI
from .errors import ConfigError, PhysicsError
from .propagation import whole_steps
from .trajectories import transport

DEFAULT_BINS = 64


# ---------------------------------------------------------------------------
# inverse-CDF sampling on the periodic grid
# ---------------------------------------------------------------------------

def sample_from_grid_density(rho, n, rng):
    """Draw n points from a periodic grid density via inverse CDF.

    The density is trapezoid-interpolated between grid points, so each cell
    mass is quadratic in the offset and inverted exactly.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1:
        raise ConfigError("grid density must be one-dimensional")
    if np.any(rho < -1e-12 * np.max(np.abs(rho))):
        raise ConfigError("density must be nonnegative")
    rho = np.clip(rho, 0.0, None)
    if np.max(rho) == 0.0:
        raise PhysicsError("density vanishes everywhere; nothing to sample")
    m = rho.size
    h = TWO_PI / m
    left = rho
    right = np.roll(rho, -1)
    cell_mass = 0.5 * (left + right) * h
    cdf = np.concatenate([[0.0], np.cumsum(cell_mass)])
    total = cdf[-1]
    u = rng.random(n) * total
    cells = np.searchsorted(cdf, u, side="right") - 1
    cells = np.clip(cells, 0, m - 1)
    residual = u - cdf[cells]
    a = left[cells]
    slope = (right[cells] - left[cells]) / h
    # solve a*s + slope*s^2/2 = residual for s in [0, h]
    s = np.empty_like(residual)
    linear = np.abs(slope) < 1e-14 * np.maximum(a, 1e-30)
    s[linear] = residual[linear] / np.maximum(a[linear], 1e-300)
    q = ~linear
    disc = a[q] ** 2 + 2.0 * slope[q] * residual[q]
    s[q] = (np.sqrt(np.maximum(disc, 0.0)) - a[q]) / slope[q]
    s = np.clip(s, 0.0, h)
    return np.mod(cells * h + s, TWO_PI)


def sample_density(state, n, seed):
    """I.i.d. draws from the state's base density; deterministic per seed."""
    rng = np.random.default_rng(seed)
    if state.space.kind == "two_particle_ring":
        return _sample_torus_density(state.density(), n, rng)
    return sample_from_grid_density(state.density(), n, rng)


def _sample_torus_density(rho, n, rng):
    """Cellwise-constant sampling on the torus grid."""
    m = rho.shape[0]
    flat = np.clip(rho.ravel(), 0.0, None)
    if flat.max() == 0:
        raise PhysicsError("density vanishes everywhere; nothing to sample")
    probs = flat / flat.sum()
    cells = rng.choice(flat.size, size=n, p=probs)
    i, j = np.unravel_index(cells, rho.shape)
    h = TWO_PI / m
    return np.stack([(i + rng.random(n)) * h, (j + rng.random(n)) * h], axis=1)


# ---------------------------------------------------------------------------
# distances between sample clouds and grid densities
# ---------------------------------------------------------------------------

def density_bin_masses(rho, bins):
    """Exact masses of equal angle bins under the trapezoid density."""
    rho = np.asarray(rho, dtype=float)
    m = rho.size
    if bins > m or m % bins != 0:
        raise ConfigError("bins must divide the grid size")
    h = TWO_PI / m
    right = np.roll(rho, -1)
    cell_mass = 0.5 * (rho + right) * h
    masses = cell_mass.reshape(bins, m // bins).sum(axis=1)
    return masses / masses.sum()


def tv_distance(samples, rho, bins=DEFAULT_BINS):
    """Total variation between a sample cloud and a grid density."""
    counts, _ = np.histogram(np.mod(samples, TWO_PI), bins=bins,
                             range=(0.0, TWO_PI))
    empirical = counts / counts.sum()
    return 0.5 * float(np.sum(np.abs(empirical - density_bin_masses(rho, bins))))


def ks_distance(samples, rho, cut=0.0):
    """Kolmogorov-Smirnov distance with the circle cut open at ``cut``."""
    rho = np.asarray(rho, dtype=float)
    m = rho.size
    h = TWO_PI / m
    shifted = np.sort(np.mod(np.asarray(samples) - cut, TWO_PI))
    right = np.roll(rho, -1)
    cell_mass = 0.5 * (rho + right) * h
    offset = int(round(np.mod(cut, TWO_PI) / h)) % m
    cell_mass = np.roll(cell_mass, -offset)
    cdf_grid = np.concatenate([[0.0], np.cumsum(cell_mass)])
    cdf_grid /= cdf_grid[-1]
    positions = np.arange(m + 1) * h
    model = np.interp(shifted, positions, cdf_grid)
    n = len(shifted)
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

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def equivariance_threshold(n, bins=DEFAULT_BINS):
    """Monte Carlo band: 0.03 systematic allowance plus 2 sqrt(bins / n)."""
    return 0.03 + 2.0 * np.sqrt(bins / n)


def verify_equivariance(state, potential, n, t_final, checkpoints, seed,
                        dt=2e-3, bins=DEFAULT_BINS, velocity_factor=1.0):
    """Transport a |psi_0|^2 ensemble and compare against |psi_t|^2.

    ``velocity_factor=-1`` runs the sign-flipped negative control.  The
    report is flagged invalid when more than 1% of trajectories halt at
    nodes (which a smooth scenario should never approach).  Each checkpoint
    must be a whole number of ``dt`` steps (the rule of ``whole_steps``),
    so the ensemble is compared at the time it reports; an off-grid
    checkpoint raises ``ConfigError``.
    """
    if n < 1000:
        raise ConfigError("need at least 10^3 samples for the band to mean much")
    if state.space.kind != "ring":
        raise ConfigError("equivariance verification runs on ring states")
    samples = sample_density(state, n, seed)
    checkpoints = sorted(float(t) for t in checkpoints)
    if checkpoints and abs(checkpoints[-1] - t_final) > 1e-12:
        if checkpoints[-1] > t_final:
            raise ConfigError("checkpoints exceed the final time")
    times, tvs, kss = [], [], []
    current = state
    position = samples.copy()
    done = 0
    worst_halt = 0.0
    threshold = equivariance_threshold(n, bins)
    passed = True
    for t in checkpoints:
        try:
            n_steps = whole_steps(t, dt) - done
        except ConfigError:
            raise ConfigError(f"checkpoint {t:g} is not a whole number of "
                              f"dt = {dt:g} steps",
                              field_path="$.equivariance.checkpoints") from None
        if n_steps > 0:
            result, current = transport(
                current, potential, position, dt, n_steps,
                velocity_factor=velocity_factor)
            position = result.positions[-1]
            worst_halt = max(worst_halt, result.node_halt_fraction)
        rho = current.density()
        tv = tv_distance(position, rho, bins)
        ks = ks_distance(position, rho)
        times.append(t)
        tvs.append(tv)
        kss.append(ks)
        if tv > threshold:
            passed = False
        done += n_steps
    valid = worst_halt <= 0.01
    return EnsembleReport(
        n_samples=n, seed=seed, times=times, tv_values=tvs, ks_values=kss,
        tv_threshold=threshold, passed=passed and valid,
        node_halt_fraction=worst_halt, valid=valid,
        bins=bins,
        notes={"dt": dt, "velocity_factor": velocity_factor},
    )
