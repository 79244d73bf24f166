"""The grid spaces, the ring and the ordered pair of points on the ring:
one object each, which answers the layout questions of its wave functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covering import TWO_PI, Permutation, Winding
from .errors import ConfigError, PhysicsError
from .factors import max_abs


def require_power_of_two(n):
    if n < 4 or (n & (n - 1)) != 0:
        raise ConfigError(f"n_points must be a power of two, got {n}")


class TwistMonitor:
    """The twist residual of ring states of one layout, with the sheet
    phases of ``n_sheets`` deck translates and their factor matrices built
    once.  A run that checks many states of one layout holds one."""

    def __init__(self, state, n_sheets=3):
        windings = TWO_PI * np.arange(n_sheets)
        self.phases = np.exp(
            1j * state.sector_betas[None, :, None]
            * (state.theta[None, None, :] + windings[:, None, None]) / TWO_PI)
        self.basis = state.sector_basis
        self.factors = np.stack([state._factor_matrix(Winding(s))
                                 for s in range(n_sheets)])

    def sheets(self, values):
        """Physical psi of ring sector data on each sheet, (n_sheets, k, n)."""
        sector_psi = values * self.phases
        return sector_psi if self.basis is None else self.basis @ sector_psi

    def __call__(self, state):
        psi = self.sheets(state.values)
        return max_abs(psi - self.factors @ psi[0])


@dataclass(frozen=True)
class _GridSpace:
    radius: float = 1.0
    sheet_window: int = 3

    def __post_init__(self):
        if self.sheet_window < 3:
            raise ConfigError("sheet_window must be at least 3")
        if self.radius <= 0:
            raise ConfigError("radius must be positive")


@dataclass(frozen=True)
class RingGrid(_GridSpace):
    """One particle on the ring: values (k, n), one row per twist sector;
    deck group Z, acting by full turns."""

    kind = "ring"
    dims = 1
    component_axes = (0,)
    csv_columns = ("angle", "winding")
    initial_states = ("eigenstate", "gaussian", "spinor_gaussian")

    def check_layout(self, state):
        values = state.values
        if values.ndim != 2:
            raise ConfigError("ring values must have shape (components, n)")
        require_power_of_two(values.shape[1])
        if state.sector_betas is None:
            raise ConfigError("ring states need sector twist angles")
        k = values.shape[0]
        if state.sector_betas.shape != (k,) or np.shape(
                state.sector_basis) not in ((), (k, k)):
            raise ConfigError(f"a ring state of {k} component(s) needs "
                              f"{k} sector angles and a {k} x {k} basis")

    twist_monitor = TwistMonitor

    def scalar_potential(self, v):
        """Any scalar field: a full turn leaves it as it is."""
        return v

    def sheets(self, state, n_sheets):
        psi = TwistMonitor(state, n_sheets).sheets(state.values)
        return {Winding(s): psi[s] for s in range(n_sheets)}

    def evaluator(self, state, velocity_factor=1.0):
        from .trajectories import _RingEvaluator
        return _RingEvaluator(state, velocity_factor)

    def sample(self, rho, n, rng):
        from .ensembles import sample_from_grid_density
        return sample_from_grid_density(rho, n, rng)

    def collapse_profile(self, bump, label=None):
        if label is not None:
            raise ConfigError("labels apply to multi-particle states")
        return bump

    def rate_marginal(self, rho, dx):
        return rho

    def random_deck(self, rng, max_word_length=6):
        return Winding(int(rng.integers(-self.sheet_window, self.sheet_window + 1)))


@dataclass(frozen=True)
class PairGrid(_GridSpace):
    """Two identical particles on the ring: psi itself on the torus of
    ordered pairs, (n, n); deck group S_2, acting by exchange, whose
    factor is the exchange sign."""

    kind = "two_particle_ring"
    dims = 2
    component_axes = ()
    csv_columns = ("angle1", "angle2", "winding1", "winding2")
    initial_states = ("pair_eigenstate", "pair_gaussian")

    def check_layout(self, state):
        values = state.values
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ConfigError("two-particle values must be square (n, n)")
        require_power_of_two(values.shape[0])
        if state.sector_betas is not None or state.sector_basis is not None:
            raise ConfigError("two-particle states carry no twist sectors")

    def scalar_potential(self, v):
        """An exchange-symmetric scalar field, and no other."""
        if max_abs(v - v.T) > 1e-12:
            raise PhysicsError(
                "potential is not symmetric under particle exchange; it would "
                "break the declared exchange sector")
        return v

    def twist_monitor(self, state):
        """The exchange residual, which has no state-independent part."""
        return lambda s: max_abs(s.values.T - s.twist.sign * s.values)

    def sheets(self, state, n_sheets):
        decks = (Permutation.identity(2), Permutation.swap(2, 0, 1))
        return {deck: psi.copy() for deck, psi
                in zip(decks[:n_sheets], (state.values, state.values.T))}

    def evaluator(self, state, velocity_factor=1.0):
        from .trajectories import _TorusEvaluator
        return _TorusEvaluator(state, velocity_factor)

    def sample(self, rho, n, rng):
        from .ensembles import _sample_torus_density
        return _sample_torus_density(rho, n, rng)

    def collapse_profile(self, bump, label=None):
        """Both particles' bumps, or the labelled particle's alone."""
        if label is None:
            return bump[:, None] + bump[None, :]
        if label in (0, 1):
            return np.broadcast_to(bump[:, None] if label == 0 else bump[None, :],
                                   (bump.size, bump.size))
        raise ConfigError(f"label must be None, 0 or 1, got {label!r}")

    def rate_marginal(self, rho, dx):
        """The sum of the two one-particle marginals."""
        return rho.sum(axis=1) * dx + rho.sum(axis=0) * dx

    def random_deck(self, rng, max_word_length=6):
        return Permutation(tuple(rng.permutation(2)))


GRID_SPACES = {space.kind: space for space in (RingGrid, PairGrid)}


def grid_space(kind, radius=1.0, sheet_window=3):
    if kind not in GRID_SPACES:
        raise ConfigError(f"no grid space of kind {kind!r}",
                          field_path="$.space.kind")
    return GRID_SPACES[kind](radius=radius, sheet_window=sheet_window)
