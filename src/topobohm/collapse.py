"""Spontaneous localization events on twisted-periodic wave functions.

Collapses hit at rate r(x|psi) = <psi| L(x) psi>, where L(x) multiplies by a
Gaussian bump of width ``a`` centred at x (wrapped geodesic distance on the
ring, one bump per particle, summed for identical particles).  A collapse
at x maps psi to L(x)^(1/2) psi, renormalized.  The bump is a function on
the base lifted to the cover, so in the gauge-fixed storage a collapse is a
real periodic multiplier: it maps twisted-periodic states to
twisted-periodic states with the same factor, and commutes with the
exchange (anti)symmetrization.

For a normalized state the total rate, the integral of r(x|psi) over the
centres, is lam * N * sum(bump) dx for N particles: the bumps are lifted
from the base, so it does not depend on psi.  The event times therefore
form a homogeneous Poisson process at that rate, and the collapse centre
is drawn from r(x|psi) / total rate.

The twist is checked after every collapse and at the end of a run, with no
opt-out: a collapse is a second operator besides the split step, so the
check that one ``evolve`` run makes once is made here per event; a later
collapse can shrink a defect that a final check alone would miss.

A run builds what its events share once, on its first state: the width
check and the bump kernel's FFT of the rate density (``_RateDensity``), and
the sheet phases and factor matrices of the twist monitor
(``WaveGrid.space.twist_monitor``).  ``rate_over_centers`` and
``WaveGrid.twist_residual`` build the same set-up per call, so a run and a
single call share one code path; an event's centre is one sample of the
rate density (``ensembles.sample_from_grid_density``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import TWO_PI
from .errors import ConfigError, PhysicsError, ToleranceError
from .ensembles import sample_from_grid_density
from .factors import worse
from .propagation import SplitStep, evolve

TWIST_PRESERVATION_TOL = 1e-9


def wrapped_distance(x, q):
    """Geodesic distance on the circle of circumference 2 pi."""
    d = np.mod(np.asarray(q) - x, TWO_PI)
    return np.minimum(d, TWO_PI - d)


def localization_bump(theta, x, a):
    d = wrapped_distance(x, theta)
    return np.exp(-d ** 2 / (2.0 * a ** 2))


def _require_width(state, a):
    """Refuse a bump width that is not positive or below the grid spacing:
    a narrower bump is under-resolved and its total rate silently wrong."""
    if a <= 0:
        raise ConfigError("localization width a must be positive")
    if a < state.dx:
        raise ConfigError(f"localization width a = {a:g} is below the grid "
                          f"spacing {state.dx:g}; the bump is not resolved",
                          field_path="$.grw.a")


def collapse_multiplier(state, x, lam, a, label=None):
    """The rate-operator multiplier on the state's base grid.

    One particle: lam * bump(theta).  Two particles: lam * (bump(theta_1) +
    bump(theta_2)) for the identical-particle variant (label None), or the
    single labelled bump for the distinguishable variant.
    """
    _require_width(state, a)
    bump = localization_bump(state.theta, x, a)
    return lam * state.space.collapse_profile(bump, label)


class _RateDensity:
    """r(x|psi) for every grid centre x at once, for states of one layout:
    the width check and the bump kernel's FFT are built once, and each call
    is one circular convolution (an FFT pair) of the base density, or of
    the sum of a pair's two marginals, against the kernel."""

    def __init__(self, state, lam, a):
        _require_width(state, a)
        self.lam = lam
        self.dx = state.dx
        self.marginal = state.space.rate_marginal
        self.kernel_hat = np.fft.fft(localization_bump(state.theta, 0.0, a))

    def __call__(self, state):
        rho = self.marginal(state.density(), self.dx)
        conv = np.real(np.fft.ifft(self.kernel_hat * np.fft.fft(rho)))
        return self.lam * conv * self.dx


def rate_over_centers(state, lam, a):
    """r(x|psi) for every grid centre x at once (circular convolution)."""
    return _RateDensity(state, lam, a)(state)


def total_rate(state, lam, a):
    """Integral of r(x|psi) over the ring of centres (grid quadrature)."""
    return float(np.sum(rate_over_centers(state, lam, a)) * state.dx)


@dataclass
class CollapseEvent:
    time: float
    center: float
    pre_norm: float
    post_norm: float
    label: object = None

    def csv_row(self):
        return (f"{self.time:.9g}", f"{self.center:.12g}",
                f"{self.pre_norm:.12g}", f"{self.post_norm:.12g}",
                "" if self.label is None else str(self.label))


def apply_collapse(state, x, lam, a, label=None):
    """Multiply by the square-root bump profile and renormalize.

    Returns (new_state, event).  Raises when the rate at x vanishes (a
    collapse there is impossible).  The multiplier is a real positive
    base-side profile, so the twist sector and exchange sector survive.
    """
    mult = np.sqrt(collapse_multiplier(state, x, lam, a, label))
    pre_norm = state.norm()
    # a ring multiplier broadcasts over sectors; the product is a fresh
    # array that the collapsed state owns, so it is normalized in place
    collapsed = state.with_values(state.values * mult)
    post_norm = collapsed.norm()  # the rate r(x|psi), rooted
    if post_norm == 0:
        raise PhysicsError(f"collapse rate vanishes at x={x}; cannot collapse there")
    np.divide(collapsed.values, post_norm, out=collapsed.values)
    event = CollapseEvent(time=math.nan, center=float(x),
                          pre_norm=pre_norm, post_norm=post_norm, label=label)
    return collapsed, event


def _draw(rates, rng):
    return float(sample_from_grid_density(rates, 1, rng)[0])


@dataclass
class GrwResult:
    final_state: object
    events: list
    total_rate: float = 0.0
    max_twist_residual: float = 0.0

    @property
    def n_events(self):
        return len(self.events)


def _advance(state, potential, span, dt):
    """Evolve over ``span``: whole steps of ``dt``, then one remainder step.

    A span within 1e-9 (relative) of a whole number of steps takes exactly
    that many, so a run whose length is a multiple of ``dt`` takes no
    rounding-sized remainder step.  The remainder is one ``SplitStep.apply``
    (the FFT pair, gate included) on a set-up of its own, so it never builds
    the dense step matrix; its values go back on the whole-step state, whose
    set-up the next interval reuses.
    """
    n_steps = round(span / dt)
    if abs(span - n_steps * dt) > 1e-9 * span:
        n_steps = math.floor(span / dt)
        state = evolve(state, potential, dt, n_steps)
        rem = span - n_steps * dt
        return state.with_values(
            SplitStep(state, potential, rem).apply(state.values))
    return evolve(state, potential, dt, n_steps)


def simulate_grw(state, potential, t_final, lam, a, seed, dt=1e-3):
    """Schrodinger evolution punctuated by GRW collapses.

    The total collapse rate of a normalized state does not depend on the
    state, so it is computed once and the waits between events are drawn
    from the exponential law at that rate; lam = 0 gives no events.  Between
    events the state follows the split-step propagator in steps of ``dt``
    (``evolve``, one set-up for the run) plus one shorter step by the FFT
    pair to land on the event time (``_advance``).  The rate density and
    the twist monitor are set up once for the run.  Deterministic for a
    given seed.  A width ``a`` below the grid spacing raises ``ConfigError``.

    Twist preservation (the exchange sector, for a pair) is monitored after
    every collapse and at the end; a residual above 1e-9 raises
    ``ToleranceError``.
    """
    if lam < 0:
        raise ConfigError("collapse rate constant must be nonnegative")
    if t_final < 0:
        raise ConfigError("t_final must be nonnegative")
    rng = np.random.default_rng(seed)
    state = state.normalized()
    rate = total_rate(state, lam, a)
    result = GrwResult(final_state=state, events=[], total_rate=rate)
    # every state of the run shares the initial state's layout
    rates = _RateDensity(state, lam, a)
    twist = state.space.twist_monitor(state)

    def monitor(s, when):
        res = twist(s)
        result.max_twist_residual = worse(result.max_twist_residual, res)
        if not res <= TWIST_PRESERVATION_TOL:
            raise ToleranceError(f"twist-preservation@{when}", res,
                                 TWIST_PRESERVATION_TOL)

    t = 0.0
    while True:
        t_next = t + rng.exponential(1.0 / rate) if rate > 0 else math.inf
        state = _advance(state, potential, min(t_next, t_final) - t, dt)
        if t_next >= t_final:
            break
        t = t_next
        center = _draw(rates(state), rng)
        state, event = apply_collapse(state, center, lam, a)
        event.time = t
        result.events.append(event)
        monitor(state, f"event-{len(result.events)}")
    monitor(state, "final")
    result.final_state = state
    return result
