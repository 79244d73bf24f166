"""Time evolution of twisted-periodic wave functions on ring covers.

Storage is gauge fixed: instead of a wave function psi on the cover obeying
psi(theta + 2 pi) = Gamma psi(theta), we keep the strictly periodic field

    chi(theta) = Gamma^(-theta / 2 pi) psi(theta),

so the twist is a structural property of the container rather than a
numerically drifting constraint.  In this gauge the kinetic operator acts in
Fourier space with shifted wavenumbers (n + beta / 2 pi) per character
sector, which enforces the twist exactly; a matrix factor is first split
into character sectors by simultaneous diagonalization of its generators.
A constant vector potential needs no dynamics of its own: flux-gauge data
with kinetic term (n - e flux / 2 pi)^2 / 2 are the stored data of a state
whose twist angle is left unreduced at beta = -e flux, so one split-step
loop serves both gauges.

Two slow reference integrators ship in-tree:

* a dense Crank-Nicolson propagator on the same periodic grid, the
  independent time-integration oracle for cross checks;
* a Dirichlet-walled multi-sheet integrator in the ungauged psi
  representation, used as the negative control that shows the twist decay
  when the factor does not commute with the potential.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .covering import TWO_PI, CoveringSpace, Winding
from .errors import (
    ConfigError,
    IncompatibleFactorError,
    PhysicsError,
    ToleranceError,
)
from .factors import (
    Character,
    MatrixRep,
    check_commutes,
    max_abs,
    unitary_eig,
)

DEFAULT_N_POINTS = 256
DEFAULT_DT = 1e-3

STATE_SCHEMA = "topobohm/state/1"


def angle_grid(n_points):
    return np.arange(n_points) * (TWO_PI / n_points)


def fourier_modes(n_points):
    """Integer wavenumbers in FFT order."""
    return np.fft.fftfreq(n_points, d=1.0 / n_points)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Potential on the base grid.

    kind:
      zero       -- free motion
      scalar     -- real field, shape (n,) on the ring or (n, n) on the torus
      matrix     -- Hermitian k x k field on the ring, shape (n, k, k)
      covariant  -- cover-side Hermitian field stored in its gauge-fixed
                    periodic form, shape (n, k, k); covariance under the deck
                    action then holds for any periodic data by construction

    ``values`` is a read-only copy of the data it was given: ``evolve``
    reuses a state's set-up for the same potential object, which is sound
    only while the field cannot change in place.
    """

    kind: str
    values: np.ndarray = None
    label: str = ""

    def __post_init__(self):
        if self.values is not None:
            values = np.array(self.values, order="C")
            values.flags.writeable = False
            object.__setattr__(self, "values", values)

    @classmethod
    def zero(cls):
        return cls(kind="zero", label="V=0")

    @classmethod
    def scalar(cls, values, label="scalar"):
        arr = np.asarray(values, dtype=float)
        return cls(kind="scalar", values=arr, label=label)

    @classmethod
    def from_callable(cls, fn, n_points, label="scalar"):
        return cls.scalar(fn(angle_grid(n_points)), label=label)

    @classmethod
    def matrix_constant(cls, matrix, n_points, label="matrix"):
        m = np.asarray(matrix, dtype=complex)
        if max_abs(m - m.conj().T) > 1e-12:
            raise ConfigError("matrix potential must be Hermitian")
        return cls(kind="matrix", values=np.broadcast_to(
            m, (n_points,) + m.shape), label=label)

    @classmethod
    def matrix_field(cls, values, label="matrix"):
        arr = np.asarray(values, dtype=complex)
        if max_abs(arr - np.conj(np.swapaxes(arr, -1, -2))) > 1e-12:
            raise ConfigError("matrix potential must be Hermitian pointwise")
        return cls(kind="matrix", values=arr, label=label)

    @classmethod
    def covariant(cls, gauge_fixed_values, label="covariant"):
        arr = np.asarray(gauge_fixed_values, dtype=complex)
        if max_abs(arr - np.conj(np.swapaxes(arr, -1, -2))) > 1e-12:
            raise ConfigError("covariant field must be Hermitian pointwise")
        return cls(kind="covariant", values=arr, label=label)

    @property
    def is_zero(self):
        return self.kind == "zero"


# ---------------------------------------------------------------------------
# wave grids
# ---------------------------------------------------------------------------

def _require_power_of_two(n):
    if n < 4 or (n & (n - 1)) != 0:
        raise ConfigError(f"n_points must be a power of two, got {n}")


@dataclass(frozen=True)
class WaveGrid:
    """Gauge-fixed periodic wave function data.

    Ring states store ``values`` with shape (k, n): strictly periodic sector
    components, expressed in the eigenbasis of the twist factor when that
    factor is a matrix (``sector_basis`` maps sector components back to the
    original value space; ``sector_betas`` holds each component's twist
    angle).  Two-particle states store psi itself on the torus, shape
    (n, n), with the exchange sign as the twist.

    Norm convention: sum |chi|^2 dtheta = 1.

    A state returned by ``evolve`` carries the ``SplitStep`` that made it;
    ``with_values`` keeps it, and ``dataclasses.replace`` drops it.
    """

    space: CoveringSpace
    values: np.ndarray
    twist: object
    sector_betas: np.ndarray = None
    sector_basis: np.ndarray = None
    _split_step: object = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        # C order, so norms and densities sum in the same order whatever
        # layout the caller passed
        object.__setattr__(self, "values",
                           np.ascontiguousarray(self.values, dtype=complex))
        if self.space.kind == "ring":
            if self.values.ndim != 2:
                raise ConfigError("ring values must have shape (components, n)")
            _require_power_of_two(self.values.shape[1])
            if self.sector_betas is None:
                raise ConfigError("ring states need sector twist angles")
            object.__setattr__(self, "sector_betas",
                               np.asarray(self.sector_betas, dtype=float))
            k = self.values.shape[0]
            if self.sector_betas.shape != (k,) or np.shape(
                    self.sector_basis) not in ((), (k, k)):
                raise ConfigError(f"a ring state of {k} component(s) needs "
                                  f"{k} sector angles and a {k} x {k} basis")
        elif self.space.kind == "two_particle_ring":
            if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
                raise ConfigError("two-particle values must be square (n, n)")
            _require_power_of_two(self.values.shape[0])
        else:
            raise ConfigError(f"no grid storage for space kind {self.space.kind!r}")

    # -- geometry -----------------------------------------------------------

    @property
    def n_points(self):
        return self.values.shape[-1]

    @property
    def n_components(self):
        return self.values.shape[0] if self.space.kind == "ring" else 1

    @property
    def dx(self):
        return TWO_PI / self.n_points

    @property
    def theta(self):
        return angle_grid(self.n_points)

    @property
    def radius(self):
        return self.space.radius

    # -- norms and densities --------------------------------------------------

    def norm(self):
        if self.space.kind == "ring":
            return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx))
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx ** 2))

    def density(self):
        """Base-side probability density (the local inner product)."""
        if self.space.kind == "ring":
            return np.sum(np.abs(self.values) ** 2, axis=0)
        return np.abs(self.values) ** 2

    def normalized(self):
        return self.with_values(self.values / self.norm())

    def with_values(self, values):
        out = replace(self, values=values)
        object.__setattr__(out, "_split_step", self._split_step)
        return out

    # -- twist bookkeeping ----------------------------------------------------

    @property
    def is_scalar(self):
        return self.space.kind == "ring" and self.values.shape[0] == 1

    @property
    def beta(self):
        """Twist angle of a single-sector ring state."""
        if self.space.kind != "ring":
            raise ConfigError("beta is defined for ring states")
        betas = np.unique(np.round(self.sector_betas, 12))
        if len(betas) != 1:
            raise ConfigError("state has several twist sectors; no single beta")
        return float(self.sector_betas[0])

    @property
    def exchange_sign(self):
        if self.space.kind != "two_particle_ring":
            raise ConfigError("exchange sign is defined for two-particle states")
        return +1 if self.twist.parity_exponent == 0 else -1

    def psi(self):
        """Reconstruct the physical wave function on the fundamental sheet."""
        if self.space.kind == "two_particle_ring":
            return self.values.copy()
        return self.reconstruct_sheets(1)[Winding(0)]

    def reconstruct_sheets(self, n_sheets=3):
        """Physical psi on deck translates, keyed by winding, for checks."""
        if self.space.kind == "two_particle_ring":
            from .covering import Permutation
            return {
                Permutation.identity(2): self.values.copy(),
                Permutation.swap(2, 0, 1): self.values.T.copy(),
            }
        out = {}
        for s in range(n_sheets):
            phases = np.exp(
                1j * self.sector_betas[:, None]
                * (self.theta[None, :] + TWO_PI * s) / TWO_PI)
            sector_psi = self.values * phases
            psi_s = sector_psi if self.sector_basis is None \
                else self.sector_basis @ sector_psi
            out[Winding(s)] = psi_s
        return out

    def twist_residual(self, n_sheets=3):
        """Max deviation of psi(sigma qhat) from Gamma_sigma psi(qhat)."""
        if self.space.kind == "two_particle_ring":
            return self.exchange_residual()
        sheets = self.reconstruct_sheets(n_sheets)
        base = sheets[Winding(0)]
        worst = 0.0
        for winding, psi_s in sheets.items():
            gamma = self._factor_matrix(winding)
            worst = max(worst, max_abs(psi_s - gamma @ base))
        return worst

    def _factor_matrix(self, winding):
        if isinstance(self.twist, Character):
            return self.twist.value(winding) * np.eye(self.n_components)
        return self.twist.evaluate(winding)

    def exchange_residual(self):
        """Deviation from the declared exchange sector (torus states)."""
        sign = self.exchange_sign
        return max_abs(self.values.T - sign * self.values)


# ---------------------------------------------------------------------------
# state builders
# ---------------------------------------------------------------------------

def wrapped_gaussian(theta, center, width, momentum=0.0, n_images=6):
    """Periodic Gaussian profile: image sum over deck translates.

    Each image carries the plane-wave phase of its own unwrapped argument,
    which keeps the sum exactly periodic for any real momentum.
    """
    out = np.zeros_like(theta, dtype=complex)
    for w in range(-n_images, n_images + 1):
        u = theta - center + TWO_PI * w
        out += np.exp(-(u ** 2) / (4.0 * width ** 2) + 1j * momentum * u)
    return out


def _ring_sectors(factor):
    """How a ring factor splits into character sectors: (betas, basis).

    A character is one sector with no basis.  A matrix factor splits along
    the eigenbasis of its generator (its columns map sector components back
    to the value space), with eigenphases on the branch (-pi, pi].
    """
    if isinstance(factor, Character) and factor.group_id[0] == "ring":
        return np.array([factor.beta]), None
    if not isinstance(factor, MatrixRep) or factor.group_id != ("ring",):
        group = getattr(factor, "group_id", type(factor).__name__)
        raise ConfigError("a ring grid takes a ring character or ring matrix "
                          f"factor, not a factor on {group}")
    eigvals, basis = unitary_eig(factor.generators[0])
    return np.angle(eigvals), basis


def twist_embed(data, factor, space=None, data_is_periodic=True):
    """Build a gauge-fixed WaveGrid from wave data and a topological factor.

    ``data`` is either strictly periodic gauge-fixed data (interpreted as
    chi, the default) or one-sheet cover samples of psi itself
    (``data_is_periodic=False``), in which case the factor is peeled off by
    its fractional power.  The factor splits into sectors by
    ``_ring_sectors``, the layout that the split step and ``spectrum``
    read; a matrix factor's generator must be normal.  The result is
    normalized.
    """
    if space is None:
        space = CoveringSpace.ring()
    arr = np.asarray(data, dtype=complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    _require_power_of_two(arr.shape[1])
    betas, basis = _ring_sectors(factor)
    if arr.shape[0] != len(betas):
        raise ConfigError(f"the factor twists {len(betas)} component(s); the "
                          f"data has {arr.shape[0]}")
    if basis is not None:
        arr = basis.conj().T @ arr
    if not data_is_periodic:
        # peel psi -> chi with the continuous fractional power of the factor
        arr = np.exp(-1j * np.outer(betas, angle_grid(arr.shape[1]))
                     / TWO_PI) * arr
    state = WaveGrid(space=space, values=arr, twist=factor,
                     sector_betas=betas, sector_basis=basis)
    return state.normalized()


def make_eigenstate(n, factor, n_points=DEFAULT_N_POINTS, space=None):
    """Twisted kinetic eigenstate: chi is the plane wave of integer mode n."""
    theta = angle_grid(n_points)
    chi = np.exp(1j * n * theta) / math.sqrt(TWO_PI)
    return twist_embed(chi, factor, space=space)


def make_gaussian_state(factor, center, width, momentum=0.0,
                        n_points=DEFAULT_N_POINTS, space=None):
    theta = angle_grid(n_points)
    chi = wrapped_gaussian(theta, center, width, momentum)
    return twist_embed(chi, factor, space=space)


def make_spinor_state(component_data, factor, space=None):
    return twist_embed(np.stack(component_data), factor, space=space)


def make_plain_state(psi_values, space=None):
    """Untwisted periodic state."""
    return twist_embed(np.asarray(psi_values, dtype=complex),
                       Character.ring(0.0), space=space)


SECTOR_TOL = 1e-10


def make_two_particle_state(values, sector, space=None, enforce=True):
    """Two-particle torus state in a declared exchange sector (+1 or -1)."""
    if space is None:
        space = CoveringSpace.two_particle_ring()
    arr = np.asarray(values, dtype=complex)
    twist = Character.exchange(2, sector)
    state = WaveGrid(space=space, values=arr, twist=twist)
    norm = state.norm()
    if norm == 0:
        raise ConfigError("two-particle data vanishes after symmetrization")
    state = state.with_values(arr / norm)
    if enforce and state.exchange_residual() > SECTOR_TOL * max_abs(state.values):
        raise PhysicsError(
            f"initial data violates the declared exchange sector "
            f"(residual {state.exchange_residual():.2e})")
    return state


def symmetrized_product_state(f1, f2, sector, n_points=DEFAULT_N_POINTS, space=None):
    """(Anti)symmetrized product of two single-particle profiles."""
    theta = angle_grid(n_points)
    a = np.asarray(f1(theta), dtype=complex)
    b = np.asarray(f2(theta), dtype=complex)
    product = np.outer(a, b) + sector * np.outer(b, a)
    return make_two_particle_state(product, sector, space=space)


def pair_eigenstate(n1, n2, sector, n_points=DEFAULT_N_POINTS, space=None):
    return symmetrized_product_state(
        lambda t: np.exp(1j * n1 * t), lambda t: np.exp(1j * n2 * t),
        sector, n_points, space)


# ---------------------------------------------------------------------------
# the split-step propagator
# ---------------------------------------------------------------------------

def _pair_potential(state, potential):
    """Scalar torus potential, refused unless it is exchange symmetric."""
    if potential.kind != "scalar":
        raise ConfigError("two-particle stepping supports scalar potentials")
    v = np.asarray(potential.values, dtype=float)
    if v.shape != state.values.shape:
        raise ConfigError("two-particle potential grid mismatch")
    if max_abs(v - v.T) > 1e-12:
        raise PhysicsError(
            "potential is not symmetric under particle exchange; it would "
            "break the declared exchange sector")
    return v


def _sector_potential(state, potential):
    """Potential term of the gauge-fixed equation, in the sector basis.

    Returns ("none", None), ("scalar", real field on the state grid) or
    ("matrix", (n,k,k)).
    """
    if potential.is_zero:
        return ("none", None)
    if state.space.kind == "two_particle_ring":
        return ("scalar", _pair_potential(state, potential))
    if potential.kind == "scalar":
        v = np.asarray(potential.values, dtype=float)
        if v.shape != (state.n_points,):
            raise ConfigError("scalar potential grid does not match the state")
        return ("scalar", v)
    v = np.asarray(potential.values, dtype=complex)
    if v.shape != (state.n_points, state.n_components, state.n_components):
        raise ConfigError("matrix potential shape does not match the state")
    if state.sector_basis is not None:
        v = np.einsum("ab,nbc,cd->nad",
                      state.sector_basis.conj().T, v, state.sector_basis)
    return ("matrix", v)


def factor_commutes(factor, potential):
    """The commutation rule of the split step, shared with ``classify``.

    Characters commute with everything, and so do scalar potentials and
    covariant cover-side fields of the factor's dimension (covariance holds
    by construction in their gauge-fixed storage).  A matrix potential must
    commute with the factor at every grid point, else the evolution would
    not preserve the periodicity condition.
    """
    if isinstance(factor, Character) or potential.kind in ("zero", "scalar"):
        return True
    if potential.kind == "covariant":
        if potential.values.shape[1:] != (factor.dim, factor.dim):
            raise ConfigError("covariant field dimension does not match factor")
        return True
    return check_commutes(factor, potential.values)


def _require_commutes(factor, potential):
    """The gate of every grid operator: the split step and ``spectrum``."""
    if not factor_commutes(factor, potential):
        raise IncompatibleFactorError(
            "matrix potential does not commute with the topological factor "
            "at every configuration point; the twist would not survive the "
            "evolution, so the operator is refused")


def _wavenumbers(state):
    """(k, n) kinetic wavenumbers of a ring state, (n + beta / 2 pi) / radius
    per sector, in FFT order."""
    modes = fourier_modes(state.n_points)
    return (modes[None, :] + state.sector_betas[:, None] / TWO_PI) / state.radius


def _kinetic_phase(state, dt):
    if state.space.kind == "two_particle_ring":
        k = fourier_modes(state.n_points) / state.radius
        return np.exp(-0.5j * dt * (k[:, None] ** 2 + k[None, :] ** 2))
    return np.exp(-0.5j * dt * _wavenumbers(state) ** 2)


def _potential_half_phase(kind, data, dt):
    """exp(-i dt V / 2): a field on the grid, or for a matrix potential the
    (k, k, n) array of pointwise unitaries, sector-major so that the kick's
    sum runs over contiguous grid rows."""
    if kind == "none":
        return None
    if kind == "scalar":
        return np.exp(-0.5j * dt * data)
    eigvals, eigvecs = np.linalg.eigh(data)
    phase = np.exp(-0.5j * dt * eigvals)
    pointwise = np.einsum("nab,nb,ncb->nac", eigvecs, phase, eigvecs.conj())
    return np.ascontiguousarray(np.moveaxis(pointwise, 0, -1))


# states of at most this many complex values step by one stored dense
# unitary: at 128 values the vector-matrix product takes about a third of
# the time of the FFT step, whose cost there is mostly per-call overhead;
# at 256 the two are about even, and at 512 the product is 6x slower
DENSE_STEP_MAX = 128


class SplitStep:
    """The set-up of one V/2 - T - V/2 step for a state layout, a potential
    and dt: the gate verdict, the kinetic multiplier, the half-potential
    phase and the FFT pair.  A scalar half-kick is one broadcast multiply;
    a matrix half-kick is k^2 broadcast multiply-adds over the sector-major
    (k, k, n) phase (see ``_half_kick``).  Building it raises
    ``IncompatibleFactorError`` when the factor does not commute with the
    potential, before anything else is built.  Of the layout it was built
    for, only ``shape`` can change on a state that carries it.

    ``matrix`` is the whole step as one (size, size) unitary for a layout
    of at most ``DENSE_STEP_MAX`` values, built on first access (``evolve``
    reads it; a caller that only calls ``apply`` never pays for it): row j
    is ``apply`` of the j-th unit vector, so ``flat @ matrix`` is one step
    of the flattened values and the step keeps a single definition.  Larger
    layouts have ``matrix`` None and step by ``apply``.
    """

    def __init__(self, state, potential, dt):
        _require_commutes(state.twist, potential)
        self.potential = potential  # held, so its id is not reused
        self.dt = dt
        self.shape = state.values.shape
        self.kind, data = _sector_potential(state, potential)
        self.half_v = _potential_half_phase(self.kind, data, dt)
        self.kinetic = _kinetic_phase(state, dt)
        if state.space.kind == "two_particle_ring":
            self.fft, self.ifft = np.fft.fft2, np.fft.ifft2
        else:  # ring values are (components, n): transform the last axis
            self.fft, self.ifft = np.fft.fft, np.fft.ifft

    @functools.cached_property
    def matrix(self):
        size = math.prod(self.shape)
        if size > DENSE_STEP_MAX:
            return None
        basis = np.eye(size, dtype=complex).reshape((size,) + self.shape)
        return self.apply(basis).reshape(size, size)

    def _half_kick(self, values):
        """exp(-i dt V / 2) on ``values`` (any leading batch axes).

        A matrix kick is the sum over the k sector columns b of the
        broadcast product half_v[:, b] * values[..., b, :], accumulated in
        place: k^2 multiply-adds per grid point."""
        if self.kind == "none":
            return values
        if self.kind == "scalar":
            return values * self.half_v
        out = self.half_v[:, 0] * values[..., 0:1, :]
        for b in range(1, self.half_v.shape[1]):
            out += self.half_v[:, b] * values[..., b:b + 1, :]
        return out

    def apply(self, values):
        """One step of ``values``: the state's shape, after any leading
        batch axes."""
        values = self._half_kick(values)
        values = self.ifft(self.kinetic * self.fft(values))
        return self._half_kick(values)


def evolve(state, potential, dt, n_steps):
    """Advance a state by n_steps Strang-split V/2 - T - V/2 steps of size dt.

    Ring states step in the gauge-fixed storage, where the twist angles
    shift the kinetic wavenumbers to (n + beta / 2 pi) / radius; an angle
    left unreduced, beta = -e flux, is the flux gauge with kinetic term
    (n - e flux / 2 pi)^2 / 2.  Two-particle states step on the torus under
    an exchange-symmetric scalar potential.

    The returned state carries its set-up (``SplitStep``), which a call on
    it reuses for the same potential object, an equal dt and values of the
    same shape; any other call builds one, gate first.  A run in chunks or
    single steps pays for its set-up once; no result depends on that reuse.

    A state of at most ``DENSE_STEP_MAX`` values (k n on the ring, n^2 on
    the torus) steps by one product with the set-up's unitary, built on the
    set-up's first call here; a larger one by the FFT pair.  The path
    depends only on the state's size, so every step of a run, chunked or
    not, is the same operation.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    require_step_count(n_steps)
    if n_steps == 0:
        return state
    step = state._split_step
    if (step is None or step.potential is not potential or step.dt != dt
            or step.shape != state.values.shape):
        step = SplitStep(state, potential, dt)
    values = state.values
    if step.matrix is not None:
        flat = values.reshape(-1)
        for _ in range(n_steps):
            flat = flat @ step.matrix
        values = flat.reshape(values.shape)
    else:
        for _ in range(n_steps):
            values = step.apply(values)
    out = replace(state, values=values)
    object.__setattr__(out, "_split_step", step)
    return out


def require_step_count(n_steps):
    """Refuse a step count that is negative or not an integer, which a
    stepping loop would otherwise run as no steps or fail on as a bare
    TypeError."""
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise ConfigError("n_steps must be a nonnegative integer")


def whole_steps(t_final, dt):
    """The number of dt steps that make up t_final, refused unless it is
    whole to a relative 1e-9: a run never stops short of or past t_final."""
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ConfigError("t_final must be an integer multiple of dt",
                          field_path="$.numerics.t_final")
    return n_steps


# ---------------------------------------------------------------------------
# flux gauge: an unreduced twist angle
# ---------------------------------------------------------------------------

def gauge_map(state):
    """Reduce a scalar ring state's twist angle to its principal branch.

    A flux-gauge state is stored as the plainly periodic data twisted by
    the unreduced angle beta = -e flux.  Writing beta = beta' + 2 pi m with
    beta' in (-pi, pi], the same wave psi is stored as exp(i m theta) chi
    with twist beta': the integer winding moves into the periodic data.
    """
    _require_scalar_ring(state)
    beta = math.fmod(state.beta + math.pi, TWO_PI)
    if beta <= 0:
        beta += TWO_PI
    beta -= math.pi  # principal branch (-pi, pi]
    m_int = round((beta - state.beta) / TWO_PI)
    chi = state.values * np.exp(-1j * m_int * state.theta)[None, :]
    return WaveGrid(space=state.space, values=chi,
                    twist=Character.ring(beta), sector_betas=np.array([beta]))


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


def _require_scalar_ring(state):
    if state.space.kind != "ring" or not state.is_scalar:
        raise ConfigError("the flux gauge handles scalar ring states")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def _dense_hamiltonian(state, potential):
    """Dense grid Hamiltonian of a ring state's layout, shape (k n, k n).

    The spectral kinetic term of each sector sits on its diagonal block,
    and the potential, read through the split step's ``_sector_potential``
    (so a matrix field is rotated into the sector basis and its shape is
    checked), sits on the point diagonals of all blocks.  The values of
    ``state`` are not read.
    """
    n, k = state.n_points, state.n_components
    f_eye = np.fft.fft(np.eye(n, dtype=complex), axis=0)
    kin = np.fft.ifft(0.5 * _wavenumbers(state)[:, :, None] ** 2 * f_eye,
                      axis=1)
    sectors = np.arange(k)
    h = np.zeros((k, n, k, n), dtype=complex)
    h[sectors, :, sectors, :] = kin
    kind, data = _sector_potential(state, potential)
    if kind != "none":
        points = np.arange(n)
        h[:, points, :, points] += (data[:, None, None] * np.eye(k)
                                    if kind == "scalar" else data)
    return h.reshape(k * n, k * n)


def spectrum(factor, potential=None, n_levels=8,
             n_points=DEFAULT_N_POINTS, radius=1.0):
    """Lowest eigenvalues of the discretized twisted Hamiltonian.

    ``factor`` is a ring Character or a ring MatrixRep; a flux is the
    Character of its unreduced angle -e flux.  The operator is the one that
    ``evolve`` steps: the pair passes the split step's gate (else
    ``IncompatibleFactorError``), the factor splits into the sectors that
    ``twist_embed`` lays out, and ``_dense_hamiltonian`` builds the grid
    operator, whose lowest n_levels eigenvalues (ascending) come from one
    dense subset eigensolve.  With V = 0 the levels are
    ((n + beta / 2 pi) / radius)^2 / 2.
    """
    # local import: runs that solve no eigenproblem skip scipy's ~0.25 s load
    import scipy.linalg

    if not 1 <= n_levels <= n_points // 4:
        raise ConfigError("n_levels must be at least 1 and not exceed "
                          "n_points / 4")
    if potential is None:
        potential = Potential.zero()
    _require_commutes(factor, potential)
    betas, basis = _ring_sectors(factor)
    layout = WaveGrid(space=CoveringSpace.ring(radius=radius),
                      values=np.zeros((len(betas), n_points)), twist=factor,
                      sector_betas=betas, sector_basis=basis)
    h = _dense_hamiltonian(layout, potential)
    herm = max_abs(h - h.conj().T)
    if herm > 1e-10:
        raise ToleranceError("hamiltonian-hermiticity", herm, 1e-10)
    return scipy.linalg.eigh((h + h.conj().T) / 2.0, eigvals_only=True,
                             subset_by_index=[0, n_levels - 1])


# ---------------------------------------------------------------------------
# reference integrators
# ---------------------------------------------------------------------------

def crank_nicolson_evolve(state, potential, dt, n_steps):
    """Dense Crank-Nicolson reference on the same periodic grid.

    Independent time-integration oracle: one step solves
    (1 + i dt H / 2) psi' = (1 - i dt H / 2) psi against the explicitly
    built grid Hamiltonian.  Scalar ring states only; slow by design.
    """
    # local import: only the reference integrators need scipy's LU solver
    import scipy.linalg

    if state.space.kind != "ring" or not state.is_scalar:
        raise ConfigError("the Crank-Nicolson reference handles scalar ring states")
    h = _dense_hamiltonian(state, potential)
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
        # local import: only the reference integrators need scipy's LU solver
        import scipy.linalg

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


# ---------------------------------------------------------------------------
# state serialization
# ---------------------------------------------------------------------------

def _twist_to_dict(twist):
    if isinstance(twist, Character):
        if twist.group_id[0] == "ring":
            return {"type": "character", "group": "ring", "beta": twist.beta}
        if twist.group_id[0] == "sym":
            sign = +1 if twist.parity_exponent == 0 else -1
            return {"type": "exchange", "n": twist.group_id[1], "sign": sign}
        raise ConfigError(f"cannot serialize character on {twist.group_id}")
    if isinstance(twist, MatrixRep):
        return {
            "type": "matrix",
            "group": list(twist.group_id),
            "generators": [_complex_matrix_to_pairs(g) for g in twist.generators],
        }
    raise ConfigError(f"cannot serialize twist {twist!r}")


def _twist_from_dict(d):
    if d["type"] == "character":
        return Character.ring(float(d["beta"]))
    if d["type"] == "exchange":
        return Character.exchange(int(d["n"]), int(d["sign"]))
    if d["type"] == "matrix":
        gens = [_complex_matrix_from_pairs(g) for g in d["generators"]]
        return MatrixRep(group_id=tuple(d["group"]), generators=tuple(gens))
    raise ConfigError(f"unknown twist type {d['type']!r}")


def _complex_matrix_to_pairs(m):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _complex_matrix_from_pairs(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def state_to_dict(state):
    """Versioned, binary-free JSON layout for a WaveGrid."""
    d = {
        "schema": STATE_SCHEMA,
        "space": {
            "kind": state.space.kind,
            "radius": state.space.radius,
            "sheet_window": state.space.sheet_window,
        },
        "units": {"hbar": 1.0, "mass": 1.0, "charge": 1.0},
        "n_points": state.n_points,
        "twist": _twist_to_dict(state.twist),
        "components": _complex_matrix_to_pairs(state.values),
    }
    if state.space.kind == "ring":
        d["sector_betas"] = [float(b) for b in state.sector_betas]
        if state.sector_basis is not None:
            d["sector_basis"] = _complex_matrix_to_pairs(state.sector_basis)
    return d


def state_from_dict(d):
    if d.get("schema") != STATE_SCHEMA:
        raise ConfigError(f"unknown state schema {d.get('schema')!r}")
    sp = d["space"]
    twist = _twist_from_dict(d["twist"])
    if sp["kind"] == "ring":
        space = CoveringSpace.ring(radius=sp["radius"],
                                   sheet_window=sp["sheet_window"])
        values = _complex_matrix_from_pairs(d["components"])
        basis = (_complex_matrix_from_pairs(d["sector_basis"])
                 if "sector_basis" in d else None)
        return WaveGrid(space=space, values=values, twist=twist,
                        sector_betas=np.array(d["sector_betas"]),
                        sector_basis=basis)
    space = CoveringSpace.two_particle_ring(radius=sp["radius"],
                                            sheet_window=sp["sheet_window"])
    values = _complex_matrix_from_pairs(d["components"])
    return WaveGrid(space=space, values=values, twist=twist)
