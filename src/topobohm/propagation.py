"""Time evolution of twisted-periodic wave functions on ring covers.

Storage is gauge fixed: instead of a wave function psi on the cover obeying
psi(theta + 2 pi) = Gamma psi(theta), we keep the strictly periodic field

    chi(theta) = Gamma^(-theta / 2 pi) psi(theta),

so the twist is a structural property of the container rather than a
numerically drifting constraint.  In this gauge the kinetic operator acts in
Fourier space with shifted wavenumbers (n + beta / 2 pi) per character
sector, which enforces the twist exactly; a matrix factor is first split
into character sectors along the Schur basis of its generator
(``factors.character_sectors``, the one split of every abelian factor).
A constant vector potential needs no dynamics of its own: flux-gauge data
with kinetic term (n - e flux / 2 pi)^2 / 2 are the stored data of a state
whose twist angle is left unreduced at beta = -e flux, so one split-step
loop serves both gauges.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .covering import TWO_PI
from .errors import (
    ConfigError,
    IncompatibleFactorError,
    PhysicsError,
    ToleranceError,
)
from .factors import (
    Character,
    MatrixRep,
    character_sectors,
    check_commutes,
    max_abs,
    unitarity_residual,
)
from .spaces import PairGrid, RingGrid, grid_space, require_power_of_two

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

def _hermitian(values, what):
    """A matrix or a field of them, refused unless each one is Hermitian."""
    arr = np.asarray(values, dtype=complex)
    if max_abs(arr - np.conj(np.swapaxes(arr, -1, -2))) > 1e-12:
        raise ConfigError(f"{what} must be Hermitian",
                          field_path="$.potential.matrix")
    return arr


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
        m = _hermitian(matrix, "matrix potential")
        return cls(kind="matrix", values=np.broadcast_to(
            m, (n_points,) + m.shape), label=label)

    @classmethod
    def matrix_field(cls, values, label="matrix"):
        return cls(kind="matrix", values=_hermitian(values, "matrix potential"),
                   label=label)

    @classmethod
    def covariant(cls, gauge_fixed_values, label="covariant"):
        return cls(kind="covariant", label=label,
                   values=_hermitian(gauge_fixed_values, "covariant field"))

    @property
    def is_zero(self):
        return self.kind == "zero"


# ---------------------------------------------------------------------------
# wave grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveGrid:
    """Gauge-fixed periodic wave function data.

    ``space``, a ``spaces.RingGrid`` or ``spaces.PairGrid``, answers the
    layout questions.  Ring states store ``values`` (k, n): periodic sector
    components, in the eigenbasis of a matrix twist factor (``sector_basis``
    maps them back to the value space; ``sector_betas`` holds each one's
    twist angle).  Pair states store psi itself on the torus, (n, n), with
    the exchange sign as the twist and no sectors.

    Norm convention: sum |values|^2 dtheta^d = 1 over the d angle axes.

    A state returned by ``evolve`` carries the ``SplitStep`` that made it;
    ``with_values`` keeps it, and ``dataclasses.replace`` drops it.  One
    from the spectral path also carries ``_spectrum``, the spectrum of the
    values its chain of calls began from, and ``_spectrum_steps``, the
    steps taken since; both drop that memo, since it stands for the values
    it came with.
    """

    space: object
    values: np.ndarray
    twist: object
    sector_betas: np.ndarray = None
    sector_basis: np.ndarray = None
    _split_step: object = field(default=None, init=False, repr=False,
                                compare=False)
    _spectrum: np.ndarray = field(default=None, init=False, repr=False,
                                  compare=False)
    _spectrum_steps: int = field(default=0, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        # C order, so norms and densities sum in the same order whatever
        # layout the caller passed
        object.__setattr__(self, "values",
                           np.ascontiguousarray(self.values, dtype=complex))
        if self.sector_betas is not None:
            object.__setattr__(self, "sector_betas",
                               np.asarray(self.sector_betas, dtype=float))
        self.space.check_layout(self)

    # -- geometry -----------------------------------------------------------

    @property
    def n_points(self):
        return self.values.shape[-1]

    @property
    def n_components(self):
        return math.prod(self.values.shape[a] for a in self.space.component_axes)

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
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)
                             * self.dx ** self.space.dims))

    def density(self):
        """Base-side probability density (the local inner product)."""
        return np.sum(np.abs(self.values) ** 2, axis=self.space.component_axes)

    def normalized(self):
        """The state scaled to unit norm; a zero or non-finite norm, which
        no scaling makes one, raises ``ConfigError``."""
        norm = self.norm()
        if not (norm > 0 and math.isfinite(norm)):
            raise ConfigError(f"the state's norm is {norm}; it cannot be "
                              "normalized", field_path="$.initial_state")
        return self.with_values(self.values / norm)

    def with_values(self, values):
        out = replace(self, values=values)
        object.__setattr__(out, "_split_step", self._split_step)
        return out

    # -- twist bookkeeping ----------------------------------------------------

    @property
    def is_scalar(self):
        return self.space.dims == 1 and self.n_components == 1

    @property
    def beta(self):
        """Twist angle of a single-sector ring state."""
        if self.sector_betas is None:
            raise ConfigError("beta is defined for ring states")
        betas = np.unique(np.round(self.sector_betas, 12))
        if len(betas) != 1:
            raise ConfigError("state has several twist sectors; no single beta")
        return float(self.sector_betas[0])

    def psi(self):
        """Reconstruct the physical wave function on the fundamental sheet."""
        return next(iter(self.reconstruct_sheets(1).values()))

    def reconstruct_sheets(self, n_sheets=3):
        """Physical psi on deck translates, the identity's first, for checks."""
        return self.space.sheets(self, n_sheets)

    def twist_residual(self):
        """Max deviation of psi(sigma qhat) from Gamma_sigma psi(qhat)."""
        return self.space.twist_monitor(self)(self)

    def _factor_matrix(self, winding):
        if isinstance(self.twist, Character):
            return self.twist.value(winding) * np.eye(self.n_components)
        return self.twist.evaluate(winding)


# ---------------------------------------------------------------------------
# state builders
# ---------------------------------------------------------------------------

def wrapped_gaussian(theta, center, width, momentum=0.0):
    """Periodic Gaussian profile: image sum over six deck translates a side.

    Each image carries the plane-wave phase of its own unwrapped argument,
    which keeps the sum exactly periodic for any real momentum.
    """
    out = np.zeros_like(theta, dtype=complex)
    for w in range(-6, 7):
        u = theta - center + TWO_PI * w
        out += np.exp(-(u ** 2) / (4.0 * width ** 2) + 1j * momentum * u)
    return out


def _ring_sectors(factor):
    """How a ring factor splits into character sectors: (betas, basis).

    The split is ``factors.character_sectors``: a character is one sector
    with no basis, a matrix factor the Schur basis of its generator (its
    columns map sector components back to the value space), with
    eigenphases on the branch (-pi, pi].
    """
    group = getattr(factor, "group_id", type(factor).__name__)
    if group != ("ring",):
        raise ConfigError("a ring grid takes a ring character or ring matrix "
                          f"factor, not a factor on {group}",
                          field_path="$.factor.type")
    phases, basis = character_sectors(factor)
    return phases[0], basis


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
        space = RingGrid()
    arr = np.asarray(data, dtype=complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    require_power_of_two(arr.shape[1])
    betas, basis = _ring_sectors(factor)
    if arr.shape[0] != len(betas):
        raise ConfigError(f"the factor twists {len(betas)} component(s); the "
                          f"data has {arr.shape[0]}",
                          field_path="$.initial_state.type")
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


SECTOR_TOL = 1e-10


def make_two_particle_state(values, sector, space=None):
    """Two-particle torus state in a declared exchange sector (+1 or -1);
    data outside that sector raise ``PhysicsError``."""
    if space is None:
        space = PairGrid()
    arr = np.asarray(values, dtype=complex)
    twist = Character.exchange(2, sector)
    state = WaveGrid(space=space, values=arr, twist=twist).normalized()
    if state.twist_residual() > SECTOR_TOL * max_abs(state.values):
        raise PhysicsError(
            f"initial data violates the declared exchange sector "
            f"(residual {state.twist_residual():.2e})")
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

def _sector_potential(state, potential):
    """Potential term of the gauge-fixed equation, in the sector basis.

    Returns ("none", None), ("scalar", real field on the state grid),
    ("diagonal", (k, n) real field: each sector's own field) or
    ("matrix", (n, k, k)).  A matrix or covariant field that commutes with
    a non-degenerate factor keeps each character sector (Schur), so in the
    sector basis it is its real diagonal up to the rounding of the
    rotation; it is then returned as "diagonal", and the sectors decouple.
    """
    if potential.is_zero:
        return ("none", None)
    if potential.kind == "scalar" or state.sector_betas is None:
        # a state without twist sectors steps its space's scalar fields only
        grid = state.values.shape[-state.space.dims:]
        if potential.kind != "scalar" or potential.values.shape != grid:
            raise ConfigError("the potential is not a scalar field on the "
                              "state's grid", field_path="$.potential.type")
        return ("scalar", state.space.scalar_potential(
            np.asarray(potential.values, dtype=float)))
    v = _sector_field(state, potential)
    k = state.n_components
    diag = np.diagonal(v, axis1=1, axis2=2).real
    off = v - diag[:, :, None] * np.eye(k)
    # A rounding bound, not a tolerance, read off the rotation B into the
    # sector basis: for a field that keeps the sectors, B^H V B leaves
    # |B^H B - I| max|v| off the diagonal from B's departure from
    # unitarity, plus 2 k eps max|v| from the rounding of the rotation's
    # two k-term products.  Over the spinor-evolve workload's drawn fields
    # (seeds 1-10, 490 axes and angles) the remainder reaches 0.76 of it.
    # A field above the bound keeps the full matrix kick, as a field that
    # passes the gate only to COMMUTE_TOL (an off-diagonal of 1e-12, say)
    # must.
    basis = state.sector_basis
    drift = 0.0 if basis is None else unitarity_residual(basis)
    if max_abs(off) <= (drift + 2 * k * np.finfo(float).eps) * max_abs(v):
        return ("diagonal", np.ascontiguousarray(diag.T))
    return ("matrix", v)


def _sector_field(state, potential):
    """A matrix or covariant field as (n, k, k) in the state's sector basis."""
    v = np.asarray(potential.values, dtype=complex)
    if v.shape != (state.n_points, state.n_components, state.n_components):
        raise ConfigError("matrix potential shape does not match the state",
                          field_path="$.potential.matrix")
    if state.sector_basis is not None:
        v = np.einsum("ab,nbc,cd->nad",
                      state.sector_basis.conj().T, v, state.sector_basis)
    return v


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
    if potential.values.shape[1:] != (factor.dim, factor.dim):
        raise ConfigError(f"{potential.kind} field dimension does not match "
                          "factor", field_path="$.potential.matrix")
    if potential.kind == "covariant":
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
    """Kinetic wavenumbers in FFT order: (k, n) for a ring state,
    (n + beta / 2 pi) / radius per sector, and (n,) for a pair, n / radius.
    A layout whose wavenumbers overflow when squared (a NaN kinetic phase)
    is refused at the radius if n / radius does, else at the factor."""
    modes = fourier_modes(state.n_points)
    with np.errstate(over="ignore"):
        plain = modes / state.radius
        k = plain if state.sector_betas is None else (
            modes[None, :] + state.sector_betas[:, None] / TWO_PI) / state.radius
        for where, wavenumbers in (("$.space.radius", plain), ("$.factor", k)):
            if not np.isfinite(np.max(np.abs(wavenumbers)) ** 2):
                raise ConfigError("the kinetic wavenumbers overflow when "
                                  "squared", field_path=where)
    return k


def _kinetic_phase(state, dt):
    # |k|^2 on the d angle axes: the sum of the squares on each axis
    k2 = functools.reduce(np.add.outer, [_wavenumbers(state) ** 2] * state.space.dims)
    return np.exp(-0.5j * dt * k2)


def _potential_half_phase(kind, data, dt):
    """exp(-i dt V / 2): a field on the grid (one per sector for a diagonal
    field), or for a matrix potential the (k, k, n) array of pointwise
    unitaries, sector-major so that the kick's sum runs over contiguous
    grid rows."""
    if kind == "none":
        return None
    if kind in ("scalar", "diagonal"):
        return np.exp(-0.5j * dt * data)
    eigvals, eigvecs = np.linalg.eigh(data)
    phase = np.exp(-0.5j * dt * eigvals)
    pointwise = np.einsum("nab,nb,ncb->nac", eigvecs, phase, eigvecs.conj())
    return np.ascontiguousarray(np.moveaxis(pointwise, 0, -1))


# states of at most this many complex values step by one stored dense
# unitary.  One step, the aligned vector-matrix product against the FFT
# step (one BLAS thread, median of 7 rounds): 1.6 against 13 us at 64
# values, 4.5 against 16 us at 128 (the FFT step's cost is mostly per-call
# overhead there), 18 against 21 us at 256, and 185 against 30 us at 512
DENSE_STEP_MAX = 128

# the dense step's unitary starts on a cache line: OpenBLAS's zgemv on a
# 128 x 128 unitary 16 bytes off that alignment takes about 5.1 us a step
# against 4.5 us aligned (23 us against 18 us at 256 values), with the
# same bits at every offset; the vector's offset makes no difference
_ALIGN = 64


def _aligned_empty(shape):
    """An uninitialized C-contiguous complex array whose data start on an
    ``_ALIGN``-byte boundary: a slice of an over-allocated byte buffer."""
    nbytes = math.prod(shape) * np.dtype(complex).itemsize
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + nbytes].view(complex).reshape(shape)


class SplitStep:
    """The set-up of one V/2 - T - V/2 step for a state layout, a potential
    and dt: the gate verdict, the kinetic multiplier, the half-potential
    phase and the FFT pair.  A scalar or diagonal half-kick is one
    broadcast multiply, by an (n,) or a (k, n) phase; a matrix half-kick is
    k^2 broadcast multiply-adds over the sector-major (k, k, n) phase (see
    ``_half_kick``).  Building it raises
    ``IncompatibleFactorError`` when the factor does not commute with the
    potential, before anything else is built.  Of the layout it was built
    for, only ``shape`` can change on a state that carries it.

    ``apply`` allocates only the first half-kick's output (a copy when there
    is no potential) and works on it in place from there: ``fft`` and
    ``ifft`` transform their argument in place, axis by axis (the last axis
    on the ring; the last, then the second last on the torus, the order of
    ``np.fft.fft2`` itself), and the kinetic multiply and a scalar or
    diagonal second kick write into it.  Every multiply keeps its operand
    order (phase * values for the kinetic term, values * phase for a kick):
    numpy's complex product is not commutative bit for bit.  The torus
    does not use ``np.fft.ifft2(..., out=)``, which numpy 2.4 accepts but
    ignores, leaving the array untransformed.

    ``path`` is how ``evolve`` steps the layout.  "dense", at most
    ``DENSE_STEP_MAX`` values: ``matrix`` is the whole step as one (size,
    size) unitary on an ``_ALIGN``-byte boundary, where BLAS reads it
    fastest, built on first access; its row j is ``apply`` of the j-th unit
    vector.  "spectral", a larger layout whose none, scalar or diagonal
    half-kick phase h0 is bit for bit the same at every grid point of each
    sector: H is diagonal in the twisted Fourier basis, and the step is one
    Fourier ``multiplier``, (kinetic * h0) * h0, which ``evolve`` raises to
    the step count.  "fft", any other: ``apply``.
    """

    def __init__(self, state, potential, dt):
        _require_commutes(state.twist, potential)
        self.potential = potential  # held, so its id is not reused
        self.dt = dt
        self.shape = state.values.shape
        self.kind, data = _sector_potential(state, potential)
        self.half_v = _potential_half_phase(self.kind, data, dt)
        self.kinetic = _kinetic_phase(state, dt)
        self._axes = tuple(range(-1, -1 - state.space.dims, -1))
        self.multiplier = None
        if math.prod(self.shape) <= DENSE_STEP_MAX:
            self.path = "dense"
            return
        if self.kind == "none":
            self.multiplier = self.kinetic
        elif self.kind != "matrix":
            h0 = self.half_v[(...,) + (slice(0, 1),) * len(self._axes)]
            if np.all(self.half_v == h0):
                self.multiplier = (self.kinetic * h0) * h0
        self.path = "fft" if self.multiplier is None else "spectral"

    @functools.cached_property
    def matrix(self):
        if self.path != "dense":
            return None
        size = math.prod(self.shape)
        basis = np.eye(size, dtype=complex).reshape((size,) + self.shape)
        matrix = _aligned_empty((size, size))
        matrix[...] = self.apply(basis).reshape(size, size)
        return matrix

    def fft(self, values):
        """The forward transform of ``values``, in place; returns it."""
        for axis in self._axes:
            np.fft.fft(values, axis=axis, out=values)
        return values

    def ifft(self, values):
        """The inverse transform of ``values``, in place; returns it."""
        for axis in self._axes:
            np.fft.ifft(values, axis=axis, out=values)
        return values

    def _half_kick(self, values, in_place=False):
        """exp(-i dt V / 2) on ``values`` (any leading batch axes): a new
        array, or for ``in_place`` and a kind other than matrix, ``values``
        itself written over.

        A matrix kick is the sum over the k sector columns b of the
        broadcast product half_v[:, b] * values[..., b, :], accumulated in
        place: k^2 multiply-adds per grid point."""
        if self.kind == "none":
            return values if in_place else np.array(values, dtype=complex)
        if self.kind in ("scalar", "diagonal"):
            if in_place:
                return np.multiply(values, self.half_v, out=values)
            return values * self.half_v
        out = self.half_v[:, 0] * values[..., 0:1, :]
        for b in range(1, self.half_v.shape[1]):
            out += self.half_v[:, b] * values[..., b:b + 1, :]
        return out

    def apply(self, values):
        """One step of ``values``: the state's shape, after any leading
        batch axes.  Returns a new array; ``values`` is not written."""
        v = self._half_kick(values)
        self.ifft(np.multiply(self.kinetic, self.fft(v), out=v))
        return self._half_kick(v, in_place=True)


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

    The set-up's ``path``, fixed by the layout and the field, picks the
    loop, so every step of a run, chunked or not, is the same operation.
    The dense path multiplies a copy of the flattened values by the
    unitary with ``ndarray.dot(..., out=)``, into a spare buffer and back
    (``flat @ matrix``'s bits, without ``np.dot``'s dispatch or a new
    array).  The spectral path takes a spectrum and a step count from the
    state's memo (``_spectrum``, ``_spectrum_steps``) when the call reuses
    the state's own set-up, and otherwise the forward transform of a copy
    of the values and 0.  It multiplies that spectrum, out of place, by
    multiplier**total, total = count + n_steps, by square-and-multiply
    (about 2 log2(total) multiplies), and returns the inverse transform;
    the result carries the same spectrum and total, so a run in chunks has
    the bits of one call.  The fft path steps by ``apply``.
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
    spectrum, total = None, 0
    if step.path == "dense":
        matrix = step.matrix
        flat = values.reshape(-1).copy()
        spare = np.empty_like(flat)
        for _ in range(n_steps):
            flat.dot(matrix, out=spare)
            flat, spare = spare, flat
        values = flat.reshape(values.shape)
    elif step.path == "spectral":
        if step is state._split_step and state._spectrum is not None:
            spectrum, total = state._spectrum, state._spectrum_steps
        else:
            spectrum = step.fft(values.copy())
        total += int(n_steps)
        # low bit first: power is multiplier**(2**bit) at each bit; every
        # product is a new array, so neither the memo nor the set-up is
        # written
        power, stepped = step.multiplier, spectrum
        for bit in range(total.bit_length()):
            if bit:
                power = power * power
            if total >> bit & 1:
                stepped = power * stepped
        values = step.ifft(stepped)
    else:
        for _ in range(n_steps):
            values = step.apply(values)
    out = replace(state, values=values)
    object.__setattr__(out, "_split_step", step)
    object.__setattr__(out, "_spectrum", spectrum)
    object.__setattr__(out, "_spectrum_steps", total)
    return out


def require_step_count(n_steps):
    """Refuse a step count that is negative or not an integer, which a
    stepping loop would otherwise run as no steps or fail on as a bare
    TypeError."""
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise ConfigError("n_steps must be a nonnegative integer")


def step_ratio(t_final, dt):
    """t_final / dt, refused when no float holds it (1e300 / 1e-300)."""
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise ConfigError(f"t_final / dt is {ratio}: no step count is that "
                          "large", field_path="$.numerics.t_final")
    return ratio


def whole_steps(t_final, dt):
    """The number of dt steps that make up t_final, refused unless it is
    whole to a relative 1e-9, and refused for a positive t_final that
    rounds to no step: a run never stops short of or past t_final."""
    n_steps = int(round(step_ratio(t_final, dt)))
    if (abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final)
            or n_steps == 0 < t_final):
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


def _require_scalar_ring(state):
    if not state.is_scalar:
        raise ConfigError("the flux gauge handles scalar ring states")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def _hamiltonian_blocks(layout, potential):
    """The Hermitian blocks of a ring layout's grid Hamiltonian: (k, n, n),
    each sector's kinetic block (half its squared ``_wavenumbers`` applied
    in Fourier space) plus its own field, when the field keeps each sector;
    else (1, k n, k n), the field on the point diagonals of every sector
    block.  The field is read by the split step's ``_sector_potential``;
    the values of ``layout`` are not read.
    """
    n, k = layout.n_points, layout.n_components
    f_eye = np.fft.fft(np.eye(n, dtype=complex), axis=0)
    kinetic = np.fft.ifft(0.5 * _wavenumbers(layout)[:, :, None] ** 2 * f_eye,
                          axis=1)
    kind, data = _sector_potential(layout, potential)
    points = np.arange(n)
    if kind != "matrix":
        if kind != "none":  # a scalar field (n,) is every sector's own
            kinetic[:, points, points] += data
        return kinetic
    sectors = np.arange(k)
    h = np.zeros((k, n, k, n), dtype=complex)
    h[sectors, :, sectors, :] = kinetic
    h[:, points, :, points] += data
    return h.reshape(1, k * n, k * n)


# a dense complex (n, n) block takes 256 MiB at this n, 1 GiB at twice it
SPECTRUM_MAX_POINTS = 2 ** 12


def spectrum(factor, potential=None, n_levels=8,
             n_points=DEFAULT_N_POINTS, radius=1.0):
    """Lowest eigenvalues of the discretized twisted Hamiltonian.

    ``factor`` is a ring Character or a ring MatrixRep; a flux is the
    Character of its unreduced angle -e flux.  The operator is the one that
    ``evolve`` steps: the pair passes the split step's gate (else
    ``IncompatibleFactorError``), the factor splits into the sectors that
    ``twist_embed`` lays out, and the field is read in those sectors by
    ``_sector_potential``.  Each of the blocks that the operator splits
    into (``_hamiltonian_blocks``: one per sector when the field keeps each
    sector, else one) gives its lowest n_levels eigenvalues, and the lowest
    n_levels of their union are returned.  Levels are ascending.  With V = 0
    they are ((n + beta / 2 pi) / radius)^2 / 2.  n_points above
    SPECTRUM_MAX_POINTS is refused.
    """
    # local import: runs that solve no eigenproblem skip scipy's ~0.25 s load
    import scipy.linalg

    if n_points > SPECTRUM_MAX_POINTS:
        raise ConfigError(f"the spectrum's dense (n, n) blocks hold at most "
                          f"{SPECTRUM_MAX_POINTS} points, not {n_points}",
                          field_path="$.space.n_points")
    if not 1 <= n_levels <= n_points // 4:
        raise ConfigError("n_levels must be at least 1 and not exceed "
                          "n_points / 4", field_path="$.numerics.n_levels")
    if potential is None:
        potential = Potential.zero()
    _require_commutes(factor, potential)
    betas, basis = _ring_sectors(factor)
    layout = WaveGrid(space=RingGrid(radius=radius),
                      values=np.zeros((len(betas), n_points)), twist=factor,
                      sector_betas=betas, sector_basis=basis)
    levels = []
    for h in _hamiltonian_blocks(layout, potential):
        herm = max_abs(h - h.conj().T)
        if not herm <= 1e-10:           # a NaN entry fails too
            raise ToleranceError("hamiltonian-hermiticity", herm, 1e-10)
        levels.append(scipy.linalg.eigh((h + h.conj().T) / 2.0,
                                        eigvals_only=True,
                                        subset_by_index=[0, n_levels - 1]))
    return np.sort(np.concatenate(levels))[:n_levels]


# ---------------------------------------------------------------------------
# state serialization
# ---------------------------------------------------------------------------

def _twist_to_dict(twist):
    if isinstance(twist, Character):
        if twist.group_id[0] == "ring":
            return {"type": "character", "group": "ring", "beta": twist.beta}
        if twist.group_id[0] == "sym":
            return {"type": "exchange", "n": twist.group_id[1],
                    "sign": twist.sign}
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
        gens = [complex_matrix_from_pairs(g) for g in d["generators"]]
        return MatrixRep(group_id=tuple(d["group"]), generators=tuple(gens))
    raise ConfigError(f"unknown twist type {d['type']!r}")


def _complex_matrix_to_pairs(m):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def complex_matrix_from_pairs(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])



def state_to_dict(state):
    """Versioned, binary-free JSON layout for a WaveGrid."""
    d = {
        "schema": STATE_SCHEMA,
        "space": {
            "kind": state.space.kind,
            "radius": state.space.radius,
        },
        "units": {"hbar": 1.0, "mass": 1.0, "charge": 1.0},
        "n_points": state.n_points,
        "twist": _twist_to_dict(state.twist),
        "components": _complex_matrix_to_pairs(state.values),
    }
    if state.sector_betas is not None:
        d["sector_betas"] = [float(b) for b in state.sector_betas]
    if state.sector_basis is not None:
        d["sector_basis"] = _complex_matrix_to_pairs(state.sector_basis)
    return d


def state_from_dict(d):
    if d.get("schema") != STATE_SCHEMA:
        raise ConfigError(f"unknown state schema {d.get('schema')!r}")
    sp = d["space"]
    basis = d.get("sector_basis")
    if basis is not None:
        basis = complex_matrix_from_pairs(basis)
    return WaveGrid(space=grid_space(sp["kind"], radius=sp["radius"]),
                    values=complex_matrix_from_pairs(d["components"]),
                    twist=_twist_from_dict(d["twist"]),
                    sector_betas=d.get("sector_betas"), sector_basis=basis)
