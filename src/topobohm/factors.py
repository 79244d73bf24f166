"""Topological factors attached to deck groups.

Three kinds of factor relate the wave function's values on different sheets
of a covering space:

* ``Character``       -- unit-modulus phases, one per deck element, obeying
                         gamma(s t) = gamma(s) gamma(t).  Compatible with
                         every potential.
* ``MatrixRep``       -- a unitary representation of the deck group on a
                         k-dimensional value space.  Defines a dynamics only
                         when it commutes with the potential everywhere.
* ``TwistedRepTable`` -- a holonomy-twisted table obeying
                         G(s1 s2) = h(s2) G(s1) h(s2)^-1 G(s2),
                         covering the N-fermion semidirect construction.

The module also houses the executable classifier (trivial / character /
matrix-compatible / incompatible), which reports the dimension of the
algebra the whole potential field generates: once that is the full matrix
algebra, only characters commute with it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .covering import (
    CoveringSpace,
    Permutation,
    SemidirectElement,
    Winding,
    deck_compose,
)
from .errors import ConfigError, NonUnimodularFactorError

UNIT_MODULUS_TOL = 1e-12
UNITARITY_TOL = 1e-12
RELATION_TOL = 1e-12
COMMUTE_TOL = 1e-10
# largest off-diagonal of a Schur form that ``unitary_eig`` takes as normal
NORMAL_TOL = 1e-9
HERMITIAN_TOL = 1e-12
SPAN_SINGULAR_VALUE_CUT = 1e-8
# ratio of the weights in the generator sum that character_sectors splits:
# modulus below one and the golden angle, so no simple relation between the
# generators' phases makes two joint eigenspaces share an eigenvalue
SECTOR_WEIGHT = 0.7 * np.exp(1j * math.pi * (3.0 - math.sqrt(5.0)))

NFERMION_TENSOR_DIM_CAP = 27


def max_abs(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def worse(worst, residual):
    """The larger of two residuals, NaN when either is NaN: the fold of
    every worst-residual loop.  ``max(0.0, nan)`` is 0.0, so a plain
    ``max`` fold would report a NaN residual as clean."""
    return float(np.maximum(worst, residual))


def unitarity_residual(u):
    u = np.asarray(u)
    return max_abs(u.conj().T @ u - np.eye(u.shape[0]))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """Unit-modulus multiplicative factor on a deck group.

    Payload by group:
      ring      -- a real twist angle ``beta``; winding k maps to exp(i k beta)
      sym       -- parity exponent 0 (trivial) or 1 (alternating)
      free      -- one unit phase per generator
      nfermion  -- parity exponent plus shared per-generator phases
    """

    group_id: tuple
    beta: float = 0.0
    parity_exponent: int = 0
    generator_phases: tuple = ()

    @classmethod
    def ring(cls, beta):
        return cls(group_id=("ring",), beta=float(beta))

    @classmethod
    def exchange(cls, n, sign):
        if sign not in (+1, -1):
            raise ConfigError("exchange character sign must be +1 or -1")
        return cls(group_id=("sym", n), parity_exponent=0 if sign == 1 else 1)

    @classmethod
    def free(cls, phases):
        phases = tuple(complex(p) for p in phases)
        for p in phases:
            _require_unimodular(p)
        return cls(group_id=("free", len(phases)), generator_phases=phases)

    @classmethod
    def nfermion(cls, n, phases, sign=-1):
        phases = tuple(complex(p) for p in phases)
        for p in phases:
            _require_unimodular(p)
        return cls(group_id=("nfermion", n, len(phases)),
                   parity_exponent=0 if sign == 1 else 1,
                   generator_phases=phases)

    @property
    def dim(self):
        return 1

    @property
    def sign(self):
        """The exchange sign, +1 or -1: ``exchange(n, c.sign) == c``."""
        return 1 if self.parity_exponent == 0 else -1

    @property
    def is_trivial(self):
        kind = self.group_id[0]
        if kind == "ring":
            return abs(_principal_angle(self.beta)) < 1e-15
        if kind == "sym":
            return self.parity_exponent == 0
        if kind == "free":
            return all(abs(p - 1) < 1e-15 for p in self.generator_phases)
        return self.parity_exponent == 0 and all(
            abs(p - 1) < 1e-15 for p in self.generator_phases)

    def value(self, sigma):
        """Evaluate on a deck element through the homomorphism property."""
        kind = self.group_id[0]
        if kind == "ring":
            if not isinstance(sigma, Winding):
                raise TypeError("ring character evaluates on windings")
            return complex(np.exp(1j * sigma.k * self.beta))
        if sigma.group_id != self.group_id:
            raise TypeError(f"character on {self.group_id} cannot evaluate a "
                            f"deck element of {sigma.group_id}")
        if kind == "sym":
            return complex(sigma.sign ** self.parity_exponent)
        if kind == "free":
            return self._word_value(sigma)
        out = complex(sigma.perm.sign ** self.parity_exponent)
        for word in sigma.words:
            out *= self._word_value(word)
        return out

    def _word_value(self, word):
        out = 1.0 + 0.0j
        for gen, exp in word.syllables:
            out *= self.generator_phases[gen] ** exp
        return complex(out)


def _principal_angle(beta):
    return math.remainder(beta, 2.0 * math.pi)


def _require_unimodular(value):
    if abs(abs(value) - 1.0) > UNIT_MODULUS_TOL:
        raise NonUnimodularFactorError(
            f"factor value {value!r} has modulus {abs(value):.12f}; values off "
            "the unit circle admit no equivariant |psi|^2 distribution (the "
            "sheet-summed density diverges) and are rejected"
        )


# ---------------------------------------------------------------------------
# finite groups and character enumeration
# ---------------------------------------------------------------------------

class FiniteGroup:
    """Explicitly presented finite group, its order capped at ``ORDER_CAP``.

    ``enumerate_characters`` censuses the characters of any group up to the
    cap from its greedy generators (S_7, 5,040 elements, in about 0.2 s).
    """

    ORDER_CAP = 10_000

    def __init__(self, elements, compose, name="group"):
        self.elements = list(elements)
        if len(self.elements) > self.ORDER_CAP:
            raise ConfigError(
                f"group order {len(self.elements)} exceeds cap {self.ORDER_CAP}")
        self.compose = compose
        self.name = name
        self.identity = self._find_identity()

    @classmethod
    def symmetric(cls, n):
        if math.factorial(n) > cls.ORDER_CAP:
            raise ConfigError(f"S_{n} exceeds the order cap")
        elements = [tuple(p) for p in itertools.permutations(range(n))]

        def compose(p, q):
            return tuple(p[q[i]] for i in range(n))

        return cls(elements, compose, name=f"S{n}")

    @classmethod
    def cyclic(cls, n):
        return cls(list(range(n)), lambda a, b: (a + b) % n, name=f"Z{n}")

    def __len__(self):
        return len(self.elements)

    def _find_identity(self):
        probe = self.elements[0]
        for e in self.elements:
            if self.compose(e, probe) == probe and self.compose(probe, e) == probe:
                return e
        raise ConfigError("group has no identity element")

    def subgroup_closure(self, seed_elements):
        members = {self.identity}
        frontier = [self.identity]
        seeds = list(seed_elements)
        for s in seeds:
            if s not in members:
                members.add(s)
                frontier.append(s)
        while frontier:
            g = frontier.pop()
            for s in seeds:
                for h in (self.compose(g, s), self.compose(s, g)):
                    if h not in members:
                        members.add(h)
                        frontier.append(h)
        return members

    def generating_set(self):
        """Greedy small generating set."""
        gens = []
        generated = {self.identity}
        for g in self.elements:
            if g not in generated:
                gens.append(g)
                generated = self.subgroup_closure(gens)
                if len(generated) == len(self.elements):
                    break
        return gens


class FiniteGroupCharacter:
    """Homomorphism from a finite group into the unit circle, as a table."""

    def __init__(self, group, table):
        self.group = group
        self.table = dict(table)

    def value(self, g):
        return self.table[g]

    @property
    def is_trivial(self):
        return all(abs(v - 1) < 1e-12 for v in self.table.values())

    def homomorphism_residual(self):
        worst = 0.0
        for a in self.group.elements:
            for b in self.group.elements:
                worst = worse(worst, abs(self.table[self.group.compose(a, b)]
                                         - self.table[a] * self.table[b]))
        return worst

    def __repr__(self):
        kind = "trivial" if self.is_trivial else "nontrivial"
        return f"FiniteGroupCharacter({self.group.name}, {kind})"


def character_table(group):
    """JSON-ready character table of a finite group."""
    chars = enumerate_characters(group)
    elements = [repr(g) for g in group.elements]
    rows = []
    for i, c in enumerate(chars):
        rows.append({
            "index": i,
            "trivial": bool(c.is_trivial),
            "values": [[float(np.real(c.value(g))), float(np.imag(c.value(g)))]
                       for g in group.elements],
        })
    return {"group": group.name, "order": len(group),
            "elements": elements, "characters": rows}


def enumerate_characters(group):
    """All homomorphisms of a finite group into the unit circle.

    A character is fixed by its values on generators, and it sends a
    generator g to an ord(g)-th root of unity.  The census tries those roots
    on the greedy generators of ``FiniteGroup.generating_set`` and propagates
    each assignment over the Cayley graph, which rejects every one that is
    not a homomorphism (such as +-i on a rotation of order 4 in the dihedral
    group of order 8).  Infinite groups are unsupported: the ring's
    characters form the one-parameter family beta -> exp(i k beta) and are
    handled symbolically by ``Character.ring``.
    """
    if not isinstance(group, FiniteGroup):
        raise ConfigError(
            "enumerate_characters needs a finite group; infinite deck groups "
            "carry continuous character families (use Character.ring / "
            "Character.free)")
    gens = group.generating_set()

    def order(g):
        m, acc = 1, g
        while acc != group.identity:
            acc = group.compose(acc, g)
            m += 1
        return m

    orders = [order(g) for g in gens]
    characters = []
    for exponents in itertools.product(*(range(m) for m in orders)):
        assignment = {g: np.exp(2j * np.pi * k / m)
                      for g, k, m in zip(gens, exponents, orders)}
        table = _propagate_character(group, gens, assignment)
        if table is not None:
            characters.append(FiniteGroupCharacter(group, table))
    return characters


def _propagate_character(group, gens, assignment, tol=1e-9):
    """Extend generator phases over the Cayley graph; None if inconsistent."""
    table = {group.identity: 1.0 + 0j}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        vx = table[x]
        for g in gens:
            y = group.compose(x, g)
            vy = vx * assignment[g]
            if y in table:
                if abs(table[y] - vy) > tol:
                    return None
            else:
                table[y] = vy
                frontier.append(y)
    if len(table) != len(group):
        return None
    return table


# ---------------------------------------------------------------------------
# matrix representations
# ---------------------------------------------------------------------------

@dataclass
class MatrixRep:
    """Unitary representation of a deck group given by generator matrices.

    ``generators`` holds one matrix per generator of the deck group: the
    single winding for the ring, the adjacent transpositions for the
    symmetric group, the free letters for a free cover.
    """

    group_id: tuple
    generators: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.generators)
        object.__setattr__(self, "generators", mats)
        dims = {m.shape for m in mats}
        if len(dims) != 1 or mats[0].shape[0] != mats[0].shape[1]:
            raise ConfigError("generator matrices must share one square shape")
        for m in mats:
            res = unitarity_residual(m)
            if res > UNITARITY_TOL:
                raise NonUnimodularFactorError(
                    f"generator is not unitary (residual {res:.2e}); only "
                    "unitary factors admit an equivariant density")
        self._check_relations()

    @classmethod
    def ring(cls, matrix):
        return cls(group_id=("ring",), generators=(matrix,))

    @classmethod
    def exchange(cls, n, transposition_matrices):
        return cls(group_id=("sym", n), generators=tuple(transposition_matrices))

    @classmethod
    def free(cls, matrices):
        return cls(group_id=("free", len(matrices)), generators=tuple(matrices))

    def _check_relations(self):
        if self.group_id[0] == "sym":
            n = self.group_id[1]
            if len(self.generators) != n - 1:
                raise ConfigError(f"S_{n} needs {n - 1} transposition matrices")
            eye = np.eye(self.dim)
            for i, s in enumerate(self.generators):
                if max_abs(s @ s - eye) > RELATION_TOL:
                    raise ConfigError(
                        f"transposition matrix {i} fails s^2 = 1")
            for i in range(n - 2):
                braid = self.generators[i] @ self.generators[i + 1]
                if max_abs(np.linalg.matrix_power(braid, 3) - eye) > RELATION_TOL:
                    raise ConfigError(f"braid relation fails at {i}")
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    comm = (self.generators[i] @ self.generators[j]
                            - self.generators[j] @ self.generators[i])
                    if max_abs(comm) > RELATION_TOL:
                        raise ConfigError(
                            f"distant transpositions {i},{j} must commute")
        elif self.group_id[0] == "ring":
            if len(self.generators) != 1:
                raise ConfigError("ring representation takes one generator")

    @property
    def dim(self):
        return self.generators[0].shape[0]

    @property
    def is_trivial(self):
        eye = np.eye(self.dim)
        return all(max_abs(g - eye) < 1e-12 for g in self.generators)

    @property
    def is_scalar(self):
        """True when every generator is a unit phase times the identity."""
        eye = np.eye(self.dim)
        for g in self.generators:
            phase = np.trace(g) / self.dim
            if max_abs(g - phase * eye) > 1e-12:
                return False
        return True

    def evaluate(self, sigma):
        kind = self.group_id[0]
        if kind == "ring":
            if not isinstance(sigma, Winding):
                raise TypeError("ring representation evaluates on windings")
            g = self.generators[0]
            if sigma.k >= 0:
                return np.linalg.matrix_power(g, sigma.k)
            return np.linalg.matrix_power(g.conj().T, -sigma.k)
        if sigma.group_id != self.group_id:
            raise TypeError(f"representation of {self.group_id} cannot evaluate "
                            f"a deck element of {sigma.group_id}")
        if kind == "sym":
            out = np.eye(self.dim, dtype=complex)
            for i in _adjacent_transposition_word(sigma):
                out = out @ self.generators[i]
            return out
        if kind == "free":
            out = np.eye(self.dim, dtype=complex)
            for gen, exp in sigma.syllables:
                g = self.generators[gen]
                step = g if exp > 0 else g.conj().T
                for _ in range(abs(exp)):
                    out = out @ step
            return out
        raise ConfigError(f"unsupported group for MatrixRep: {self.group_id}")

def _adjacent_transposition_word(perm):
    """Decompose a permutation into adjacent transposition indices."""
    images = list(perm.images)
    word = []
    n = len(images)
    for _ in range(n * n):
        done = True
        for i in range(n - 1):
            if images[i] > images[i + 1]:
                images[i], images[i + 1] = images[i + 1], images[i]
                word.append(i)
                done = False
        if done:
            break
    # bubble sort wrote p as (product of recorded swaps) applied to sorted;
    # the recorded sequence, reversed, multiplies out to p.
    return list(reversed(word))


def unitary_eig(u):
    """Eigen-decomposition of a (normal) unitary matrix with unitary basis."""
    # local import: a character or flux run never needs scipy's ~0.25 s load
    import scipy.linalg

    u = np.asarray(u, dtype=complex)
    t, z = scipy.linalg.schur(u, output="complex")
    off = max_abs(t - np.diag(np.diag(t)))
    if off > NORMAL_TOL:
        raise ConfigError(f"matrix is not normal (Schur off-diagonal {off:.2e})")
    return np.diag(t).copy(), z


def random_unitary(dim, rng):
    """Haar-ish random unitary via QR with phase-fixed diagonal."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# commutation gate and classifier
# ---------------------------------------------------------------------------

def check_commutes(factor, potential_samples):
    """True iff every generator factor commutes with every sampled potential.

    Samples are Hermitian k x k matrices on the factor's value space, given
    as a list or as one (m, k, k) array such as a whole potential field.
    Scalar factors (characters) commute with everything.
    """
    samples = np.asarray(potential_samples, dtype=complex)
    if len(samples) == 0:
        raise ConfigError("need at least one potential sample")
    if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
        raise ConfigError("potential samples must be square matrices")
    bad = np.nonzero(np.abs(samples - np.conj(np.swapaxes(samples, 1, 2)))
                     > HERMITIAN_TOL)[0]
    if bad.size:
        raise ConfigError(f"potential sample {bad[0]} is not Hermitian")
    if isinstance(factor, Character):
        return True
    if samples.shape[1:] != (factor.dim, factor.dim):
        raise ConfigError("potential sample dimension does not match factor")
    worst = 0.0
    for g in factor.generators:
        # g V - V g for all samples at once; tensordot runs each as one BLAS
        # product, where a stacked matmul loops over the k x k matrices
        gv = np.moveaxis(np.tensordot(g, samples, axes=(1, 1)), 0, 1)
        worst = worse(worst, max_abs(gv - np.tensordot(samples, g, axes=1)))
    return worst <= COMMUTE_TOL


def _commutant(basis):
    """Orthonormal basis of the matrices that commute with every element.

    X commutes with A iff (A kron I - I kron A^T) vec(X) = 0 for the
    row-major vec, so the commutant is the null space of those maps stacked
    over the basis.  The elements have unit norm, so the rank cut is
    absolute.
    """
    k = basis.shape[-1]
    eye = np.eye(k)
    maps = np.concatenate([np.kron(a, eye) - np.kron(eye, a.T) for a in basis])
    _, s, vh = np.linalg.svd(maps)
    return vh[int(np.sum(s > SPAN_SINGULAR_VALUE_CUT)):].reshape(-1, k, k)


def _generated_algebra_dim(field):
    """Dimension of the unital algebra generated by Hermitian matrices.

    The identity and the (m, k, k) stack are reduced to an orthonormal basis
    of their linear span (singular values above ``SPAN_SINGULAR_VALUE_CUT``
    of the largest).  That span is closed under the adjoint, so the algebra
    it generates is its bicommutant (von Neumann's double-commutant theorem,
    finite-dimensional case): two null spaces of at most k^4 x k^2 systems,
    with no word products and, past one QR of the stack, no cost in m.
    """
    k = field.shape[-1]
    rows = np.concatenate([np.eye(k).reshape(1, k * k),
                           field.reshape(len(field), k * k)])
    _, s, vh = np.linalg.svd(np.linalg.qr(rows, mode="r"), full_matrices=False)
    span = vh[s > SPAN_SINGULAR_VALUE_CUT * s[0]].reshape(-1, k, k)
    return len(_commutant(_commutant(span)))


@dataclass(frozen=True)
class Classification:
    label: str                 # "C0" | "C1" | "C2" | "incompatible"
    commutes: bool
    scalar_factor: bool
    span_dim: int
    spans_full_algebra: bool
    detail: str

def classify_dynamics(factor, field, compatible=None):
    """Sort a factor/potential pair into its dynamics class.

    C0: trivial factor (the plain dynamics on the base).
    C1: every generator a unit scalar, i.e. the factor is a character.
    C2: genuinely matrix valued and compatible with the potential.
    incompatible: the factor is not compatible with the potential.

    ``field`` is an (m, k, k) stack of Hermitian potential values: a whole
    field, or a few samples of one.  The verdict's ``commutes`` is
    ``check_commutes`` on that stack, and ``span_dim`` the dimension of the
    algebra it generates; at k^2, the full matrix algebra, only characters
    commute with it (Schur's lemma).  ``compatible`` decides the label and
    defaults to ``commutes``.  The CLI passes the split-step gate's rule,
    under which a covariant field is compatible by construction even where
    it does not commute with the factor pointwise.
    """
    field = np.asarray(field, dtype=complex)
    commutes = check_commutes(factor, field)
    if compatible is None:
        compatible = commutes
    scalar = isinstance(factor, Character) or factor.is_scalar
    span_dim = _generated_algebra_dim(field)

    def verdict(label, detail):
        return Classification(label, commutes, scalar, span_dim,
                              span_dim == field.shape[1] ** 2, detail)

    if not compatible:
        return verdict("incompatible",
                       "factor fails to commute with the whole field")
    if factor.is_trivial:
        return verdict("C0", "trivial factor: plain dynamics")
    if scalar:
        return verdict("C1", "character factor: compatible with every potential")
    if not commutes:
        return verdict("C2", "matrix factor compatible by construction with a "
                       "covariant field it does not commute with pointwise")
    return verdict("C2", "matrix factor commuting with the whole field")


# ---------------------------------------------------------------------------
# character decomposition of abelian matrix factors
# ---------------------------------------------------------------------------

def character_sectors(factor):
    """How an abelian factor splits into character sectors: (phases, basis).

    ``phases[g, j]`` is generator g's eigenphase on column j of the unitary
    ``basis``, on (-pi, pi]; the columns map sector components back to the
    value space.  A character is one sector with no basis (a ring
    character keeps its twist angle unreduced).  A one-generator matrix
    factor takes the Schur basis and eigenphases of its generator.  Several
    commuting generators take the Schur basis of the fixed combination
    sum_g SECTOR_WEIGHT^g Gamma_g, which separates their joint eigenspaces
    unless two of its eigenvalues collide; a basis that leaves any
    generator off-diagonal beyond ``COMMUTE_TOL`` raises ``ConfigError``.
    """
    kind = factor.group_id[0]
    if kind not in ("ring", "free"):
        raise ConfigError("character decomposition needs an abelian deck group")
    if isinstance(factor, Character):
        if kind == "ring":
            return np.array([[factor.beta]]), None
        return np.angle(factor.generator_phases)[:, None], None
    gens = factor.generators
    if len(gens) == 1:
        eigvals, basis = unitary_eig(gens[0])
        return np.angle(eigvals)[None], basis
    for a, b in itertools.combinations(gens, 2):
        if max_abs(a @ b - b @ a) > COMMUTE_TOL:
            raise ConfigError(
                "generators do not commute; no simultaneous character "
                "decomposition exists")
    _, basis = unitary_eig(sum(SECTOR_WEIGHT ** j * g for j, g in enumerate(gens)))
    rotated = [basis.conj().T @ g @ basis for g in gens]
    if max(max_abs(d - np.diag(np.diag(d))) for d in rotated) > COMMUTE_TOL:
        raise ConfigError("the generators' joint eigenspaces collide in the "
                          "weighted sum; no character split found")
    return np.angle([np.diag(d) for d in rotated]), basis


def decompose_by_character(factor):
    """Split a factor over an abelian deck group into character sectors.

    Returns a list of (Character, basis) pairs: the columns of
    ``character_sectors`` grouped by their generator phases rounded to 9
    decimals, in ascending order, so each basis is made of the columns that
    a state's sector layout uses, and each character carries the phases of
    its first column.  The projectors reconstruct the generators:
    sum_i gamma_sigma^(i) P_i = Gamma_sigma.  A character is its own one
    sector, with basis None.
    """
    phases, basis = character_sectors(factor)
    if basis is None:
        return [(factor, None)]
    sectors = {}
    for j, key in enumerate(map(tuple, np.round(phases.T, 9))):
        sectors.setdefault(key, []).append(j)
    out = []
    for key in sorted(sectors):
        cols = sectors[key]
        if factor.group_id[0] == "ring":
            character = Character.ring(float(phases[0, cols[0]]))
        else:
            character = Character.free(np.exp(1j * phases[:, cols[0]]))
        out.append((character, basis[:, cols].copy()))
    return out


# ---------------------------------------------------------------------------
# N-fermion factor and holonomy-twisted tables
# ---------------------------------------------------------------------------

def permutation_operator(perm, dim):
    """Natural left action of a permutation on the N-fold tensor power.

    Sends basis vector e_{i_1} x ... x e_{i_N} to the basis vector whose
    slot p(j) holds i_j (slot j of the output draws from slot p^-1(j)): the
    identity with its output axes permuted.
    """
    n, size = perm.n, dim ** perm.n
    axes = perm.inverse().images + tuple(range(n, 2 * n))
    return np.eye(size).reshape((dim,) * (2 * n)).transpose(axes).reshape(
        size, size)


def nfermion_factor(n_particles, w_dim, generator_matrices, sigma, qhat_tag=None):
    """Topological factor of the N-fermion cover at a tagged configuration:
    the entry for sigma of ``TwistedRepTable.nfermion``, in one call."""
    return TwistedRepTable.nfermion(n_particles, w_dim, generator_matrices,
                                    qhat_tag).factor(sigma)


class TwistedRepTable:
    """Holonomy-twisted factor table at a fixed base configuration.

    Provides the factor Gamma(sigma) and the holonomy h(sigma) of the loop
    associated with sigma, in one fixed fiber basis, obeying

        Gamma(s1 s2) = h(s2) Gamma(s1) h(s2)^-1 Gamma(s2).

    Ordinary representations embed with trivial holonomy.  The N-fermion
    table uses permutation operators as holonomies (the bundle transport
    permutes tensor slots) and the sign-times-tensor factor.
    """

    def __init__(self, space, factor_fn, holonomy_fn, dim, description=""):
        self.space = space
        self._factor_fn = factor_fn
        self._holonomy_fn = holonomy_fn
        self.dim = dim
        self.description = description
        self._overrides = {}

    @classmethod
    def nfermion(cls, n_particles, w_dim, generator_matrices, qhat_tag=None):
        """The N-fermion table, its generators and tag checked once.

        The factor of the deck element sigma = (p, words) is the permutation
        sign times the tensor product of the per-particle word evaluations;
        the tensor slots are ordered by sorting the base labels in
        ``qhat_tag``, and the slot holding label l evaluates the word of the
        particle that carries l in the tag (the index bookkeeping that ties
        the abstract fiber to a concrete ordered tuple).  Default tag is
        (0, 1, ..., N-1).  Each generator must be w_dim x w_dim.
        """
        dim = w_dim ** n_particles
        if dim > NFERMION_TENSOR_DIM_CAP:
            raise ConfigError(
                f"tensor dimension {dim} exceeds cap {NFERMION_TENSOR_DIM_CAP}")
        mats = tuple(generator_matrices)
        for i, g in enumerate(mats):
            if np.shape(g) != (w_dim, w_dim):
                raise ConfigError(f"a generator acts on the w_dim = {w_dim} "
                                  f"value space: it must be {w_dim} x {w_dim}",
                                  field_path=f"$.twisted.generators[{i}]")
        word_rep = MatrixRep.free(mats) if mats else None
        if qhat_tag is None:
            qhat_tag = tuple(range(n_particles))
        if len(set(qhat_tag)) != n_particles:
            raise ConfigError("tag labels must be distinct")
        slot_order = sorted(range(n_particles), key=lambda j: qhat_tag[j])
        relabel = Permutation(tuple(slot_order)).inverse()

        def factor_fn(sigma):
            if not isinstance(sigma, SemidirectElement):
                raise TypeError("expected a semidirect deck element")
            if sigma.n != n_particles:
                raise ConfigError(
                    "deck element size does not match particle count")
            factors = [word_rep.evaluate(sigma.words[j]) if word_rep else
                       np.eye(w_dim, dtype=complex) for j in slot_order]
            return sigma.perm.sign * functools.reduce(np.kron, factors)

        def holonomy_fn(sigma):
            # transport along the loop of sigma permutes the tensor slots by
            # the inverse of sigma's permutation part, expressed in the
            # slot order fixed by the tag
            p = relabel.compose(sigma.perm.inverse()).compose(relabel.inverse())
            return permutation_operator(p, w_dim)

        space = CoveringSpace.nfermion_cover(n_particles, len(mats))
        return cls(space, factor_fn, holonomy_fn, dim=dim,
                   description=f"{n_particles}-fermion twisted table")

    def factor(self, sigma):
        if sigma in self._overrides:
            return self._overrides[sigma]
        return np.asarray(self._factor_fn(sigma), dtype=complex)

    def holonomy(self, sigma):
        return np.asarray(self._holonomy_fn(sigma), dtype=complex)

    def corrupted(self, sigma, matrix):
        """Copy of the table with the entry for one deck element replaced."""
        clone = TwistedRepTable(self.space, self._factor_fn, self._holonomy_fn,
                                self.dim, self.description + " [corrupted]")
        clone._overrides = dict(self._overrides)
        clone._overrides[sigma] = np.asarray(matrix, dtype=complex)
        return clone


def verify_twisted_law(table, samples=1000, seed=0, max_word_length=4):
    """Max residual of the twisted composition law over seeded random pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        s1 = table.space.random_deck(rng, max_word_length=max_word_length)
        s2 = table.space.random_deck(rng, max_word_length=max_word_length)
        lhs = table.factor(deck_compose(s1, s2))
        h2 = table.holonomy(s2)
        rhs = h2 @ table.factor(s1) @ h2.conj().T @ table.factor(s2)
        worst = worse(worst, max_abs(lhs - rhs))
    return worst
