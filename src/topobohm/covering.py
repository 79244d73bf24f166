"""Covering spaces and their deck groups.

Supported covers:

* ``ring``          -- the circle covered by the real line; deck group is the
                       integers acting by full turns.
* ``two_particle_ring`` -- the torus of ordered angle pairs covering the space
                       of unordered pairs; deck action is coordinate exchange.
* ``free_cover``    -- an abstract base with free fundamental group F_g; deck
                       elements are reduced words.
* ``nfermion_cover`` -- N indistinguishable particles each living on a base
                       with free fundamental group; the deck group is the
                       semidirect product of the permutations with the N-fold
                       product of word groups.

The package works with deck elements only: their products, inverses and
seeded random draws for the randomized law checks.  Ring draws stay inside
a finite window of sheets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

MAX_WORD_LENGTH = 64


# ---------------------------------------------------------------------------
# deck elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Winding:
    """Deck translation of the ring cover by ``k`` full turns."""

    k: int

    @property
    def group_id(self):
        return ("ring",)

    def compose(self, other):
        return Winding(self.k + other.k)

    def inverse(self):
        return Winding(-self.k)

    @property
    def is_identity(self):
        return self.k == 0

    def __repr__(self):
        return f"Winding({self.k})"


def _perm_sign(images):
    n = len(images)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1..N}, stored 0-indexed: images[i] = p(i)."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ConfigError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(n)))

    @classmethod
    def swap(cls, n, i, j):
        images = list(range(n))
        images[i], images[j] = images[j], images[i]
        return cls(tuple(images))

    @property
    def n(self):
        return len(self.images)

    @property
    def group_id(self):
        return ("sym", self.n)

    @property
    def sign(self):
        return _perm_sign(self.images)

    @property
    def is_identity(self):
        return self.images == tuple(range(self.n))

    def __call__(self, i):
        return self.images[i]

    def compose(self, other):
        """(self * other)(i) = self(other(i))."""
        if other.n != self.n:
            raise TypeError("permutation sizes differ")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def __repr__(self):
        return f"Permutation{self.images}"


@dataclass(frozen=True)
class FreeWord:
    """Reduced word over generators a_1..a_g of a free group.

    ``syllables`` is a tuple of (generator index, nonzero integer exponent)
    with no two adjacent syllables sharing a generator.  Construction always
    reduces; words longer than ``MAX_WORD_LENGTH`` letters are rejected.
    """

    syllables: tuple
    n_generators: int

    def __post_init__(self):
        for gen, exp in self.syllables:
            if not (0 <= gen < self.n_generators):
                raise ConfigError(f"generator index {gen} out of range")
            if exp == 0:
                raise ConfigError("zero exponent in word syllable")
        for (g1, _), (g2, _) in zip(self.syllables, self.syllables[1:]):
            if g1 == g2:
                raise ConfigError("word is not reduced (adjacent equal generators)")
        if self.length > MAX_WORD_LENGTH:
            raise ConfigError(
                f"word length {self.length} exceeds cap {MAX_WORD_LENGTH}"
            )

    @classmethod
    def identity(cls, n_generators):
        return cls((), n_generators)

    @classmethod
    def generator(cls, index, n_generators, power=1):
        if power == 0:
            return cls.identity(n_generators)
        return cls(((index, power),), n_generators)

    @classmethod
    def from_letters(cls, letters, n_generators):
        """Build (and reduce) from a sequence of (generator, +-1) letters."""
        word = cls.identity(n_generators)
        for gen, exp in letters:
            word = word * cls.generator(gen, n_generators, exp)
        return word

    @property
    def group_id(self):
        return ("free", self.n_generators)

    @property
    def is_identity(self):
        return not self.syllables

    @property
    def length(self):
        return sum(abs(exp) for _, exp in self.syllables)

    def __mul__(self, other):
        if other.n_generators != self.n_generators:
            raise TypeError("free-group ranks differ")
        merged = list(self.syllables)
        for gen, exp in other.syllables:
            if merged and merged[-1][0] == gen:
                total = merged[-1][1] + exp
                if total == 0:
                    merged.pop()
                else:
                    merged[-1] = (gen, total)
            else:
                merged.append((gen, exp))
        return FreeWord(tuple(merged), self.n_generators)

    compose = __mul__

    def inverse(self):
        return FreeWord(
            tuple((gen, -exp) for gen, exp in reversed(self.syllables)),
            self.n_generators,
        )

    def __repr__(self):
        if not self.syllables:
            return "FreeWord(e)"
        body = "*".join(
            f"a{g + 1}" + (f"^{e}" if e != 1 else "") for g, e in self.syllables
        )
        return f"FreeWord({body})"


@dataclass(frozen=True)
class SemidirectElement:
    """Deck element (p, words) of the N-fermion cover.

    The product is (p1, w1)(p2, w2) = (p1 p2, (p2^-1 w1 p2) w2), where the
    conjugated tuple has slot i equal to w1's slot p2(i), and word tuples
    multiply slotwise.
    """

    perm: Permutation
    words: tuple

    def __post_init__(self):
        if len(self.words) != self.perm.n:
            raise ConfigError("word tuple length must equal permutation size")
        ranks = {w.n_generators for w in self.words}
        if len(ranks) > 1:
            raise ConfigError("mixed free-group ranks in semidirect element")

    @classmethod
    def identity(cls, n, n_generators):
        return cls(
            Permutation.identity(n),
            tuple(FreeWord.identity(n_generators) for _ in range(n)),
        )

    @property
    def n(self):
        return self.perm.n

    @property
    def n_generators(self):
        return self.words[0].n_generators

    @property
    def group_id(self):
        return ("nfermion", self.n, self.n_generators)

    @property
    def is_identity(self):
        return self.perm.is_identity and all(w.is_identity for w in self.words)

    def compose(self, other):
        if other.group_id != self.group_id:
            raise TypeError("semidirect elements from different groups")
        p2 = other.perm
        conjugated = tuple(self.words[p2(i)] for i in range(self.n))
        return SemidirectElement(
            self.perm.compose(p2),
            tuple(c * w for c, w in zip(conjugated, other.words)),
        )

    def inverse(self):
        # (p, w)^-1 = (p^-1, v) with v such that (p^-1 w p^-1-conj) v = e:
        # slot i of the conjugate of w by p^-1 is w[p^-1(i)], so
        # v[i] = (w[p^-1(i)])^-1 ... verified by compose() round trip.
        pinv = self.perm.inverse()
        words = tuple(self.words[pinv(i)].inverse() for i in range(self.n))
        return SemidirectElement(pinv, words)

    def __repr__(self):
        return f"Semidirect({self.perm.images}, {list(self.words)})"


def deck_compose(s1, s2):
    """Group product s1 * s2 of two deck elements of the same group."""
    if s1.group_id != s2.group_id:
        raise TypeError(f"mixed deck groups: {s1.group_id} vs {s2.group_id}")
    return s1.compose(s2)


# ---------------------------------------------------------------------------
# covering spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringSpace:
    """Declaration of a covering space and its window of ring sheets."""

    kind: str
    radius: float = 1.0
    sheet_window: int = 3
    n_particles: int = 1
    n_generators: int = 1

    def __post_init__(self):
        if self.kind not in ("ring", "two_particle_ring", "free_cover", "nfermion_cover"):
            raise ConfigError(f"unknown covering space kind {self.kind!r}")
        if self.sheet_window < 3:
            raise ConfigError("sheet_window must be at least 3")
        if self.radius <= 0:
            raise ConfigError("radius must be positive")

    @classmethod
    def ring(cls, radius=1.0, sheet_window=3):
        return cls(kind="ring", radius=radius, sheet_window=sheet_window)

    @classmethod
    def two_particle_ring(cls, radius=1.0, sheet_window=3):
        return cls(kind="two_particle_ring", radius=radius,
                   sheet_window=sheet_window, n_particles=2)

    @classmethod
    def free_cover(cls, n_generators, sheet_window=3):
        return cls(kind="free_cover", n_generators=n_generators,
                   sheet_window=sheet_window)

    @classmethod
    def nfermion_cover(cls, n_particles, n_generators, sheet_window=3):
        return cls(kind="nfermion_cover", n_particles=n_particles,
                   n_generators=n_generators, sheet_window=sheet_window)

    def random_deck(self, rng, max_word_length=6):
        """Seeded random deck element, used by the randomized law checks."""
        if self.kind == "ring":
            return Winding(int(rng.integers(-self.sheet_window, self.sheet_window + 1)))
        if self.kind == "two_particle_ring":
            return Permutation(tuple(rng.permutation(2)))
        if self.kind == "free_cover":
            return _random_word(rng, self.n_generators, max_word_length)
        perm = Permutation(tuple(int(i) for i in rng.permutation(self.n_particles)))
        words = tuple(_random_word(rng, self.n_generators, max_word_length)
                      for _ in range(self.n_particles))
        return SemidirectElement(perm, words)


def _random_word(rng, n_generators, max_length):
    length = int(rng.integers(0, max_length + 1))
    letters = [(int(rng.integers(0, n_generators)), int(rng.choice((-1, 1))))
               for _ in range(length)]
    return FreeWord.from_letters(letters, n_generators)
