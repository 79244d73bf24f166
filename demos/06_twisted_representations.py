"""The N-fermion deck group and its holonomy-twisted factor.

For N indistinguishable particles whose one-particle base has a free
fundamental group, deck elements are pairs (permutation, word tuple) with a
semidirect product.  The topological factor sgn(p) (x) Gamma_w1 (x) ... is
not a representation: composition holds only up to conjugation by the
bundle holonomy (slot permutations), and the script verifies that law on
every deck element within three letters of the identity, against every
generator.
"""

import numpy as np

from topobohm import (
    FreeWord,
    Permutation,
    SemidirectElement,
    TwistedRepTable,
    deck_compose,
    verify_twisted_law,
)
from topobohm.factors import random_unitary

rng = np.random.default_rng(7)

# semidirect algebra on 2 particles, one generator word group
swap = Permutation.swap(2, 0, 1)
a1 = FreeWord.generator(0, 1)
eps = FreeWord.identity(1)
s1 = SemidirectElement(swap, (a1, eps))
s2 = SemidirectElement(swap, (eps, eps))
print("semidirect product:")
print(f"  (swap,(a1,e)) * (swap,(e,e)) = {deck_compose(s1, s2)}")

u = random_unitary(2, rng)
table = TwistedRepTable.nfermion(2, 2, [u])
print("\nfactors at a tagged configuration (dim W = 2):")
print("  pure swap      ->", np.round(table.factor(s2), 3)[0, :3],
      "... (= -identity: the exchange sign)")
word_only = SemidirectElement(Permutation.identity(2), (a1, eps))
print("  (id,(a1,e))    -> first tensor slot carries the generator matrix")

ball = list(table.space.ball)
print(f"\ntwisted composition law residual over the {len(ball)} deck elements "
      f"of the ball: {verify_twisted_law(table):.2e}")

sigma = ball[-1]
bad = table.corrupted(sigma, -table.factor(sigma))
print(f"after negating the entry of {sigma} the law breaks loudly: "
      f"{verify_twisted_law(bad):.2f}")

table3 = TwistedRepTable.nfermion(3, 2, [u])
print(f"three fermions (dim 8 fiber): residual "
      f"{verify_twisted_law(table3):.2e}")
