"""Which topological factors are compatible with which potentials?

Characters (unit scalars) commute with everything.  A genuinely
matrix-valued factor survives only when it commutes with the potential at
every point; once the potential field generates the full matrix algebra,
nothing but characters remains.  The classifier below reports the dynamics
class and the dimension of the algebra its field generates.
"""

import numpy as np

from topobohm import (
    Character,
    MatrixRep,
    abelianization,
    classify_dynamics,
    decompose_by_character,
    enumerate_characters,
    symmetric_relators,
)
from topobohm.scenario import PAULI, spin_exponential

rng = np.random.default_rng(1)


def show(name, factor, samples):
    verdict = classify_dynamics(factor, samples)
    print(f"  {name:38s} -> {verdict.label:12s} "
          f"(span {verdict.span_dim}, full={verdict.spans_full_algebra})")


print("classification against a scalar potential sample:")
scalar_v = [0.3 * np.eye(2)]
show("trivial character", Character.ring(0.0), [np.eye(1) * 0.3])
show("half-turn character", Character.ring(np.pi), [np.eye(1) * 0.3])
show("magnetic-moment factor exp(-i phi e.s)",
     MatrixRep.ring(spin_exponential(0.7, [0, 0, 1])), scalar_v)

print("\nclassification against structured matrix potentials:")
show("same factor vs commuting sigma_z",
     MatrixRep.ring(spin_exponential(0.7, [0, 0, 1])), [PAULI["z"]])
show("same factor vs sigma_x",
     MatrixRep.ring(spin_exponential(0.7, [0, 0, 1])), [PAULI["x"]])
random_potentials = []
for _ in range(2):
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    random_potentials.append(h + h.conj().T)
show("same factor vs generic potentials",
     MatrixRep.ring(spin_exponential(0.7, [0, 0, 1])), random_potentials)
# a whole field: sigma_z at 63 of 64 points and sigma_x at one of them
whole_field = np.broadcast_to(PAULI["z"], (64, 2, 2)).copy()
whole_field[1] = PAULI["x"]
show("whole field: sigma_z, sigma_x at 1 pt",
     MatrixRep.ring(spin_exponential(0.7, [0, 0, 1])), whole_field)

print("\na commuting matrix factor splits into character sectors:")
rep = MatrixRep.ring(spin_exponential(0.8, [1, 0, 0]))
for character, basis in decompose_by_character(rep):
    print(f"  sector beta = {character.beta:+.3f}, dim {basis.shape[1]}")

print("\ncharacters of the exchange group, from its Coxeter presentation:")
for n in (3, 4, 5, 6):
    relators = symmetric_relators(n)
    _, (order,) = abelianization(n - 1, relators)
    chars = enumerate_characters(n - 1, relators)
    kinds = ["trivial" if c.is_trivial else "sign" for c in chars]
    print(f"  S_{n}: H_1 = Z/{order}, {len(chars)} characters "
          f"({', '.join(sorted(kinds))}) -> the Bose and Fermi alternatives")
