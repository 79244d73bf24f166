"""Energy levels of a particle on a ring with twisted boundary conditions.

The wave function picks up a phase exp(i beta) per full turn.  The kinetic
spectrum is ((n + beta / 2 pi))^2 / 2, so the levels trace parabolas as the
twist angle sweeps, and a full flux quantum (beta -> beta + 2 pi) maps the
spectrum onto itself.  A flux through the ring is the twist exp(-i e flux):
the character of the unreduced angle -e flux.
"""

import numpy as np

from topobohm import Character, Potential, spectrum

betas = np.linspace(-2 * np.pi, 2 * np.pi, 41)
levels = np.array([spectrum(Character.ring(b), Potential.zero(),
                            n_levels=6, n_points=128) for b in betas])

print("twist angle beta -> lowest levels")
for b in (0.0, np.pi / 2, np.pi):
    lv = spectrum(Character.ring(b), Potential.zero(), n_levels=6, n_points=128)
    print(f"  beta = {b:5.3f}: " + "  ".join(f"{e:.4f}" for e in lv))

print("\nbeta = pi has a doubly degenerate ground level at 1/8 "
      "(half-integer momenta).")

flux_spec = spectrum(Character.ring(-np.pi), Potential.zero(), n_levels=6)
twist_spec = spectrum(Character.ring(np.pi), Potential.zero(), n_levels=6)
print("\nflux pi vs twist pi, level by level:")
print("  flux  :", "  ".join(f"{e:.6f}" for e in flux_spec))
print("  twist :", "  ".join(f"{e:.6f}" for e in twist_spec))

shifted = spectrum(Character.ring(-(1.0 + 2 * np.pi)), Potential.zero(),
                   n_levels=6)
base = spectrum(Character.ring(-1.0), Potential.zero(), n_levels=6)
print(f"\nflux periodicity: max |E(flux) - E(flux + 2 pi)| = "
      f"{np.max(np.abs(base - shifted)):.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for i in range(levels.shape[1]):
        ax.plot(betas / np.pi, levels[:, i], lw=1.2)
    ax.set_xlabel(r"twist angle $\beta/\pi$")
    ax.set_ylabel("energy")
    ax.set_title("Ring spectrum vs boundary twist")
    fig.tight_layout()
    fig.savefig("twisted_ring_spectra.png", dpi=120)
    print("\nwrote twisted_ring_spectra.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
