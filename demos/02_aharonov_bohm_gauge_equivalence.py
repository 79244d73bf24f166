"""A flux through the ring versus a twisted boundary condition.

A constant vector potential A = flux / 2 pi can be gauged away at the cost
of twisting the wave function by exp(-i e flux) per turn.  In the stored
data the flux gauge is that twist with its angle -e flux left unreduced;
gauge_map reduces the angle to (-pi, pi] and moves the integer winding into
the data.  Both pictures must produce identical Bohmian trajectories and
identical spectra; this script runs them side by side.
"""

import numpy as np

from topobohm import (
    Character,
    Potential,
    gauge_map,
    integrate_trajectories,
    make_gaussian_state,
    spectrum,
    velocity_field,
)

flux, charge = np.pi, 1.0

state_flux = make_gaussian_state(Character.ring(-charge * flux), center=3.0,
                                 width=0.6, momentum=1.0)
state_twist = gauge_map(state_flux)
print(f"flux {flux:.4f} maps to twist angle beta = {state_twist.beta:+.4f} "
      f"(factor {np.exp(1j * state_twist.beta):+.3f})")

v_flux, _ = velocity_field(state_flux)
v_twist, _ = velocity_field(state_twist)
print(f"velocity fields agree to {np.max(np.abs(v_flux - v_twist)):.2e}")

print("\ntrajectories from matched starts (t = 0 .. 1):")
starts = (0.5, 2.0, 3.5, 5.0)
# one bundle per gauge: each path is the one its start would follow alone
bundle_a = integrate_trajectories(state_flux, Potential.zero(), starts, 1e-3, 1.0)
bundle_b = integrate_trajectories(state_twist, Potential.zero(), starts, 1e-3, 1.0)
# column i of a bundle's arrays is the path of start i
deviations = np.max(np.abs(bundle_a.positions - bundle_b.positions), axis=0)
for q0, final, dev in zip(starts, bundle_a.angles[-1], deviations):
    print(f"  q0 = {q0:4.1f}: final {final:.6f} (both gauges), "
          f"deviation {dev:.2e}")
print(f"worst deviation {np.max(deviations):.2e}")

spec_flux = spectrum(state_flux.twist, Potential.zero(), 8)
spec_twist = spectrum(Character.ring(state_twist.beta), Potential.zero(), 8)
print(f"spectra agree to {np.max(np.abs(spec_flux - spec_twist)):.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for q0, path in zip(starts, bundle_a.positions.T):
        ax.plot(bundle_a.times, path, lw=1.2, label=f"q0 = {q0}")
    ax.set_xlabel("t")
    ax.set_ylabel("unwrapped angle")
    ax.set_title(f"Trajectories with flux {flux:.2f} (both gauges overlap)")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("gauge_equivalence_trajectories.png", dpi=120)
    print("wrote gauge_equivalence_trajectories.png")
except ImportError:
    print("(matplotlib not installed; skipping the plot)")
