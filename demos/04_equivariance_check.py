"""Statistical equivariance: transported samples keep tracking |psi_t|^2.

Draw configurations from the initial density, move each one along the
guiding field, and compare the empirical histogram against the evolved
density at several checkpoints.  A sign-flipped guiding field is run as the
negative control; it drifts away from the density immediately.
"""

import numpy as np

from topobohm import Character, Potential, make_gaussian_state, verify_equivariance

state = make_gaussian_state(Character.ring(np.pi), center=2.0, width=0.45,
                            momentum=2.0)

report = verify_equivariance(state, Potential.zero(), n=4000, t_final=0.6,
                             checkpoints=[0.2, 0.4, 0.6], seed=42, dt=2e-3)
print("correct guiding field:")
for t, tv in zip(report.times, report.tv_values):
    print(f"  t = {t:.2f}: TV = {tv:.4f}")
print(f"  threshold {report.tv_threshold:.4f} -> "
      f"{'PASS' if report.passed else 'FAIL'}")

control = verify_equivariance(state, Potential.zero(), n=4000, t_final=0.6,
                              checkpoints=[0.2, 0.4, 0.6], seed=42, dt=2e-3,
                              velocity_factor=-1.0)
print("\nsign-flipped control:")
for t, tv in zip(control.times, control.tv_values):
    print(f"  t = {t:.2f}: TV = {tv:.4f}")
print("  the flipped field visibly violates equivariance, as it must")
