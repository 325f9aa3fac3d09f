"""Simulated two-qubit state tomography of the shared source state.

Generates Poisson counts for the 36-setting coincidence scheme, runs the
maximum-likelihood reconstruction, and compares the recovered fidelity and
purity with the values implied by the visibility of the isotropic-noise
model.  A second pass rotates the receiver by 90 degrees to show the
singlet fidelity collapsing for a bare polarization qubit.
"""

import math

import numpy as np

from vortexsteer import encoding as enc
from vortexsteer import experiment as ex
from vortexsteer import tomography as tm
from vortexsteer.qmath import DensityMatrix

FIDELITY = 0.977
COUNTS = 100_000

v = ex.visibility_for_fidelity(FIDELITY)
rho = ex.werner_state(v)
spec = tm.standard_settings(COUNTS)

counts = tm.simulate_counts(rho, spec, seed=7)
report = tm.reconstruct(counts, spec, target=enc.singlet_pol())

print(f"visibility v = {v:.4f}")
print(f"target fidelity  {FIDELITY:.4f}   reconstructed "
      f"{report.fidelity_to_target:.4f}")
print(f"target purity    {(1 + 3 * v**2) / 4:.4f}   reconstructed "
      f"{report.purity:.4f}")
print(f"{'converged' if report.converged else 'stopped'} in "
      f"{report.iterations} iterations (log-likelihood "
      f"{report.log_likelihood:.1f}, within {report.gap:.1g} of the maximum, "
      f"tolerance {report.tolerance:.1g})")
print()
print("reconstructed density matrix (real part):")
print(np.array_str(report.rho_hat.entries.real, precision=3,
                   suppress_small=True))
print()

rotated = DensityMatrix(enc.receiver("polarization").detected_state(
    ex.werner_state(1.0), math.pi / 2))
counts = tm.simulate_counts(rotated, spec, seed=8)
report = tm.reconstruct(counts, spec, target=enc.singlet_pol())
print("pure singlet seen through a receiver rotated by 90 degrees:")
print(f"  singlet fidelity {report.fidelity_to_target:.5f} "
      "(the bare polarization channel is frame-dependent)")
