"""Small dense complex linear algebra for few-qubit optical systems.

States are thin immutable wrappers around numpy arrays with invariant
checks at construction time.  Composite spaces use first-factor-major
(Kronecker) index ordering throughout; for two-photon states the order is
always Alice then Bob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
IMAG_TOL = 1e-10
# Sampled probabilities are rounded to multiples of GRID, so rounding cannot
# move a draw: by at most GRID/2 = 1.2e-10, or 2^-30 = 9.3e-10 for the largest
# entry of a row; sampling sigma is 7e-4 at 2e6 trials, 3e-10 at 2^63 trials.
GRID = 2.0 ** -32


def _check_seed(seed) -> None:
    """Reject what numpy would run as another seed (True as 1) or fail on
    with its own error: only non-negative integers seed a sampler."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    arr.setflags(write=False)
    return arr


def unit_directions(arr, ndim: int | None = None) -> np.ndarray:
    """Read-only float copy of unit 3-vectors along the last axis; ``ndim``
    pins the shape (1: one vector, 2: an (n, 3) array)."""
    u = np.array(arr, dtype=float)
    if u.shape[-1:] != (3,) or ndim not in (None, u.ndim):
        want = {1: "(3,)", 2: "(n, 3)"}.get(ndim, "(..., 3)")
        raise ValueError(f"directions must have shape {want}, got {u.shape}")
    norms = np.linalg.norm(u, axis=-1)
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):  # NaN fails here too
        raise ValueError(f"direction not unit length: |u| = {norms!r}")
    u.setflags(write=False)
    return u


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state; amplitudes must be normalized to unit squared norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _freeze(np.asarray(self.amplitudes).ravel())
        if amps.size < 1:
            raise ValueError("empty state vector")
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state vector not normalized: |psi|^2 = {norm2!r}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state; Hermitian, unit trace, positive semidefinite."""

    entries: np.ndarray

    def __post_init__(self):
        m = _freeze(np.asarray(self.entries))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        # symmetric eigensolver on the Hermitized matrix is robust to rounding
        evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if evals.min() < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {evals.min()}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def fidelity_pure(psi: StateVector, rho: DensityMatrix) -> float:
    """Overlap <psi|rho|psi> of a pure target with a mixed state, in [0, 1]."""
    if psi.dim != rho.dim:
        raise ValueError("dimension mismatch")
    val = complex(psi.amplitudes.conj() @ rho.entries @ psi.amplitudes)
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"fidelity has non-negligible imaginary part {val.imag}")
    return float(min(1.0, max(0.0, val.real)))


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2; equals 1 iff the state is pure."""
    val = float(np.trace(rho.entries @ rho.entries).real)
    return min(1.0, max(1.0 / rho.dim, val))
