"""Polarization and orbital-angular-momentum encodings of photonic qubits.

Phase conventions (pinned here; tests depend on them):

* Polarization computational basis is (|H>, |V>).  Circular states are
  |L> = (|H> + i|V>)/sqrt(2),  |R> = (|H> - i|V>)/sqrt(2),
  equivalently |H> = (|L> + |R>)/sqrt(2), |V> = -i(|L> - |R>)/sqrt(2).
* The polarization Bloch sphere puts linear H/V on the x axis, diagonal
  D/A on the y axis and circular L/R on the z axis (+z = |L>).  This makes
  the circular axis the rotation axis of physical beam rotations.
* Physical rotation by theta about the beam propagation axis is diagonal in
  the circular (x) OAM basis:
      |L, l> -> exp(-i(1 + l) theta) |L, l>
      |R, l> -> exp(-i(-1 + l) theta) |R, l>
  so the total-angular-momentum-zero states |L, l=-1> and |R, l=+1> are
  exact fixed points for every theta.
* The encoder's q = 1/2 q-plate flips the circular polarization component
  and shifts OAM by +-1:  |L, l> -> |R, l + 1>,  |R, l> -> |L, l - 1>.

Composite single-photon spaces are polarization (x) OAM, polarization factor
major.  The logical vortex qubit is |0> = |L, l=-1>, |1> = |R, l=+1>.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qmath import DensityMatrix, StateVector, _real_array, unit_directions

# polarization kets in (H, V) coordinates
KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_L = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
KET_R = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2)
KET_D = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
KET_A = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)

# Bob's truncated OAM ladder, integer l (l*hbar per photon); the vortex qubit
# lives on l = -1 and +1, so joint vortex states are 20 x 20
OAM_LEVELS = (-2, -1, 0, 1, 2)

# Each encoding's OAM ladder and read modes (s, l), s = +1 for |L>: a q = 1/2 plate
# sends |L, 0> -> |R, +1>, |R, 0> -> |L, -1>; bare polarization has only l = 0
READ_MODES = {"vortex": (OAM_LEVELS, ((-1, +1), (+1, -1))),
              "polarization": ((0,), ((+1, 0), (-1, 0)))}
RECEIVER_KINDS = tuple(READ_MODES)  # the encodings `receiver` builds, in the CLI's order

# change of basis: circular coordinates -> (H, V) coordinates
CIRC_TO_HV = np.column_stack([KET_L, KET_R])
# Alice (x) Bob's two read modes, circular frame -> Alice (x) the read-out qubit
READOUT = np.kron(np.eye(2), CIRC_TO_HV.conj().T)

# Bloch-axis observables in the optical convention above
POL_X = np.outer(KET_H, KET_H.conj()) - np.outer(KET_V, KET_V.conj())
POL_Y = np.outer(KET_D, KET_D.conj()) - np.outer(KET_A, KET_A.conj())
POL_Z = np.outer(KET_L, KET_L.conj()) - np.outer(KET_R, KET_R.conj())

POL_EIGENSTATES = {
    "H": KET_H, "V": KET_V,
    "D": KET_D, "A": KET_A,
    "L": KET_L, "R": KET_R,
}


def pol_observable(direction) -> np.ndarray:
    """u . sigma in the optical Bloch convention: 2x2 for one unit direction,
    (..., 2, 2) for a stack (..., 3) of them."""
    u = unit_directions(direction)[..., None, None]
    return u[..., 0, :, :] * POL_X + u[..., 1, :, :] * POL_Y + u[..., 2, :, :] * POL_Z


def pol_projector(direction, outcome: int) -> np.ndarray:
    """Rank-1 polarization projector(s) onto the `outcome` (+1/-1) eigenstate."""
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    return (np.eye(2) + outcome * pol_observable(direction)) / 2


def singlet_pol() -> StateVector:
    """Two-photon polarization singlet (|HV> - |VH>)/sqrt(2), Alice major."""
    amps = (np.kron(KET_H, KET_V) - np.kron(KET_V, KET_H)) / np.sqrt(2)
    return StateVector(amps)


@dataclass(frozen=True, eq=False)
class Receiver:
    """Bob's side of one encoding, behind a receiver rotated by theta.

    ``encoder`` (d x 2) carries a polarization qubit into Bob's modes.  The
    analyzer reads out the l=0 polarization behind a reverse q-plate; for
    q = 1/2 that read-out qubit, pulled back through the plate, is the same
    isometry.  It spans two read modes of the circular frame, the images of
    the read-out |L> and |R>.  On Alice (x) Bob, ``lift`` is I (x) their kets,
    ``gaps`` holds m_i - m_j of their total angular momenta m = s + l, and
    `READOUT` pulls them back to the read-out qubit."""

    kind: str
    encoder: np.ndarray
    lift: np.ndarray     # 2d x 4
    gaps: np.ndarray     # 4 x 4

    def detected_state(self, rho: DensityMatrix, theta) -> np.ndarray:
        """Unnormalised 4x4 state, Alice (x) read-out qubit, behind the analyzer
        at theta (which leads the shape): e^{i(m_i - m_j)theta} weighs entry (i, j)."""
        if not np.all(np.isfinite(angle := _real_array("theta", theta))):
            raise ValueError("theta must be finite")
        if (top := np.abs(self.gaps).max()) and not (
                np.abs(angle).max(initial=0.0) <= sys.float_info.max / top):
            # the gap times theta would overflow, as in `steering._tables`
            raise ValueError(f"theta must not exceed {sys.float_info.max / top:.6g} "
                             f"in magnitude at the receiver's gap {top}")
        return self.read(rho, np.exp(1j * self.gaps * angle[..., None, None]))

    def read(self, rho: DensityMatrix, weights) -> np.ndarray:
        """rho read out, entry (i, j) on Alice (x) read modes times weights[..., i, j]."""
        if not isinstance(rho, DensityMatrix):
            raise ValueError(f"rho must be a DensityMatrix, got {rho!r}")
        dim = self.lift.shape[0]
        if rho.dim != dim:
            raise ValueError(f"{self.kind} receiver expects a {dim}x{dim} state")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        modes = self.lift.conj().T @ rho.entries @ self.lift
        return READOUT.conj().T @ (modes * weights) @ READOUT


def receiver(kind: str) -> Receiver:
    """The receiver of encoding ``kind``, one of `RECEIVER_KINDS`."""
    if not (isinstance(kind, str) and kind in READ_MODES):  # before the cache hashes it
        raise ValueError(f"unknown encoding {kind!r}")
    return _receiver(kind)


@lru_cache(maxsize=None)
def _receiver(kind: str) -> Receiver:
    ladder, modes = READ_MODES[kind]
    levels = np.eye(len(ladder))
    kets = np.column_stack([np.kron(KET_L if s > 0 else KET_R, levels[ladder.index(l)])
                            for s, l in modes])
    # kets @ C^dagger is I only up to rounding for polarization; I holds its bits
    encoder = (np.eye(2, dtype=complex) if kind == "polarization"
               else kets @ CIRC_TO_HV.conj().T)
    momenta = np.array([s + l for s, l in modes])
    parts = (encoder, np.kron(np.eye(2), kets),
             np.tile(np.subtract.outer(momenta, momenta), (2, 2)))
    for a in parts:
        a.flags.writeable = False   # shared through the cache
    return Receiver(kind, *parts)


def receiver_for(dim: int) -> Receiver:
    """The receiver whose joint Alice (x) Bob states are dim x dim."""
    for kind in RECEIVER_KINDS:
        rx = _receiver(kind)
        if dim == 2 * rx.encoder.shape[0]:
            return rx
    raise ValueError(f"cannot infer encoding from dimension {dim}")
