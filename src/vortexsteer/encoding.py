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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qmath import DensityMatrix, StateVector, unit_directions

# polarization kets in (H, V) coordinates
KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_L = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
KET_R = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2)
KET_D = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
KET_A = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)

# change of basis: circular coordinates -> (H, V) coordinates
CIRC_TO_HV = np.column_stack([KET_L, KET_R])

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


@dataclass(frozen=True)
class OamSpace:
    """Truncated OAM ladder l_min..l_max (integer l, l*hbar per photon)."""

    l_min: int = -2
    l_max: int = 2

    def __post_init__(self):
        if self.l_min > self.l_max:
            raise ValueError("l_min must not exceed l_max")

    @property
    def n_levels(self) -> int:
        return self.l_max - self.l_min + 1

    @property
    def dim(self) -> int:
        """Dimension of the composite polarization (x) OAM space."""
        return 2 * self.n_levels

    def l_index(self, l: int) -> int:
        if not self.l_min <= l <= self.l_max:
            raise ValueError(f"l={l} outside [{self.l_min}, {self.l_max}]")
        return l - self.l_min


DEFAULT_SPACE = OamSpace(-2, 2)


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
    ``readout`` (I (x) kets^dag encoder) pulls them back to the read-out qubit.
    """

    kind: str
    encoder: np.ndarray
    lift: np.ndarray     # 2d x 4
    gaps: np.ndarray     # 4 x 4
    readout: np.ndarray  # 4 x 4, I (x) CIRC_TO_HV^dag up to rounding

    def detected_state(self, rho: DensityMatrix, theta, span: float = 0.0) -> np.ndarray:
        """Unnormalised 4x4 state, Alice (x) read-out qubit, behind the analyzer.

        ``theta`` is one angle or an array that leads the shape: (n,) gives a
        state per setting, (T, 1) a stack of T for ``born_table``.  A positive
        ``span`` averages uniformly over [theta, theta + span], exactly, as in
        the circular frame a rotation scales entry (i, j) by e^{i(m_i - m_j)theta}.
        Both vortex read modes have m = 0, so their kernel is exactly 1.
        """
        dim = self.lift.shape[0]
        if rho.dim != dim:
            raise ValueError(f"{self.kind} receiver expects a {dim}x{dim} state")
        mid = np.asarray(theta, dtype=float)[..., None, None] + span / 2
        kernel = np.exp(1j * self.gaps * mid) * np.sinc(self.gaps * span / (2 * np.pi))
        modes = self.lift.conj().T @ rho.entries @ self.lift
        return self.readout.conj().T @ (modes * kernel) @ self.readout


@lru_cache(maxsize=None)
def receiver(kind: str, space: OamSpace = DEFAULT_SPACE) -> Receiver:
    """The receiver of encoding ``kind``: "polarization" or "vortex"."""
    # the read modes as (s, l): circular polarization s = +1 for |L>, then l
    if kind == "polarization":  # a bare polarization photon has only l = 0
        space, modes = OamSpace(0, 0), ((+1, 0), (-1, 0))
    elif kind == "vortex":
        # a q = 1/2 plate sends |L, 0> -> |R, +1> and |R, 0> -> |L, -1>
        modes = ((-1, +1), (+1, -1))
    else:
        raise ValueError(f"unknown encoding {kind!r}")
    levels = np.eye(space.n_levels)
    kets = np.column_stack([np.kron(KET_L if s > 0 else KET_R, levels[space.l_index(l)])
                            for s, l in modes])
    encoder = (np.eye(2, dtype=complex) if kind == "polarization"
               else kets @ CIRC_TO_HV.conj().T)
    momenta = np.array([s + l for s, l in modes])
    parts = (encoder, np.kron(np.eye(2), kets),
             np.tile(np.subtract.outer(momenta, momenta), (2, 2)),
             np.kron(np.eye(2), kets.conj().T @ encoder))
    for a in parts:
        a.flags.writeable = False   # shared through the cache
    return Receiver(kind, *parts)


def receiver_for(dim: int) -> Receiver:
    """The receiver whose joint Alice (x) Bob states are dim x dim."""
    for kind in ("polarization", "vortex"):
        rx = receiver(kind)
        if dim == 2 * rx.encoder.shape[0]:
            return rx
    raise ValueError(f"cannot infer encoding from dimension {dim}")
