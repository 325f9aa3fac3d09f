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
* A q-plate of charge q flips the circular polarization component and
  shifts OAM by +-2q:  |L, l> -> |R, l + 2q>,  |R, l> -> |L, l - 2q>.

Composite single-photon spaces are polarization (x) OAM, polarization factor
major.  The logical vortex qubit is |0> = |L, l=-1>, |1> = |R, l=+1>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qmath import (
    BlochVector,
    DensityMatrix,
    ModeOperator,
    OperatorKind,
    StateVector,
)

AMPLITUDE_TOL = 1e-12

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


class NonClosureError(ValueError):
    """A q-plate was asked to act on amplitude it would push out of the space."""


def pol_observable(direction: BlochVector) -> np.ndarray:
    """2x2 observable u . sigma in the optical Bloch convention."""
    u = direction.require_unit()
    return u.x * POL_X + u.y * POL_Y + u.z * POL_Z


def pol_projector(direction: BlochVector, outcome: int) -> np.ndarray:
    """Rank-1 polarization projector onto the `outcome` (+1/-1) eigenstate."""
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    return (np.eye(2) + outcome * pol_observable(direction)) / 2


def pol_rotation(theta: float) -> np.ndarray:
    """2x2 polarization-only physical rotation: exp(-i theta sigma_circ)."""
    return receiver("polarization").rotation(theta)


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

    def index(self, pol: int, l: int) -> int:
        """Composite index, polarization factor major (0 = H, 1 = V)."""
        return pol * self.n_levels + self.l_index(l)

    def l_values(self) -> np.ndarray:
        return np.arange(self.l_min, self.l_max + 1)


DEFAULT_SPACE = OamSpace(-2, 2)


def composite_ket(pol_amplitudes, l: int, space: OamSpace = DEFAULT_SPACE) -> StateVector:
    """Polarization state (H/V coordinates) placed in a single OAM level."""
    pol = np.asarray(pol_amplitudes, dtype=complex).ravel()
    if pol.size != 2:
        raise ValueError("polarization amplitudes must have two components")
    oam = np.zeros(space.n_levels, dtype=complex)
    oam[space.l_index(l)] = 1.0
    return StateVector(np.kron(pol, oam))


@dataclass(frozen=True)
class QPlate:
    """Geometric-phase plate of half-integer topological charge q."""

    q: float = 0.5
    phase_offset: float = 0.0

    def __post_init__(self):
        two_q = 2 * self.q
        if abs(two_q - round(two_q)) > 1e-12:
            raise ValueError("2q must be an integer")

    @property
    def oam_shift(self) -> int:
        return int(round(2 * self.q))


def qplate_operator(qp: QPlate, space: OamSpace = DEFAULT_SPACE) -> ModeOperator:
    """Unitary q-plate action on the composite space.

    |L, l> -> e^{+i phase_offset} |R, l + 2q>,
    |R, l> -> e^{-i phase_offset} |L, l - 2q>.

    OAM levels whose image falls outside the truncated ladder are wrapped
    cyclically; that completion keeps the matrix unitary but is unphysical,
    so `qplate_apply` refuses states with amplitude on those boundary levels.
    """
    n = space.n_levels
    shift = qp.oam_shift
    u_circ = np.zeros((space.dim, space.dim), dtype=complex)
    for i, l in enumerate(space.l_values()):
        # circular-major layout: rows/cols 0..n-1 are L, n..2n-1 are R
        u_circ[n + (i + shift) % n, i] = np.exp(1j * qp.phase_offset)
        u_circ[(i - shift) % n, n + i] = np.exp(-1j * qp.phase_offset)
    basis = np.kron(CIRC_TO_HV, np.eye(n))
    return ModeOperator(basis @ u_circ @ basis.conj().T, OperatorKind.UNITARY)


def _escaping_indices(qp: QPlate, space: OamSpace) -> list[int]:
    """Composite-basis indices (circular-major) whose q-plate image escapes."""
    n = space.n_levels
    shift = qp.oam_shift
    out = []
    for i, l in enumerate(space.l_values()):
        if not space.l_min <= l + shift <= space.l_max:
            out.append(i)            # L component at level l
        if not space.l_min <= l - shift <= space.l_max:
            out.append(n + i)        # R component at level l
    return out


def qplate_apply(qp: QPlate, state: StateVector, space: OamSpace = DEFAULT_SPACE) -> StateVector:
    """Apply a q-plate, rejecting input amplitude that would leave the space."""
    if state.dim != space.dim:
        raise ValueError("state dimension does not match space")
    basis = np.kron(CIRC_TO_HV, np.eye(space.n_levels))
    circ_amps = basis.conj().T @ state.amplitudes
    for idx in _escaping_indices(qp, space):
        if abs(circ_amps[idx]) > AMPLITUDE_TOL:
            raise NonClosureError(
                f"amplitude {circ_amps[idx]!r} at boundary OAM level would "
                f"leave the space {space}"
            )
    return StateVector(qplate_operator(qp, space).entries @ state.amplitudes)


def rotation_operator(theta: float, space: OamSpace = DEFAULT_SPACE) -> ModeOperator:
    """Physical rotation by theta about the beam axis on the composite space."""
    return ModeOperator(receiver("vortex", space).rotation(theta),
                        OperatorKind.UNITARY)


@dataclass(frozen=True)
class LogicalVortexQubit:
    """Zero-total-angular-momentum logical basis |0> = |L,-1>, |1> = |R,+1>."""

    zero_ket: StateVector
    one_ket: StateVector


def logical_vortex_qubit(space: OamSpace = DEFAULT_SPACE) -> LogicalVortexQubit:
    return LogicalVortexQubit(
        zero_ket=composite_ket(KET_L, -1, space),
        one_ket=composite_ket(KET_R, +1, space),
    )


def encode_to_vortex(state: StateVector, space: OamSpace = DEFAULT_SPACE,
                     qp: QPlate = QPlate(0.5)) -> StateVector:
    """Forward conversion: q-plate applied to an l=0 polarization state."""
    if state.dim != space.dim:
        raise ValueError("state dimension does not match space")
    amps = state.amplitudes.reshape(2, space.n_levels)
    off_zero = np.delete(amps, space.l_index(0), axis=1)
    if np.max(np.abs(off_zero)) > AMPLITUDE_TOL:
        raise ValueError("input state is not confined to l=0")
    return qplate_apply(qp, state, space)


def encode_isometry(space: OamSpace = DEFAULT_SPACE, qp: QPlate = QPlate(0.5)) -> np.ndarray:
    """(2 n_levels) x 2 isometry: polarization qubit -> encoded composite state.

    Columns are the images of |H> and |V> placed at l=0 and sent through the
    q-plate; V^dagger V = I_2.
    """
    cols = []
    for pol in (KET_H, KET_V):
        encoded = encode_to_vortex(composite_ket(pol, 0, space), space, qp)
        cols.append(encoded.amplitudes)
    return np.column_stack(cols)


def singlet_pol() -> StateVector:
    """Two-photon polarization singlet (|HV> - |VH>)/sqrt(2), Alice major."""
    amps = (np.kron(KET_H, KET_V) - np.kron(KET_V, KET_H)) / np.sqrt(2)
    return StateVector(amps)


def bob_analyzer(direction: BlochVector, theta: float, outcome: int,
                 space: OamSpace = DEFAULT_SPACE,
                 qp: QPlate = QPlate(0.5)) -> ModeOperator:
    """Projective element of Bob's vortex analyzer at orientation theta.

    The rotated receiver applies the reverse-conversion q-plate, keeps only
    the l=0 (fiber-coupled) component, and projects polarization onto the
    Bloch direction:  R(theta) QP^dag (Pi (x) |l=0><l=0|) QP R(theta)^dag.
    """
    proj = _analyzer_core(pol_projector(direction, outcome), theta, space, qp)
    return ModeOperator(proj, OperatorKind.PROJECTOR)


def bob_analyzer_passed(theta: float, space: OamSpace = DEFAULT_SPACE,
                        qp: QPlate = QPlate(0.5)) -> ModeOperator:
    """Projector onto everything the analyzer detects (either outcome)."""
    return ModeOperator(_analyzer_core(np.eye(2), theta, space, qp),
                        OperatorKind.PROJECTOR)


def _analyzer_core(pol_op: np.ndarray, theta: float, space: OamSpace,
                   qp: QPlate) -> np.ndarray:
    n = space.n_levels
    l0 = np.zeros((n, n))
    l0[space.l_index(0), space.l_index(0)] = 1.0
    filtered = np.kron(pol_op, l0)
    u_qp = qplate_operator(qp, space).entries
    r = rotation_operator(theta, space).entries
    return r @ u_qp.conj().T @ filtered @ u_qp @ r.conj().T


def logical_reduction(rho_joint: DensityMatrix, space: OamSpace = DEFAULT_SPACE,
                      qp: QPlate = QPlate(0.5)) -> tuple[DensityMatrix, float]:
    """Project Bob's composite factor onto the encoded-qubit subspace.

    Returns the renormalized effective two-qubit state (Alice polarization
    (x) Bob logical) and the weight the joint state had inside the subspace.
    """
    v = encode_isometry(space, qp)
    w = np.kron(np.eye(2), v)
    reduced = w.conj().T @ rho_joint.entries @ w
    weight = float(np.trace(reduced).real)
    if weight <= 0:
        raise ValueError("state has no weight in the logical subspace")
    return DensityMatrix(reduced / weight), weight


@dataclass(frozen=True, eq=False)
class Receiver:
    """Bob's side of one encoding, behind a receiver rotated by theta.

    ``encoder`` (d x 2) carries a polarization qubit into Bob's modes.  The
    analyzer reads out the l=0 polarization behind a reverse q-plate; for
    q = 1/2 that read-out qubit, pulled back through the plate, is the same
    isometry.  ``frame`` holds the circular basis as columns, with total
    angular momenta ``momenta`` (m = s + l).
    """

    kind: str
    encoder: np.ndarray
    frame: np.ndarray
    momenta: np.ndarray

    def rotation(self, theta: float) -> np.ndarray:
        return (self.frame * np.exp(-1j * self.momenta * theta)) @ self.frame.conj().T

    def detected_state(self, rho: DensityMatrix, theta, span: float = 0.0) -> np.ndarray:
        """Unnormalised 4x4 state, Alice (x) read-out qubit, behind the analyzer.

        ``theta`` is one angle, or one per setting ((n,) gives (n, 4, 4)); a
        positive ``span`` averages the orientation uniformly over
        [theta, theta + span].  In the circular frame a rotation multiplies
        entry (i, j) by exp(i (m_i - m_j) theta), so that average is exact.
        """
        d = self.encoder.shape[0]
        if rho.dim != 2 * d:
            raise ValueError(f"{self.kind} receiver expects a {2 * d}x{2 * d} state")
        gap = np.subtract.outer(self.momenta, self.momenta)
        mid = np.asarray(theta, dtype=float)[..., None, None] + span / 2
        kernel = np.exp(1j * gap * mid) * np.sinc(gap * span / (2 * np.pi))
        w = np.kron(np.eye(2), self.frame)
        v = np.kron(np.eye(2), self.frame.conj().T @ self.encoder)
        circ = w.conj().T @ rho.entries @ w
        return v.conj().T @ (circ * np.tile(kernel, (2, 2))) @ v


@lru_cache(maxsize=None)
def receiver(kind: str, space: OamSpace = DEFAULT_SPACE) -> Receiver:
    """The receiver of encoding ``kind``: "polarization" or "vortex"."""
    if kind == "polarization":
        parts = (np.eye(2, dtype=complex), CIRC_TO_HV.copy(), np.array([1, -1]))
    elif kind == "vortex":
        l_vals = space.l_values()
        parts = (encode_isometry(space),
                 np.kron(CIRC_TO_HV, np.eye(space.n_levels)),
                 np.concatenate([1 + l_vals, -1 + l_vals]))
    else:
        raise ValueError(f"unknown encoding {kind!r}")
    for a in parts:
        a.flags.writeable = False   # shared through the cache
    return Receiver(kind, *parts)
