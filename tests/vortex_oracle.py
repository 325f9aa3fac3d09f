"""Operator-level model of Bob's side, written independently of `Receiver`.

An explicit q = 1/2 q-plate matrix, the beam rotation written out from the
phase conventions in `encoding`, and the unrotated analyzer elements
QP^dag (Pi (x) |l=0><l=0|) QP.  The tests check `encoding.receiver` against
these; nothing here reads a `Receiver`.
"""

import numpy as np

from vortexsteer import encoding as enc


def composite_ket(pol, l: int, space: enc.OamSpace) -> np.ndarray:
    """Polarization amplitudes (H/V coordinates) placed in OAM level l."""
    oam = np.zeros(space.n_levels, dtype=complex)
    oam[space.l_index(l)] = 1.0
    return np.kron(np.asarray(pol, dtype=complex), oam)


def qplate(space: enc.OamSpace) -> np.ndarray:
    """Unitary q = 1/2 plate: |L, l> -> |R, l + 1>, |R, l> -> |L, l - 1>.

    Levels whose image leaves the ladder wrap around cyclically, which keeps
    the matrix unitary; the tests only use states away from the edges.
    """
    n = space.n_levels
    u_circ = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        # circular-major layout: rows/cols 0..n-1 are L, n..2n-1 are R
        u_circ[n + (i + 1) % n, i] = 1.0
        u_circ[(i - 1) % n, n + i] = 1.0
    basis = np.kron(enc.CIRC_TO_HV, np.eye(n))
    return basis @ u_circ @ basis.conj().T


def qplate_encoder(space: enc.OamSpace) -> np.ndarray:
    """Images of |H, 0> and |V, 0> through the q-plate, as columns."""
    return qplate(space) @ np.column_stack(
        [composite_ket(pol, 0, space) for pol in (enc.KET_H, enc.KET_V)])


def explicit_rotation(kind: str, theta: float, space: enc.OamSpace) -> np.ndarray:
    if kind == "polarization":
        return np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * enc.POL_Z
    l_vals = space.l_values()
    phases = np.concatenate([np.exp(-1j * (1 + l_vals) * theta),
                             np.exp(-1j * (-1 + l_vals) * theta)])
    basis = np.kron(enc.CIRC_TO_HV, np.eye(space.n_levels))
    return basis @ np.diag(phases) @ basis.conj().T


def analyzer_element(pol_op: np.ndarray, space: enc.OamSpace) -> np.ndarray:
    """QP^dag (pol_op (x) |l=0><l=0|) QP: read out l=0 behind the plate."""
    l0 = np.zeros((space.n_levels, space.n_levels))
    l0[space.l_index(0), space.l_index(0)] = 1.0
    u = qplate(space)
    return u.conj().T @ np.kron(pol_op, l0) @ u
