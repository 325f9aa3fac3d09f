"""Operator-level model of Bob's side, written independently of `Receiver`.

An explicit q = 1/2 q-plate matrix, the beam rotation written out from the
phase conventions in `encoding`, the unrotated analyzer elements
QP^dag (Pi (x) |l=0><l=0|) QP, the detected state computed in the full
circular frame, and the sampled table in two stages from that state.  The
tests check `encoding.receiver` and the harmonic tables of `steering`
against these; none of them reads a `Receiver`.

Every function takes its OAM ladder ``space`` as a plain tuple of
consecutive levels l, such as ``encoding.OAM_LEVELS`` or a wider one.
"""

import numpy as np

from vortexsteer import encoding as enc


def composite_ket(pol, l: int, space: tuple) -> np.ndarray:
    """Polarization amplitudes (H/V coordinates) placed in OAM level l."""
    oam = np.zeros(len(space), dtype=complex)
    oam[space.index(l)] = 1.0
    return np.kron(np.asarray(pol, dtype=complex), oam)


def ladder_map(src: tuple, dst: tuple) -> np.ndarray:
    """Bob's (polarization (x) OAM) amplitudes on ladder src re-indexed onto
    ladder dst: levels missing from dst are dropped, new ones are zero."""
    shared = np.zeros((len(dst), len(src)))
    for i, l in enumerate(src):
        if l in dst:
            shared[dst.index(l), i] = 1.0
    return np.kron(np.eye(2), shared)


def qplate(space: tuple) -> np.ndarray:
    """Unitary q = 1/2 plate: |L, l> -> |R, l + 1>, |R, l> -> |L, l - 1>.

    Levels whose image leaves the ladder wrap around cyclically, which keeps
    the matrix unitary; the tests only use states away from the edges.
    """
    n = len(space)
    u_circ = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        # circular-major layout: rows/cols 0..n-1 are L, n..2n-1 are R
        u_circ[n + (i + 1) % n, i] = 1.0
        u_circ[(i - 1) % n, n + i] = 1.0
    basis = np.kron(enc.CIRC_TO_HV, np.eye(n))
    return basis @ u_circ @ basis.conj().T


def qplate_encoder(space: tuple) -> np.ndarray:
    """Images of |H, 0> and |V, 0> through the q-plate, as columns."""
    return qplate(space) @ np.column_stack(
        [composite_ket(pol, 0, space) for pol in (enc.KET_H, enc.KET_V)])


def circular_frame(kind: str, space: tuple) -> tuple:
    """All of Bob's circular modes as columns (|L, l>, then |R, l>) and their
    total angular momenta m = s + l."""
    if kind == "polarization":
        return enc.CIRC_TO_HV.copy(), np.array([1, -1])
    l_vals = np.array(space)
    return (np.kron(enc.CIRC_TO_HV, np.eye(len(space))),
            np.concatenate([1 + l_vals, -1 + l_vals]))


def explicit_rotation(kind: str, theta: float, space: tuple) -> np.ndarray:
    if kind == "polarization":
        return np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * enc.POL_Z
    frame, momenta = circular_frame(kind, space)
    return frame @ np.diag(np.exp(-1j * momenta * theta)) @ frame.conj().T


def analyzer_element(pol_op: np.ndarray, space: tuple) -> np.ndarray:
    """QP^dag (pol_op (x) |l=0><l=0|) QP: read out l=0 behind the plate."""
    l0 = np.zeros((len(space), len(space)))
    l0[space.index(0), space.index(0)] = 1.0
    u = qplate(space)
    return u.conj().T @ np.kron(pol_op, l0) @ u


def full_frame_detected_state(kind: str, encoder, rho, theta, span: float,
                              space: tuple):
    """`Receiver.detected_state` taken through the whole circular frame: lift
    rho into it, scale entry (i, j) by e^{i(m_i - m_j)theta} averaged over
    [theta, theta + span], read out through frame^dag encoder."""
    frame, momenta = circular_frame(kind, space)
    gaps = np.tile(np.subtract.outer(momenta, momenta), (2, 2))
    mid = np.asarray(theta, dtype=float)[..., None, None] + span / 2
    kernel = np.exp(1j * gaps * mid) * np.sinc(gaps * span / (2 * np.pi))
    lift = np.kron(np.eye(2), frame)
    readout = np.kron(np.eye(2), frame.conj().T @ encoder)
    circ = lift.conj().T @ rho.entries @ lift
    return readout.conj().T @ (circ * kernel) @ readout


def two_stage_table(rho, mset, efficiency: float, theta, span: float) -> np.ndarray:
    """The table (n, 2, 3) a run samples, in two stages: the span-averaged
    detected state of each setting's angle (one, or one per setting), its
    lossless Born table clipped at 0, then Bob's announced entries scaled by his
    efficiency, the rest declined, and each setting's six entries normalised."""
    kind = "polarization" if rho.dim == 4 else "vortex"
    encoder = (np.eye(2) if kind == "polarization"
               else qplate_encoder(enc.OAM_LEVELS))
    thetas = np.broadcast_to(theta, (mset.n,))
    detected = full_frame_detected_state(kind, encoder, rho, thetas, span,
                                         enc.OAM_LEVELS)
    proj = np.stack([enc.pol_projector(mset.directions, a) for a in (+1, -1)], axis=1)
    d = rho.dim // 2
    sigma = detected.reshape(mset.n, 2, 2, 2, 2)
    alice = np.einsum("ajbj->ab", rho.entries.reshape(2, d, 2, d))
    probs = np.empty((mset.n, 2, 3))
    probs[..., :2] = np.einsum("kxyzw,kazx,kbwy->kab", sigma, proj, proj).real
    probs[..., 2] = (np.einsum("xz,kazx->ka", alice, proj).real
                     - probs[..., :2].sum(axis=-1))
    probs = np.maximum(probs, 0.0)
    out = probs * (efficiency, efficiency, 1.0)
    out[..., 2] = probs.sum(axis=-1) - out[..., :2].sum(axis=-1)
    return out / out.sum(axis=(-2, -1), keepdims=True)
