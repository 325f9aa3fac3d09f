"""Dense linear algebra that only the tests use.

Operators tagged by kind, tensor products, partial traces, expectation
values, the trace distance, a normalizing `StateVector` constructor and
`unit`, which scales a real 3-vector to a unit Bloch direction.
The package itself needs none of them: states are built and read out
through `encoding.Receiver` and `steering.born_table`.
"""

from enum import Enum

import numpy as np

from vortexsteer.qmath import (
    HERMITICITY_TOL,
    IMAG_TOL,
    DensityMatrix,
    StateVector,
)

UNITARITY_TOL = 1e-10
PROJECTOR_TOL = 1e-10


class OperatorKind(Enum):
    UNITARY = "unitary"
    HERMITIAN = "hermitian"
    PROJECTOR = "projector"


class ModeOperator:
    """Square matrix checked against its algebraic kind at construction."""

    def __init__(self, entries, kind: OperatorKind = OperatorKind.HERMITIAN):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator must be square")
        kind = OperatorKind(kind)
        if kind is OperatorKind.UNITARY:
            err = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
            if err > UNITARITY_TOL:
                raise ValueError(f"operator not unitary (deviation {err:.3e})")
        else:
            if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
                raise ValueError(f"{kind.value} operator not Hermitian")
            if kind is OperatorKind.PROJECTOR and np.max(np.abs(m @ m - m)) > PROJECTOR_TOL:
                raise ValueError("projector not idempotent")
        self.entries = m
        self.kind = kind

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def normalized(amplitudes) -> StateVector:
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(amps / norm)


def unit(vector) -> np.ndarray:
    v = np.asarray(vector, dtype=float)
    return v / np.linalg.norm(v)


def tensor(a, b):
    """Kronecker product of two like-kind objects (first factor major)."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.entries, b.entries))
    if isinstance(a, ModeOperator) and isinstance(b, ModeOperator):
        kind = a.kind if a.kind == b.kind else OperatorKind.HERMITIAN
        return ModeOperator(np.kron(a.entries, b.entries), kind)
    raise TypeError("tensor operands must be the same kind of object")


def partial_trace(rho: DensityMatrix, keep: int, dims) -> DensityMatrix:
    """Reduced state on subsystem ``keep`` of a composite with factor ``dims``."""
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != rho.dim:
        raise ValueError(f"product of dims {dims} != rho.dim {rho.dim}")
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep index {keep} out of range for {len(dims)} factors")
    t = rho.entries.reshape(dims + dims)
    # trace out every factor except `keep`, from the back to keep axes stable
    for i in reversed(range(len(dims))):
        if i != keep:
            t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    return DensityMatrix(t)


def expectation(rho: DensityMatrix, obs: ModeOperator) -> float:
    """Tr(rho obs) for a Hermitian observable."""
    m = obs.entries
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ValueError("observable not Hermitian")
    if rho.dim != obs.dim:
        raise ValueError("dimension mismatch")
    val = complex(np.trace(rho.entries @ m))
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag}")
    return float(val.real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) ||a - b||_1."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    diff = (a.entries - b.entries + (a.entries - b.entries).conj().T) / 2
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
