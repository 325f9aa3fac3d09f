"""Simulated two-qubit state tomography with maximum-likelihood reconstruction.

Settings are coincidence projector pairs on the Alice (x) Bob polarization
space.  Counts are Poisson-sampled from Born probabilities; reconstruction is
linear inversion, projection to the physical cone, then an iterative
maximum-likelihood refinement (diluted R-rho-R with the completeness
correction), which never decreases the log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import encoding, qmath
from .qmath import DensityMatrix, StateVector

MAX_ITERATIONS = 10_000
LOGLIK_TOL = 1e-10

_SINGLE_QUBIT_LABELS = ("H", "V", "D", "A", "L", "R")
_MINIMAL_LABELS = ("H", "V", "D", "L")


@dataclass(frozen=True)
class TomographySpec:
    """Informationally complete set of coincidence projector pairs."""

    labels: tuple
    projectors: tuple          # 4x4 arrays, Alice (x) Bob
    counts_per_setting: int

    def __post_init__(self):
        if self.counts_per_setting < 1:
            raise ValueError("counts_per_setting must be positive")
        if gram_rank(self.projectors) < 16:
            raise ValueError("settings do not span the two-qubit operator space")

    @property
    def n_settings(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class ReconstructionReport:
    rho_hat: DensityMatrix
    fidelity_to_target: float | None
    purity: float
    log_likelihood: float
    iterations: int
    converged: bool
    history: tuple | None = None


def gram_rank(projectors) -> int:
    flat = np.array([np.asarray(p).ravel() for p in projectors])
    return int(np.linalg.matrix_rank(flat, tol=1e-10))


def _pair_projectors(side_labels):
    kets = {k: encoding.POL_EIGENSTATES[k] for k in side_labels}
    labels = []
    projectors = []
    for la, lb in product(side_labels, repeat=2):
        pa = np.outer(kets[la], kets[la].conj())
        pb = np.outer(kets[lb], kets[lb].conj())
        labels.append(la + lb)
        projectors.append(np.kron(pa, pb))
    return tuple(labels), tuple(projectors)


def standard_settings(counts_per_setting: int = 10_000) -> TomographySpec:
    """Overcomplete 36-setting tomography: six eigenstates on each side."""
    labels, projectors = _pair_projectors(_SINGLE_QUBIT_LABELS)
    return TomographySpec(labels, projectors, counts_per_setting)


def minimal_settings(counts_per_setting: int = 10_000) -> TomographySpec:
    """Minimal 16-setting tomography (H, V, D, L on each side)."""
    labels, projectors = _pair_projectors(_MINIMAL_LABELS)
    return TomographySpec(labels, projectors, counts_per_setting)


def born_probabilities(rho: DensityMatrix, spec: TomographySpec) -> np.ndarray:
    if rho.dim != 4:
        raise ValueError("tomography operates on two-qubit (4x4) states")
    return np.array([max(0.0, float(np.trace(rho.entries @ p).real))
                     for p in spec.projectors])


def expected_counts(rho: DensityMatrix, spec: TomographySpec) -> np.ndarray:
    """Noiseless (infinite-statistics) count table."""
    return spec.counts_per_setting * born_probabilities(rho, spec)


def simulate_counts(rho: DensityMatrix, spec: TomographySpec, seed: int) -> np.ndarray:
    """Poisson coincidence counts for every setting, reproducible from seed."""
    return np.random.default_rng(seed).poisson(expected_counts(rho, spec))


def _linear_inversion(freqs: np.ndarray, spec: TomographySpec) -> np.ndarray:
    # expand rho in the orthonormal Pauli-product basis and least-squares fit
    paulis = [np.eye(2), encoding.POL_X, encoding.POL_Y, encoding.POL_Z]
    basis = [np.kron(a, b) / 2 for a in paulis for b in paulis]
    design = np.array([[float(np.trace(bm @ p).real) for bm in basis]
                       for p in spec.projectors])
    coeffs, *_ = np.linalg.lstsq(design, freqs, rcond=None)
    rho = sum(c * bm for c, bm in zip(coeffs, basis))
    return (rho + rho.conj().T) / 2


def _project_physical(rho: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    evals = np.clip(evals, 0.0, None)
    if evals.sum() <= 0:
        return np.eye(rho.shape[0]) / rho.shape[0]
    evals /= evals.sum()
    return (evecs * evals) @ evecs.conj().T


def _log_likelihood(counts: np.ndarray, probs: np.ndarray, scale: int) -> float:
    """Poisson log-likelihood of counts with means scale * probs, up to a
    constant that does not depend on probs."""
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(np.maximum(probs[mask], 1e-300)))
                 - scale * probs.sum())


def reconstruct(counts, spec: TomographySpec,
                target: StateVector | None = None,
                keep_history: bool = False) -> ReconstructionReport:
    """Maximum-likelihood density-matrix reconstruction from count data.

    `counts` may be floats (e.g. exact expected counts) for noiseless studies.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (spec.n_settings,):
        raise ValueError("counts shape does not match the settings list")
    projs = np.array(spec.projectors)
    g = projs.sum(axis=0)
    g_evals, g_evecs = np.linalg.eigh(g)
    g_inv_sqrt = (g_evecs / np.sqrt(g_evals)) @ g_evecs.conj().T

    rho = _project_physical(_linear_inversion(counts / spec.counts_per_setting, spec))

    def probs_of(r):
        return np.maximum(np.einsum("sij,ji->s", projs, r).real, 0.0)

    def loglik_of(r):
        return _log_likelihood(counts, probs_of(r), spec.counts_per_setting)

    loglik = loglik_of(rho)
    history = [loglik]
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        p = probs_of(rho)
        ratio = np.where(p > 0, counts / np.maximum(p, 1e-300), 0.0)
        r_op = np.einsum("s,sij->ij", ratio, projs)
        t_op = g_inv_sqrt @ r_op @ g_inv_sqrt

        def apply_update(m):
            cand = m @ rho @ m.conj().T
            tr = np.trace(cand).real
            if tr <= 0:
                return None, -np.inf
            cand = (cand + cand.conj().T) / 2 / tr
            return cand, loglik_of(cand)

        # full multiplicative R-rho-R step, diluted additive steps as fallback
        cand, cand_ll = apply_update(t_op)
        if cand_ll < loglik - 1e-12:
            step = 1.0
            for _ in range(60):
                cand, cand_ll = apply_update(
                    np.eye(4) + step * t_op / max(1.0, counts.sum()))
                if cand_ll >= loglik - 1e-12:
                    break
                step /= 2
            else:
                break
        improvement = cand_ll - loglik
        rho, loglik = cand, cand_ll
        history.append(loglik)
        if improvement < LOGLIK_TOL:
            converged = True
            break

    rho_hat = DensityMatrix(_project_physical(rho))
    fid = qmath.fidelity_pure(target, rho_hat) if target is not None else None
    return ReconstructionReport(
        rho_hat=rho_hat,
        fidelity_to_target=fid,
        purity=qmath.purity(rho_hat),
        log_likelihood=loglik,
        iterations=iterations,
        converged=converged,
        history=tuple(history) if keep_history else None,
    )
