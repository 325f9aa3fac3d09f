"""Simulated two-qubit state tomography with maximum-likelihood reconstruction.

Settings are coincidence projector pairs on the Alice (x) Bob polarization
space.  Counts are Poisson-sampled from Born probabilities.  Reconstruction
projects the linear inversion onto the density matrices, then minimises the
negative Poisson log-likelihood f by accelerated projected gradient (Shang,
Zhang & Ng, PRA 95, 062336, 2017), which never lowers the likelihood.  As f is
convex, gap = <grad f(rho), rho> - lambda_min(grad f(rho)) bounds f(rho) -
min f; the fit has converged once gap <= GAP_TOL * sum(counts).  The spec
holds the fit's fixed arrays; lambda_min is solved only where it can decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import encoding, qmath
from .qmath import GRID, DensityMatrix, StateVector

MAX_ITERATIONS = 10_000
GAP_TOL = 1e-8  # certified likelihood gap, in nats per count


@dataclass(frozen=True, eq=False)
class TomographySpec:
    """Informationally complete set of coincidence projector pairs; the
    projectors are held as one read-only (settings, 4, 4) array."""

    labels: tuple
    projectors: np.ndarray     # Alice (x) Bob
    counts_per_setting: int
    design: np.ndarray = field(init=False, repr=False)  # rows conj(vec P_s)
    pinv: np.ndarray = field(init=False, repr=False)    # of design
    total: np.ndarray = field(init=False, repr=False)   # N sum_s P_s
    trace: np.ndarray = field(init=False, repr=False)   # trace @ vec r = N sum_s p_s

    def __post_init__(self):
        if self.counts_per_setting < 1:
            raise ValueError("counts_per_setting must be positive")
        projectors, n = qmath._freeze(self.projectors), self.counts_per_setting
        if projectors.shape[1:] != (4, 4) or np.linalg.matrix_rank(
                design := projectors.reshape(-1, 16).conj(), tol=1e-10) < 16:
            raise ValueError("settings do not span the two-qubit operator space")
        for name, value in dict(projectors=projectors, design=design,
                                pinv=np.linalg.pinv(design), trace=n * design.sum(0),
                                total=n * projectors.sum(0)).items():
            object.__setattr__(self, name, qmath._freeze(value))  # fixed per spec

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
    gap: float                 # bounds max log-likelihood - log_likelihood
    history: tuple             # log-likelihood at the start and after each step taken


def _pair_projectors(side_labels):
    side = {k: np.outer(v, v.conj()) for k, v in encoding.POL_EIGENSTATES.items()}
    pairs = list(product(side_labels, repeat=2))
    return (tuple(a + b for a, b in pairs),
            [np.kron(side[a], side[b]) for a, b in pairs])


def standard_settings(counts_per_setting: int = 10_000) -> TomographySpec:
    """Overcomplete 36-setting tomography: six eigenstates on each side."""
    labels, projectors = _pair_projectors("HVDALR")
    return TomographySpec(labels, projectors, counts_per_setting)


def minimal_settings(counts_per_setting: int = 10_000) -> TomographySpec:
    """Minimal 16-setting tomography (H, V, D, L on each side)."""
    labels, projectors = _pair_projectors("HVDL")
    return TomographySpec(labels, projectors, counts_per_setting)


def _born(design: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Tr(P_s r) = conj(vec P_s) . vec r for every row of design, the
    conj-flattened projectors; linear in r, so r may be a difference."""
    return (design @ r.reshape(16)).real


def born_probabilities(rho: DensityMatrix, spec: TomographySpec) -> np.ndarray:
    if rho.dim != 4:
        raise ValueError("tomography operates on two-qubit (4x4) states")
    return np.maximum(_born(spec.design, rho.entries), 0.0)


def expected_counts(rho: DensityMatrix, spec: TomographySpec) -> np.ndarray:
    """Mean count of every setting: its probability on `qmath.GRID`, times N."""
    p = born_probabilities(rho, spec)
    return spec.counts_per_setting * GRID * np.rint(p / GRID)


def simulate_counts(rho: DensityMatrix, spec: TomographySpec, seed: int) -> np.ndarray:
    """Poisson coincidence counts for every setting, reproducible from seed."""
    qmath._check_seed(seed)
    return np.random.default_rng(seed).poisson(expected_counts(rho, spec))


def _project_density(h: np.ndarray) -> np.ndarray:
    """Frobenius-nearest density matrix: eigenvalues projected onto the simplex."""
    evals, evecs = np.linalg.eigh((h + h.conj().T) / 2)
    partial = 0.0
    for k, e in enumerate(evals[::-1].tolist(), 1):  # shift: the last (sum - 1)/k < e
        partial += e
        if e > (partial - 1) / k:
            shift = (partial - 1) / k
    weights = np.maximum(evals - shift, 0.0)
    return (evecs * weights) @ evecs.conj().T


def reconstruct(counts, spec: TomographySpec,
                target: StateVector | None = None) -> ReconstructionReport:
    """Maximum-likelihood density-matrix reconstruction from count data.

    `counts` may be floats (e.g. exact expected counts) for noiseless studies.
    The log-likelihood is Poisson's for means N Tr(P_s rho), up to a constant.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (spec.n_settings,) or not np.all(
            np.isfinite(counts) & (counts >= 0)):
        raise ValueError("counts must be one finite non-negative number per setting")
    seen = counts > 0
    n_seen, seen_rows = counts[seen], spec.projectors.reshape(-1, 16)[seen]
    seen_design, total, trace = spec.design[seen], spec.total, spec.trace

    def gain(p, d):
        # log-likelihood at r + d minus that at r, p = Tr(P_s r) on the seen
        # settings; from d itself, as values of size sum(counts) would cancel
        q = _born(seen_design, d) / p
        if q.min(initial=np.inf) <= -1:
            return -np.inf
        return float(n_seen @ np.log1p(q) - (trace @ d.reshape(16)).real)

    def gradient(p):  # of f = -log-likelihood
        return total - ((n_seen / p) @ seen_rows).reshape(4, 4)

    # least-squares linear inversion, p_s = conj(vec P_s) . vec rho
    rho = _project_density((spec.pinv @ (counts / spec.counts_per_setting)).reshape(4, 4))
    if _born(seen_design, rho).min(initial=np.inf) <= 0:
        rho = (rho + np.eye(4) / 4) / 2  # I/4 gives every seen setting p > 0
    p = _born(seen_design, rho)
    loglik = float(n_seen @ np.log(p) - (trace @ rho.reshape(16)).real)
    history = [loglik]

    tol = GAP_TOL * counts.sum()
    step, momentum, prev, iterations = 1 / max(counts.sum(), 1.0), 1.0, rho, 0
    while True:
        g = gradient(p)
        inner = np.vdot(g, rho).real
        # gap >= inner - min Re g_ii: solve only where gap may be <= tol, with a
        # margin far above eigvalsh's rounding
        solved = inner - min(g.diagonal().real.tolist()) <= (
            tol + 1e-12 * math.sqrt(np.vdot(g, g).real))
        gap = float(inner - np.linalg.eigvalsh(g)[0]) if solved else math.inf
        if gap <= tol or iterations == MAX_ITERATIONS:
            break
        iterations += 1
        # Nesterov extrapolation, restarted where it leaves the domain of f
        next_momentum = (1 + math.sqrt(1 + 4 * momentum ** 2)) / 2
        restarted = momentum == 1.0
        if not restarted:
            y = rho + (momentum - 1) / next_momentum * (rho - prev)
            py = _born(seen_design, y)
            restarted = py.min(initial=np.inf) <= 0
        if restarted:
            y, py, next_momentum = rho, p, (1 + math.sqrt(5)) / 2
        gy = g if restarted else gradient(py)
        step *= 2
        while True:  # backtrack until the quadratic model bounds f from above
            cand = _project_density(y - step * gy)
            d = cand - y
            step_gain = gain(py, d)
            if -step_gain <= np.vdot(gy, d).real + np.vdot(d, d).real / (2 * step):
                break
            step /= 2
        # from a restart y is rho, so the last trial's gain is the improvement
        improvement = step_gain if restarted else gain(p, cand - rho)
        if improvement <= 0:
            if restarted:  # such a step descends unless zero: a fixed point
                break
            momentum = 1.0
            continue
        prev, rho, p, momentum = rho, cand, _born(seen_design, cand), next_momentum
        loglik += improvement
        history.append(loglik)

    rho_hat = DensityMatrix(rho)
    fid = qmath.fidelity_pure(target, rho_hat) if target is not None else None
    return ReconstructionReport(
        rho_hat=rho_hat,
        fidelity_to_target=fid,
        purity=qmath.purity(rho_hat),
        log_likelihood=loglik,
        iterations=iterations,
        converged=gap <= tol,  # an unsolved gap exceeds tol; report it exactly
        gap=gap if solved else float(inner - np.linalg.eigvalsh(g)[0]),
        history=tuple(history),
    )
