"""Simulated two-qubit state tomography with maximum-likelihood reconstruction.

Settings are coincidence projector pairs on the Alice (x) Bob polarization
space.  Counts are Poisson-sampled from Born probabilities.  Reconstruction
projects the linear inversion onto the density matrices, then minimises the
negative Poisson log-likelihood f by accelerated projected gradient (Shang,
Zhang & Ng, PRA 95, 062336, 2017), which never lowers the likelihood.  As f is
convex, gap = <grad f(rho), rho> - lambda_min(grad f(rho)) bounds f(rho) -
min f; the fit has converged once gap <= GAP_TOL * sum(counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import encoding, qmath
from .qmath import DensityMatrix, StateVector

MAX_ITERATIONS = 10_000
GAP_TOL = 1e-8  # certified likelihood gap, in nats per count


@dataclass(frozen=True, eq=False)
class TomographySpec:
    """Informationally complete set of coincidence projector pairs; the
    projectors are held as one read-only (settings, 4, 4) array."""

    labels: tuple
    projectors: np.ndarray     # Alice (x) Bob
    counts_per_setting: int

    def __post_init__(self):
        if self.counts_per_setting < 1:
            raise ValueError("counts_per_setting must be positive")
        projectors = qmath._freeze(self.projectors)
        if projectors.shape[1:] != (4, 4) or gram_rank(projectors) < 16:
            raise ValueError("settings do not span the two-qubit operator space")
        object.__setattr__(self, "projectors", projectors)

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
    history: tuple | None = None


def gram_rank(projectors) -> int:
    flat = np.array([np.asarray(p).ravel() for p in projectors])
    return int(np.linalg.matrix_rank(flat, tol=1e-10))


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
    return np.maximum(_born(spec.projectors.reshape(-1, 16).conj(), rho.entries), 0.0)


def expected_counts(rho: DensityMatrix, spec: TomographySpec) -> np.ndarray:
    """Noiseless (infinite-statistics) count table."""
    return spec.counts_per_setting * born_probabilities(rho, spec)


def simulate_counts(rho: DensityMatrix, spec: TomographySpec, seed: int) -> np.ndarray:
    """Poisson coincidence counts for every setting, reproducible from seed."""
    return np.random.default_rng(seed).poisson(expected_counts(rho, spec))


def _project_density(h: np.ndarray) -> np.ndarray:
    """Frobenius-nearest density matrix: eigenvalues projected onto the simplex."""
    evals, evecs = np.linalg.eigh((h + h.conj().T) / 2)
    desc = evals[::-1]
    shift = (np.cumsum(desc) - 1) / np.arange(1, len(desc) + 1)
    k = np.flatnonzero(desc > shift)[-1]
    weights = np.maximum(evals - shift[k], 0.0)
    return (evecs * weights) @ evecs.conj().T


def reconstruct(counts, spec: TomographySpec,
                target: StateVector | None = None,
                keep_history: bool = False) -> ReconstructionReport:
    """Maximum-likelihood density-matrix reconstruction from count data.

    `counts` may be floats (e.g. exact expected counts) for noiseless studies.
    The log-likelihood is Poisson's for means N Tr(P_s rho), up to a constant.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (spec.n_settings,) or not np.all(
            np.isfinite(counts) & (counts >= 0)):
        raise ValueError("counts must be one finite non-negative number per setting")
    scale, seen = spec.counts_per_setting, counts > 0
    n_seen, rows = counts[seen], spec.projectors.reshape(-1, 16)
    design, seen_rows = rows.conj(), rows[seen]
    seen_design = design[seen]
    total = scale * spec.projectors.sum(axis=0)
    trace = scale * design.sum(axis=0)  # -N sum(p) runs over every setting

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
    rho = _project_density((np.linalg.pinv(design) @ (counts / scale)).reshape(4, 4))
    if _born(seen_design, rho).min(initial=np.inf) <= 0:
        rho = (rho + np.eye(4) / 4) / 2  # I/4 gives every seen setting p > 0
    p = _born(seen_design, rho)
    loglik = float(n_seen @ np.log(p) - (trace @ rho.reshape(16)).real)
    history = [loglik]

    tol = GAP_TOL * counts.sum()
    step, momentum, prev, iterations = 1 / max(counts.sum(), 1.0), 1.0, rho, 0
    while True:
        g = gradient(p)
        gap = float(np.vdot(g, rho).real - np.linalg.eigvalsh(g)[0])
        if gap <= tol or iterations == MAX_ITERATIONS:
            break
        iterations += 1
        # Nesterov extrapolation, restarted where it leaves the domain of f
        next_momentum = (1 + np.sqrt(1 + 4 * momentum ** 2)) / 2
        y = rho + (momentum - 1) / next_momentum * (rho - prev)
        py = _born(seen_design, y)
        restarted = momentum == 1.0 or py.min(initial=np.inf) <= 0
        if restarted:
            y, py, next_momentum = rho, p, (1 + np.sqrt(5)) / 2
        gy = g if restarted else gradient(py)
        step *= 2
        while True:  # backtrack until the quadratic model bounds f from above
            cand = _project_density(y - step * gy)
            d = cand - y
            if -gain(py, d) <= np.vdot(gy, d).real + np.vdot(d, d).real / (2 * step):
                break
            step /= 2
        improvement = gain(p, cand - rho)
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
        converged=gap <= tol,
        gap=gap,
        history=tuple(history) if keep_history else None,
    )
