"""Simulated two-qubit state tomography with maximum-likelihood reconstruction.

Settings are coincidence projector pairs on the Alice (x) Bob polarization
space.  Counts are Poisson-sampled from Born probabilities.  Reconstruction
starts from the linear inversion projected onto the density matrices and
minimises the negative Poisson log-likelihood f, never lowering the
likelihood.  As f is convex, gap = <grad f(rho), rho> - lambda_min(grad f(rho))
bounds f(rho) - min f; the fit has converged once gap <= GAP_TOL * sum(counts).

Three phases, each counted in `iterations` and stopped at MAX_ITERATIONS:

* Newton (Boyd & Vandenberghe 2004, 9.5), for interior optima: if the start
  is not certified and at least 15 settings saw counts, damped Newton steps
  in the 15 traceless Hermitian directions, Hessian D^T diag(n/p^2) D, from
  the start mixed 1e-3 with I/4.  Each step is halved until it gains an
  Armijo share of the Newton decrement and keeps rho positive definite.  An
  attempt not certified within _NEWTON_STEPS steps, or damped below
  _MIN_STEP, is discarded without trace.
* Otherwise accelerated projected gradient (Shang, Zhang & Ng, PRA 95,
  062336, 2017) from the start, until the gap certifies or a fixed point.
* At an uncertified fixed point below the cap, a Frank-Wolfe end game (Jaggi,
  ICML 2013): exact line searches toward the eigenvector of lambda_min(grad f),
  which certify fits whose projected steps are lost to rounding.

The spec holds the fit's fixed arrays; lambda_min is solved only where it can
decide.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import product

import numpy as np

from . import encoding, qmath
from .qmath import GRID, DensityMatrix, StateVector, _check_real, _real_array

MAX_ITERATIONS = 10_000
GAP_TOL = 1e-8  # certified likelihood gap, in nats per count
_NEWTON_STEPS = 8    # a Newton attempt not certified after these is discarded
_NEWTON_MIX = 1e-3   # weight of I/4 in the Newton start
_ARMIJO = 0.25       # share of the Newton decrement a damped step must gain
# a step damped below this meets the boundary: the optimum is not interior.
# In 320 random fits (1e2 to 1e5 counts per setting), no attempt that went on
# to certify took a step below 1/8
_MIN_STEP = 2.0 ** -4

# the 15 traceless Pauli products sigma_a (x) sigma_b, flattened: a basis B_k
# of the traceless Hermitian directions
_PAULI = (np.eye(2), ((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))
_TRACELESS = qmath._freeze([np.kron(a, b).reshape(16)
                            for a in _PAULI for b in _PAULI][1:])


@dataclass(frozen=True, eq=False)
class TomographySpec:
    """Informationally complete set of coincidence projector pairs; the
    projectors are held as one read-only (settings, 4, 4) array."""

    labels: tuple
    projectors: np.ndarray     # Alice (x) Bob
    counts_per_setting: int
    design: np.ndarray = field(init=False, repr=False)  # rows conj(vec P_s)
    pinv: np.ndarray = field(init=False, repr=False)    # of design
    coords: np.ndarray = field(init=False, repr=False)  # real Tr(P_s B_k), (settings, 15)
    total: np.ndarray = field(init=False, repr=False)   # N sum_s P_s
    trace: np.ndarray = field(init=False, repr=False)   # trace @ vec r = N sum_s p_s

    def __post_init__(self):
        qmath._check_count("counts_per_setting", self.counts_per_setting)
        if self.counts_per_setting < 1:
            raise ValueError("counts_per_setting must be positive")
        projectors, n = qmath._freeze(self.projectors), self.counts_per_setting
        if projectors.shape[1:] != (4, 4) or np.linalg.matrix_rank(
                design := projectors.reshape(-1, 16).conj(), tol=1e-10) < 16:
            raise ValueError("settings do not span the two-qubit operator space")
        if not isinstance(self.labels, (tuple, list)) or len(self.labels) != len(design):
            raise ValueError("labels must be a tuple or list, one label per setting")
        object.__setattr__(self, "labels", tuple(self.labels))
        for name, value in dict(projectors=projectors, design=design,
                                pinv=np.linalg.pinv(design), trace=n * design.sum(0),
                                total=n * projectors.sum(0)).items():
            object.__setattr__(self, name, qmath._freeze(value))  # fixed per spec
        coords = (design @ _TRACELESS.T).real.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def n_settings(self) -> int:
        return len(self.projectors)


def _check_target(target) -> None:
    if target is not None and not (isinstance(target, StateVector) and target.dim == 4):
        raise ValueError("target must be None or a two-qubit (4-dim) StateVector")


@dataclass(frozen=True)
class ReconstructionReport:
    """A fit and what it determines: fidelity to `target` and gap <= `tolerance`."""

    rho_hat: DensityMatrix
    target: InitVar[StateVector | None]
    fidelity_to_target: float | None = field(init=False)
    purity: float = field(init=False)
    log_likelihood: float = field(init=False)
    iterations: int
    tolerance: float           # GAP_TOL * sum(counts) for a fit
    converged: bool = field(init=False)
    gap: float                 # bounds max log-likelihood - log_likelihood
    history: tuple             # log-likelihood at the start and after each step taken

    def __post_init__(self, target):
        if not (isinstance(self.rho_hat, DensityMatrix) and self.rho_hat.dim == 4):
            raise ValueError("rho_hat must be a 4x4 DensityMatrix")
        _check_target(target)
        qmath._check_count("iterations", self.iterations)
        if not 0.0 <= (tol := _check_real("tolerance", self.tolerance)) < math.inf:
            raise ValueError("tolerance must be finite and non-negative")
        if math.isnan(gap := _check_real("gap", self.gap)):
            raise ValueError("gap must not be NaN")
        if not isinstance(self.history, (tuple, list)) or not self.history:
            raise ValueError("history must be a non-empty tuple or list")
        object.__setattr__(self, "history", tuple(  # an exact float skips the check
            h if type(h) is float else _check_real("history entry", h)
            for h in self.history))
        for name, value in dict(
                fidelity_to_target=None if target is None else
                qmath.fidelity_pure(target, self.rho_hat),
                purity=qmath.purity(self.rho_hat), log_likelihood=self.history[-1],
                tolerance=tol, converged=gap <= tol, gap=gap).items():
            object.__setattr__(self, name, value)


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
    if not isinstance(rho, DensityMatrix):
        raise ValueError(f"rho must be a DensityMatrix, got {rho!r}")
    if not isinstance(spec, TomographySpec):
        raise ValueError(f"spec must be a TomographySpec, got {spec!r}")
    if rho.dim != 4:
        raise ValueError("tomography operates on two-qubit (4x4) states")
    return np.maximum(_born(spec.design, rho.entries), 0.0)


def expected_counts(rho: DensityMatrix, spec: TomographySpec) -> np.ndarray:
    """Mean count of every setting: its probability on `qmath.GRID`, times N."""
    p = born_probabilities(rho, spec)
    return spec.counts_per_setting * GRID * np.rint(p / GRID)


def simulate_counts(rho: DensityMatrix, spec: TomographySpec, seed: int) -> np.ndarray:
    """Poisson coincidence counts for every setting, reproducible from seed."""
    qmath._check_count("seed", seed)
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
    counts = _real_array("counts", counts)
    if not isinstance(spec, TomographySpec):
        raise ValueError(f"spec must be a TomographySpec, got {spec!r}")
    if counts.shape != (spec.n_settings,) or not np.all(
            np.isfinite(counts) & (counts >= 0)):
        raise ValueError("counts must be one finite non-negative number per setting")
    _check_target(target)
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

    def log_likelihood(r, p):
        return float(n_seen @ np.log(p) - (trace @ r.reshape(16)).real)

    tol = GAP_TOL * counts.sum()

    def certified_gap(g, r, exact=False):
        # gap >= inner - min Re g_ii: solve only where gap may be <= tol, with a
        # margin far above eigvalsh's rounding; math.inf stands for unsolved
        inner = np.vdot(g, r).real
        if exact or inner - min(g.diagonal().real.tolist()) <= (
                tol + 1e-12 * math.sqrt(np.vdot(g, g).real)):
            return float(inner - np.linalg.eigvalsh(g)[0])
        return math.inf

    def newton(start):
        """Damped Newton from start mixed with I/4, in the coordinates x of
        r = sum_k x_k B_k: the report if it certifies within _NEWTON_STEPS
        steps and the cap, else None."""
        seen_coords = spec.coords[seen]
        linear = spec.counts_per_setting * spec.coords.sum(0)  # d/dx of N sum_s p_s
        rho = (1 - _NEWTON_MIX) * start + _NEWTON_MIX / 4 * np.eye(4)
        p = _born(seen_design, rho)
        history = [log_likelihood(rho, p)]
        steps = min(_NEWTON_STEPS, MAX_ITERATIONS)
        for iterations in range(steps + 1):
            if (gap := certified_gap(gradient(p), rho)) <= tol:
                return ReconstructionReport(
                    rho_hat=DensityMatrix(rho), target=target, iterations=iterations,
                    tolerance=tol, history=tuple(history), gap=gap)
            if iterations == steps:
                return None
            w = n_seen / p
            ascent = w @ seen_coords - linear        # -grad f
            try:  # the Hessian of f, D^T diag(n/p^2) D
                x = np.linalg.solve((seen_coords.T * (w / p)) @ seen_coords, ascent)
            except np.linalg.LinAlgError:
                return None
            decrement, d = ascent @ x, (x @ _TRACELESS).reshape(4, 4)
            t = 1.0  # halve until the step gains an Armijo share and rho stays > 0
            while not ((step_gain := gain(p, t * d)) >= _ARMIJO * t * decrement > 0
                       and np.linalg.eigvalsh(rho + t * d)[0] > 0):
                if (t := t / 2) < _MIN_STEP:
                    return None
            rho = rho + t * d
            p = _born(seen_design, rho)
            history.append(history[-1] + step_gain)

    # least-squares linear inversion, p_s = conj(vec P_s) . vec rho
    rho = _project_density((spec.pinv @ (counts / spec.counts_per_setting)).reshape(4, 4))
    if _born(seen_design, rho).min(initial=np.inf) <= 0:
        rho = (rho + np.eye(4) / 4) / 2  # I/4 gives every seen setting p > 0
    p = _born(seen_design, rho)
    g = gradient(p)
    gap = certified_gap(g, rho)
    # an interior optimum: Newton; below 15 seen settings its Hessian is singular
    if gap > tol and len(n_seen) >= 15 and (report := newton(rho)) is not None:
        return report
    loglik = log_likelihood(rho, p)
    history = [loglik]

    step, momentum, prev, iterations = 1 / max(counts.sum(), 1.0), 1.0, rho, 0
    stalled = False
    while gap > tol and iterations < MAX_ITERATIONS:
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
                stalled = True
                break
            momentum = 1.0
            continue
        prev, rho, p, momentum = rho, cand, _born(seen_design, cand), next_momentum
        loglik += improvement
        history.append(loglik)
        g = gradient(p)
        gap = certified_gap(g, rho)

    # Frank-Wolfe end game (Jaggi, ICML 2013) at a fixed point: toward v v+,
    # v the eigenvector of lambda_min(g), by an exact line search on the
    # concave h(t) = sum_s n_s log1p(t q_s) - t c, t in [0, 1)
    while stalled and gap > tol and iterations < MAX_ITERATIONS:
        evals, evecs = np.linalg.eigh(g)
        if (gap := float(np.vdot(g, rho).real - evals[0])) <= tol:
            break
        d = np.outer(evecs[:, 0], evecs[:, 0].conj()) - rho
        q, c = _born(seen_design, d) / p, (trace @ d.reshape(16)).real
        lo, hi = 0.0, 1.0  # bisect h'(t) = sum_s n_s q_s / (1 + t q_s) - c
        for _ in range(53):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if n_seen @ (q / (1 + mid * q)) > c else (lo, mid)
        if (step_gain := gain(p, lo * d)) <= 0:
            break
        iterations += 1
        rho = rho + lo * d
        p = _born(seen_design, rho)
        loglik += step_gain
        history.append(loglik)
        g, gap = gradient(p), math.inf

    return ReconstructionReport(  # an unsolved gap exceeds tol; report it exactly
        rho_hat=DensityMatrix(rho), target=target, iterations=iterations,
        tolerance=tol, history=tuple(history),
        gap=gap if gap < math.inf else certified_gap(g, rho, exact=True))
