"""Reference maximum-likelihood fit: the projected-gradient loop written
without shortcuts.  It rebuilds the design matrix and its pinv on every fit,
projects with the array form of the simplex threshold and takes the exact
gap, eigvalsh included, on every iteration.  `tomography.reconstruct` must
return the same report bit for bit, for any iteration cap, on every fit that
its Newton phase does not certify, up to the loop's fixed point, after which
reconstruct's Frank-Wolfe end game carries the history on."""

import numpy as np

from vortexsteer import tomography as tm
from vortexsteer.qmath import DensityMatrix


def _born(design, r):
    return (design @ r.reshape(16)).real


def project_density(h):
    """Frobenius-nearest density matrix: eigenvalues projected onto the simplex."""
    evals, evecs = np.linalg.eigh((h + h.conj().T) / 2)
    desc = evals[::-1]
    shift = (np.cumsum(desc) - 1) / np.arange(1, len(desc) + 1)
    k = np.flatnonzero(desc > shift)[-1]
    weights = np.maximum(evals - shift[k], 0.0)
    return (evecs * weights) @ evecs.conj().T


def reconstruct(counts, spec, target=None, max_iterations=tm.MAX_ITERATIONS):
    counts = np.asarray(counts, dtype=float)
    scale, seen = spec.counts_per_setting, counts > 0
    n_seen, rows = counts[seen], spec.projectors.reshape(-1, 16)
    design, seen_rows = rows.conj(), rows[seen]
    seen_design = design[seen]
    total = scale * spec.projectors.sum(axis=0)
    trace = scale * design.sum(axis=0)

    def gain(p, d):
        q = _born(seen_design, d) / p
        if q.min(initial=np.inf) <= -1:
            return -np.inf
        return float(n_seen @ np.log1p(q) - (trace @ d.reshape(16)).real)

    def gradient(p):
        return total - ((n_seen / p) @ seen_rows).reshape(4, 4)

    rho = project_density((np.linalg.pinv(design) @ (counts / scale)).reshape(4, 4))
    if _born(seen_design, rho).min(initial=np.inf) <= 0:
        rho = (rho + np.eye(4) / 4) / 2
    p = _born(seen_design, rho)
    loglik = float(n_seen @ np.log(p) - (trace @ rho.reshape(16)).real)
    history = [loglik]

    tol = tm.GAP_TOL * counts.sum()
    step, momentum, prev, iterations = 1 / max(counts.sum(), 1.0), 1.0, rho, 0
    while True:
        g = gradient(p)
        gap = float(np.vdot(g, rho).real - np.linalg.eigvalsh(g)[0])
        if gap <= tol or iterations == max_iterations:
            break
        iterations += 1
        next_momentum = (1 + np.sqrt(1 + 4 * momentum ** 2)) / 2
        restarted = momentum == 1.0
        if not restarted:
            y = rho + (momentum - 1) / next_momentum * (rho - prev)
            py = _born(seen_design, y)
            restarted = py.min(initial=np.inf) <= 0
        if restarted:
            y, py, next_momentum = rho, p, (1 + np.sqrt(5)) / 2
        gy = g if restarted else gradient(py)
        step *= 2
        while True:
            cand = project_density(y - step * gy)
            d = cand - y
            step_gain = gain(py, d)
            if -step_gain <= np.vdot(gy, d).real + np.vdot(d, d).real / (2 * step):
                break
            step /= 2
        improvement = step_gain if restarted else gain(p, cand - rho)
        if improvement <= 0:
            if restarted:
                break
            momentum = 1.0
            continue
        prev, rho, p, momentum = rho, cand, _born(seen_design, cand), next_momentum
        loglik += improvement
        history.append(loglik)

    return tm.ReconstructionReport(
        rho_hat=DensityMatrix(rho),
        target=target,
        iterations=iterations,
        tolerance=tol,
        gap=gap,
        history=tuple(history),
    )
