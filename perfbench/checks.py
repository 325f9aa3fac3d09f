"""Independent references and correctness checks for the benchmark.

Nothing here imports vortexsteer.  Every expected value is computed from
the physics or from the definition of the bound, so a wrong program output
cannot agree with its reference by sharing code with it.  Each check raises
``CheckFailed`` with a message naming the quantity that is off.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

# Statistical checks compare an estimate with its exact expectation in units
# of the program's own standard error.  One steer-campaign run makes ~1,200
# such checks and a benchmark verdict takes ~150 runs, so a 4-sigma cut
# (two-sided p = 6.3e-5) would raise about a dozen false alarms; at 6 sigma
# (p = 2e-9) the expected number is below 1e-3, while a bias of 6 sigma is
# still only ~0.002 in S at 1e6 trials.
Z_STEER = 6.0
# Tomography fidelities are compared in units of the standard deviation of
# the linear-inversion estimate, which is about four times wider than the
# spread of the maximum-likelihood estimate at both count levels used.
Z_TOMO = 4.0
BOUND_TOL = 1e-8
DENSITY_TOL = 1e-9

KET = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "A": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "L": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "R": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}
TOMO_LABELS = ("H", "V", "D", "A", "L", "R")


class CheckFailed(AssertionError):
    """A program output disagrees with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- loss-tolerant bound -------------------------------------------------

def best_payoffs(dirs: np.ndarray) -> np.ndarray:
    """P*(a) for a = 0..n: the largest |sum_k s_k u_k| over answer patterns
    s in {0, +1, -1}^n with exactly a non-zero entries."""
    n = len(dirs)
    best = np.zeros(n + 1)
    for pattern in itertools.product((0, 1, -1), repeat=n):
        a = sum(1 for s in pattern if s)
        norm = float(np.linalg.norm(np.asarray(pattern, dtype=float) @ dirs))
        best[a] = max(best[a], norm)
    return best


def envelope(pstar: np.ndarray, xi: float) -> float:
    """C_n(xi) as the best mixture of at most two points (a, P*(a)) whose
    mean number of answered settings is at least n * xi."""
    n = len(pstar) - 1
    floor = n * xi
    best = max((pstar[a] / a for a in range(1, n + 1) if a >= floor),
               default=0.0)
    for lo in range(1, n + 1):
        for hi in range(lo + 1, n + 1):
            if lo < floor < hi:
                w = (hi - floor) / (hi - lo)
                best = max(best, (w * pstar[lo] + (1 - w) * pstar[hi]) / floor)
    return float(best)


def check_bound_curve(pstar: np.ndarray, xi_grid, c_values) -> None:
    n = len(pstar) - 1
    require(len(xi_grid) == len(c_values), "bound curve length mismatch")
    for xi, c in zip(xi_grid, c_values):
        ref = envelope(pstar, xi)
        require(abs(c - ref) <= BOUND_TOL,
                f"C_{n}({xi!r}) = {c!r}, envelope {ref!r}")
        if xi <= 1 / n:
            require(abs(c - 1.0) <= BOUND_TOL, f"C_{n}({xi!r}) = {c!r} != 1")
        if xi == 1.0:
            require(abs(c - pstar[n] / n) <= BOUND_TOL,
                    f"C_{n}(1) = {c!r} != sign-pattern max / n")
            if n == 3:
                require(abs(c - 1 / math.sqrt(3)) <= BOUND_TOL,
                        f"C_3(1) = {c!r} != 1/sqrt(3)")
    for a, b in zip(c_values, c_values[1:]):
        require(b <= a + 1e-12, f"bound curve increases: {a!r} -> {b!r}")


# --- steering ------------------------------------------------------------

def visibility(fidelity: float) -> float:
    return (4 * fidelity - 1) / 3


def expected_s(encoding: str, v: float, dirs: np.ndarray, thetas=None) -> float:
    """Exact S_n for a Werner state of visibility v.

    The vortex qubit is rotation invariant, so S = v at any orientation.  A
    bare polarization qubit seen by a receiver rotated by theta has each
    direction turned by 2 theta about the circular (z) axis, so setting k
    contributes v (u_kz^2 + (1 - u_kz^2) cos 2 theta_k).  ``thetas`` is one
    angle for all settings, one angle per setting, or None for an angle
    drawn uniformly on [0, pi/2] per trial, where cos 2 theta averages to 0.
    """
    if encoding == "vortex":
        return v
    uz2 = dirs[:, 2] ** 2
    cos2 = 0.0 if thetas is None else np.cos(2 * np.asarray(thetas, float))
    return float(v * np.mean(uz2 + (1 - uz2) * cos2))


def check_steering(label: str, s: float, std_err: float, announce: float,
                   bound: float, violated: bool, *, expected: float,
                   efficiency: float, trials: int, pstar: np.ndarray,
                   must_violate: bool | None) -> None:
    require(std_err > 0, f"{label}: std_err {std_err!r} not positive")
    require(abs(s - expected) <= Z_STEER * std_err,
            f"{label}: S = {s!r}, expected {expected!r} +- "
            f"{Z_STEER:g} x {std_err!r}")
    xi_err = math.sqrt(efficiency * (1 - efficiency) / trials)
    require(abs(announce - efficiency) <= Z_STEER * xi_err,
            f"{label}: announce fraction {announce!r}, expected {efficiency!r}")
    ref = envelope(pstar, announce)
    require(abs(bound - ref) <= BOUND_TOL,
            f"{label}: bound {bound!r} at xi = {announce!r}, envelope {ref!r}")
    require(violated == (s - 2 * std_err > bound),
            f"{label}: verdict {violated} inconsistent with S - 2 sigma vs C")
    if must_violate is not None:
        require(violated == must_violate,
                f"{label}: violated = {violated}, expected {must_violate}")


# --- tomography ----------------------------------------------------------

def singlet() -> np.ndarray:
    return (np.kron(KET["H"], KET["V"]) - np.kron(KET["V"], KET["H"])) / math.sqrt(2)


def werner(v: float) -> np.ndarray:
    psi = singlet()
    return v * np.outer(psi, psi.conj()) + (1 - v) * np.eye(4) / 4


def rotated_90(rho: np.ndarray) -> np.ndarray:
    """Bob's qubit behind a receiver turned by 90 degrees: a pi rotation
    about the circular axis, conjugation by I (x) (|L><L| - |R><R|)."""
    sigma = np.outer(KET["L"], KET["L"].conj()) - np.outer(KET["R"], KET["R"].conj())
    u = np.kron(np.eye(2), sigma)
    return u @ rho @ u.conj().T


def tomography_projectors() -> np.ndarray:
    """The 36 Alice (x) Bob projector pairs, labels H V D A L R on each side."""
    return np.array([np.kron(np.outer(KET[a], KET[a].conj()),
                             np.outer(KET[b], KET[b].conj()))
                     for a, b in itertools.product(TOMO_LABELS, repeat=2)])


def born(rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    return np.einsum("sij,ji->s", projectors, rho).real


def poisson_loglik(counts, rho: np.ndarray, projectors: np.ndarray,
                   counts_per_setting: int) -> float:
    """sum_s n_s log(mu_s) - mu_s with mu_s = N Tr(P_s rho)."""
    counts = np.asarray(counts, dtype=float)
    mu = counts_per_setting * born(rho, projectors)
    seen = counts > 0
    if np.any(mu[seen] <= 0):
        return -math.inf
    return float(np.sum(counts[seen] * np.log(mu[seen])) - mu.sum())


def fidelity_sigma(rho: np.ndarray, psi: np.ndarray, projectors: np.ndarray,
                   counts_per_setting: int) -> float:
    """Standard deviation of the least-squares linear-inversion estimate of
    <psi|rho|psi> from Poisson counts with N counts per setting."""
    paulis = [np.eye(2), np.array([[1, 0], [0, -1]]),
              np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])]
    basis = np.array([np.kron(a, b) / 2 for a in paulis for b in paulis])
    design = np.einsum("sij,bji->sb", projectors, basis).real
    target = np.einsum("i,bij,j->b", psi.conj(), basis, psi).real
    weights = target @ np.linalg.pinv(design)
    variance = np.sum(weights ** 2 * born(rho, projectors) / counts_per_setting)
    return float(math.sqrt(variance))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = (a - b + (a - b).conj().T) / 2
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def check_density(label: str, rho: np.ndarray) -> None:
    require(rho.shape == (4, 4), f"{label}: shape {rho.shape}")
    require(np.max(np.abs(rho - rho.conj().T)) <= DENSITY_TOL,
            f"{label}: not Hermitian")
    require(abs(np.trace(rho) - 1) <= DENSITY_TOL, f"{label}: trace != 1")
    require(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -DENSITY_TOL,
            f"{label}: negative eigenvalue")


def check_fidelity(label: str, fidelity: float, rho_hat: np.ndarray,
                   rho_true: np.ndarray, counts_per_setting: int) -> None:
    """Reported fidelity is <psi|rho_hat|psi> and lies within the sampling
    tolerance of the true state's fidelity."""
    psi = singlet()
    check_density(label, rho_hat)
    own = float((psi.conj() @ rho_hat @ psi).real)
    require(abs(fidelity - own) <= 1e-9,
            f"{label}: reported fidelity {fidelity!r} != <psi|rho_hat|psi> {own!r}")
    truth = float((psi.conj() @ rho_true @ psi).real)
    tol = Z_TOMO * fidelity_sigma(rho_true, psi, tomography_projectors(),
                                  counts_per_setting)
    require(abs(fidelity - truth) <= tol,
            f"{label}: fidelity {fidelity!r}, expected {truth!r} +- {tol:.3g}")


def check_likelihood(label: str, counts, rho_hat: np.ndarray,
                     rho_true: np.ndarray, counts_per_setting: int) -> None:
    projs = tomography_projectors()
    ll_hat = poisson_loglik(counts, rho_hat, projs, counts_per_setting)
    ll_true = poisson_loglik(counts, rho_true, projs, counts_per_setting)
    require(ll_hat >= ll_true - 1e-9 * abs(ll_true),
            f"{label}: log-likelihood {ll_hat!r} below the true state's {ll_true!r}")


# --- command-line outputs --------------------------------------------------

def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_bound_csv(path: str, xi_grid, pstar: np.ndarray) -> None:
    rows = read_csv(path)
    require(len(rows) == len(xi_grid), f"{path}: {len(rows)} rows, "
            f"expected {len(xi_grid)}")
    xis = [float(r["xi"]) for r in rows]
    for got, want in zip(xis, xi_grid):
        require(abs(got - want) <= 1e-11 * want, f"{path}: xi {got!r} != {want!r}")
    check_bound_curve(pstar, xis, [float(r["c_n"]) for r in rows])


def check_run_csv(path: str, *, expected, efficiency: float, trials: int,
                  pstar: np.ndarray, must_violate: bool | None) -> None:
    """``expected`` maps a row's theta_deg field to its exact S."""
    rows = read_csv(path)
    require(len(rows) > 0, f"{path}: no rows")
    for r in rows:
        check_steering(
            f"{path}[{r['theta_deg']}]", float(r["s_value"]),
            float(r["std_err"]), float(r["announce_fraction"]),
            float(r["bound"]), r["violated"] == "true",
            expected=expected(r["theta_deg"]), efficiency=efficiency,
            trials=trials, pstar=pstar, must_violate=must_violate)


def check_tomo_json(path: str, rho_true: np.ndarray, counts_per_setting: int) -> None:
    with open(path) as fh:
        payload = json.load(fh)
    rho_hat = np.array([[z["re"] + 1j * z["im"] for z in row]
                        for row in payload["rho_hat"]])
    check_fidelity(path, payload["fidelity"], rho_hat, rho_true,
                   counts_per_setting)
    purity = float(np.trace(rho_hat @ rho_hat).real)
    require(abs(payload["purity"] - purity) <= 1e-9,
            f"{path}: purity {payload['purity']!r} != Tr rho_hat^2 {purity!r}")


def check_same_bytes(path: str, original: bytes) -> None:
    with open(path, "rb") as fh:
        rerun = fh.read()
    require(rerun == original, f"{path}: --config rerun is not byte-identical")
