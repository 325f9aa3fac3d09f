"""Independent references for the loss-tolerant bound, kept out of the package.

- `lp_bound`: the linear-fractional program over all 3^n - 1 deterministic
  strategies (Charnes-Cooper normalisation, scipy's HiGHS backend), with the
  announce floor on the average or on every setting.
- `bound_oracle`: a brute-force sphere-grid lower bound on C_n(xi).
- `brute_force_pstar` and `envelope`: P*(a) by enumeration and the best
  mixture of at most two points (a, P*(a)).
- `hull_facets`: the facets of the upper concave hull of (a, P*(a)) by gift
  wrapping, each a linear steering inequality P(s) <= alpha + beta a(s).
- `strategy_payoff`: the payoff of one strategy, summed setting by setting.
- `mean_ratio_cheater`: the LHS mixture that maximises the mean over
  settings of the per-setting ratios at fixed per-setting announce rates.
- `frozen_bound`: C_n(xi), its witness and its slope by the earlier
  arithmetic on a vertex table (vertices, their (P*, strategy) and the
  facets' lines), kept verbatim so a change every caller shares shows.
"""

from __future__ import annotations

import bisect
from itertools import product

import numpy as np

from vortexsteer.bounds import SUPPORT_TOL, CheatStrategy, _facets
from vortexsteer.steering import MeasurementSet


def strategy_payoff(strategy: CheatStrategy, mset: MeasurementSet) -> tuple[float, int]:
    """(sum of answered payoffs, number of answered settings)."""
    if len(strategy.answers) != mset.n:
        raise ValueError("strategy length does not match measurement set")
    payoff = sum(a * float(u @ strategy.bloch)
                 for a, u in zip(strategy.answers, mset.directions))
    return payoff, sum(1 for a in strategy.answers if a != 0)


def enumerate_strategies(mset: MeasurementSet):
    """All 3^n - 1 answer patterns, each with its optimal Bloch vector, in
    lexicographic order (null < +1 < -1 per setting)."""
    dirs = mset.as_matrix()
    strategies = []
    payoffs = []
    answered = []
    for pattern in product((0, 1, -1), repeat=mset.n):
        if all(a == 0 for a in pattern):
            continue
        resultant = np.asarray(pattern, dtype=float) @ dirs
        norm = float(np.linalg.norm(resultant))
        if norm > 1e-15:
            bloch = resultant / norm
        else:
            bloch = np.array([0.0, 0.0, 1.0])  # payoff 0, direction irrelevant
        strategies.append(CheatStrategy(bloch, pattern))
        payoffs.append(norm)
        answered.append(sum(1 for a in pattern if a != 0))
    return strategies, np.array(payoffs), np.array(answered, dtype=float)


def lp_bound(mset: MeasurementSet, xi: float, per_setting: bool = False):
    """C_n(xi) and an optimizing mixture from the HiGHS linear program.

    With per_setting=True the announce floor is imposed for every setting
    individually instead of on the average (strict reading).
    """
    from scipy.optimize import linprog

    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must lie in (0, 1], got {xi}")
    n = mset.n
    strategies, payoffs, answered = enumerate_strategies(mset)
    m = len(strategies)

    # Charnes-Cooper variables q_j >= 0 with sum_j q_j A_j = 1:
    #   maximize sum q_j P_j,  subject to sum q_j <= 1 / (n xi)
    a_eq = [answered]
    b_eq = [1.0]
    a_ub = [np.ones(m)]
    b_ub = [1.0 / (n * xi)]
    if per_setting:
        indicator = np.array([[1.0 if s.answers[k] != 0 else 0.0
                               for s in strategies] for k in range(n)])
        # sum_j q_j 1{k in T_j} >= xi sum_j q_j  for each setting k
        for k in range(n):
            a_ub.append(xi * np.ones(m) - indicator[k])
            b_ub.append(0.0)
    res = linprog(-payoffs, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"bound LP failed: {res.message}")
    q = res.x
    total = q.sum()
    support = np.nonzero(q > SUPPORT_TOL * max(1.0, total))[0]
    witness = tuple((float(q[j] / total), strategies[j]) for j in support)
    return float(-res.fun), witness


def mean_ratio_cheater(mset: MeasurementSet, rates) -> list:
    """The LHS mixture, as (weight, Bloch vector, pattern) triples, that
    maximises the mean over settings of N_k / D_k with setting k announced at
    rate D_k: an LP over all 3^n patterns, the all-null one included.  Bob's
    best state for a pattern s is the resultant of s_k u_k / D_k, and its
    norm is the pattern's share of the objective."""
    from scipy.optimize import linprog

    rates = np.asarray(rates, dtype=float)
    patterns = np.array(list(product((0, 1, -1), repeat=mset.n)))
    resultants = (patterns / rates) @ mset.directions
    norms = np.linalg.norm(resultants, axis=1)
    a_eq = np.vstack([(patterns != 0).T, np.ones(len(patterns))])
    res = linprog(-norms, A_eq=a_eq, b_eq=np.append(rates, 1.0), bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"cheater LP failed: {res.message}")
    return [(float(q), r / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0]),
             tuple(int(a) for a in pattern))
            for q, r, norm, pattern in zip(res.x, resultants, norms, patterns)
            if q > 1e-12]


def brute_force_pstar(mset: MeasurementSet) -> list[float]:
    """P*(a) for a = 0..n: the longest resultant sum_k s_k u_k over answer
    patterns with exactly a non-zero entries."""
    dirs = mset.as_matrix()
    best = [0.0] * (mset.n + 1)
    for pattern in product((0, 1, -1), repeat=mset.n):
        a = sum(1 for s in pattern if s)
        best[a] = max(best[a], float(np.linalg.norm(np.asarray(pattern, float) @ dirs)))
    return best


def envelope(pstar, xi: float) -> float:
    """The best mixture of at most two points (a, P*(a)) whose mean number
    of answered settings is at least n * xi, as payoff per answered setting."""
    n = len(pstar) - 1
    floor = n * xi
    best = max((pstar[a] / a for a in range(1, n + 1) if a >= floor), default=0.0)
    for lo in range(1, n + 1):
        for hi in range(lo + 1, n + 1):
            if lo < floor < hi:
                w = (hi - floor) / (hi - lo)
                best = max(best, (w * pstar[lo] + (1 - w) * pstar[hi]) / floor)
    return best


def hull_facets(pstar) -> list[tuple[float, float]]:
    """(alpha_j, beta_j), intercept and slope, of each facet of the upper
    concave hull of the points (a, pstar[a]), a = 0..n, from a = 0 upward.

    Gift wrapping: from each vertex the next one is the point of steepest
    slope, the farthest among equal slopes, so collinear points are skipped.
    """
    n = len(pstar) - 1
    facets, v = [], 0
    while v < n:
        slopes = [((pstar[a] - pstar[v]) / (a - v), a) for a in range(v + 1, n + 1)]
        beta, nxt = max(slopes)
        facets.append((pstar[v] - beta * v, beta))
        v = nxt
    return facets


def bound_oracle(mset: MeasurementSet, xi: float,
                 sphere_resolution: float = 1e-2) -> float:
    """Independent brute-force lower bound on C_n(xi).

    Grid-searches the Bloch sphere for every answer pattern, then mixes every
    pair of strategies.  For a pair, the conditional correlation is a
    monotone fractional-linear function of the mixing weight, so only the
    endpoints of the feasible weight interval need evaluation.
    """
    if sphere_resolution > 1e-2 + 1e-15:
        raise ValueError("sphere resolution must be <= 1e-2")
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must lie in (0, 1], got {xi}")
    n = mset.n
    dirs = mset.as_matrix()

    grid = _fibonacci_sphere(int(np.ceil(4 * np.pi / sphere_resolution ** 2)))
    patterns = [np.asarray(p, float) for p in product((0, 1, -1), repeat=n)
                if any(p)]
    resultants = np.array(patterns) @ dirs                  # (m, 3)
    payoffs = np.max(grid @ resultants.T, axis=0)           # grid-limited P_j
    answered = np.array([np.count_nonzero(p) for p in patterns], dtype=float)

    floor = n * xi
    p_i = payoffs[:, None]
    p_j = payoffs[None, :]
    a_i = answered[:, None]
    a_j = answered[None, :]

    best = 0.0
    # candidate mixing weights: w = 0, w = 1, and the constraint boundary
    for w in (np.zeros_like(p_i + p_j), np.ones_like(p_i + p_j),
              _boundary_weight(a_i, a_j, floor)):
        mixed_a = w * a_i + (1 - w) * a_j
        feasible = (mixed_a >= floor - 1e-12) & (w >= 0) & (w <= 1)
        if not feasible.any():
            continue
        value = np.where(feasible, (w * p_i + (1 - w) * p_j)
                         / np.where(mixed_a > 0, mixed_a, 1.0), -np.inf)
        best = max(best, float(value.max()))
    return best


def _boundary_weight(a_i, a_j, floor):
    denom = a_i - a_j
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (floor - a_j) / denom
    return np.where(np.isfinite(w), w, -1.0)


def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count)
    z = 1 - (2 * i + 1) / count
    r = np.sqrt(np.maximum(0.0, 1 - z ** 2))
    phi = i * np.pi * (3 - np.sqrt(5))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def frozen_bound(mset: MeasurementSet, xi: float):
    """(C_n(xi), witness, C_n'(xi)) from the vertex table of `bounds._facets`'
    vertices and their ends' P* and strategies, with the facet lines,
    bisect, kink rule and mix step as they were before the facet records."""
    verts, facets = _facets(mset)
    points = tuple((f.p_hi, f.s_hi) for f in facets)
    pstar = {a: p for a, (p, _) in zip(verts, points)}
    lines = [(0.0, pstar[verts[0]] / verts[0])]
    for lo, hi in zip(verts, verts[1:]):
        beta = (pstar[hi] - pstar[lo]) / (hi - lo)
        lines.append((pstar[lo] - beta * lo, beta))
    floor = mset.n * xi
    i = bisect.bisect_left(verts, floor)
    j = i + 1 if verts[i] == floor and i + 1 < len(verts) else i
    c, witness = _frozen_mix(verts, points, i, floor)
    return c, witness, -lines[j][0] / (floor * xi)


def _frozen_mix(verts, points, i, floor):
    if i == 0 or verts[i] == floor:
        return points[i][0] / verts[i], ((1.0, points[i][1]),)
    (lo, hi), ((p_lo, s_lo), (p_hi, s_hi)) = verts[i - 1:i + 1], points[i - 1:i + 1]
    w = (hi - floor) / (hi - lo)
    value = (w * p_lo + (1 - w) * p_hi) / floor
    if w <= SUPPORT_TOL:
        return value, ((1 - w, s_hi),)
    if 1 - w <= SUPPORT_TOL:
        return value, ((w, s_lo),)
    return value, ((w, s_lo), (1 - w, s_hi))
