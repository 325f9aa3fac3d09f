"""Loss-tolerant steering bounds from local-hidden-state cheating strategies.

A cheating Bob holds a classical description of a pure qubit state sent to
Alice (a Bloch vector) plus a deterministic per-setting instruction: answer
+1, answer -1, or decline.  The achievable conditional correlation, maximized
over probabilistic mixtures of such strategies subject to a floor xi on the
expected announce fraction, is the bound C_n(xi) that honest quantum
correlations must beat (Bennet et al., PRX 2, 031003, 2012).

For an answer pattern s (s_k in {+1, -1, 0}) the optimal Bloch vector is the
normalized resultant sum_k s_k u_k, with payoff equal to the resultant's
norm.  Among patterns answering a settings only the best payoff P*(a)
matters, so a mixture is a distribution over a = 1..n with value
E[P*(a)] / E[a], subject to E[a] >= n xi.  An optimal mixture has at most two
points, and for two points the value is monotone in the mixing weight.  So
C_n(xi) is the best of the single points a >= n xi and the pairs
lo < n xi < hi mixed to mean exactly n xi: O(n^2) candidates from P*, which
is enumerated once per measurement set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .qmath import unit_directions
from .steering import MeasurementSet

SUPPORT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CheatStrategy:
    """One deterministic LHS strategy: answers[k] in {+1, -1, 0}, 0 = decline.

    Answers are in the negated-outcome bookkeeping of the steering module, so
    the payoff for setting k is answers[k] * (u_k . bloch).
    """

    bloch: np.ndarray          # unit 3-vector
    answers: tuple

    def __post_init__(self):
        answers = tuple(int(a) for a in self.answers)
        if any(a not in (-1, 0, 1) for a in answers):
            raise ValueError("answers must be +1, -1 or 0 (null)")
        if all(a == 0 for a in answers):
            raise ValueError("strategy must answer at least one setting")
        object.__setattr__(self, "answers", answers)
        object.__setattr__(self, "bloch", unit_directions(self.bloch, ndim=1))


@dataclass(frozen=True)
class BoundCurve:
    """C_n(xi) on a grid, with the optimizing strategy mixtures attached."""

    n: int
    xi_grid: tuple
    c_values: tuple
    witnesses: tuple


@functools.lru_cache(maxsize=32)
def best_strategies(mset: MeasurementSet) -> tuple:
    """(P*(a), strategy) for a = 1..n: the longest resultant over answer
    patterns with a answered settings, with its optimal Bloch vector.

    Patterns are scanned in a fixed lexicographic order (null < +1 < -1 per
    setting) and the first longest one is kept, so witnesses are
    reproducible.
    """
    patterns = np.array(list(product((0, 1, -1), repeat=mset.n)))
    resultants = patterns @ mset.directions
    norms = np.linalg.norm(resultants, axis=1)
    answered = np.count_nonzero(patterns, axis=1)
    best = []
    for a in range(1, mset.n + 1):
        j = int(np.argmax(np.where(answered == a, norms, -1.0)))
        strategy = CheatStrategy(resultants[j] / norms[j], tuple(patterns[j]))
        best.append((float(norms[j]), strategy))
    return tuple(best)


def deterministic_bound(mset: MeasurementSet) -> float:
    """C_n at xi = 1: every setting answered, optimal sign pattern and state."""
    return best_strategies(mset)[-1][0] / mset.n


def loss_tolerant_bound(mset: MeasurementSet, xi: float):
    """C_n(xi) and an optimizing mixture of at most two strategies."""
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must lie in (0, 1], got {xi}")
    best = best_strategies(mset)
    floor = mset.n * xi
    value, mixture = 0.0, ()
    for lo, (p_lo, s_lo) in enumerate(best, 1):
        if lo >= floor and p_lo / lo > value:
            value, mixture = p_lo / lo, ((1.0, s_lo),)
        for hi, (p_hi, s_hi) in enumerate(best[lo:], lo + 1):
            if lo < floor < hi:
                w = (hi - floor) / (hi - lo)
                mixed = (w * p_lo + (1 - w) * p_hi) / floor
                if mixed > value:
                    value, mixture = mixed, ((w, s_lo), (1 - w, s_hi))
    return value, tuple((w, s) for w, s in mixture if w > SUPPORT_TOL)


def bound_curve(mset: MeasurementSet, xi_grid) -> BoundCurve:
    """Evaluate the loss-tolerant bound on a strictly increasing xi grid."""
    xi_grid = tuple(float(x) for x in xi_grid)
    if any(not 0.0 < x <= 1.0 for x in xi_grid):
        raise ValueError("grid values must lie in (0, 1]")
    if any(b <= a for a, b in zip(xi_grid, xi_grid[1:])):
        raise ValueError("xi grid must be strictly increasing")
    values = []
    witnesses = []
    for xi in xi_grid:
        c, w = loss_tolerant_bound(mset, xi)
        values.append(c)
        witnesses.append(w)
    for a, b in zip(values, values[1:]):
        if b > a + 1e-9:
            raise RuntimeError("bound curve is not non-increasing")
    return BoundCurve(n=mset.n, xi_grid=xi_grid, c_values=tuple(values),
                      witnesses=tuple(witnesses))
