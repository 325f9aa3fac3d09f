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
E[P*(a)] / E[a], subject to E[a] >= n xi.  The best total payoff at a mean
of x answered settings is the upper concave hull of the points (a, P*(a)),
a = 0..n, with P*(0) = 0, and the optimum spends the floor exactly, so
C_n(xi) is that hull at n xi over n xi.  One cached record per hull vertex
hi holds the facet (lo, hi) ending there: its ends' P* and strategies and its
line P = alpha + beta a.  A bisect, or a cursor along a rising grid, finds
the facet with lo < n xi <= hi, and one mix of its ends to mean n xi gives
the witness.  On it, C_n = beta + alpha / (n xi), C_n' = -alpha / (n xi^2).
"""

from __future__ import annotations

import bisect
import functools
from collections import namedtuple
from dataclasses import InitVar, dataclass, field
from itertools import product

import numpy as np

from .qmath import _check_real, unit_directions
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
        answers = tuple(self.answers)
        if not all(type(a) is not bool and isinstance(a, (int, np.integer))
                   and a in (-1, 0, 1) for a in answers):
            raise ValueError("answers must be +1, -1 or 0 (null)")
        if all(a == 0 for a in answers):
            raise ValueError("strategy must answer at least one setting")
        object.__setattr__(self, "answers", tuple(map(int, answers)))
        object.__setattr__(self, "bloch", unit_directions(self.bloch, ndim=1))


_Facet = namedtuple("_Facet", "lo hi p_lo p_hi s_lo s_hi alpha beta")


@functools.lru_cache(maxsize=32)
def _facets(mset: MeasurementSet) -> tuple:
    """The hull vertices a >= 1 of (a, P*(a)), a = 0..n, with P*(0) = 0, and
    per vertex hi a `_Facet` for the facet (lo, hi) ending there: its ends'
    P* and strategies, and its line P = alpha + beta a.  The first runs from
    the origin, which has no strategy and where C_n is flat.  A point on or
    below a chord is dropped.

    P*(a) is the longest resultant over answer patterns with a answered
    settings, and its strategy takes the resultant's direction.  Patterns are
    scanned in a fixed lexicographic order (null < +1 < -1 per setting) and
    the first longest one is kept, so witnesses are reproducible.
    """
    patterns = np.array(list(product((0, 1, -1), repeat=mset.n)))
    resultants = patterns @ mset.directions
    norms = np.linalg.norm(resultants, axis=1)
    answered = np.count_nonzero(patterns, axis=1)
    best = [int(np.argmax(np.where(answered == a, norms, -1.0)))
            for a in range(mset.n + 1)]     # a = 0: the all-null pattern
    pstar = norms[best].tolist()
    hull = [0]
    for a in range(1, mset.n + 1):
        while len(hull) > 1:     # is the last vertex b above the chord c -> a?
            c, b = hull[-2:]
            if (pstar[b] - pstar[c]) * (a - c) > (pstar[a] - pstar[c]) * (b - c):
                break
            hull.pop()
        hull.append(a)
    cheat = {a: CheatStrategy(resultants[best[a]] / norms[best[a]],
                              tuple(patterns[best[a]])) for a in hull[1:]}
    facets = []
    for lo, hi in zip(hull, hull[1:]):
        beta = (pstar[hi] - pstar[lo]) / (hi - lo)
        facets.append(_Facet(lo, hi, pstar[lo], pstar[hi], cheat.get(lo), cheat[hi],
                             pstar[lo] - beta * lo, beta))
    return tuple(hull[1:]), tuple(facets)


def _mix(facet, floor):
    """C_n(xi) at floor = n xi on the facet whose end hi is the first hull
    vertex >= floor, and its witness: the ends mixed to mean exactly floor."""
    lo, hi, p_lo, p_hi, s_lo, s_hi, _, _ = facet
    if lo == 0 or hi == floor:
        return p_hi / hi, ((1.0, s_hi),)
    w = (hi - floor) / (hi - lo)
    value = (w * p_lo + (1 - w) * p_hi) / floor
    if w <= SUPPORT_TOL:
        return value, ((1 - w, s_hi),)
    if 1 - w <= SUPPORT_TOL:
        return value, ((w, s_lo),)
    return value, ((w, s_lo), (1 - w, s_hi))


def loss_tolerant_bound(mset: MeasurementSet, xi: float):
    """C_n(xi) and an optimizing mixture of at most two strategies."""
    xi = _check_real("xi", xi)
    if not 0.0 < xi <= 1.0:
        raise ValueError(f"xi must lie in (0, 1], got {xi}")
    if not isinstance(mset, MeasurementSet):
        raise ValueError(f"mset must be a MeasurementSet, got {mset!r}")
    verts, facets = _facets(mset)
    floor = mset.n * xi
    return _mix(facets[bisect.bisect_left(verts, floor)], floor)


def _bound_and_slope(mset: MeasurementSet, xi: float) -> tuple:
    """C_n(xi), bit for bit `loss_tolerant_bound`'s, and its slope
    -alpha_j / (n xi^2) on the facet j at n xi; at a kink, the steeper side's,
    which is the later facet's.  Unchecked: xi = A/M of a run's checked counts."""
    verts, facets = _facets(mset)
    floor = mset.n * xi
    i = bisect.bisect_left(verts, floor)
    j = i + 1 if verts[i] == floor and i + 1 < len(verts) else i
    return _mix(facets[i], floor)[0], -facets[j].alpha / (floor * xi)


def deterministic_bound(mset: MeasurementSet) -> float:
    """C_n at xi = 1: every setting answered, optimal sign pattern and state."""
    return loss_tolerant_bound(mset, 1.0)[0]


@dataclass(frozen=True)
class BoundCurve:
    """C_n(xi) on a grid, with the optimizing strategy mixtures attached."""

    mset: InitVar[MeasurementSet]
    n: int = field(init=False)
    xi_grid: tuple
    c_values: tuple = field(init=False)
    witnesses: tuple = field(init=False)

    def __post_init__(self, mset):
        grid = [x if type(x) is float else _check_real("grid value", x)
                for x in self.xi_grid]     # a float skips the call, 0.5 us a point
        for x in grid:
            if not 0.0 < x <= 1.0:
                raise ValueError("grid values must lie in (0, 1]")
        if not isinstance(mset, MeasurementSet):
            raise ValueError(f"mset must be a MeasurementSet, got {mset!r}")
        verts, facets = _facets(mset)
        n, i, last, c_last = mset.n, 0, 0.0, np.inf
        values, witnesses = [], []
        for xi in grid:     # one facet cursor; n xi <= n, the last vertex
            if xi <= last:
                raise ValueError("xi grid must be strictly increasing")
            floor, last = n * xi, xi
            while verts[i] < floor:
                i += 1
            c, w = _mix(facets[i], floor)
            if c > c_last + 1e-9:
                raise RuntimeError("bound curve is not non-increasing")
            c_last = c
            values.append(c)
            witnesses.append(w)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "xi_grid", tuple(grid))
        object.__setattr__(self, "c_values", tuple(values))
        object.__setattr__(self, "witnesses", tuple(witnesses))


def bound_curve(mset: MeasurementSet, xi_grid) -> BoundCurve:
    """Evaluate the loss-tolerant bound on a strictly increasing xi grid."""
    return BoundCurve(mset, xi_grid)
