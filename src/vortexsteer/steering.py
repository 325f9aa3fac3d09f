"""Measurement sets, the Born table of Bob's announce/decline model, and the
steering parameter.

The steering parameter is the average over n settings of the Alice-Bob
correlation conditioned on Bob announcing an outcome.  Bookkeeping follows
the anticorrelated singlet: Bob's reported value B_k is the negated raw
analyzer outcome, so the ideal singlet gives S_n = +1 on every setting.

Count tables are numpy integer arrays of shape (n, 2, 3):
axis 1 indexes Alice's outcome (0 -> +1, 1 -> -1), axis 2 Bob's raw outcome
(0 -> +1, 1 -> -1, 2 -> null / declined).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import encoding
from .qmath import DensityMatrix, unit_directions

EQUALITY_TOL = 1e-12
TABLE_CACHE_SIZE = 64  # configurations whose table coefficients are kept; a few kB each
_GOLDEN = (1 + np.sqrt(5)) / 2

ALICE_OUTCOMES = (+1, -1)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """n unit Bloch directions shared by Alice and an honest Bob, held as one
    read-only (n, 3) array; any pairwise non-(anti)parallel set will do."""

    directions: np.ndarray

    def __post_init__(self):
        dirs = unit_directions(self.directions, ndim=2)
        if len(dirs) < 2:
            raise ValueError("need at least two measurement settings")
        off = (dirs @ dirs.T)[~np.eye(len(dirs), dtype=bool)]
        if np.any(np.abs(off) > 1 - 1e-9):
            raise ValueError("measurement directions must be pairwise non-(anti)parallel")
        object.__setattr__(self, "directions", dirs)

    @property
    def n(self) -> int:
        return len(self.directions)

    def as_matrix(self) -> np.ndarray:
        return self.directions


@functools.cache  # one shared set per n; its array is read-only
def platonic_set(n: int) -> MeasurementSet:
    """Canonical direction sets: 2 orthogonal axes, Pauli axes, tetrahedron,
    or six icosahedron half-vertices.  z-axis member listed first where the
    solid has one."""
    if n == 2:
        vecs = [(0, 0, 1), (1, 0, 0)]
    elif n == 3:
        vecs = [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
    elif n == 4:
        s = 1 / np.sqrt(3)
        vecs = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
    elif n == 6:
        raw = [
            (0, 1, _GOLDEN), (0, -1, _GOLDEN),
            (1, _GOLDEN, 0), (-1, _GOLDEN, 0),
            (_GOLDEN, 0, 1), (-_GOLDEN, 0, 1),
        ]
        vecs = np.array(raw) / np.sqrt(1 + _GOLDEN ** 2)
    else:
        raise ValueError(f"unsupported number of settings n={n} (use 2, 3, 4 or 6)")
    return MeasurementSet(vecs)


@dataclass(frozen=True)
class SteeringEstimate:
    """S_n with its statistical error and the observed announce fraction."""

    s_value: float
    std_err: float
    announce_fraction: float
    per_setting_correlations: tuple

    def __post_init__(self):
        # plain floats: the comparisons are written so that NaN fails them
        corr = tuple(float(c) for c in self.per_setting_correlations)
        if not corr:
            raise ValueError("per_setting_correlations must not be empty")
        if not all(abs(c) <= 1 + EQUALITY_TOL for c in corr):
            raise ValueError("per_setting_correlations must lie in [-1, 1]")
        if not abs(self.s_value - sum(corr) / len(corr)) <= EQUALITY_TOL:
            raise ValueError("s_value must equal the mean of per_setting_correlations")
        if not self.std_err >= 0.0:
            raise ValueError("std_err must be non-negative")
        if not 0.0 <= self.announce_fraction <= 1.0:
            raise ValueError("announce_fraction must lie in [0, 1]")
        object.__setattr__(self, "per_setting_correlations", corr)


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _harmonics(state: DensityMatrix, mset: MeasurementSet, bob_efficiency) -> tuple:
    """The gaps g > 0 and the read-only coefficients A, B_g, C_g (1 + 2G, n, 2, 3):
    tables of the detected parts theta weighs by 1, cos g theta, sin g theta.
    Bob's announced entries carry his efficiency; null is Alice's marginal, in A
    alone, minus them.  Keyed by identity."""
    rx = encoding.receiver_for(state.dim)
    gaps = sorted({int(g) for g in rx.gaps.flat if g > 0})
    weights = [rx.gaps == 0] + [(abs(rx.gaps) == g) * w for g in gaps
                                for w in (1, 1j * np.sign(rx.gaps))]
    sigma = rx.read(state, np.array(weights)).reshape(-1, 2, 2, 2, 2)
    proj = np.stack([encoding.pol_projector(mset.directions, a)
                     for a in ALICE_OUTCOMES], axis=1)   # Alice's P[k, a]
    alice = state.entries.reshape(2, state.dim // 2, 2, -1)
    coef = np.zeros((len(sigma), mset.n, 2, 3))
    coef[..., :2] = np.einsum("ixyzw,kazx,kbwy->ikab", sigma, proj,
                              proj).real * bob_efficiency
    coef[0, ..., 2] = np.einsum("xjzj,kazx->ka", alice, proj).real
    coef[..., 2] -= coef[..., :2].sum(axis=-1)
    coef.flags.writeable = False
    return gaps, coef


def _tables(state, mset, bob_efficiency, theta: np.ndarray, span) -> np.ndarray:
    """Tables (T, n, 2, 3) over spans centred on theta, (T, 1) or one per
    setting (T, n): A + sum_g sinc(g span/2pi)(B_g cos g theta + C_g sin g theta)."""
    gaps, coef = _harmonics(state, mset, bob_efficiency)
    tables = np.zeros(theta.shape[:1] + coef.shape[1:]) + coef[0]
    for g, b, c in zip(gaps, coef[1::2], coef[2::2]):
        angle, half = g * theta[..., None, None], span / 2 * g  # g span may overflow
        tables += (math.sin(half) / half if half else 1.0) * (
            b * np.cos(angle) + c * np.sin(angle))
    return tables


def _per_setting(table: np.ndarray) -> tuple:
    """Announced weight, agreement and correlation of each setting of a
    (..., n, 2, 3) table of probabilities or tallies."""
    announced = table[..., :2].sum(axis=(-2, -1)).astype(float)
    if not announced.all():   # the first table's first such setting, as run by run
        bad = np.argwhere(announced == 0)[0][-1]
        raise ValueError(f"setting {bad} has zero announced events")
    # B_k is the negated raw outcome: agreement = (alice, bob raw) opposite
    agree = table[..., 0, 1] + table[..., 1, 0]
    return announced, agree, (2 * agree - announced) / announced


def steering_parameter_exact(rho: DensityMatrix, mset: MeasurementSet,
                             theta: float = 0.0) -> SteeringEstimate:
    """S_n computed directly from the state by the Born rule: the lossless
    table that a fixed run at theta samples, before the grid."""
    table = _tables(rho, mset, 1.0, np.array([[theta]], dtype=float), 0.0)[0]
    announced, _, corr = _per_setting(table)
    return SteeringEstimate(s_value=float(np.mean(corr)), std_err=0.0,
                            announce_fraction=float(np.mean(announced)),
                            per_setting_correlations=tuple(corr))


def steering_parameter_counts(counts: np.ndarray) -> SteeringEstimate:
    """S_n from a tally table, with per-setting binomial error propagation.

    The quoted std_err is ONE standard deviation; scale by 2 for
    two-standard-deviation error bars.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.shape[1] != 2 or counts.shape[2] != 3:
        raise ValueError("counts must have shape (n, 2, 3)")
    return _estimates(counts[None])[0]


def _estimates(counts: np.ndarray) -> list[SteeringEstimate]:
    """`steering_parameter_counts` of each table in a (T, n, 2, 3) stack, in
    one pass: every reduction runs along the same last axes as for one table,
    so each estimate is bit for bit the one of its table alone."""
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integer tallies, got dtype {counts.dtype}")
    if counts.size and counts.min() < 0:
        raise ValueError("counts must be non-negative")
    announced, agree, corr = _per_setting(counts)
    p_hat = agree / announced
    var = 4 * p_hat * (1 - p_hat) / announced
    n = counts.shape[-3]
    return [SteeringEstimate(s_value=s, std_err=e, announce_fraction=f,
                             per_setting_correlations=tuple(c))
            for s, e, f, c in zip(corr.mean(axis=-1).tolist(),
                                  (np.sqrt(var.sum(axis=-1)) / n).tolist(),
                                  (announced.sum(axis=-1)
                                   / counts.sum(axis=(-3, -2, -1))).tolist(),
                                  corr.tolist())]
