"""Measurement sets, the Born table of Bob's announce/decline model, and the
steering parameter.

The steering parameter is the pooled S' = sum_k N_k / sum_k D_k: the
Alice-Bob correlation conditioned on Bob announcing an outcome, over all
settings together.  D_k is setting k's announced weight and N_k its signed
agreement, so S' = 2G/A - 1 reads only the agreeing and announced totals G
and A.  This is the ratio the loss-tolerant bound caps, whatever announce
rate a cheating Bob picks per setting.  Bookkeeping follows the
anticorrelated singlet: Bob's reported value B_k is the negated raw
analyzer outcome, so the ideal singlet gives S' = +1.

Count tables are numpy integer arrays of shape (n, 2, 3):
axis 1 indexes Alice's outcome (0 -> +1, 1 -> -1), axis 2 Bob's raw outcome
(0 -> +1, 1 -> -1, 2 -> null / declined).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import encoding
from .qmath import DensityMatrix, _check_count, _check_real, unit_directions

EQUALITY_TOL = 1e-12
TABLE_CACHE_SIZE = 64  # entries of each table cache: coefficients, gridded tables
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


# built once, so that every identity-keyed cache sees one set per n
_PLATONIC = {
    2: MeasurementSet([(0, 0, 1), (1, 0, 0)]),
    3: MeasurementSet([(0, 0, 1), (1, 0, 0), (0, 1, 0)]),
    4: MeasurementSet(np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
                      / np.sqrt(3)),
    6: MeasurementSet(np.array([(0, 1, _GOLDEN), (0, -1, _GOLDEN),
                                (1, _GOLDEN, 0), (-1, _GOLDEN, 0),
                                (_GOLDEN, 0, 1), (-_GOLDEN, 0, 1)])
                      / np.sqrt(1 + _GOLDEN ** 2)),
}


def platonic_set(n: int) -> MeasurementSet:
    """Canonical direction sets: 2 orthogonal axes, Pauli axes, tetrahedron,
    or six icosahedron half-vertices.  z-axis member listed first where the
    solid has one."""
    _check_count("n", n)
    if n not in _PLATONIC:
        raise ValueError(f"unsupported number of settings n={n} (use 2, 3, 4 or 6)")
    return _PLATONIC[n]


@dataclass(frozen=True)
class SteeringEstimate:
    """The pooled S' = 2G/A - 1 over all settings, with its standard error
    and the announced fraction xi = A/M: G agreeing and A announced of M
    trials.  With no announced event, S' and its error are undefined: NaN;
    otherwise the error is finite.  Each field is stored as a Python float."""

    s_value: float
    std_err: float
    announce_fraction: float

    def __post_init__(self):
        for name in ("s_value", "std_err", "announce_fraction"):
            if type(value := getattr(self, name)) is not float:  # a float skips it
                object.__setattr__(self, name, _check_real(name, value))
        # the comparisons are written so that NaN fails them
        if self.announce_fraction == 0.0:
            if not (math.isnan(self.s_value) and math.isnan(self.std_err)):
                raise ValueError("with no announced event, s_value and std_err "
                                 "must be NaN")
            return
        if not abs(self.s_value) <= 1 + EQUALITY_TOL:
            raise ValueError("s_value must lie in [-1, 1]")
        if not 0.0 <= self.std_err < math.inf:
            raise ValueError("std_err must be non-negative and finite")
        if not 0.0 < self.announce_fraction <= 1.0:
            raise ValueError("announce_fraction must lie in [0, 1]")


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
    if gaps and not np.abs(theta).max(initial=0.0) <= sys.float_info.max / gaps[-1]:
        # g theta would overflow, and the tables at such an angle are NaN
        raise ValueError(f"theta must not exceed {sys.float_info.max / gaps[-1]:.6g} "
                         f"in magnitude at the receiver's gap {gaps[-1]}")
    tables = np.zeros(theta.shape[:1] + coef.shape[1:]) + coef[0]
    for g, b, c in zip(gaps, coef[1::2], coef[2::2]):
        angle, half = g * theta[..., None, None], span / 2 * g  # g span may overflow
        tables += (math.sin(half) / half if half else 1.0) * (
            b * np.cos(angle) + c * np.sin(angle))
    return tables


def _totals(table) -> tuple:
    """(G, A, M): the agreeing, announced and total weight of a (2, 3) table
    of tallies or probabilities, as Python numbers."""
    # B_k is the negated raw outcome: agreement = (alice, bob raw) opposite
    (pp, pm, p0), (mp, mm, m0) = table.tolist()
    agree = pm + mp
    announced = agree + pp + mm
    return agree, announced, announced + p0 + m0


def _estimate(agree, announced, kept, slope=0.0) -> SteeringEstimate:
    """S' = 2G/A - 1 of G agreeing and A announced of M kept trials, with
    sigma^2 = 4 p(1 - p)/A + slope^2 xi(1 - xi)/M, p = G/A and xi = A/M: the
    trinomial's delta-method variance of S' - C(xi) for a bound of that slope
    at xi (S' and xi are uncorrelated).  No announced event: NaN, at xi = 0."""
    if not announced:
        return SteeringEstimate(math.nan, math.nan, 0.0)
    p, xi = agree / announced, announced / kept
    return SteeringEstimate((2 * agree - announced) / announced,
                            math.sqrt(4 * p * (1 - p) / announced
                                      + slope * slope * xi * (1 - xi) / kept), xi)


def _exact(tables: np.ndarray) -> SteeringEstimate:
    """The pooled S' and announced fraction of an (n, 2, 3) probability table,
    read from its setting average."""
    agree, announced, total = _totals(np.add.reduce(tables, axis=0) / len(tables))
    return SteeringEstimate((2 * agree - announced) / announced, 0.0, announced / total)


def steering_parameter_exact(rho: DensityMatrix, mset: MeasurementSet,
                             theta: float = 0.0) -> SteeringEstimate:
    """S' computed directly from the state by the Born rule: the lossless
    table that a fixed run at theta samples, before its settings are averaged
    and put on the grid."""
    if not math.isfinite(_check_real("theta", theta)):  # a vortex table never reads it
        raise ValueError("theta must be finite")
    if not isinstance(rho, DensityMatrix):
        raise ValueError(f"rho must be a DensityMatrix, got {rho!r}")
    if not isinstance(mset, MeasurementSet):
        raise ValueError(f"mset must be a MeasurementSet, got {mset!r}")
    return _exact(_tables(rho, mset, 1.0, np.array([[theta]], dtype=float), 0.0)[0])


def steering_parameter_counts(counts: np.ndarray) -> SteeringEstimate:
    """The pooled S' of an (n, 2, 3) tally table, with its binomial error
    given the announced total: the run's error for a bound of slope 0.

    The quoted std_err is ONE standard deviation; scale by 2 for
    two-standard-deviation error bars.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.shape[1:] != (2, 3) or not len(counts):
        raise ValueError("counts must have shape (n, 2, 3)")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integer tallies, got dtype {counts.dtype}")
    if counts.min() < 0:
        raise ValueError("counts must be non-negative")
    return _estimate(*_totals(counts.sum(axis=0)))
