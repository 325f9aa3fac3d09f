"""End-to-end finite-statistics steering experiments.

Noisy singlet preparation, encoding choice, receiver orientation policy,
Bob-side loss, sampling, estimation and the verdict against the
loss-tolerant bound evaluated at the observed announce fraction.

Sampling is aggregate: trials are grouped by setting and the per-setting
outcome tallies are drawn from the multinomial implied by the per-trial
procedure (uniform setting choice, orientation per policy, Born probabilities
on `GRID`, state-independent loss).  This is distributionally identical to
trial-by-trial simulation, up to the grid, and bit-reproducible from the seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bounds, encoding, steering
from .qmath import GRID, DensityMatrix, _check_count, _check_real

DEFAULT_TRIALS = 2_000_000  # ~100 s at the source's ~20,000 coincidences/s


@dataclass(frozen=True)
class NoiseModel:
    """Werner visibility plus optional extra phase damping on Bob's qubit."""

    werner_v: float = 1.0
    dephasing: float = 0.0

    def __post_init__(self):
        for name in ("werner_v", "dephasing"):
            _check_real(name, v := getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class ChannelModel:
    """Heralding efficiencies.  Bob's enters the bound; Alice's is rate-only."""

    bob_efficiency: float = 1.0
    alice_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("bob_efficiency", "alice_efficiency"):
            _check_real(name, v := getattr(self, name))
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")


@dataclass(frozen=True)
class ThetaPolicy:
    """Receiver orientation, uniform over [theta_min, theta_max] (radians);
    a fixed angle is a range of width zero."""

    theta_min: float = 0.0
    theta_max: float = math.pi / 2
    per_setting_block: bool = False

    def __post_init__(self):
        for name in ("theta_min", "theta_max"):
            if not math.isfinite(_check_real(name, getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not self.theta_min <= self.theta_max:
            raise ValueError("theta_min must not exceed theta_max")
        if not math.isfinite(self.theta_max - self.theta_min):
            raise ValueError("theta_max - theta_min must be finite")
        if not isinstance(self.per_setting_block, (bool, np.bool_)):
            raise ValueError(f"per_setting_block must be a bool, "
                             f"got {self.per_setting_block!r}")

    @classmethod
    def fixed(cls, theta: float) -> "ThetaPolicy":
        return cls(*[_check_real("theta", theta)] * 2)


@dataclass(frozen=True)
class SteeringRunResult:
    """One simulated steering experiment and its verdict."""

    n: int
    encoding_kind: str
    theta_policy: ThetaPolicy
    trials: int
    estimate: steering.SteeringEstimate
    bound_at_observed_xi: float
    violated: bool
    seed: int

    def __post_init__(self):
        expect = (self.estimate.s_value - 2 * self.estimate.std_err
                  > self.bound_at_observed_xi)
        if self.violated != expect:
            raise ValueError("verdict inconsistent with the 2-sigma criterion")


def visibility_for_fidelity(fidelity: float) -> float:
    """Invert F = v + (1 - v)/4 for the Werner visibility."""
    if not 0.25 <= _check_real("fidelity", fidelity) <= 1.0:
        raise ValueError("Werner fidelity must lie in [0.25, 1]")
    return (4 * fidelity - 1) / 3


def werner_state(v: float) -> DensityMatrix:
    """Werner mixture of the polarization singlet with white noise (4x4)."""
    if not 0.0 <= _check_real("visibility", v) <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    psi = encoding.singlet_pol()
    rho = v * psi.density().entries + (1 - v) * np.eye(4) / 4
    return DensityMatrix(rho)


def _dephase_bob(rho4: np.ndarray, d: float) -> np.ndarray:
    """Phase damping in the H/V basis on Bob's polarization qubit."""
    z = np.kron(np.eye(2), encoding.POL_X)  # H/V is the x axis; POL_X = |H><H|-|V><V|
    return (1 - d / 2) * rho4 + (d / 2) * (z @ rho4 @ z)


def prepare_state(noise: NoiseModel, encoding_kind: str = "vortex") -> DensityMatrix:
    """Distributed two-photon state in the requested encoding.

    Polarization: 4x4 on Alice-pol (x) Bob-pol.  Vortex: Bob's factor is the
    composite polarization (x) OAM space, reached through the q-plate isometry.
    """
    rho4 = werner_state(noise.werner_v).entries
    if noise.dephasing > 0:
        rho4 = _dephase_bob(rho4, noise.dephasing)
    w = np.kron(np.eye(2), encoding.receiver(encoding_kind).encoder)
    return DensityMatrix(w @ rho4 @ w.conj().T)


def _thinned(mset, channel: ChannelModel, trials: int, seed: int) -> tuple:
    """The run's generator after Alice's thinning, and the trials she kept."""
    _check_count("trials", trials)
    _check_count("seed", seed)
    if trials < mset.n:
        raise ValueError("need at least one trial per setting")
    if trials >= 2 ** 63:  # numpy's samplers take 64-bit counts
        raise ValueError(f"trials must be below 2**63, got {trials}")
    rng = np.random.default_rng(seed)
    if channel.alice_efficiency < 1.0:
        return rng, int(rng.binomial(trials, channel.alice_efficiency))
    return rng, trials


def _on_grid(tables: np.ndarray) -> np.ndarray:
    """Each setting's six entries on `GRID`, the largest taking the remainder of 1."""
    rows = np.rint(tables.reshape(-1, 6) / GRID) * GRID
    rows[np.arange(len(rows)), rows.argmax(axis=-1)] += 1 - np.add.reduce(rows, axis=-1)
    return rows.reshape(tables.shape)


@functools.lru_cache(maxsize=steering.TABLE_CACHE_SIZE)
def _gridded(state, mset, bob_efficiency, mids: tuple, span) -> np.ndarray:
    """The read-only tables on `GRID` that runs at fixed midpoints sample:
    `_on_grid` of `steering._tables` over spans centred on mids.  Keyed by
    identity, like the coefficients it is built from."""
    tables = _on_grid(steering._tables(state, mset, bob_efficiency,
                                       np.array(mids, dtype=float).reshape(-1, 1), span))
    tables.flags.writeable = False
    return tables


def _sample(tables: np.ndarray, draws) -> np.ndarray:
    """Tallies (T, n, 2, 3) of a stack of tables, each drawn by its run's
    (generator, trials): a uniform split over settings, then each setting's
    outcomes.  One multinomial call per setting draws what one call over the
    (n, 6) rows draws, without numpy's array-count checks."""
    n = tables.shape[1]
    split = np.full(n, 1.0 / n)
    return np.array([rng.multinomial(m, p)
                     for rows, (rng, n_eff) in zip(tables.reshape(-1, n, 6), draws)
                     for m, p in zip(rng.multinomial(n_eff, split).tolist(), rows)],
                    dtype=np.int64).reshape(tables.shape)


def _judge(estimate, mset, kind, theta_policy, trials, seed) -> SteeringRunResult:
    """The verdict on S_n against C_n at the observed announce fraction."""
    bound, _ = bounds.loss_tolerant_bound(mset, estimate.announce_fraction)
    return SteeringRunResult(
        n=mset.n, encoding_kind=kind, theta_policy=theta_policy, trials=trials,
        estimate=estimate, bound_at_observed_xi=bound, seed=seed,
        violated=estimate.s_value - 2 * estimate.std_err > bound)


def _runs(state, mset, channel, policies, span, trials, seeds) -> list:
    """One run per policy on its own seed, the receiver uniform over
    [theta_min, theta_min + span] or, in block mode, at n angles per run.
    Each run's generator draws Alice's thinning, the block angles, the
    setting split and the tallies, in that order; one pass judges all.
    Block angles are fresh draws, so only fixed midpoints share `_gridded`."""
    # thinning checks the trial count before any table is built
    draws = [_thinned(mset, channel, trials, s) for s in seeds]
    kind = encoding.receiver_for(state.dim).kind
    if any(p.per_setting_block for p in policies):
        mids = np.array([rng.uniform(p.theta_min, p.theta_max, size=mset.n)
                         for p, (rng, _) in zip(policies, draws)])
        tables = _on_grid(steering._tables(state, mset, channel.bob_efficiency,
                                           mids, 0.0))
    else:
        tables = _gridded(state, mset, channel.bob_efficiency,
                          tuple(p.theta_min + span / 2 for p in policies), span)
    return [_judge(est, mset, kind, p, trials, s) for p, s, est in
            zip(policies, seeds, steering._estimates(_sample(tables, draws)))]


def run_experiment(state: DensityMatrix, mset: steering.MeasurementSet,
                   channel: ChannelModel, theta_policy: ThetaPolicy,
                   trials: int, seed: int) -> SteeringRunResult:
    """Simulate one steering run and judge it against C_n(observed xi)."""
    span = theta_policy.theta_max - theta_policy.theta_min
    return _runs(state, mset, channel, [theta_policy], span, trials, [seed])[0]


def derive_seeds(seed: int, count: int) -> list[int]:
    """Deterministic child seeds for indexed sub-runs."""
    _check_count("seed", seed)
    _check_count("count", count)
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def sweep_theta(state: DensityMatrix, mset: steering.MeasurementSet,
                channel: ChannelModel, thetas, trials_per_point: int,
                seed: int) -> list[SteeringRunResult]:
    """One fixed-orientation run per theta (radians), seeds derived from seed."""
    thetas = [_check_real("theta", t) for t in thetas]
    if any(not 0.0 <= t < 2 * math.pi for t in thetas):
        raise ValueError("theta values must lie in [0, 2 pi)")
    return _runs(state, mset, channel, [ThetaPolicy.fixed(t) for t in thetas], 0.0,
                 trials_per_point, derive_seeds(seed, len(thetas)))


def dynamic_rotation_run(state: DensityMatrix, mset: steering.MeasurementSet,
                         channel: ChannelModel, trials: int, seed: int,
                         per_setting_block: bool = False) -> SteeringRunResult:
    """Dynamically rotating receiver: theta uniform on [0, pi/2] per trial."""
    policy = ThetaPolicy(0.0, math.pi / 2, per_setting_block)
    return run_experiment(state, mset, channel, policy, trials, seed)
