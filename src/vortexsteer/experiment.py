"""End-to-end finite-statistics steering experiments.

Noisy singlet preparation, encoding choice, receiver orientation policy,
Bob-side loss, sampling, estimation and the verdict against the
loss-tolerant bound evaluated at the observed announce fraction.

Sampling is aggregate: trials are grouped by setting and the per-setting
outcome tallies are drawn from the exact multinomial implied by the
per-trial procedure (uniform setting choice, orientation per policy, Born
probabilities, state-independent loss).  This is distributionally identical
to trial-by-trial simulation and bit-reproducible from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, encoding, steering
from .qmath import DensityMatrix

DEFAULT_TRIALS = 2_000_000  # ~100 s at the source's ~20,000 coincidences/s


@dataclass(frozen=True)
class NoiseModel:
    """Werner visibility plus optional extra phase damping on Bob's qubit."""

    werner_v: float = 1.0
    dephasing: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.werner_v <= 1.0:
            raise ValueError("werner_v must lie in [0, 1]")
        if not 0.0 <= self.dephasing <= 1.0:
            raise ValueError("dephasing must lie in [0, 1]")


@dataclass(frozen=True)
class ChannelModel:
    """Heralding efficiencies.  Bob's enters the bound; Alice's is rate-only."""

    bob_efficiency: float = 1.0
    alice_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("bob_efficiency", "alice_efficiency"):
            v = getattr(self, name)
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
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.theta_min <= self.theta_max:
            raise ValueError("theta_min must not exceed theta_max")

    @classmethod
    def fixed(cls, theta: float) -> "ThetaPolicy":
        return cls(float(theta), float(theta))

    @classmethod
    def dynamic(cls, theta_min: float = 0.0, theta_max: float = math.pi / 2,
                per_setting_block: bool = False) -> "ThetaPolicy":
        return cls(float(theta_min), float(theta_max), per_setting_block)

    def orientation(self, n: int, rng: np.random.Generator) -> tuple:
        """(theta, span) for `Receiver.detected_state`.

        Block mode draws one angle per setting.  Per-trial mode returns the
        whole range: the aggregate tallies follow the exact average over it.
        """
        if self.per_setting_block:
            return rng.uniform(self.theta_min, self.theta_max, size=n), 0.0
        return self.theta_min, self.theta_max - self.theta_min


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
    if not 0.25 <= fidelity <= 1.0:
        raise ValueError("Werner fidelity must lie in [0.25, 1]")
    return (4 * fidelity - 1) / 3


def werner_state(v: float) -> DensityMatrix:
    """Werner mixture of the polarization singlet with white noise (4x4)."""
    if not 0.0 <= v <= 1.0:
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


# A run is table -> sample -> verdict.  Its rng draw order is fixed: alice
# thinning, block thetas, setting split, outcome tallies (one call over rows).

def _thinned(mset, channel: ChannelModel, trials: int, seed: int) -> tuple:
    """The run's generator after Alice's thinning, and the trials she kept."""
    if trials < mset.n:
        raise ValueError("need at least one trial per setting")
    if trials >= 2 ** 63:  # numpy's samplers take 64-bit counts
        raise ValueError(f"trials must be below 2**63, got {trials}")
    rng = np.random.default_rng(seed)
    if channel.alice_efficiency < 1.0:
        return rng, int(rng.binomial(trials, channel.alice_efficiency))
    return rng, trials


def _table(rx, state, mset, channel, theta, span=0.0) -> np.ndarray:
    """Born table(s), Bob's announced weight scaled by his efficiency, each
    setting's six entries normalised for the multinomial; angles of shape
    (T, 1) give T tables."""
    probs = steering.born_table(state, mset, rx.detected_state(state, theta, span))
    out = probs * (channel.bob_efficiency, channel.bob_efficiency, 1.0)
    out[..., 2] = probs.sum(axis=-1) - out[..., :2].sum(axis=-1)
    rows = out.reshape(out.shape[:-2] + (6,))
    return (rows / rows.sum(axis=-1, keepdims=True)).reshape(out.shape)


def _sample(table: np.ndarray, rng, n_eff: int) -> np.ndarray:
    """Tallies (n, 2, 3): a uniform split over settings, then their outcomes."""
    p = table.reshape(-1, 6)
    split = rng.multinomial(n_eff, np.full(len(p), 1.0 / len(p)))
    return rng.multinomial(split, p).reshape(-1, 2, 3)


def _judge(estimate, mset, kind, theta_policy, trials, seed) -> SteeringRunResult:
    """The verdict on S_n against C_n at the observed announce fraction."""
    bound, _ = bounds.loss_tolerant_bound(mset, estimate.announce_fraction)
    return SteeringRunResult(
        n=mset.n, encoding_kind=kind, theta_policy=theta_policy, trials=trials,
        estimate=estimate, bound_at_observed_xi=bound, seed=seed,
        violated=estimate.s_value - 2 * estimate.std_err > bound)


def run_experiment(state: DensityMatrix, mset: steering.MeasurementSet,
                   channel: ChannelModel, theta_policy: ThetaPolicy,
                   trials: int, seed: int) -> SteeringRunResult:
    """Simulate one steering run and judge it against C_n(observed xi)."""
    rng, n_eff = _thinned(mset, channel, trials, seed)
    rx = encoding.receiver_for(state.dim)
    theta, span = theta_policy.orientation(mset.n, rng)
    counts = _sample(_table(rx, state, mset, channel, theta, span), rng, n_eff)
    return _judge(steering.steering_parameter_counts(counts), mset, rx.kind,
                  theta_policy, trials, seed)


def derive_seeds(seed: int, count: int) -> list[int]:
    """Deterministic child seeds for indexed sub-runs."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def sweep_theta(state: DensityMatrix, mset: steering.MeasurementSet,
                channel: ChannelModel, thetas, trials_per_point: int,
                seed: int) -> list[SteeringRunResult]:
    """One fixed-orientation run per theta (radians), seeds derived from seed."""
    thetas = [float(t) for t in thetas]
    if any(not 0.0 <= t < 2 * math.pi for t in thetas):
        raise ValueError("theta values must lie in [0, 2 pi)")
    child_seeds = derive_seeds(seed, len(thetas))
    rx = encoding.receiver_for(state.dim)  # one table stack, one tally stack
    tables = _table(rx, state, mset, channel, np.reshape(thetas, (-1, 1)))
    counts = np.empty(tables.shape, dtype=np.int64)
    for table, s, out in zip(tables, child_seeds, counts):
        out[...] = _sample(table, *_thinned(mset, channel, trials_per_point, s))
    return [_judge(est, mset, rx.kind, ThetaPolicy.fixed(t), trials_per_point, s)
            for t, s, est in zip(thetas, child_seeds, steering._estimates(counts))]


def dynamic_rotation_run(state: DensityMatrix, mset: steering.MeasurementSet,
                         channel: ChannelModel, trials: int, seed: int,
                         per_setting_block: bool = False) -> SteeringRunResult:
    """Dynamically rotating receiver: theta uniform on [0, pi/2] per trial."""
    policy = ThetaPolicy.dynamic(0.0, math.pi / 2,
                                 per_setting_block=per_setting_block)
    return run_experiment(state, mset, channel, policy, trials, seed)
