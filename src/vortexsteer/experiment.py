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
    """Receiver orientation: fixed angle or uniform over a range (radians)."""

    kind: str
    theta: float = 0.0
    theta_min: float = 0.0
    theta_max: float = math.pi / 2
    per_setting_block: bool = False

    def __post_init__(self):
        if self.kind not in ("fixed", "dynamic"):
            raise ValueError(f"unknown theta policy {self.kind!r}")
        if not self.theta_min <= self.theta_max:
            raise ValueError("theta_min must not exceed theta_max")

    @classmethod
    def fixed(cls, theta: float) -> "ThetaPolicy":
        return cls(kind="fixed", theta=float(theta))

    @classmethod
    def dynamic(cls, theta_min: float = 0.0, theta_max: float = math.pi / 2,
                per_setting_block: bool = False) -> "ThetaPolicy":
        return cls(kind="dynamic", theta_min=float(theta_min),
                   theta_max=float(theta_max),
                   per_setting_block=per_setting_block)

    def orientation(self, n: int, rng: np.random.Generator) -> tuple:
        """(theta, span) for `Receiver.detected_state`.

        Block mode draws one angle per setting.  Per-trial mode returns the
        whole range: the aggregate tallies follow the exact average over it.
        """
        if self.kind == "fixed":
            return self.theta, 0.0
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


def _fold_channel(probs: np.ndarray, channel: ChannelModel) -> np.ndarray:
    """Add state-independent Bob loss: announced weight scaled by efficiency."""
    out = probs.copy()
    eps = channel.bob_efficiency
    alice_marginal = probs.sum(axis=2)
    out[:, :, :2] *= eps
    out[:, :, 2] = alice_marginal - out[:, :, :2].sum(axis=2)
    return out


def run_experiment(state: DensityMatrix, mset: steering.MeasurementSet,
                   channel: ChannelModel, theta_policy: ThetaPolicy,
                   trials: int, seed: int) -> SteeringRunResult:
    """Simulate one steering run and judge it against C_n(observed xi)."""
    if trials < mset.n:
        raise ValueError("need at least one trial per setting")
    if trials >= 2 ** 63:  # numpy's samplers take 64-bit counts
        raise ValueError(f"trials must be below 2**63, got {trials}")
    rx = encoding.receiver_for(state.dim)
    rng = np.random.default_rng(seed)

    # rng draw order is fixed: alice thinning, block thetas, setting split,
    # outcome tallies setting by setting (one call over the rows)
    n_eff = trials
    if channel.alice_efficiency < 1.0:
        n_eff = int(rng.binomial(trials, channel.alice_efficiency))
    theta, span = theta_policy.orientation(mset.n, rng)
    detected = rx.detected_state(state, theta, span)
    probs = _fold_channel(steering.born_table(state, mset, detected), channel)

    setting_trials = rng.multinomial(n_eff, np.full(mset.n, 1.0 / mset.n))
    p = probs.reshape(mset.n, 6)
    counts = rng.multinomial(setting_trials, p / p.sum(axis=1, keepdims=True))

    estimate = steering.steering_parameter_counts(counts.reshape(mset.n, 2, 3))
    bound, _ = bounds.loss_tolerant_bound(mset, estimate.announce_fraction)
    violated = estimate.s_value - 2 * estimate.std_err > bound
    return SteeringRunResult(
        n=mset.n, encoding_kind=rx.kind, theta_policy=theta_policy,
        trials=trials, estimate=estimate, bound_at_observed_xi=bound,
        violated=violated, seed=seed,
    )


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
    return [
        run_experiment(state, mset, channel, ThetaPolicy.fixed(t),
                       trials_per_point, s)
        for t, s in zip(thetas, child_seeds)
    ]


def dynamic_rotation_run(state: DensityMatrix, mset: steering.MeasurementSet,
                         channel: ChannelModel, trials: int, seed: int,
                         per_setting_block: bool = False) -> SteeringRunResult:
    """Dynamically rotating receiver: theta uniform on [0, pi/2] per trial."""
    policy = ThetaPolicy.dynamic(0.0, math.pi / 2,
                                 per_setting_block=per_setting_block)
    return run_experiment(state, mset, channel, policy, trials, seed)
