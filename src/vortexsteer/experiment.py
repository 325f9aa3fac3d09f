"""End-to-end finite-statistics steering experiments.

Noisy singlet preparation, encoding choice, receiver orientation policy,
Bob-side loss, sampling, estimation and the verdict against the
loss-tolerant bound evaluated at the observed announce fraction.

Sampling is aggregate: a run draws one multinomial over its setting-averaged
(2, 3) table on `GRID`.  A uniform setting choice followed by each setting's
outcomes (orientation per policy, Born probabilities, state-independent
loss) is exactly that one multinomial, and the verdict reads only its
agreeing, announced and total counts.  So it is distributionally identical
to trial-by-trial simulation, up to the grid, and bit-reproducible from the
seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

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
            object.__setattr__(self, name, v := _check_real(name, getattr(self, name)))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class ChannelModel:
    """Heralding efficiencies.  Bob's enters the bound; Alice's is rate-only."""

    bob_efficiency: float = 1.0
    alice_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("bob_efficiency", "alice_efficiency"):
            object.__setattr__(self, name, v := _check_real(name, getattr(self, name)))
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
            object.__setattr__(self, name, v := _check_real(name, getattr(self, name)))
            if not math.isfinite(v):
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
    """One simulated steering run: G agreeing and A announced of the M trials
    that Alice kept of her `trials`, and what they determine.  The estimate
    is S' = 2G/A - 1 with sigma at xi = A/M, the bound is C_n(xi), and the
    run is violated when S' lies more than two sigma above it.  A run with
    no announced event has no S', sigma or bound (NaN), and is not violated."""

    mset: InitVar[steering.MeasurementSet]
    n: int = field(init=False)
    encoding_kind: str
    theta_policy: ThetaPolicy
    trials: int
    agree: int
    announced: int
    kept: int
    seed: int
    estimate: steering.SteeringEstimate = field(init=False)
    bound_at_observed_xi: float = field(init=False)
    violated: bool = field(init=False)  # NaN compares false

    def __post_init__(self, mset):
        if not isinstance(mset, steering.MeasurementSet):
            raise ValueError(f"mset must be a MeasurementSet, got {mset!r}")
        if not (isinstance(self.encoding_kind, str)
                and self.encoding_kind in encoding.RECEIVER_KINDS):
            raise ValueError(f"encoding_kind must be one of {encoding.RECEIVER_KINDS}, "
                             f"got {self.encoding_kind!r}")
        if not isinstance(self.theta_policy, ThetaPolicy):
            raise ValueError(f"theta_policy must be a ThetaPolicy, "
                             f"got {self.theta_policy!r}")
        for name in ("trials", "agree", "announced", "kept", "seed"):
            _check_count(name, getattr(self, name))
        # Python ints, so that the bound is a float and the verdict a bool
        g, a, m = int(self.agree), int(self.announced), int(self.kept)
        if not g <= a <= m <= self.trials:
            raise ValueError("need agree <= announced <= kept <= trials")
        bound, slope = bounds._bound_and_slope(mset, a / m) if a else (math.nan, 0.0)
        object.__setattr__(self, "n", mset.n)
        object.__setattr__(self, "estimate", est := steering._estimate(g, a, m, slope))
        object.__setattr__(self, "bound_at_observed_xi", bound)
        object.__setattr__(self, "violated", est.s_value - 2 * est.std_err > bound)


def visibility_for_fidelity(fidelity: float) -> float:
    """Invert F = v + (1 - v)/4 for the Werner visibility."""
    if not 0.25 <= (fidelity := _check_real("fidelity", fidelity)) <= 1.0:
        raise ValueError("Werner fidelity must lie in [0.25, 1]")
    return (4 * fidelity - 1) / 3


def werner_state(v: float) -> DensityMatrix:
    """Werner mixture of the polarization singlet with white noise (4x4)."""
    if not 0.0 <= (v := _check_real("visibility", v)) <= 1.0:
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
    if not isinstance(noise, NoiseModel):
        raise ValueError(f"noise must be a NoiseModel, got {noise!r}")
    rho4 = werner_state(noise.werner_v).entries
    if noise.dephasing > 0:
        rho4 = _dephase_bob(rho4, noise.dephasing)
    w = np.kron(np.eye(2), encoding.receiver(encoding_kind).encoder)
    return DensityMatrix(w @ rho4 @ w.conj().T)


def _thinned(channel: ChannelModel, trials: int, seed: int) -> tuple:
    """The run's generator after Alice's thinning, and the trials she kept."""
    _check_count("seed", seed)
    rng = np.random.default_rng(seed)
    if channel.alice_efficiency < 1.0:
        return rng, int(rng.binomial(trials, channel.alice_efficiency))
    return rng, trials


def _on_grid(rows: np.ndarray) -> np.ndarray:
    """Each row of six entries on `GRID`, the largest taking the remainder of 1."""
    flat = np.rint(rows.reshape(-1, 6) / GRID) * GRID
    flat[np.arange(len(flat)), flat.argmax(axis=-1)] += 1 - np.add.reduce(flat, axis=-1)
    return flat.reshape(rows.shape)


def _averaged(tables: np.ndarray) -> np.ndarray:
    """The (T, 2, 3) setting averages of a (T, n, 2, 3) table stack, on `GRID`:
    what a run with a uniform setting choice samples."""
    return _on_grid(np.add.reduce(tables, axis=1) / tables.shape[1])


@functools.lru_cache(maxsize=steering.TABLE_CACHE_SIZE)
def _gridded(state, mset, bob_efficiency, mids: tuple, span) -> np.ndarray:
    """The read-only averaged rows that runs at fixed midpoints sample:
    `_averaged` of `steering._tables` over spans centred on mids.  Keyed by
    identity, like the coefficients it is built from."""
    rows = _averaged(steering._tables(state, mset, bob_efficiency,
                                      np.array(mids, dtype=float).reshape(-1, 1), span))
    rows.flags.writeable = False
    return rows


def _sample(rows: np.ndarray, draws) -> list:
    """Each run's (2, 3) tally: one multinomial draw of its averaged row by
    its (generator, kept trials)."""
    return [rng.multinomial(m, p).reshape(2, 3)
            for p, (rng, m) in zip(rows.reshape(-1, 6), draws)]


def _runs(state, mset, channel, policies, span, trials, seeds) -> list:
    """One run per policy on its own seed, the receiver uniform over
    [theta_min, theta_min + span] or, in block mode, at n angles per run.
    Each run's generator draws Alice's thinning, the block angles and the
    tallies, in that order.  Block angles are fresh draws, so only fixed
    midpoints share `_gridded`."""
    # the trial count and the models are checked once, before any seed or table
    _check_count("trials", trials)
    if not isinstance(state, DensityMatrix):
        raise ValueError(f"state must be a DensityMatrix, got {state!r}")
    if not isinstance(mset, steering.MeasurementSet):
        raise ValueError(f"mset must be a MeasurementSet, got {mset!r}")
    if not isinstance(channel, ChannelModel):
        raise ValueError(f"channel must be a ChannelModel, got {channel!r}")
    if trials < mset.n:
        raise ValueError("need at least one trial per setting")
    if trials >= 2 ** 63:  # numpy's samplers take 64-bit counts
        raise ValueError(f"trials must be below 2**63, got {trials}")
    draws = [_thinned(channel, trials, s) for s in seeds]
    kind = encoding.receiver_for(state.dim).kind
    if any(p.per_setting_block for p in policies):
        mids = np.array([rng.uniform(p.theta_min, p.theta_max, size=mset.n)
                         for p, (rng, _) in zip(policies, draws)])
        rows = _averaged(steering._tables(state, mset, channel.bob_efficiency,
                                          mids, 0.0))
    else:
        rows = _gridded(state, mset, channel.bob_efficiency,
                        tuple(p.theta_min + span / 2 for p in policies), span)
    return [SteeringRunResult(mset, kind, p, trials, *steering._totals(tally), s)
            for p, s, tally in zip(policies, seeds, _sample(rows, draws))]


def run_experiment(state: DensityMatrix, mset: steering.MeasurementSet,
                   channel: ChannelModel, theta_policy: ThetaPolicy,
                   trials: int, seed: int) -> SteeringRunResult:
    """Simulate one steering run and judge it against C_n(observed xi)."""
    if not isinstance(theta_policy, ThetaPolicy):
        raise ValueError(f"theta_policy must be a ThetaPolicy, got {theta_policy!r}")
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
    return _runs(state, mset, channel, [ThetaPolicy(t, t) for t in thetas], 0.0,
                 trials_per_point, derive_seeds(seed, len(thetas)))


def dynamic_rotation_run(state: DensityMatrix, mset: steering.MeasurementSet,
                         channel: ChannelModel, trials: int, seed: int,
                         per_setting_block: bool = False) -> SteeringRunResult:
    """Dynamically rotating receiver: theta uniform on [0, pi/2] per trial."""
    policy = ThetaPolicy(0.0, math.pi / 2, per_setting_block)
    return run_experiment(state, mset, channel, policy, trials, seed)
