import dataclasses
import math
import re

import numpy as np
import pytest

import vortex_oracle as vo
from vortexsteer import encoding as enc
from vortexsteer import experiment as ex
from vortexsteer import steering as st
from vortexsteer.qmath import StateVector, fidelity_pure

M3 = st.platonic_set(3)
V_PAPER = ex.visibility_for_fidelity(0.977)
SWEEP = tuple(math.radians(t) for t in range(0, 91, 15))


def hexed(result):
    """Every field of a run with floats as float.hex: equal means bit-equal."""
    def walk(x):
        if isinstance(x, tuple):
            return tuple(walk(v) for v in x)
        return x.hex() if isinstance(x, float) else x
    return walk(dataclasses.astuple(result))


class TestPrepareState:
    def test_pure_polarization_singlet(self):
        rho = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        assert np.allclose(rho.entries, enc.singlet_pol().density().entries,
                           atol=1e-14)

    def test_white_noise_limit(self):
        rho = ex.prepare_state(ex.NoiseModel(0.0), "polarization")
        assert np.allclose(rho.entries, np.eye(4) / 4, atol=1e-14)
        assert fidelity_pure(enc.singlet_pol(), rho) == pytest.approx(0.25)

    def test_visibility_for_fidelity_inversion(self):
        assert V_PAPER == pytest.approx((4 * 0.977 - 1) / 3, abs=1e-12)
        assert ex.visibility_for_fidelity(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ex.visibility_for_fidelity(0.1)
        with pytest.raises(ValueError, match=r"visibility must lie in \[0, 1\]"):
            ex.werner_state(1.5)

    @pytest.mark.parametrize("kind", ["polarization", "vortex"])
    def test_fidelity_matches_werner_formula_in_both_encodings(self, kind):
        v = 0.9693
        rho = ex.prepare_state(ex.NoiseModel(v), kind)
        if kind == "polarization":
            target = enc.singlet_pol()
        else:
            w = np.kron(np.eye(2), vo.qplate_encoder(enc.OAM_LEVELS))
            target = StateVector(w @ enc.singlet_pol().amplitudes)
        assert fidelity_pure(target, rho) == pytest.approx(v + (1 - v) / 4,
                                                           abs=1e-12)

    def test_dephasing_keeps_state_valid_and_lowers_fidelity(self):
        clean = ex.prepare_state(ex.NoiseModel(0.98), "polarization")
        damped = ex.prepare_state(ex.NoiseModel(0.98, dephasing=0.2),
                                  "polarization")
        assert (fidelity_pure(enc.singlet_pol(), damped)
                < fidelity_pure(enc.singlet_pol(), clean))


class TestThetaPolicy:
    def test_reversed_dynamic_range_rejected(self):
        with pytest.raises(ValueError):
            ex.ThetaPolicy(1.0, 0.5)

    @pytest.mark.parametrize("kind, field, value", [
        ("fixed", "theta", math.nan), ("fixed", "theta", math.inf),
        ("dynamic", "theta_max", math.inf), ("dynamic", "theta_min", -math.inf),
        ("dynamic", "theta_min", math.nan), ("dynamic", "theta_max", math.nan),
    ])
    def test_non_finite_angle_rejected(self, kind, field, value):
        # fixed(t) is the range (t, t), so its first end is the one named
        name = "theta_min" if field == "theta" else field
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            ex.ThetaPolicy(**{name: value})
        if kind == "fixed":
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                ex.ThetaPolicy.fixed(value)

    def test_fixed_is_a_range_of_width_zero(self):
        assert ex.ThetaPolicy.fixed(0.7) == ex.ThetaPolicy(0.7, 0.7, False)

    @pytest.mark.parametrize("kind", ["polarization", "vortex"])
    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("efficiencies", [(1.0, 1.0), (0.45, 0.9)])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 2.5])
    def test_block_mode_over_one_angle_samples_the_fixed_table(
            self, kind, n, efficiencies, theta):
        # block mode over (t, t) has the table of fixed(t), but its run draws
        # the n block angles between Alice's thinning and the tallies
        state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
        mset, channel = st.platonic_set(n), ex.ChannelModel(*efficiencies)
        block = ex.ThetaPolicy(theta, theta, per_setting_block=True)
        rx = enc.receiver(kind)
        angles = np.random.default_rng(0).uniform(theta, theta, size=n)
        table = ex._table(rx, state, mset, efficiencies[0], theta)
        assert ex._table(rx, state, mset, efficiencies[0], angles).tobytes() \
            == table.tobytes()
        rng, n_eff = ex._thinned(mset, channel, 50_000, 5)
        rng.uniform(theta, theta, size=n)
        counts = ex._sample(table, rng, n_eff)
        want = ex._judge(st.steering_parameter_counts(counts), mset, kind, block,
                         50_000, 5)
        got = ex.run_experiment(state, mset, channel, block, 50_000, 5)
        assert hexed(got) == hexed(want)

    @pytest.mark.parametrize("kind", ["polarization", "vortex"])
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("efficiencies", [(1.0, 1.0), (0.45, 0.9)])
    @pytest.mark.parametrize("lo, hi", [(0.0, math.pi / 2), (1.0, 4.0)])
    def test_block_mode_draw_order(self, kind, n, efficiencies, lo, hi):
        # a block run's generator draws Alice's thinning, the n block angles,
        # the setting split and the tallies, in that order
        state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
        mset, channel = st.platonic_set(n), ex.ChannelModel(*efficiencies)
        block = ex.ThetaPolicy(lo, hi, per_setting_block=True)
        rng, n_eff = ex._thinned(mset, channel, 50_000, 5)
        angles = rng.uniform(lo, hi, size=n)
        table = ex._table(enc.receiver(kind), state, mset, efficiencies[0], angles)
        counts = ex._sample(table, rng, n_eff)
        want = ex._judge(st.steering_parameter_counts(counts), mset, kind, block,
                         50_000, 5)
        got = ex.run_experiment(state, mset, channel, block, 50_000, 5)
        assert hexed(got) == hexed(want)


class TestRunExperiment:
    def test_seed_reproducibility(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        kwargs = dict(state=state, mset=M3,
                      channel=ex.ChannelModel(bob_efficiency=0.45),
                      theta_policy=ex.ThetaPolicy.fixed(0.3),
                      trials=100_000, seed=314)
        a = ex.run_experiment(**kwargs)
        b = ex.run_experiment(**kwargs)
        assert a == b

    def test_ideal_singlet_violates(self):
        state = ex.prepare_state(ex.NoiseModel(1.0), "vortex")
        r = ex.run_experiment(state, M3, ex.ChannelModel(),
                              ex.ThetaPolicy.fixed(math.radians(37)),
                              trials=10**6, seed=1)
        assert abs(r.estimate.s_value - 1.0) < max(3 * r.estimate.std_err, 1e-3)
        assert r.violated

    def test_announce_fraction_tracks_bob_efficiency(self):
        eps = 0.45
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        r = ex.run_experiment(state, M3, ex.ChannelModel(bob_efficiency=eps),
                              ex.ThetaPolicy.fixed(0.0), trials=10**6, seed=8)
        sigma = math.sqrt(eps * (1 - eps) / r.trials)
        assert abs(r.estimate.announce_fraction - eps) < 3 * sigma

    def test_loss_does_not_bias_announced_correlations(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        lossless = ex.run_experiment(state, M3, ex.ChannelModel(),
                                     ex.ThetaPolicy.fixed(0.5),
                                     trials=10**6, seed=21)
        lossy = ex.run_experiment(state, M3,
                                  ex.ChannelModel(bob_efficiency=0.45),
                                  ex.ThetaPolicy.fixed(0.5),
                                  trials=10**6, seed=22)
        combined = math.hypot(lossless.estimate.std_err, lossy.estimate.std_err)
        assert abs(lossless.estimate.s_value - lossy.estimate.s_value) < 3 * combined

    def test_alice_efficiency_only_thins_trials(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "polarization")
        r = ex.run_experiment(state, M3,
                              ex.ChannelModel(bob_efficiency=1.0,
                                              alice_efficiency=0.5),
                              ex.ThetaPolicy.fixed(0.0), trials=200_000, seed=4)
        # announced fraction unaffected by Alice's side
        assert r.estimate.announce_fraction == pytest.approx(1.0)
        assert abs(r.estimate.s_value - V_PAPER) < 4 * r.estimate.std_err

    def test_too_few_trials_rejected(self):
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        with pytest.raises(ValueError):
            ex.run_experiment(state, M3, ex.ChannelModel(),
                              ex.ThetaPolicy.fixed(0.0), trials=0, seed=0)

    @pytest.mark.parametrize("trials", [100_000.5, 1e5, np.float64(1e5), True, "100000"],
                             ids=["fraction", "float", "numpy-float", "bool", "str"])
    def test_non_integer_trials_rejected(self, trials):
        # numpy would truncate 100000.5 to 100,000 trials; the bool is
        # rejected by type before the trial count is range-checked
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        channel = ex.ChannelModel()
        runs = [
            lambda: ex.run_experiment(state, M3, channel, ex.ThetaPolicy.fixed(0.0),
                                      trials, 0),
            lambda: ex.run_experiment(state, M3, channel,
                                      ex.ThetaPolicy(0.0, 1.0, per_setting_block=True),
                                      trials, 0),
            lambda: ex.sweep_theta(state, M3, channel, [0.0, 0.5], trials, 0),
            lambda: ex.dynamic_rotation_run(state, M3, channel, trials, 0),
        ]
        for run in runs:
            with pytest.raises(ValueError,
                               match=re.escape(f"trials must be an integer, got {trials!r}")):
                run()

    def test_numpy_integer_trials_accepted(self):
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        policy = ex.ThetaPolicy(0.0, 1.0, per_setting_block=True)
        a = ex.run_experiment(state, M3, ex.ChannelModel(), policy, np.int64(10_000), 7)
        b = ex.run_experiment(state, M3, ex.ChannelModel(), policy, 10_000, 7)
        assert hexed(a) == hexed(b)

    @pytest.mark.parametrize("seed", [True, 3.0, -1, "1"],
                             ids=["bool", "float", "negative", "str"])
    def test_invalid_seed_rejected(self, seed):
        # numpy would run True as seed 1 and raise its own TypeError for 3.0;
        # a sweep's parent seed is checked before its child seeds are derived
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        channel = ex.ChannelModel()
        runs = [
            lambda: ex.run_experiment(state, M3, channel, ex.ThetaPolicy.fixed(0.0),
                                      10_000, seed),
            lambda: ex.sweep_theta(state, M3, channel, [0.0, 0.5], 10_000, seed),
            lambda: ex.dynamic_rotation_run(state, M3, channel, 10_000, seed),
        ]
        for run in runs:
            with pytest.raises(ValueError, match=re.escape(
                    f"seed must be a non-negative integer, got {seed!r}")):
                run()

    def test_numpy_integer_seed_accepted(self):
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        channel = ex.ChannelModel()
        for policy in (ex.ThetaPolicy.fixed(0.3), ex.ThetaPolicy(0.0, 1.0, True)):
            assert hexed(ex.run_experiment(state, M3, channel, policy, 10_000,
                                           np.uint32(7))) == \
                hexed(ex.run_experiment(state, M3, channel, policy, 10_000, 7))
        assert [hexed(r) for r in ex.sweep_theta(state, M3, channel, [0.0, 0.5],
                                                 10_000, np.int64(7))] == \
            [hexed(r) for r in ex.sweep_theta(state, M3, channel, [0.0, 0.5], 10_000, 7)]


class TestSweep:
    def test_vortex_spread_within_sampling_noise(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        thetas = [math.radians(t) for t in range(0, 91, 15)]
        results = ex.sweep_theta(state, M3,
                                 ex.ChannelModel(bob_efficiency=0.45),
                                 thetas, trials_per_point=300_000, seed=5)
        s = [r.estimate.s_value for r in results]
        hi, lo = int(np.argmax(s)), int(np.argmin(s))
        combined = math.hypot(results[hi].estimate.std_err,
                              results[lo].estimate.std_err)
        assert s[hi] - s[lo] < 4 * combined

    def test_polarization_tracks_closed_form(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "polarization")
        thetas = [math.radians(t) for t in range(0, 91, 15)]
        results = ex.sweep_theta(state, M3, ex.ChannelModel(), thetas,
                                 trials_per_point=400_000, seed=6)
        for theta, r in zip(thetas, results):
            expected = V_PAPER * (1 + 2 * math.cos(2 * theta)) / 3
            assert abs(r.estimate.s_value - expected) < 3 * max(
                r.estimate.std_err, 1e-12)

    @pytest.mark.parametrize("kind", ["polarization", "vortex"])
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("efficiencies", [(1.0, 1.0), (0.45, 1.0), (0.45, 0.9)])
    def test_sweep_equals_fixed_runs_on_child_seeds(self, kind, n, efficiencies):
        # sweep_theta builds all its tables in one call, then samples each
        # theta on its child seed as run_experiment would
        state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
        mset = st.platonic_set(n)
        channel = ex.ChannelModel(*efficiencies)
        thetas = [0.0, 0.3, math.pi / 2, 4.0]
        results = ex.sweep_theta(state, mset, channel, thetas, 50_000, seed=41)
        expected = [ex.run_experiment(state, mset, channel, ex.ThetaPolicy.fixed(t),
                                      50_000, s)
                    for t, s in zip(thetas, ex.derive_seeds(41, len(thetas)))]
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            assert dataclasses.astuple(got) == dataclasses.astuple(want)

    def test_empty_theta_list(self):
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        assert ex.sweep_theta(state, M3, ex.ChannelModel(), [], 1000, 0) == []

    def test_out_of_range_theta_rejected(self):
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        with pytest.raises(ValueError):
            ex.sweep_theta(state, M3, ex.ChannelModel(), [7.0], 1000, 0)


class TestDynamic:
    def test_vortex_invariance_makes_dynamic_look_static(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        r = ex.dynamic_rotation_run(state, M3,
                                    ex.ChannelModel(bob_efficiency=0.45),
                                    trials=10**6, seed=17)
        assert abs(r.estimate.s_value - V_PAPER) < 3 * r.estimate.std_err
        assert r.violated

    def test_polarization_averages_to_a_third_of_visibility(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "polarization")
        r = ex.dynamic_rotation_run(state, M3,
                                    ex.ChannelModel(bob_efficiency=0.45),
                                    trials=10**6, seed=18)
        assert abs(r.estimate.s_value - V_PAPER / 3) < 3 * r.estimate.std_err
        assert not r.violated

    def test_per_setting_block_mode_runs_and_reproduces(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        a = ex.dynamic_rotation_run(state, M3, ex.ChannelModel(),
                                    trials=50_000, seed=3,
                                    per_setting_block=True)
        b = ex.dynamic_rotation_run(state, M3, ex.ChannelModel(),
                                    trials=50_000, seed=3,
                                    per_setting_block=True)
        assert a == b

    def test_zero_trials_rejected(self):
        state = ex.prepare_state(ex.NoiseModel(1.0), "vortex")
        with pytest.raises(ValueError):
            ex.dynamic_rotation_run(state, M3, ex.ChannelModel(),
                                    trials=0, seed=0)


class TestTableCache:
    @pytest.mark.parametrize("kind", ["polarization", "vortex"])
    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("efficiency", [1.0, 0.45])
    @pytest.mark.parametrize("thetas, span", [
        ((0.3,), 0.0), ((0.0,), math.pi / 2), (SWEEP, 0.0)],
        ids=["fixed", "per-trial", "sweep"])
    def test_cached_table_is_the_fresh_table_read_only(
            self, kind, n, efficiency, thetas, span):
        # each table of the stack is also the table of its angle alone
        state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
        mset, rx = st.platonic_set(n), enc.receiver(kind)
        cached = ex._cached_tables(state, mset, efficiency, thetas, span)
        assert cached.shape == (len(thetas), n, 2, 3)
        assert cached.tobytes() == ex._table(rx, state, mset, efficiency,
                                             np.reshape(thetas, (-1, 1)),
                                             span).tobytes()
        for theta, table in zip(thetas, cached):
            assert table.tobytes() == ex._table(rx, state, mset, efficiency, theta,
                                                span).tobytes()
        assert ex._cached_tables(state, mset, efficiency, thetas, span) is cached
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[..., 0] = 0.0

    def test_fixed_and_per_trial_runs_fill_the_cache_block_runs_do_not(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        channel = ex.ChannelModel(bob_efficiency=0.45)
        cache = ex._cached_tables
        for seed in (1, 2):
            ex.run_experiment(state, M3, channel, ex.ThetaPolicy.fixed(0.3),
                              10_000, seed)
            ex.dynamic_rotation_run(state, M3, channel, 10_000, seed)
        assert (cache.cache_info().currsize, cache.cache_info().hits) == (2, 2)
        before = cache.cache_info()
        ex.dynamic_rotation_run(state, M3, channel, 10_000, 3,
                                per_setting_block=True)
        assert cache.cache_info() == before

    def test_fixed_run_and_one_angle_sweep_share_one_table(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        channel = ex.ChannelModel(bob_efficiency=0.45)
        ex.run_experiment(state, M3, channel, ex.ThetaPolicy.fixed(0.3), 10_000, 1)
        ex.sweep_theta(state, M3, channel, [0.3], 10_000, 2)
        info = ex._cached_tables.cache_info()
        assert (info.currsize, info.hits) == (1, 1)

    @pytest.mark.parametrize("kind", ["polarization", "vortex"])
    def test_warm_and_cold_cache_give_identical_runs(self, kind):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
        channel = ex.ChannelModel(0.45, 0.9)
        mset = st.platonic_set(6)

        def runs():
            sweep = ex.sweep_theta(state, mset, channel, SWEEP, 50_000, 9)
            dynamic = ex.dynamic_rotation_run(state, mset, channel, 50_000, 9)
            return [hexed(r) for r in sweep + [dynamic]]

        cold = runs()
        assert ex._cached_tables.cache_info().currsize == 2
        warm = runs()
        ex._cached_tables.cache_clear()
        assert runs() == warm == cold


def test_verdict_invariant_enforced():
    state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
    r = ex.run_experiment(state, M3, ex.ChannelModel(),
                          ex.ThetaPolicy.fixed(0.0), trials=10_000, seed=12)
    with pytest.raises(ValueError):
        ex.SteeringRunResult(
            n=r.n, encoding_kind=r.encoding_kind, theta_policy=r.theta_policy,
            trials=r.trials, estimate=r.estimate,
            bound_at_observed_xi=r.bound_at_observed_xi,
            violated=not r.violated, seed=r.seed)
