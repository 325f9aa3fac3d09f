import dataclasses
import hashlib
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import bound_oracles as bo
import vortex_oracle as vo
from vortexsteer import bounds as bd
from vortexsteer import encoding as enc
from vortexsteer import experiment as ex
from vortexsteer import steering as st
from vortexsteer import tomography as tm
from vortexsteer.qmath import GRID, StateVector, fidelity_pure

M3 = st.platonic_set(3)
V_PAPER = ex.visibility_for_fidelity(0.977)
SWEEP = tuple(math.radians(t) for t in range(0, 91, 15))


def cache_counts(cache):
    """A table cache's (entries, misses, hits)."""
    info = cache.cache_info()
    return info.currsize, info.misses, info.hits


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

    def test_float32_parameters_compute_as_their_float(self):
        # float32 arithmetic rounded 1 - v and 1 - d/2 in float32, so the trace
        # check failed; the real rule's float computes the same bits as float()
        x = np.float32(0.35)
        assert ex.werner_state(x).entries.tobytes() == \
            ex.werner_state(float(x)).entries.tobytes()
        for noise in (ex.NoiseModel(x), ex.NoiseModel(1.0, x)):
            assert type(noise.werner_v) is type(noise.dephasing) is float
            for kind in ("polarization", "vortex"):
                assert ex.prepare_state(noise, kind).entries.tobytes() == \
                    ex.prepare_state(ex.NoiseModel(float(noise.werner_v),
                                                   float(noise.dephasing)),
                                     kind).entries.tobytes()
        v = ex.visibility_for_fidelity(np.float32(0.9))
        assert type(v) is float and v == (4 * float(np.float32(0.9)) - 1) / 3

    @pytest.mark.parametrize("noise", [None, 0.5, "x", np.eye(4) / 4])
    def test_noise_must_be_a_noise_model(self, noise):
        # the attribute read of werner_v raised AttributeError
        with pytest.raises(ValueError, match="^noise must be a NoiseModel, got "):
            ex.prepare_state(noise, "polarization")

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
        ("fixed", "theta", -math.inf), ("dynamic", "theta_max", math.inf),
        ("dynamic", "theta_min", -math.inf),
        ("dynamic", "theta_min", math.nan), ("dynamic", "theta_max", math.nan),
    ])
    def test_non_finite_angle_rejected(self, kind, field, value):
        # fixed(t) is the range (t, t), so its first end is the one named;
        # exact S at t rejects the angle too, though the vortex table never reads it
        name = "theta_min" if field == "theta" else field
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            ex.ThetaPolicy(**{name: value})
        if kind == "fixed":
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                ex.ThetaPolicy.fixed(value)
            for encoding_kind in ("polarization", "vortex"):
                state = ex.prepare_state(ex.NoiseModel(V_PAPER), encoding_kind)
                with pytest.raises(ValueError, match="^theta must be finite$"):
                    st.steering_parameter_exact(state, M3, value)

    def test_range_too_wide_for_a_float_rejected(self):
        # each end is finite, but the width overflows to inf
        with pytest.raises(ValueError, match=r"^theta_max - theta_min must be finite$"):
            ex.ThetaPolicy(-1e308, 1e308)
        # a finite width runs, though twice it (g span at the gap g = 2) is inf
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "polarization")
        wide = ex.ThetaPolicy(-5e307, 5e307)
        assert math.isfinite(ex.run_experiment(state, M3, ex.ChannelModel(), wide,
                                               10_000, 1).estimate.s_value)

    @pytest.mark.parametrize("block", [False, True])
    def test_angle_whose_phase_overflows_rejected(self, block):
        # 2 theta overflows at the polarization gap; the rejection comes before
        # any table is built, and the rotation-invariant vortex table has no gap
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "polarization")
        message = (r"^theta must not exceed 8\.98847e\+307 in magnitude "
                   r"at the receiver's gap 2$")
        for policy in (ex.ThetaPolicy(1e308, 1e308, block),
                       ex.ThetaPolicy(1e308, 1.5e308, block)):
            with pytest.raises(ValueError, match=message):
                ex.run_experiment(state, M3, ex.ChannelModel(), policy, 10_000, 1)
        assert ex._gridded.cache_info().currsize == 0
        with pytest.raises(ValueError, match=message):
            st.steering_parameter_exact(state, M3, 1e308)
        largest = ex.ThetaPolicy(sys.float_info.max / 2, sys.float_info.max / 2, block)
        assert math.isfinite(ex.run_experiment(state, M3, ex.ChannelModel(), largest,
                                               10_000, 1).estimate.s_value)
        vortex = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        far, zero = (ex.run_experiment(vortex, M3, ex.ChannelModel(),
                                       ex.ThetaPolicy(theta, theta, block), 10_000, 1)
                     for theta in (1e308, 0.0))
        assert hexed(far.estimate) == hexed(zero.estimate)
        assert hexed(st.steering_parameter_exact(vortex, M3, 1e308)) == \
            hexed(st.steering_parameter_exact(vortex, M3, 0.0))

    @pytest.mark.parametrize("flag", ["no", 1, 0, None, 1.0])
    def test_non_bool_block_flag_rejected(self, flag):
        # "no" is truthy, and would run in block mode
        with pytest.raises(ValueError, match=re.escape(
                f"per_setting_block must be a bool, got {flag!r}")):
            ex.ThetaPolicy(0.0, 1.0, flag)

    def test_numpy_bool_block_flag_accepted(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "polarization")
        runs = [ex.run_experiment(state, M3, ex.ChannelModel(),
                                  ex.ThetaPolicy(0.0, 1.0, flag), 10_000, 3)
                for flag in (np.bool_(True), True)]
        assert hexed(runs[0]) == hexed(runs[1])

    def test_fixed_is_a_range_of_width_zero(self):
        assert ex.ThetaPolicy.fixed(0.7) == ex.ThetaPolicy(0.7, 0.7, False)

    @pytest.mark.parametrize("kind", ["polarization", "vortex"])
    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("efficiencies", [(1.0, 1.0), (0.45, 0.9)])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 2.5])
    def test_block_mode_over_one_angle_samples_the_fixed_table(
            self, kind, n, efficiencies, theta):
        # block mode over (t, t) has the row of fixed(t), but its run draws
        # the n block angles between Alice's thinning and the tallies
        state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
        mset, channel = st.platonic_set(n), ex.ChannelModel(*efficiencies)
        block = ex.ThetaPolicy(theta, theta, per_setting_block=True)
        angles = np.random.default_rng(0).uniform(theta, theta, size=n)
        row = ex._averaged(st._tables(state, mset, efficiencies[0],
                                      np.array([[theta]]), 0.0))
        assert ex._averaged(st._tables(state, mset, efficiencies[0], angles[None],
                                       0.0)).tobytes() == row.tobytes()
        rng, n_eff = ex._thinned(channel, 50_000, 5)
        rng.uniform(theta, theta, size=n)
        tally = ex._sample(row, [(rng, n_eff)])[0]
        want = ex.SteeringRunResult(mset, kind, block, 50_000, *st._totals(tally), 5)
        got = ex.run_experiment(state, mset, channel, block, 50_000, 5)
        assert hexed(got) == hexed(want)

    @pytest.mark.parametrize("kind", ["polarization", "vortex"])
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("efficiencies", [(1.0, 1.0), (0.45, 0.9)])
    @pytest.mark.parametrize("lo, hi", [(0.0, math.pi / 2), (1.0, 4.0)])
    def test_block_mode_draw_order(self, kind, n, efficiencies, lo, hi):
        # a block run's generator draws Alice's thinning, the n block angles
        # and the tallies, in that order
        state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
        mset, channel = st.platonic_set(n), ex.ChannelModel(*efficiencies)
        block = ex.ThetaPolicy(lo, hi, per_setting_block=True)
        rng, n_eff = ex._thinned(channel, 50_000, 5)
        angles = rng.uniform(lo, hi, size=n)
        row = ex._averaged(st._tables(state, mset, efficiencies[0], angles[None], 0.0))
        tally = ex._sample(row, [(rng, n_eff)])[0]
        want = ex.SteeringRunResult(mset, kind, block, 50_000, *st._totals(tally), 5)
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

    @pytest.mark.parametrize("trials", [100_000.5, 1e5, np.float64(1e5), True, "100000",
                                        2.5, 1000.0, -1, "3", None],
                             ids=["fraction", "float", "numpy-float", "bool", "str",
                                  "small-fraction", "small-float", "negative",
                                  "small-str", "none"])
    def test_non_integer_trials_rejected(self, trials):
        # numpy would truncate 100000.5 to 100,000 trials; a bool or a negative
        # count fails the integer rule before the trial count is range-checked
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
                               match=re.escape(
                                   f"trials must be a non-negative integer, got {trials!r}")):
                run()

    def test_numpy_integer_trials_accepted(self):
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        policy = ex.ThetaPolicy(0.0, 1.0, per_setting_block=True)
        a = ex.run_experiment(state, M3, ex.ChannelModel(), policy, np.int64(10_000), 7)
        b = ex.run_experiment(state, M3, ex.ChannelModel(), policy, 10_000, 7)
        assert hexed(a) == hexed(b)

    @pytest.mark.parametrize("seed", [True, 3.0, -1, "1", 2.5, 1000.0, "3", None],
                             ids=["bool", "float", "negative", "str", "fraction",
                                  "large-float", "other-str", "none"])
    def test_invalid_seed_rejected(self, seed):
        # numpy would run True as seed 1 and raise its own TypeError for 3.0;
        # a sweep's parent seed is checked before its child seeds are derived,
        # and tomography's sampler keeps the same rule
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        channel = ex.ChannelModel()
        runs = [
            lambda: ex.run_experiment(state, M3, channel, ex.ThetaPolicy.fixed(0.0),
                                      10_000, seed),
            lambda: ex.sweep_theta(state, M3, channel, [0.0, 0.5], 10_000, seed),
            lambda: ex.dynamic_rotation_run(state, M3, channel, 10_000, seed),
            lambda: tm.simulate_counts(state, tm.standard_settings(), seed),
        ]
        for run in runs:
            with pytest.raises(ValueError, match=re.escape(
                    f"seed must be a non-negative integer, got {seed!r}")):
                run()

    @pytest.mark.parametrize("count", [-1, 2.5, True, "3", np.float64(2), 1000.0, None],
                             ids=["negative", "fraction", "bool", "str", "numpy-float",
                                  "float", "none"])
    def test_invalid_seed_count_rejected(self, count):
        # numpy would raise its own errors, or derive one seed for True; a
        # tomography spec's counts per setting keep the same rule, where
        # True would run 1 count and 2.5 would scale every Poisson mean
        with pytest.raises(ValueError, match=re.escape(
                f"count must be a non-negative integer, got {count!r}")):
            ex.derive_seeds(1, count)
        labels, projectors = tm._pair_projectors("HVDL")
        for build in (tm.standard_settings, tm.minimal_settings,
                      lambda c: tm.TomographySpec(labels, projectors, c)):
            with pytest.raises(ValueError, match=re.escape(
                    f"counts_per_setting must be a non-negative integer, got {count!r}")):
                build(count)
        assert ex.derive_seeds(1, np.int64(3)) == ex.derive_seeds(1, 3)
        assert ex.derive_seeds(1, 0) == []
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        assert np.array_equal(tm.simulate_counts(state, tm.standard_settings(np.int64(5)), 7),
                              tm.simulate_counts(state, tm.standard_settings(5), 7))

    @pytest.mark.parametrize("value", [True, "0.5", None, 10**400],
                             ids=["bool", "str", "none", "huge-int"])
    def test_non_real_parameter_rejected(self, value):
        # True would run as 1, a string as 0.5 or a TypeError, None as a
        # TypeError and 10**400 as an OverflowError; every real input passes
        # the one rule first, whose message never formats a huge int's digits
        fields = {ex.NoiseModel: ("werner_v", "dephasing"),
                  ex.ChannelModel: ("bob_efficiency", "alice_efficiency"),
                  ex.ThetaPolicy: ("theta_min", "theta_max")}
        calls = [(name, lambda model=model, name=name: model(**{name: value}))
                 for model, names in fields.items() for name in names]
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "polarization")
        calls += [
            ("theta", lambda: ex.ThetaPolicy.fixed(value)),
            ("theta", lambda: st.steering_parameter_exact(state, M3, value)),
            ("theta", lambda: ex.sweep_theta(state, M3, ex.ChannelModel(), [0.5, value],
                                             10_000, 3)),
            ("xi", lambda: bd.loss_tolerant_bound(M3, value)),
            ("grid value", lambda: bd.bound_curve(M3, [0.25, value])),
            ("visibility", lambda: ex.werner_state(value)),
            ("fidelity", lambda: ex.visibility_for_fidelity(value))]
        for name, call in calls:
            message = (f"{name} must lie within float range" if type(value) is int
                       else f"{name} must be a real number, got {value!r}")
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                call()
        # numpy and int reals are read as Python floats, as float() read them
        for x in (np.float32(0.5), np.float64(0.5), 1):
            assert type(ex.ThetaPolicy.fixed(x).theta_min) is float
            assert type(bd.bound_curve(M3, [0.25, x]).xi_grid[1]) is float
        # np.float32(0.5) is exactly 0.5, so its run is bit for bit the float's
        runs = [ex.run_experiment(ex.prepare_state(ex.NoiseModel(x, x), "polarization"),
                                  M3, ex.ChannelModel(x, x), ex.ThetaPolicy(x, x),
                                  10_000, 3).estimate for x in (np.float32(0.5), 0.5)]
        assert hexed(runs[0]) == hexed(runs[1])

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
        spec = tm.standard_settings()
        assert np.array_equal(tm.simulate_counts(state, spec, np.int64(7)),
                              tm.simulate_counts(state, spec, 7))


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

    @pytest.mark.parametrize("trials, message", [
        (-1, "trials must be a non-negative integer, got -1"),
        (1.5, "trials must be a non-negative integer, got 1.5"),
        (2, "need at least one trial per setting"),
        (2**63, f"trials must be below 2**63, got {2**63}"),
    ])
    def test_empty_theta_list_checks_trials(self, trials, message):
        # an empty sweep draws no seed, so its trial count is checked once per
        # call, not per seed
        state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
        with pytest.raises(ValueError, match=re.escape(message)):
            ex.sweep_theta(state, M3, ex.ChannelModel(), [], trials, 0)

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
        ((0.3,), 0.0), ((math.pi / 4,), math.pi / 2), (SWEEP, 0.0)],
        ids=["fixed", "per-trial", "sweep"])
    def test_cached_coefficients_give_each_angle_its_table(
            self, kind, n, efficiency, thetas, span):
        # one read-only coefficient stack per configuration serves every angle;
        # each table of a stack is also the table of its angle alone
        state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
        mset = st.platonic_set(n)
        gaps, coef = st._harmonics(state, mset, efficiency)
        assert gaps == ([] if kind == "vortex" else [2])
        assert coef.shape == (1 + 2 * len(gaps), n, 2, 3)
        tables = st._tables(state, mset, efficiency, np.reshape(thetas, (-1, 1)), span)
        assert tables.shape == (len(thetas), n, 2, 3)
        for theta, table in zip(thetas, tables):
            assert table.tobytes() == st._tables(state, mset, efficiency,
                                                 np.array([[theta]]), span)[0].tobytes()
        assert st._harmonics(state, mset, efficiency)[1] is coef
        assert not coef.flags.writeable
        with pytest.raises(ValueError):
            coef[..., 0] = 0.0

    def test_fixed_per_trial_and_block_runs_share_one_entry(self):
        # one coefficient entry serves all three; the fixed and the per-trial
        # run each grid their table once, and the block runs never do
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        channel = ex.ChannelModel(bob_efficiency=0.45)
        for seed in (1, 2):
            ex.run_experiment(state, M3, channel, ex.ThetaPolicy.fixed(0.3),
                              10_000, seed)
            ex.dynamic_rotation_run(state, M3, channel, 10_000, seed)
            ex.dynamic_rotation_run(state, M3, channel, 10_000, seed,
                                    per_setting_block=True)
        assert cache_counts(st._harmonics) == (1, 1, 3)
        assert cache_counts(ex._gridded) == (2, 2, 2)

    def test_fixed_run_and_one_angle_sweep_share_one_table(self):
        # and exact S reads the coefficients of a lossless run
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "vortex")
        for efficiency in (0.45, 1.0):
            channel = ex.ChannelModel(bob_efficiency=efficiency)
            ex.run_experiment(state, M3, channel, ex.ThetaPolicy.fixed(0.3), 10_000, 1)
            ex.sweep_theta(state, M3, channel, [0.3], 10_000, 2)
        st.steering_parameter_exact(state, M3, 0.3)
        assert cache_counts(st._harmonics) == (2, 2, 1)
        assert cache_counts(ex._gridded) == (2, 2, 2)

    @settings(max_examples=60, deadline=None)
    @given(kind=hs.sampled_from(["polarization", "vortex"]),
           n=hs.sampled_from([2, 3, 4, 6]), v=hs.floats(0, 1), dephasing=hs.floats(0, 1),
           efficiency=hs.floats(0.05, 1),
           starts=hs.lists(hs.floats(-10, 10), min_size=1, max_size=8),
           span=hs.floats(0, 2 * math.pi), seed=hs.integers(0, 2 ** 32 - 1))
    def test_gridded_table_is_the_fresh_one_read_only(self, kind, n, v, dephasing,
                                                      efficiency, starts, span, seed):
        # a batch grids its table once; the same batch again is a cache hit
        # and samples the same tallies
        state = ex.prepare_state(ex.NoiseModel(v, dephasing), kind)
        mset, channel = st.platonic_set(n), ex.ChannelModel(efficiency)
        policies = [ex.ThetaPolicy(t, t + span) for t in starts]
        seeds = ex.derive_seeds(seed, len(policies))
        before = ex._gridded.cache_info()
        first = ex._runs(state, mset, channel, policies, span, 10_000, seeds)
        second = ex._runs(state, mset, channel, policies, span, 10_000, seeds)
        after = ex._gridded.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert [hexed(r) for r in first] == [hexed(r) for r in second]
        mids = tuple(t + span / 2 for t in starts)
        cached = ex._gridded(state, mset, efficiency, mids, span)
        fresh = ex._averaged(st._tables(state, mset, efficiency,
                                        np.reshape(mids, (-1, 1)), span))
        assert ex._gridded.cache_info().hits == after.hits + 1
        assert cached.tobytes() == fresh.tobytes()
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[..., 0] = 0.0

    def test_block_runs_leave_the_gridded_cache_untouched(self):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER), "polarization")
        channel = ex.ChannelModel(bob_efficiency=0.45)
        for seed in (1, 1, 2):
            ex.dynamic_rotation_run(state, M3, channel, 10_000, seed,
                                    per_setting_block=True)
            ex.run_experiment(state, M3, channel, ex.ThetaPolicy(0.3, 0.3, True),
                              10_000, seed)
        assert cache_counts(ex._gridded) == (0, 0, 0)

    @pytest.mark.parametrize("kind", ["polarization", "vortex"])
    def test_signed_zero_angles_share_an_entry(self, kind):
        # 0.0 == -0.0 as a key; the uncached tables at either angle draw the
        # same tallies, so sharing the entry moves no run
        state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
        channel = ex.ChannelModel(0.45, 0.9)
        runs = [ex.run_experiment(state, M3, channel, ex.ThetaPolicy.fixed(theta),
                                  50_000, 5) for theta in (0.0, -0.0)]
        assert cache_counts(ex._gridded) == (1, 1, 1)
        assert hexed(runs[0].estimate) == hexed(runs[1].estimate)
        rows = [ex._averaged(st._tables(state, M3, 0.45, np.array([[theta]]), 0.0))
                for theta in (0.0, -0.0)]
        tallies = [ex._sample(row, [ex._thinned(channel, 50_000, 5)])[0].tobytes()
                   for row in rows]
        assert tallies[0] == tallies[1]

    @pytest.mark.parametrize("kind", ["polarization", "vortex"])
    def test_warm_and_cold_cache_give_identical_runs(self, kind):
        state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
        channel = ex.ChannelModel(0.45, 0.9)
        mset = st.platonic_set(6)

        def runs():
            sweep = ex.sweep_theta(state, mset, channel, SWEEP, 50_000, 9)
            dynamic = ex.dynamic_rotation_run(state, mset, channel, 50_000, 9)
            block = ex.dynamic_rotation_run(state, mset, channel, 50_000, 9, True)
            return [hexed(r) for r in sweep + [dynamic, block]]

        cold = runs()
        assert st._harmonics.cache_info().currsize == 1
        assert ex._gridded.cache_info().currsize == 2   # the sweep, the per-trial run
        warm = runs()
        st._harmonics.cache_clear()
        ex._gridded.cache_clear()
        assert runs() == warm == cold


class TestGrid:
    """Each run's six setting-averaged entries are drawn from the probability
    grid, so a draw depends on the physics, not on how the arithmetic was
    rounded."""

    def test_tables_within_1e_15_draw_identical_tallies(self):
        # lossless and pure states hold rounding residues of exact zeros, which
        # unrounded tables hand to the multinomial as they are
        rng = np.random.default_rng(2024)
        for kind in ("polarization", "vortex"):
            for n in (3, 6):
                mset = st.platonic_set(n)
                for v, dephasing in ((1.0, 0.0), (V_PAPER, 0.0), (0.8, 0.3)):
                    state = ex.prepare_state(ex.NoiseModel(v, dephasing), kind)
                    for efficiency in (1.0, 0.45):
                        tables = st._tables(state, mset, efficiency,
                                            np.reshape(SWEEP, (-1, 1)), 0.0)
                        nudged = tables * (1 + 1e-15 * rng.uniform(-1, 1, tables.shape))
                        for seed, (a, b) in enumerate(zip(ex._averaged(tables),
                                                          ex._averaged(nudged))):
                            draws = [ex._sample(row,
                                                [(np.random.default_rng(seed), 100_000)])
                                     for row in (a, b)]
                            assert draws[0][0].tobytes() == draws[1][0].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(kind=hs.sampled_from(["polarization", "vortex"]),
           n=hs.sampled_from([2, 3, 4, 6]), v=hs.floats(0, 1), dephasing=hs.floats(0, 1),
           efficiency=hs.floats(1e-3, 1), block=hs.booleans(),
           theta=hs.floats(0, 2 * math.pi), span=hs.floats(0, 2 * math.pi),
           seed=hs.integers(0, 2 ** 32 - 1))
    def test_grid_moves_no_entry_beyond_its_bound(self, kind, n, v, dephasing, efficiency,
                                                  block, theta, span, seed):
        # every entry of a setting average moves by at most GRID/2, except each
        # row's largest, which takes the remainder: at most 2^-30; each row
        # sums to exactly 1. Before the grid, the average is within 1e-15 of
        # the exact mean of the per-setting rows.
        state = ex.prepare_state(ex.NoiseModel(v, dephasing), kind)
        mset = st.platonic_set(n)
        if block:
            mids = np.random.default_rng(seed).uniform(0, 2 * math.pi, size=(3, n))
            span = 0.0
        else:
            mids = np.array([[theta], [theta + 1.0], [theta + 2.0]])
        tables = st._tables(state, mset, efficiency, mids, span)
        exact = np.array([[math.fsum(entry) / n for entry in run.reshape(n, 6).T]
                          for run in tables])
        mean = np.add.reduce(tables, axis=1) / n
        assert np.abs(mean.reshape(-1, 6) - exact).max() <= 1e-15
        rows = ex._averaged(tables)
        assert rows.tobytes() == ex._on_grid(mean).tobytes()
        rows = rows.reshape(-1, 6)
        assert np.array_equal(rows / GRID, np.rint(rows / GRID))
        assert rows.min() >= 0
        assert np.all(rows.sum(axis=-1) == 1.0)
        assert all(math.fsum(row) == 1.0 for row in rows.tolist())
        shift = np.abs(rows - exact)
        largest = np.arange(len(rows)), np.rint(exact / GRID).argmax(axis=-1)
        assert shift[largest].max() <= 2.0 ** -30
        shift[largest] = 0.0
        assert shift.max() <= GRID / 2


# sha256 over float.hex of (S', sigma, xi-hat) and the verdict of 80 seeded runs
# at 1e5 trials: both encodings, n = 3 and 6, lossless and lossy, pure and
# mixed, each a fixed run, a two-angle sweep, a per-trial and a block run.
# Re-copied when runs moved to one draw of the setting average, judged by the
# pooled S' with the bound's slope in sigma: every draw and every S' moved,
# and none of the 80 verdicts flipped.
SEEDED_DIGEST = "569ae006e556b386694cf4f7ceb97ccdbdccf2331338dbf892e70661828b3764"


def seeded_digest() -> str:
    digest, seed = hashlib.sha256(), 0
    for kind in ("vortex", "polarization"):
        for n in (3, 6):
            mset = st.platonic_set(n)
            for v, dephasing in ((1.0, 0.0), (V_PAPER, 0.1)):
                state = ex.prepare_state(ex.NoiseModel(v, dephasing), kind)
                for channel in (ex.ChannelModel(), ex.ChannelModel(0.45, 0.9)):
                    seed += 1
                    runs = [ex.run_experiment(state, mset, channel,
                                              ex.ThetaPolicy.fixed(0.3), 100_000, seed)]
                    runs += ex.sweep_theta(state, mset, channel, [0.0, 1.0], 100_000, seed)
                    runs.append(ex.dynamic_rotation_run(state, mset, channel, 100_000, seed))
                    runs.append(ex.dynamic_rotation_run(state, mset, channel, 100_000, seed,
                                                        per_setting_block=True))
                    for r in runs:
                        e = r.estimate
                        digest.update(" ".join([e.s_value.hex(), e.std_err.hex(),
                                                e.announce_fraction.hex(),
                                                str(r.violated)]).encode() + b"\n")
    return digest.hexdigest()


def test_seeded_runs_match_their_digest():
    # a change that claims to keep seeded outputs bit for bit must keep this
    assert seeded_digest() == SEEDED_DIGEST


def test_no_announced_event_is_a_defined_result():
    # S', sigma and C are undefined (NaN), and the run is not violated
    state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
    for policy in (ex.ThetaPolicy.fixed(0.0), ex.ThetaPolicy(0.0, 1.0, True)):
        r = ex.run_experiment(state, M3, ex.ChannelModel(bob_efficiency=1e-12), policy,
                              trials=10, seed=3)
        assert r.estimate.announce_fraction == 0.0 and not r.violated
        assert all(map(math.isnan, (r.estimate.s_value, r.estimate.std_err,
                                    r.bound_at_observed_xi)))
    # a record of A = 0 derives the NaN bound and the verdict: not violated,
    # and it takes no bound to disagree with
    assert (r.agree, r.announced, r.kept) == (0, 0, 10)
    fields = dict(mset=M3, encoding_kind=r.encoding_kind, theta_policy=r.theta_policy,
                  trials=r.trials, agree=0, announced=0, kept=10, seed=r.seed)
    assert hexed(ex.SteeringRunResult(**fields)) == hexed(r)
    assert ex.SteeringRunResult(**fields).violated is False
    with pytest.raises(TypeError, match="bound_at_observed_xi"):
        ex.SteeringRunResult(**fields, bound_at_observed_xi=0.8)


def old_aggregate(tables, rng, kept):
    """The aggregate (agree, disagree, null) tally of the sampler that drew a
    uniform setting split, then each setting's six entries on the grid."""
    n = len(tables)
    rows = ex._on_grid(tables).reshape(n, 6)
    tally = sum(rng.multinomial(m, p) for m, p in
                zip(rng.multinomial(kept, np.full(n, 1 / n)), rows))
    return tally[1] + tally[3], tally[0] + tally[4], tally[2] + tally[5]


@pytest.mark.parametrize("kind, n, theta", [("polarization", 3, 0.3),
                                            ("polarization", 6, 1.1), ("vortex", 4, 0.0)])
def test_one_draw_matches_the_split_sampler(kind, n, theta):
    # chi^2 homogeneity of the agreeing and the announced counts of 2,000
    # runs of 2,000 trials under each sampler, ten pooled-quantile bins each;
    # the p-value floor 1e-3 was fixed before any run
    chi2_contingency = pytest.importorskip("scipy.stats").chi2_contingency
    state = ex.prepare_state(ex.NoiseModel(V_PAPER, dephasing=0.1), kind)
    mset = st.platonic_set(n)
    tables = st._tables(state, mset, 0.45, np.array([[theta]]), 0.0)
    row = ex._averaged(tables)
    new, old = [], []
    for seed in range(2000):
        (pp, pm, _), (mp, mm, _) = ex._sample(row, [(np.random.default_rng(seed),
                                                     2000)])[0]
        new.append((pm + mp, pp + pm + mp + mm))
        agree, disagree, _ = old_aggregate(tables[0], np.random.default_rng(10**6 + seed),
                                           2000)
        old.append((agree, agree + disagree))
    new, old = np.array(new), np.array(old)
    for column in (0, 1):
        both = np.concatenate([new[:, column], old[:, column]])
        edges = np.unique(np.quantile(both, np.linspace(0, 1, 11)[1:-1]))
        table = [np.bincount(np.searchsorted(edges, x[:, column], side="right"),
                             minlength=len(edges) + 1) for x in (new, old)]
        assert chi2_contingency(table)[1] > 1e-3


def test_verdict_invariant_enforced(monkeypatch):
    # the record computes its verdict, violated iff S' - 2 sigma > C, so its
    # constructor takes no verdict to disagree with
    state = ex.prepare_state(ex.NoiseModel(1.0), "polarization")
    r = ex.run_experiment(state, M3, ex.ChannelModel(),
                          ex.ThetaPolicy.fixed(0.0), trials=10_000, seed=12)
    fields = dict(mset=M3, encoding_kind=r.encoding_kind, theta_policy=r.theta_policy,
                  trials=r.trials, agree=r.agree, announced=r.announced, kept=r.kept,
                  seed=r.seed)
    for verdict in (True, False):
        with pytest.raises(TypeError, match="violated"):
            ex.SteeringRunResult(**fields, violated=verdict)
    edge = r.estimate.s_value - 2 * r.estimate.std_err
    assert r.violated and r.violated is (edge > r.bound_at_observed_xi)
    # each bound at the 2 sigma edge, with the real slope, so sigma is the run's
    slope = bd._bound_and_slope(M3, r.announced / r.kept)[1]
    for bound, verdict in ((math.nextafter(edge, -math.inf), True), (edge, False),
                           (math.nextafter(edge, math.inf), False)):
        monkeypatch.setattr(bd, "_bound_and_slope", lambda mset, xi: (bound, slope))
        got = ex.SteeringRunResult(**fields)
        assert got.estimate == r.estimate and got.bound_at_observed_xi == bound
        assert got.violated is verdict


RECORD = dict(mset=M3, encoding_kind="polarization", theta_policy=ex.ThetaPolicy.fixed(0.0),
              trials=1000, agree=300, announced=400, kept=900, seed=7)


@pytest.mark.parametrize("name, value", [
    ("mset", None), ("mset", M3.directions),
    ("encoding_kind", "qubit"), ("encoding_kind", ["vortex"]),
    ("encoding_kind", np.array(["vortex"])),
    ("theta_policy", None), ("theta_policy", (0.0, 0.0)),
    ("trials", "1000"), ("trials", 1000.0), ("agree", True), ("announced", -1),
    ("kept", np.float64(900)), ("seed", 2.5), ("seed", None)])
def test_run_record_rejects_a_field_of_the_wrong_type(name, value):
    with pytest.raises(ValueError, match=name):
        ex.SteeringRunResult(**RECORD | {name: value})


RUN_MODELS = dict(state=ex.prepare_state(ex.NoiseModel(0.9), "polarization"), mset=M3,
                  channel=ex.ChannelModel(bob_efficiency=0.45))
RUN_FUNCTIONS = {
    "run_experiment": lambda trials=1000, **models: ex.run_experiment(
        **models, theta_policy=ex.ThetaPolicy.fixed(0.0), trials=trials, seed=1),
    "sweep_theta": lambda trials=1000, **models: ex.sweep_theta(
        **models, thetas=[0.0, 0.5], trials_per_point=trials, seed=1),
    "dynamic_rotation_run": lambda trials=1000, **models: ex.dynamic_rotation_run(
        **models, trials=trials, seed=1),
}
# an array of each model's numbers: the state's entries, the set's directions,
# the channel's efficiencies
MODEL_ARRAYS = dict(state=RUN_MODELS["state"].entries, mset=M3.directions,
                    channel=np.array([0.45, 1.0]))
MODEL_TYPES = dict(state="DensityMatrix", mset="MeasurementSet", channel="ChannelModel")


@pytest.mark.parametrize("function", RUN_FUNCTIONS)
@pytest.mark.parametrize("name", MODEL_TYPES)
@pytest.mark.parametrize("kind", ["array", "none"])
def test_run_functions_reject_a_model_of_the_wrong_type(function, name, kind):
    value = MODEL_ARRAYS[name] if kind == "array" else None
    with pytest.raises(ValueError, match=f"^{name} must be a {MODEL_TYPES[name]}, got "):
        RUN_FUNCTIONS[function](**RUN_MODELS | {name: value})


@pytest.mark.parametrize("function", RUN_FUNCTIONS)
def test_models_are_checked_after_the_trial_count_and_before_the_setting_rule(function):
    models = RUN_MODELS | dict(mset=None)
    with pytest.raises(ValueError, match="trials must be a non-negative integer"):
        RUN_FUNCTIONS[function](trials=1.5, **models)
    with pytest.raises(ValueError, match="mset must be a MeasurementSet"):
        RUN_FUNCTIONS[function](trials=1, **models)


@pytest.mark.parametrize("policy", [None, np.array([0.0, 0.0])], ids=["none", "array"])
def test_run_experiment_rejects_a_policy_of_the_wrong_type(policy):
    with pytest.raises(ValueError, match="^theta_policy must be a ThetaPolicy, got "):
        ex.run_experiment(**RUN_MODELS, theta_policy=policy, trials=1000, seed=1)


@pytest.mark.parametrize("agree, announced, kept, trials", [
    (401, 400, 900, 1000), (300, 901, 900, 1000), (300, 400, 1001, 1000)])
def test_run_record_requires_ordered_counts(agree, announced, kept, trials):
    with pytest.raises(ValueError, match="agree <= announced <= kept <= trials"):
        ex.SteeringRunResult(**RECORD | dict(agree=agree, announced=announced,
                                             kept=kept, trials=trials))


def test_run_record_holds_no_array_and_derives_python_numbers():
    # the set is init-only; from numpy counts the derived bound is a float
    # and the verdict a bool, bit for bit as from Python ints
    r = ex.SteeringRunResult(**RECORD)
    assert [f.name for f in dataclasses.fields(r)] == [
        "n", "encoding_kind", "theta_policy", "trials", "agree", "announced", "kept",
        "seed", "estimate", "bound_at_observed_xi", "violated"]
    assert "array" not in repr(r) and r.n == 3
    counts = ("trials", "agree", "announced", "kept", "seed")
    got = ex.SteeringRunResult(**RECORD | {k: np.int64(RECORD[k]) for k in counts})
    assert hexed(got) == hexed(r)
    assert type(got.bound_at_observed_xi) is float and type(got.violated) is bool


def frozen_judge(mset, agree, announced, kept):
    """(S', sigma, xi, C_n, violated) by the arithmetic of the former
    `experiment._judge` and `steering._estimate`, with the bound and slope of
    `bound_oracles.frozen_bound`."""
    if not announced:
        return math.nan, math.nan, 0.0, math.nan, False
    xi = announced / kept
    c, _, slope = bo.frozen_bound(mset, xi)
    p = agree / announced
    s = (2 * agree - announced) / announced
    sigma = math.sqrt(4 * p * (1 - p) / announced + slope * slope * xi * (1 - xi) / kept)
    return s, sigma, xi, c, s - 2 * sigma > c


@hs.composite
def run_counts(draw):
    """(n, G, A, M, trials): A = 0 (M = 0 too), A = M, A/M at a kink k/n, or
    any A <= M."""
    n = draw(hs.sampled_from([2, 3, 4, 6]))
    case = draw(hs.sampled_from(["none", "all", "kink", "any"]))
    if case == "kink":
        k, j = draw(hs.integers(1, n)), draw(hs.integers(1, 10**8))
        announced, kept = k * j, n * j
    else:
        kept = draw(hs.integers(0 if case == "none" else 1, 10**9))
        announced = (0 if case == "none" else kept if case == "all"
                     else draw(hs.integers(0, kept)))
    agree = draw(hs.integers(0, announced))
    return n, agree, announced, kept, kept + draw(hs.integers(0, 10**9))


@settings(max_examples=200, deadline=None)
@given(run_counts())
def test_record_derives_the_former_judge_arithmetic(counts):
    n, agree, announced, kept, trials = counts
    mset = st.platonic_set(n)
    r = ex.SteeringRunResult(mset, "vortex", ex.ThetaPolicy(), trials, agree, announced,
                             kept, 0)
    e = r.estimate
    *want, verdict = frozen_judge(mset, agree, announced, kept)
    assert [x.hex() for x in (e.s_value, e.std_err, e.announce_fraction,
                              r.bound_at_observed_xi)] == [x.hex() for x in want]
    assert r.n == n and r.violated is verdict
