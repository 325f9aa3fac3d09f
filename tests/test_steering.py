import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from vortexsteer import encoding as enc
from vortexsteer import experiment as ex
from vortexsteer import steering as st
from vortexsteer.qmath import DensityMatrix


class TestPlatonicSets:
    def test_three_settings_are_pauli_axes(self):
        mset = st.platonic_set(3)
        assert sorted(tuple(np.round(v, 12)) for v in mset.as_matrix().tolist()) == \
            sorted([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])

    def test_z_member_listed_first(self):
        assert tuple(st.platonic_set(2).directions[0]) == (0, 0, 1)
        assert tuple(st.platonic_set(3).directions[0]) == (0, 0, 1)

    def test_tetrahedron_gram(self):
        mat = st.platonic_set(4).as_matrix()
        gram = mat @ mat.T
        off = gram[~np.eye(4, dtype=bool)]
        assert np.allclose(off, -1 / 3, atol=1e-12)
        assert np.allclose(np.diag(gram), 1.0, atol=1e-12)

    def test_icosahedron_half_vertices(self):
        mat = st.platonic_set(6).as_matrix()
        assert np.allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-12)
        gram = np.abs(mat @ mat.T)
        off = gram[~np.eye(6, dtype=bool)]
        assert np.allclose(off, 1 / np.sqrt(5), atol=1e-12)

    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            st.platonic_set(5)

    def test_rejects_antipodal_directions(self):
        with pytest.raises(ValueError):
            st.MeasurementSet([[0, 0, 1], [0, 0, -1]])

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 2), (4, 2)])
    def test_rejects_a_wrong_shape(self, shape):
        dirs = np.zeros(shape)
        dirs[..., 0] = 1.0   # unit rows where a row has three entries
        with pytest.raises(ValueError):
            st.MeasurementSet(dirs)

    def test_directions_are_a_read_only_copy(self):
        dirs = np.eye(3)
        mset = st.MeasurementSet(dirs)
        dirs[0, 0] = 5.0
        assert mset.directions.shape == (3, 3) and mset.directions[0, 0] == 1.0
        assert mset.as_matrix() is mset.directions
        with pytest.raises(ValueError):
            mset.directions[0, 0] = 0.0


    def test_alice_projectors_are_one_shared_read_only_stack(self):
        mset = st.platonic_set(4)
        assert st.platonic_set(4).projectors is mset.projectors
        assert mset.projectors.shape == (4, 2, 2, 2)
        with pytest.raises(ValueError):
            mset.projectors[0, 0, 0, 0] = 0.0
        for k, u in enumerate(mset.directions):
            for i, a in enumerate(st.ALICE_OUTCOMES):
                np.testing.assert_array_equal(mset.projectors[k, i],
                                              enc.pol_projector(u, a))


class TestSteeringExact:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("encoding_kind", ["polarization", "vortex"])
    def test_singlet_perfect_correlations(self, n, encoding_kind):
        state = ex.prepare_state(ex.NoiseModel(1.0), encoding_kind)
        est = st.steering_parameter_exact(state, st.platonic_set(n), theta=0.0)
        assert est.s_value == pytest.approx(1.0, abs=1e-9)
        assert est.announce_fraction == pytest.approx(1.0, abs=1e-9)

    def test_werner_gives_visibility(self):
        v = 0.73
        state = ex.prepare_state(ex.NoiseModel(v), "polarization")
        est = st.steering_parameter_exact(state, st.platonic_set(3), theta=0.0)
        assert est.s_value == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("theta", np.linspace(0, np.pi, 9))
    def test_polarization_closed_form_in_theta(self, theta):
        v = 0.9693
        state = ex.prepare_state(ex.NoiseModel(v), "polarization")
        est = st.steering_parameter_exact(state, st.platonic_set(3), theta=theta)
        assert est.s_value == pytest.approx(v * (1 + 2 * np.cos(2 * theta)) / 3,
                                            abs=1e-10)

    def test_vortex_orientation_invariance(self):
        state = ex.prepare_state(ex.NoiseModel(0.9693), "vortex")
        values = [st.steering_parameter_exact(state, st.platonic_set(3),
                                              theta=t).s_value
                  for t in np.linspace(0, 2 * np.pi, 37)]
        assert np.ptp(values) < 1e-9

    def test_linearity_in_state(self):
        mset = st.platonic_set(3)
        rho1 = ex.werner_state(0.9)
        rho2 = ex.werner_state(0.2)
        alpha = 0.37
        mix = DensityMatrix(alpha * rho1.entries + (1 - alpha) * rho2.entries)
        s1 = st.steering_parameter_exact(rho1, mset).s_value
        s2 = st.steering_parameter_exact(rho2, mset).s_value
        s_mix = st.steering_parameter_exact(mix, mset).s_value
        assert s_mix == pytest.approx(alpha * s1 + (1 - alpha) * s2, abs=1e-10)

    def test_magnitude_never_exceeds_one(self):
        rng = np.random.default_rng(5)
        mset = st.platonic_set(4)
        for _ in range(10):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            rho = DensityMatrix(m / np.trace(m).real)
            est = st.steering_parameter_exact(rho, mset,
                                              theta=rng.uniform(0, np.pi))
            assert abs(est.s_value) <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        # 8x8 is neither the 4x4 polarization nor the 20x20 vortex joint space
        with pytest.raises(ValueError):
            st.steering_parameter_exact(DensityMatrix(np.eye(8) / 8),
                                        st.platonic_set(3))


class TestSteeringCounts:
    def test_all_agree_no_nulls(self):
        counts = np.zeros((3, 2, 3), dtype=int)
        counts[:, 0, 1] = 50  # alice +1, bob raw -1: agreement after negation
        counts[:, 1, 0] = 50
        est = st.steering_parameter_counts(counts)
        assert est.s_value == pytest.approx(1.0)
        assert est.announce_fraction == pytest.approx(1.0)
        assert est.std_err == pytest.approx(0.0)

    def test_fifty_fifty_gives_zero(self):
        counts = np.zeros((3, 2, 3), dtype=int)
        counts[:, :, :2] = 25
        est = st.steering_parameter_counts(counts)
        assert est.s_value == pytest.approx(0.0)

    def test_zero_announced_setting_raises(self):
        counts = np.zeros((3, 2, 3), dtype=int)
        counts[:, :, :2] = 10
        counts[1, :, :2] = 0
        counts[1, :, 2] = 10
        with pytest.raises(ValueError):
            st.steering_parameter_counts(counts)

    def test_monte_carlo_matches_exact_value(self):
        v = 0.9693
        state = ex.prepare_state(ex.NoiseModel(v), "polarization")
        result = ex.run_experiment(state, st.platonic_set(3),
                                   ex.ChannelModel(), ex.ThetaPolicy.fixed(0.0),
                                   trials=10**6, seed=99)
        est = result.estimate
        assert abs(est.s_value - v) < 3 * est.std_err

    def test_matches_per_setting_loop(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 6):
            counts = rng.integers(1, 10**6, size=(n, 2, 3))
            corr, var = [], []
            for k in range(n):
                announced = float(counts[k, :, :2].sum())
                agree = counts[k, 0, 1] + counts[k, 1, 0]
                disagree = counts[k, 0, 0] + counts[k, 1, 1]
                corr.append((agree - disagree) / announced)
                p_hat = agree / announced
                var.append(4 * p_hat * (1 - p_hat) / announced)
            est = st.steering_parameter_counts(counts)
            assert est.per_setting_correlations == tuple(corr)
            assert est.std_err == float(np.sqrt(np.sum(var)) / n)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            st.steering_parameter_counts(np.zeros((3, 2)))

    @pytest.mark.parametrize("value", [-2, 1.5])
    def test_negative_or_fractional_tallies_rejected(self, value):
        counts = np.full((3, 2, 3), 10, dtype=type(value))
        counts[1, 0, 2] = value
        with pytest.raises(ValueError, match="counts must be"):
            st.steering_parameter_counts(counts)


def estimate_one_table(counts):
    """The single-table estimator, reduction for reduction, as it stood
    before tables were judged in stacks: (s, std_err, xi, correlations)."""
    announced = counts[:, :, :2].sum(axis=(1, 2)).astype(float)
    agree = counts[:, 0, 1] + counts[:, 1, 0]
    corr = (2 * agree - announced) / announced
    p_hat = agree / announced
    var = 4 * p_hat * (1 - p_hat) / announced
    return (float(corr.mean()), float(np.sqrt(var.sum()) / len(counts)),
            float(announced.sum() / counts.sum()), tuple(float(c) for c in corr))


def bits(values):
    """Floats as hex strings, so that equality means bit for bit."""
    if isinstance(values, (tuple, list)):
        return tuple(bits(v) for v in values)
    return float.hex(values)


class TestStackedEstimates:
    @settings(max_examples=60, deadline=None)
    @given(t=hs.integers(1, 8), n=hs.integers(2, 8), magnitude=hs.integers(1, 40),
           seed=hs.integers(0, 2 ** 32 - 1))
    def test_stack_equals_each_table_alone(self, t, n, magnitude, seed):
        counts = np.random.default_rng(seed).integers(0, 2 ** magnitude, size=(t, n, 2, 3))
        counts[..., 0, 0] += counts[..., :2].sum(axis=(-2, -1)) == 0  # announce once
        stacked = st._estimates(counts)
        assert len(stacked) == t
        for table, est in zip(counts, stacked):
            alone = st.steering_parameter_counts(table)
            expected = bits(estimate_one_table(table))
            for e in (est, alone):
                assert bits((e.s_value, e.std_err, e.announce_fraction,
                             e.per_setting_correlations)) == expected

    def test_zero_announced_setting_in_a_middle_table(self):
        counts = np.full((5, 3, 2, 3), 10)
        counts[2, 1, :, :2] = 0      # table 2, setting 1 never announces
        counts[3, 0, :, :2] = 0      # a later table does not mask it
        with pytest.raises(ValueError) as alone:
            st.steering_parameter_counts(counts[2])
        with pytest.raises(ValueError) as stacked:
            st._estimates(counts)
        assert str(stacked.value) == str(alone.value) == \
            "setting 1 has zero announced events"


class TestSteeringEstimateInvariants:
    def test_mean_consistency_enforced(self):
        with pytest.raises(ValueError):
            st.SteeringEstimate(0.5, 0.0, 1.0, (0.1, 0.2, 0.3))

    def test_correlation_range_enforced(self):
        with pytest.raises(ValueError):
            st.SteeringEstimate(1.2, 0.0, 1.0, (1.2, 1.2, 1.2))

    @pytest.mark.parametrize("args, field", [
        ((0.5, 0.0, 0.5, ()), "per_setting_correlations"),
        ((math.nan, 0.0, 0.5, (0.5, 0.5)), "s_value"),
        ((0.5, 0.0, 0.5, (0.5, math.nan)), "per_setting_correlations"),
        ((0.5, -1.0, 0.5, (0.5, 0.5)), "std_err"),
        ((0.5, math.nan, 0.5, (0.5, 0.5)), "std_err"),
        ((0.5, 0.0, math.nan, (0.5, 0.5)), "announce_fraction"),
    ])
    def test_empty_or_nan_fields_rejected(self, args, field):
        with pytest.raises(ValueError, match=field):
            st.SteeringEstimate(*args)
