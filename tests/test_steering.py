import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from vortexsteer import experiment as ex
from vortexsteer import steering as st
from vortexsteer import tomography as tm
from vortexsteer.qmath import DensityMatrix


# each canonical set's directions by float.hex, frozen
PLATONIC_HEX = {
    2: [
        ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
        ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"],
    ],
    3: [
        ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
        ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"],
        ["0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"],
    ],
    4: [
        ["0x1.279a74590331dp-1", "0x1.279a74590331dp-1", "0x1.279a74590331dp-1"],
        ["0x1.279a74590331dp-1", "-0x1.279a74590331dp-1", "-0x1.279a74590331dp-1"],
        ["-0x1.279a74590331dp-1", "0x1.279a74590331dp-1", "-0x1.279a74590331dp-1"],
        ["-0x1.279a74590331dp-1", "-0x1.279a74590331dp-1", "0x1.279a74590331dp-1"],
    ],
    6: [
        ["0x0.0p+0", "0x1.0d2ca0da1530dp-1", "0x1.b38880b4603e5p-1"],
        ["0x0.0p+0", "-0x1.0d2ca0da1530dp-1", "0x1.b38880b4603e5p-1"],
        ["0x1.0d2ca0da1530dp-1", "0x1.b38880b4603e5p-1", "0x0.0p+0"],
        ["-0x1.0d2ca0da1530dp-1", "0x1.b38880b4603e5p-1", "0x0.0p+0"],
        ["0x1.b38880b4603e5p-1", "0x0.0p+0", "0x1.0d2ca0da1530dp-1"],
        ["-0x1.b38880b4603e5p-1", "0x0.0p+0", "0x1.0d2ca0da1530dp-1"],
    ],
}


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

    def test_one_set_per_n(self):
        # every identity-keyed cache (facets, coefficients, gridded rows)
        # then sees one set; n passes the one integer rule
        assert st.platonic_set(np.int64(3)) is st.platonic_set(3)
        assert st.platonic_set(np.uint8(6)) is st.platonic_set(6)
        for n in (3.0, np.float64(3), True, "3", -3):
            with pytest.raises(ValueError, match="n must be a non-negative integer"):
                st.platonic_set(n)

    @pytest.mark.parametrize("n", sorted(PLATONIC_HEX))
    def test_sets_are_the_frozen_directions(self, n):
        # bit for bit the directions each set has always had
        assert [[x.hex() for x in row]
                for row in st.platonic_set(n).directions.tolist()] == PLATONIC_HEX[n]

    def test_rejects_antipodal_directions(self):
        with pytest.raises(ValueError):
            st.MeasurementSet([[0, 0, 1], [0, 0, -1]])

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 2), (4, 2)])
    def test_rejects_a_wrong_shape(self, shape):
        dirs = np.zeros(shape)
        dirs[..., 0] = 1.0   # unit rows where a row has three entries
        with pytest.raises(ValueError):
            st.MeasurementSet(dirs)

    @pytest.mark.parametrize("build", ["set", "reconstruct"])
    @pytest.mark.parametrize("dtype", [str, bool, object])
    def test_non_real_arrays_rejected_by_dtype(self, build, dtype):
        # numpy would parse "1" as 1.0 and run True as 1
        if build == "set":
            with pytest.raises(ValueError, match="^directions must be real numbers, got dtype"):
                st.MeasurementSet(np.eye(3).astype(int).astype(dtype))
        else:
            spec = tm.standard_settings(100)
            with pytest.raises(ValueError, match="^counts must be real numbers, got dtype"):
                tm.reconstruct(np.ones(spec.n_settings, dtype=int).astype(dtype), spec)

    def test_directions_are_a_read_only_copy(self):
        dirs = np.eye(3)
        mset = st.MeasurementSet(dirs)
        dirs[0, 0] = 5.0
        assert mset.directions.shape == (3, 3) and mset.directions[0, 0] == 1.0
        assert mset.as_matrix() is mset.directions
        with pytest.raises(ValueError):
            mset.directions[0, 0] = 0.0


class TestSteeringExact:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("encoding_kind", ["polarization", "vortex"])
    def test_singlet_perfect_correlations(self, n, encoding_kind):
        state = ex.prepare_state(ex.NoiseModel(1.0), encoding_kind)
        est = st.steering_parameter_exact(state, st.platonic_set(n), theta=0.0)
        assert est.s_value == pytest.approx(1.0, abs=1e-9)
        assert est.announce_fraction == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("encoding_kind", ["polarization", "vortex"])
    def test_exact_s_reads_the_table_a_lossless_fixed_run_samples(self, n,
                                                                 encoding_kind):
        # bit for bit the pooled ratio of the setting average that a lossless
        # fixed run at any angle puts on the grid
        state = ex.prepare_state(ex.NoiseModel(0.9693, dephasing=0.1), encoding_kind)
        mset = st.platonic_set(n)
        for theta in np.random.default_rng(n).uniform(0, 2 * np.pi, size=10):
            tables = st._tables(state, mset, 1.0, np.array([[theta]]), 0.0)
            row = np.add.reduce(tables, axis=1) / n
            assert ex._averaged(tables).tobytes() == ex._on_grid(row).tobytes()
            (pp, pm, _), (mp, mm, _) = row[0].tolist()
            announced = pm + mp + pp + mm
            got = st.steering_parameter_exact(state, mset, theta)
            assert got.s_value.hex() == ((2 * (pm + mp) - announced) / announced).hex()

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

    def test_zero_announced_setting_is_pooled(self):
        # the other settings' tallies define S'; a setting needs no events
        counts = np.zeros((3, 2, 3), dtype=int)
        counts[:, :, :2] = 10
        counts[1, :, :2] = 0
        counts[1, :, 2] = 10
        est = st.steering_parameter_counts(counts)
        assert (est.s_value, est.announce_fraction) == (0.0, 80 / 100)

    @pytest.mark.parametrize("nulls", [0, 7])
    def test_no_announced_event_is_undefined(self, nulls):
        counts = np.zeros((3, 2, 3), dtype=int)
        counts[:, :, 2] = nulls
        est = st.steering_parameter_counts(counts)
        assert math.isnan(est.s_value) and math.isnan(est.std_err)
        assert est.announce_fraction == 0.0

    def test_monte_carlo_matches_exact_value(self):
        v = 0.9693
        state = ex.prepare_state(ex.NoiseModel(v), "polarization")
        result = ex.run_experiment(state, st.platonic_set(3),
                                   ex.ChannelModel(), ex.ThetaPolicy.fixed(0.0),
                                   trials=10**6, seed=99)
        est = result.estimate
        assert abs(est.s_value - v) < 3 * est.std_err

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            st.steering_parameter_counts(np.zeros((3, 2)))

    @pytest.mark.parametrize("value", [-2, 1.5])
    def test_negative_or_fractional_tallies_rejected(self, value):
        counts = np.full((3, 2, 3), 10, dtype=type(value))
        counts[1, 0, 2] = value
        with pytest.raises(ValueError, match="counts must be"):
            st.steering_parameter_counts(counts)


def pooled_reference(counts):
    """(S', std_err, xi) of a tally table, in Python integers until the last
    divisions: the pooled estimator with a bound of slope 0."""
    agree = int(counts[:, 0, 1].sum()) + int(counts[:, 1, 0].sum())
    announced = agree + int(counts[:, 0, 0].sum()) + int(counts[:, 1, 1].sum())
    total = int(counts.sum())
    p_hat = agree / announced
    return ((2 * agree - announced) / announced,
            math.sqrt(4 * p_hat * (1 - p_hat) / announced), announced / total)


class TestPooledEstimate:
    @settings(max_examples=60, deadline=None)
    @given(n=hs.integers(1, 8), magnitude=hs.integers(1, 40),
           seed=hs.integers(0, 2 ** 32 - 1))
    def test_counts_equal_the_pooled_reference(self, n, magnitude, seed):
        counts = np.random.default_rng(seed).integers(0, 2 ** magnitude, size=(n, 2, 3))
        counts[0, 0, 0] += counts[..., :2].sum() == 0  # announce once
        est = st.steering_parameter_counts(counts)
        assert tuple(map(float.hex, (est.s_value, est.std_err, est.announce_fraction))) \
            == tuple(map(float.hex, pooled_reference(counts)))

    def test_slope_adds_the_announced_fraction_term(self):
        # sigma^2 = 4 p(1 - p)/A + slope^2 xi(1 - xi)/M
        est = st._estimate(300, 400, 1000, slope=-0.5)
        assert est.s_value == 0.5 and est.announce_fraction == 0.4
        assert est.std_err == math.sqrt(4 * 0.75 * 0.25 / 400 + 0.25 * 0.4 * 0.6 / 1000)
        assert st._estimate(300, 400, 1000).std_err == math.sqrt(4 * 0.75 * 0.25 / 400)


class TestSteeringEstimateInvariants:
    @pytest.mark.parametrize("args, field", [
        ((1.2, 0.0, 1.0), "s_value"),
        ((math.nan, 0.0, 0.5), "s_value"),
        ((0.5, -1.0, 0.5), "std_err"),
        ((0.5, math.nan, 0.5), "std_err"),
        ((0.5, 0.0, math.nan), "announce_fraction"),
        ((0.5, 0.0, 1.5), "announce_fraction"),
        ((0.5, 0.0, 0.0), "no announced event"),
        ((math.nan, 0.0, 0.0), "no announced event"),
    ])
    def test_out_of_range_or_nan_fields_rejected(self, args, field):
        with pytest.raises(ValueError, match=field):
            st.SteeringEstimate(*args)

    @pytest.mark.parametrize("args, field", [
        ((np.array([0.5]), 0.1, 0.5), "s_value"),
        ((np.array([0.5, 0.5]), 0.1, 0.5), "s_value"),
        ((True, 0.1, 0.5), "s_value"),
        ((0.5, "x", 0.5), "std_err"),
        ((0.5, math.inf, 0.5), "std_err"),
        ((0.5, 0.1, True), "announce_fraction"),
    ])
    def test_non_real_fields_and_an_infinite_error_rejected(self, args, field):
        with pytest.raises(ValueError, match=field):
            st.SteeringEstimate(*args)

    def test_fields_are_stored_as_python_floats(self):
        est = st.SteeringEstimate(np.float32(0.5), np.int64(0), 1)
        assert [type(x) for x in (est.s_value, est.std_err, est.announce_fraction)] == [
            float] * 3
        assert est == st.SteeringEstimate(0.5, 0.0, 1.0)

    def test_no_announced_event_is_nan(self):
        est = st.SteeringEstimate(math.nan, math.nan, 0.0)
        assert est.announce_fraction == 0.0
