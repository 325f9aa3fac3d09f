import numpy as np
import pytest

from qmath_helpers import trace_distance
from vortexsteer import encoding as enc
from vortexsteer import experiment as ex
from vortexsteer import tomography as tm
from vortexsteer.qmath import DensityMatrix, StateVector


class TestSettings:
    def test_standard_set_has_36_settings(self):
        spec = tm.standard_settings()
        assert spec.n_settings == 36

    def test_gram_rank_is_sixteen(self):
        assert tm.gram_rank(tm.standard_settings().projectors) == 16
        assert tm.gram_rank(tm.minimal_settings().projectors) == 16

    def test_projectors_idempotent(self):
        for p in tm.standard_settings().projectors:
            assert np.allclose(p @ p, p, atol=1e-12)

    def test_incomplete_settings_rejected(self):
        spec = tm.standard_settings()
        with pytest.raises(ValueError):
            tm.TomographySpec(spec.labels[:8], spec.projectors[:8], 100)


class TestSimulateCounts:
    def test_singlet_never_coincides_in_hh(self):
        spec = tm.standard_settings(50_000)
        probs = tm.born_probabilities(enc.singlet_pol().density(), spec)
        assert probs[spec.labels.index("HH")] == pytest.approx(0.0, abs=1e-12)

    def test_singlet_hv_probability_half(self):
        spec = tm.standard_settings(50_000)
        probs = tm.born_probabilities(enc.singlet_pol().density(), spec)
        assert probs[spec.labels.index("HV")] == pytest.approx(0.5, abs=1e-12)

    def test_counts_near_expectation_and_reproducible(self):
        spec = tm.standard_settings(50_000)
        rho = ex.werner_state(0.9)
        a = tm.simulate_counts(rho, spec, seed=42)
        b = tm.simulate_counts(rho, spec, seed=42)
        assert np.array_equal(a, b)
        expected = tm.expected_counts(rho, spec)
        # Poisson: 5 sigma around the mean
        assert np.all(np.abs(a - expected) <= 5 * np.sqrt(expected) + 5)


class TestReconstruct:
    def test_exact_probabilities_recover_state(self):
        spec = tm.standard_settings(100_000)
        for v in (0.9693, 0.5, 0.0):
            rho = ex.werner_state(v)
            rep = tm.reconstruct(tm.expected_counts(rho, spec), spec,
                                 target=enc.singlet_pol())
            assert trace_distance(rep.rho_hat, rho) < 1e-6

    def test_pure_product_state_purity(self):
        spec = tm.standard_settings(100_000)
        psi = StateVector(np.kron(enc.KET_D, enc.KET_L))
        counts = tm.simulate_counts(psi.density(), spec, seed=9)
        rep = tm.reconstruct(counts, spec)
        assert rep.purity >= 0.99

    def test_maximally_mixed_recovery(self):
        spec = tm.standard_settings(100_000)
        rho = DensityMatrix(np.eye(4) / 4)
        counts = tm.simulate_counts(rho, spec, seed=11)
        rep = tm.reconstruct(counts, spec)
        assert trace_distance(rep.rho_hat, rho) < 0.02

    def test_fidelity_and_purity_share_qmath_code_path(self):
        from vortexsteer import qmath
        spec = tm.standard_settings(50_000)
        counts = tm.simulate_counts(ex.werner_state(0.9), spec, seed=2)
        rep = tm.reconstruct(counts, spec, target=enc.singlet_pol())
        assert rep.fidelity_to_target == qmath.fidelity_pure(enc.singlet_pol(),
                                                             rep.rho_hat)
        assert rep.purity == qmath.purity(rep.rho_hat)

    def test_log_likelihood_monotone(self):
        spec = tm.standard_settings(20_000)
        counts = tm.simulate_counts(ex.werner_state(0.8), spec, seed=13)
        rep = tm.reconstruct(counts, spec, keep_history=True)
        diffs = np.diff(rep.history)
        assert np.all(diffs >= -1e-12)

    @pytest.mark.parametrize("seed", [0, 16, 22, 30, 73])
    def test_minimal_settings_fit_beats_true_state(self, seed):
        # Sigma projectors is not proportional to I for the 16 settings, so
        # the -N sum(p) Poisson term matters; without it these seeds stopped
        # after one step, below the true state's likelihood
        spec = tm.minimal_settings(100_000)
        rho = ex.werner_state(ex.visibility_for_fidelity(0.977))
        counts = tm.simulate_counts(rho, spec, seed)
        projs = np.array(spec.projectors)

        def loglik(r):
            p = np.einsum("sij,ji->s", projs, r).real
            seen = counts > 0
            return (np.sum(counts[seen] * np.log(p[seen]))
                    - spec.counts_per_setting * p.sum())

        rep = tm.reconstruct(counts, spec)
        assert rep.converged
        assert rep.log_likelihood == pytest.approx(loglik(rep.rho_hat.entries),
                                                   rel=1e-9)
        assert rep.log_likelihood >= loglik(rho.entries)

    def test_minimal_settings_also_reconstruct(self):
        spec = tm.minimal_settings(200_000)
        rho = ex.werner_state(0.9693)
        rep = tm.reconstruct(tm.expected_counts(rho, spec), spec)
        assert trace_distance(rep.rho_hat, rho) < 1e-6

    def test_count_shape_mismatch(self):
        spec = tm.standard_settings()
        with pytest.raises(ValueError):
            tm.reconstruct(np.zeros(10), spec)

    def test_rotated_polarization_fidelity_falls_to_zero(self):
        # rotating the receiver by 90 degrees makes the shared pure singlet
        # orthogonal to the unrotated target
        spec = tm.standard_settings(100_000)
        rot = DensityMatrix(enc.receiver("polarization").detected_state(
            ex.werner_state(1.0), np.pi / 2))
        counts = tm.simulate_counts(rot, spec, seed=77)
        rep = tm.reconstruct(counts, spec, target=enc.singlet_pol())
        assert rep.fidelity_to_target < 0.005
