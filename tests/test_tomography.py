import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

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

    def test_projectors_are_one_read_only_array(self):
        projs = tm.standard_settings().projectors
        assert projs.shape == (36, 4, 4)
        with pytest.raises(ValueError):
            projs[0, 0, 0] = 0.5

    def test_incomplete_settings_rejected(self):
        spec = tm.standard_settings()
        with pytest.raises(ValueError):
            tm.TomographySpec(spec.labels[:8], spec.projectors[:8], 100)

    def test_settings_must_be_two_qubit_operators(self):
        # 70 random 8x8 rank-one projectors span more than 16 dimensions
        rng = np.random.default_rng(0)
        kets = rng.normal(size=(70, 8)) + 1j * rng.normal(size=(70, 8))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        projs = np.einsum("si,sj->sij", kets, kets.conj())
        with pytest.raises(ValueError, match="two-qubit"):
            tm.TomographySpec(tuple(map(str, range(70))), projs, 100)


class TestSimulateCounts:
    def test_singlet_never_coincides_in_hh(self):
        spec = tm.standard_settings(50_000)
        probs = tm.born_probabilities(enc.singlet_pol().density(), spec)
        assert probs[spec.labels.index("HH")] == pytest.approx(0.0, abs=1e-12)

    def test_singlet_hv_probability_half(self):
        spec = tm.standard_settings(50_000)
        probs = tm.born_probabilities(enc.singlet_pol().density(), spec)
        assert probs[spec.labels.index("HV")] == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(rank=hs.integers(1, 4), minimal=hs.booleans(),
           seed=hs.integers(0, 2**32 - 1))
    def test_born_probabilities_match_trace_loop(self, rank, minimal, seed):
        rng = np.random.default_rng(seed)
        ginibre = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = ginibre @ ginibre.conj().T
        rho = DensityMatrix(rho / np.trace(rho).real)
        spec = tm.minimal_settings() if minimal else tm.standard_settings()
        want = [np.trace(proj @ rho.entries).real for proj in spec.projectors]
        np.testing.assert_allclose(tm.born_probabilities(rho, spec), want,
                                   rtol=0, atol=1e-14)

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


def certificate(counts, spec, rho):
    """Poisson log-likelihood of rho (up to a constant) and its first-order
    gap, from the counts and the projectors alone.  f = N sum(p) - sum(n log p)
    is convex in rho, so <grad f, rho> - lambda_min(grad f) >= f(rho) - min f."""
    n = np.asarray(counts, dtype=float)
    scale = spec.counts_per_setting
    loglik, grad = 0.0, np.zeros((4, 4), dtype=complex)
    for n_s, proj in zip(n, np.array(spec.projectors)):
        p_s = np.trace(proj @ rho).real
        loglik += (n_s * np.log(p_s) if n_s > 0 else 0.0) - scale * p_s
        grad += (scale - (n_s / p_s if n_s > 0 else 0.0)) * proj
    return loglik, np.trace(grad @ rho).real - np.linalg.eigvalsh(grad)[0]


F977 = ex.werner_state(ex.visibility_for_fidelity(0.977))


class TestCertifiedFit:
    # these fits stopped 0.003 to 6.1 nats below the maximum while most of
    # them reported converged=True; 1e-8 nats per count is the certified gap
    @pytest.mark.parametrize("kind, per_setting, seed", [
        *[("standard", 1_000, s) for s in (0, 5, 10, 16, 19, 26, 34)],
        ("minimal", 100_000, 56),
    ])
    def test_fit_reaches_certified_maximum(self, kind, per_setting, seed):
        spec = getattr(tm, f"{kind}_settings")(per_setting)
        counts = tm.simulate_counts(F977, spec, seed)
        rep = tm.reconstruct(counts, spec)
        loglik, gap = certificate(counts, spec, rep.rho_hat.entries)
        assert rep.converged
        assert gap <= 1e-8 * counts.sum()
        assert rep.gap == pytest.approx(gap, rel=1e-6, abs=1e-9 * counts.sum())
        assert rep.log_likelihood == pytest.approx(loglik, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(rank=hs.integers(1, 4), exponent=hs.floats(1, 5),
           minimal=hs.booleans(), seed=hs.integers(0, 2**32 - 1))
    def test_converged_exactly_when_certified(self, rank, exponent, minimal, seed):
        rng = np.random.default_rng(seed)
        ginibre = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = ginibre @ ginibre.conj().T
        rho = DensityMatrix(rho / np.trace(rho).real)
        spec = (tm.minimal_settings if minimal else tm.standard_settings)(
            int(10 ** exponent))
        counts = tm.simulate_counts(rho, spec, seed)
        rep = tm.reconstruct(counts, spec, keep_history=True)
        loglik, gap = certificate(counts, spec, rep.rho_hat.entries)
        assert rep.converged == (gap <= tm.GAP_TOL * counts.sum())
        assert rep.gap == pytest.approx(gap, rel=1e-6, abs=1e-9 * counts.sum())
        assert np.all(np.diff(rep.history) >= 0)
        assert len(rep.history) <= rep.iterations + 1
        assert rep.history[-1] == rep.log_likelihood

    def test_iteration_cap_is_not_convergence(self, monkeypatch):
        spec = tm.minimal_settings(100_000)
        counts = tm.simulate_counts(F977, spec, 56)
        monkeypatch.setattr(tm, "MAX_ITERATIONS", 3)
        rep = tm.reconstruct(counts, spec)
        _, gap = certificate(counts, spec, rep.rho_hat.entries)
        assert rep.iterations == 3
        assert not rep.converged
        assert gap > tm.GAP_TOL * counts.sum()

    @pytest.mark.parametrize("kind", ["standard", "minimal"])
    @pytest.mark.parametrize("case", ["no counts", "one seen setting",
                                      "rotated singlet"])
    def test_fit_with_unseen_settings(self, kind, case):
        spec = getattr(tm, f"{kind}_settings")(100_000)
        counts = np.zeros(spec.n_settings)
        if case == "one seen setting":
            counts[spec.labels.index("HV")] = 700
        elif case == "rotated singlet":  # 6 of 36 (3 of 16) settings see nothing
            rot = DensityMatrix(enc.receiver("polarization").detected_state(
                ex.werner_state(1.0), np.pi / 2))
            counts = tm.simulate_counts(rot, spec, seed=77)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = tm.reconstruct(counts, spec)
        loglik, gap = certificate(counts, spec, rep.rho_hat.entries)
        # TestCertifiedFit's slack, 1e-9 * sum(counts), floored at N: with no
        # counts both gaps are +-1e-10 rounding of N sum(p) against a tolerance of 0
        slack = 1e-9 * max(counts.sum(), spec.counts_per_setting)
        assert rep.converged
        assert gap <= tm.GAP_TOL * counts.sum() + slack
        assert rep.gap == pytest.approx(gap, rel=1e-6, abs=slack)
        assert rep.log_likelihood == pytest.approx(loglik, rel=1e-12)
