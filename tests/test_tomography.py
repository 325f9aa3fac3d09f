import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import mle_oracle
from qmath_helpers import trace_distance
from vortexsteer import encoding as enc
from vortexsteer import experiment as ex
from vortexsteer import qmath
from vortexsteer import tomography as tm
from vortexsteer.qmath import GRID, DensityMatrix, StateVector


class TestSettings:
    def test_standard_set_has_36_settings(self):
        spec = tm.standard_settings()
        assert spec.n_settings == 36

    def test_gram_rank_is_sixteen(self):
        for spec in (tm.standard_settings(), tm.minimal_settings()):
            assert np.linalg.matrix_rank(spec.design, tol=1e-10) == 16

    def test_projectors_idempotent(self):
        for p in tm.standard_settings().projectors:
            assert np.allclose(p @ p, p, atol=1e-12)

    def test_projectors_are_one_read_only_array(self):
        projs = tm.standard_settings().projectors
        assert projs.shape == (36, 4, 4)
        with pytest.raises(ValueError):
            projs[0, 0, 0] = 0.5

    def test_one_qubit_projectors_rejected(self):
        # three 2x2 projectors do not even reshape into rows of 16
        projs = [np.outer(v, v.conj()) for v in np.eye(2)] + [np.full((2, 2), 0.5)]
        with pytest.raises(ValueError, match="two-qubit"):
            tm.TomographySpec(("H", "V", "D"), projs, 100)

    def test_non_numeric_projectors_rejected(self):
        # the spec arrays take the state classes' dtype rule
        spec = tm.standard_settings()
        for bad in (spec.projectors.astype(str), spec.projectors.real.astype(bool)):
            with pytest.raises(ValueError, match="entries must be numbers"):
                tm.TomographySpec(spec.labels, bad, 100)

    def test_incomplete_settings_rejected(self):
        spec = tm.standard_settings()
        with pytest.raises(ValueError):
            tm.TomographySpec(spec.labels[:8], spec.projectors[:8], 100)

    def test_labels_must_name_each_setting(self):
        spec = tm.standard_settings()
        for bad in (spec.labels[:3], spec.labels + ("HH",), [], None, "".join(spec.labels)):
            with pytest.raises(ValueError, match="one label per setting"):
                tm.TomographySpec(bad, spec.projectors, 100)
        # the projector checks keep precedence over the labels
        with pytest.raises(ValueError, match="two-qubit operator space"):
            tm.TomographySpec(spec.labels[:3], spec.projectors[:8], 100)
        built = tm.TomographySpec(list(spec.labels), spec.projectors, 100)
        assert type(built.labels) is tuple and built.labels == spec.labels

    @pytest.mark.parametrize("kind", ["standard", "minimal"])
    def test_fixed_arrays_are_read_only_and_built_from_the_projectors(self, kind):
        spec = getattr(tm, f"{kind}_settings")(1_000)
        design = spec.projectors.reshape(-1, 16).conj()
        np.testing.assert_array_equal(spec.design, design)
        np.testing.assert_array_equal(spec.pinv, np.linalg.pinv(design))
        np.testing.assert_array_equal(spec.total, 1_000 * spec.projectors.sum(axis=0))
        np.testing.assert_array_equal(spec.trace, 1_000 * design.sum(axis=0))
        # Newton's coordinates: Tr(P_s B_k) over the 15 traceless Pauli products
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1, -1])]
        basis = np.array([np.kron(a, b) for a in paulis for b in paulis][1:])
        assert spec.coords.dtype == float and spec.coords.shape == (spec.n_settings, 15)
        np.testing.assert_allclose(
            spec.coords, np.einsum("sij,kji->sk", spec.projectors, basis).real,
            rtol=0, atol=1e-15)
        for arr in (spec.design, spec.pinv, spec.coords, spec.total, spec.trace):
            with pytest.raises(ValueError):
                arr.flat[0] = 0.5

    def test_settings_must_be_two_qubit_operators(self):
        # 70 random 8x8 rank-one projectors span more than 16 dimensions
        rng = np.random.default_rng(0)
        kets = rng.normal(size=(70, 8)) + 1j * rng.normal(size=(70, 8))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        projs = np.einsum("si,sj->sij", kets, kets.conj())
        with pytest.raises(ValueError, match="two-qubit"):
            tm.TomographySpec(tuple(map(str, range(70))), projs, 100)
        vortex = ex.prepare_state(ex.NoiseModel(1.0), "vortex")
        with pytest.raises(ValueError,
                           match=r"tomography operates on two-qubit \(4x4\) states"):
            tm.born_probabilities(vortex, tm.standard_settings())


def ginibre_state(rng, rank):
    ginibre = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = ginibre @ ginibre.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


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
        rho = ginibre_state(np.random.default_rng(seed), rank)
        spec = tm.minimal_settings() if minimal else tm.standard_settings()
        want = [np.trace(proj @ rho.entries).real for proj in spec.projectors]
        probs = tm.born_probabilities(rho, spec)
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-14)
        # bit for bit the map from a design matrix rebuilt on every call,
        # clipped at 0; the mean counts take the probabilities on the grid
        p = (spec.projectors.reshape(-1, 16).conj() @ rho.entries.reshape(16)).real
        p = np.maximum(p, 0.0)
        assert probs.tobytes() == p.tobytes()
        means = tm.expected_counts(rho, spec)
        assert means.tobytes() == (10_000 * GRID * np.rint(p / GRID)).tobytes()
        assert np.abs(means / 10_000 - p).max() <= GRID / 2

    @pytest.mark.parametrize("deg", [0, 90, 180])
    def test_counts_ignore_rounding_residues_of_zero(self, deg):
        # the pure singlet behind the polarization receiver carries residues
        # of ~1e-17, which make some of its six zero probabilities ~1e-35 or
        # ~1e-18; on the grid they are means of exactly 0, which draw nothing
        det = enc.receiver("polarization").detected_state(
            ex.werner_state(1.0), np.radians(deg))
        rho = DensityMatrix(det / np.trace(det).real)
        clean = DensityMatrix(np.round(rho.entries.real, 12)
                              + 1j * np.round(rho.entries.imag, 12))
        assert 0 < np.abs(rho.entries - clean.entries).max() < 1e-15
        spec = tm.standard_settings(100_000)
        assert np.count_nonzero(tm.expected_counts(rho, spec) == 0) == 6
        for seed in range(3):
            np.testing.assert_array_equal(tm.simulate_counts(rho, spec, seed),
                                          tm.simulate_counts(clean, spec, seed))

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

    def test_report_derives_purity_and_log_likelihood(self):
        spec = tm.standard_settings(20_000)
        rep = tm.reconstruct(tm.simulate_counts(ex.werner_state(0.8), spec, seed=13), spec)
        assert rep.log_likelihood == rep.history[-1]
        fields = dict(rho_hat=rep.rho_hat, target=None,
                      iterations=rep.iterations, tolerance=rep.tolerance, gap=rep.gap,
                      history=rep.history)
        assert tm.ReconstructionReport(**fields) == rep
        for name in ("purity", "log_likelihood", "fidelity_to_target", "converged"):
            with pytest.raises(TypeError, match=name):
                tm.ReconstructionReport(**fields, **{name: getattr(rep, name)})

    def test_report_stores_history_as_a_tuple(self):
        # a list history is copied, so log_likelihood cannot drift from it
        rho = ex.werner_state(0.8)
        history = [-3.0, -2.0]
        rep = tm.ReconstructionReport(rho_hat=rho, target=None,
                                      iterations=1, tolerance=0.0, gap=0.0,
                                      history=history)
        history.append(-1.0)
        assert rep.history == (-3.0, -2.0)
        assert rep.log_likelihood == -2.0

    @pytest.mark.parametrize("history", [(), [], None, -2.0, "ab", np.array([-2.0])],
                             ids=["empty-tuple", "empty-list", "none", "float", "str",
                                  "array"])
    def test_report_rejects_a_bad_history(self, history):
        with pytest.raises(ValueError, match="history must be a non-empty tuple or list"):
            tm.ReconstructionReport(rho_hat=ex.werner_state(0.8), target=None,
                                    iterations=0, tolerance=0.0, gap=0.0,
                                    history=history)

    @pytest.mark.parametrize("target, match", [
        (enc.singlet_pol().amplitudes, "StateVector"),
        (StateVector(enc.KET_H), "4-dim"),
        (ex.werner_state(0.9), "StateVector")])
    def test_target_is_checked_before_the_fit(self, target, match):
        spec = tm.standard_settings(1_000)
        counts = tm.simulate_counts(ex.werner_state(0.9), spec, seed=1)
        with mock.patch.object(tm, "_project_density", side_effect=AssertionError):
            with pytest.raises(ValueError, match=match):
                tm.reconstruct(counts, spec, target=target)

    def test_log_likelihood_monotone(self):
        spec = tm.standard_settings(20_000)
        counts = tm.simulate_counts(ex.werner_state(0.8), spec, seed=13)
        rep = tm.reconstruct(counts, spec)
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


def _report(**fields):
    """A report of valid fields, with `fields` replacing some of them."""
    return tm.ReconstructionReport(**dict(
        rho_hat=ex.werner_state(0.8), target=None, iterations=0,
        tolerance=0.0, gap=0.0, history=(-2.0,)) | fields)


class TestReportFields:
    """Each field of a report is checked where it is built, by name."""

    @pytest.mark.parametrize("rho_hat", [
        np.eye(4) / 4, ex.prepare_state(ex.NoiseModel(0.8), "vortex"), None],
        ids=["array", "vortex-state", "none"])
    def test_rho_hat_must_be_a_two_qubit_state(self, rho_hat):
        with pytest.raises(ValueError, match="rho_hat must be a 4x4 DensityMatrix"):
            _report(rho_hat=rho_hat)

    @pytest.mark.parametrize("target", [
        enc.singlet_pol().amplitudes, StateVector(enc.KET_H), ex.werner_state(0.9), "HV"],
        ids=["array", "qubit", "density-matrix", "str"])
    def test_target_is_none_or_a_two_qubit_state_vector(self, target):
        with pytest.raises(ValueError, match="target must be None or a two-qubit"):
            _report(target=target)

    def test_fidelity_is_derived_from_the_target(self):
        assert _report().fidelity_to_target is None
        singlet = enc.singlet_pol()
        for rho in (ex.werner_state(0.8), singlet.density()):
            fid = _report(rho_hat=rho, target=singlet).fidelity_to_target
            assert type(fid) is float and 0.0 <= fid <= 1.0
            assert fid == qmath.fidelity_pure(singlet, rho)
        hh = StateVector(np.kron(enc.KET_H, enc.KET_H)).density()
        assert _report(rho_hat=hh, target=singlet).fidelity_to_target == 0.0
        assert _report(rho_hat=singlet.density(),
                       target=singlet).fidelity_to_target == pytest.approx(1.0)

    @pytest.mark.parametrize("iterations", [-1, 2.0, True, None],
                             ids=["negative", "float", "bool", "none"])
    def test_iterations_is_a_count(self, iterations):
        with pytest.raises(ValueError, match="iterations must be a non-negative integer"):
            _report(iterations=iterations)

    @pytest.mark.parametrize("tolerance", [-1e-300, float("nan"), float("inf"), "0", None,
                                           True, np.array([0.0])],
                             ids=["negative", "nan", "inf", "str", "none", "bool", "array"])
    def test_tolerance_is_a_finite_non_negative_real(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            _report(tolerance=tolerance)

    def test_tolerance_is_stored_as_a_float(self):
        rep = _report(tolerance=np.float64(0.5))
        assert type(rep.tolerance) is float and rep.tolerance == 0.5
        assert type(_report(tolerance=2).tolerance) is float

    @pytest.mark.parametrize("cap", [0, tm.MAX_ITERATIONS])
    def test_a_fit_reports_its_tolerance(self, cap, monkeypatch):
        spec = tm.minimal_settings(1_000)
        counts = tm.simulate_counts(ex.werner_state(0.8), spec, seed=3)
        monkeypatch.setattr(tm, "MAX_ITERATIONS", cap)
        rep = tm.reconstruct(counts, spec)
        assert rep.tolerance == tm.GAP_TOL * counts.sum()
        assert rep.converged is (cap > 0)
        assert rep.converged is (rep.gap <= rep.tolerance)

    @pytest.mark.parametrize("tolerance", [0.0, 5e-324, 1e-3, 7.0])
    def test_converged_is_gap_within_tolerance_at_the_edge(self, tolerance):
        above, below = (np.nextafter(tolerance, d) for d in (np.inf, -np.inf))
        for gap, certified in [(tolerance, True), (below, True), (above, False),
                               (-np.inf, True), (np.inf, False)]:
            rep = _report(tolerance=tolerance, gap=gap)
            assert rep.converged is certified

    @pytest.mark.parametrize("gap", [float("nan"), "0", None, True],
                             ids=["nan", "str", "none", "bool"])
    def test_gap_is_a_real_that_is_not_nan(self, gap):
        with pytest.raises(ValueError, match="gap"):
            _report(gap=gap)

    def test_gap_may_be_infinite_or_negative_rounding(self):
        assert _report(gap=np.float64(np.inf)).gap == np.inf
        assert type(_report(gap=-1e-17).gap) is float

    @pytest.mark.parametrize("entry", ["-1", None, True, 1j],
                             ids=["str", "none", "bool", "complex"])
    def test_history_entries_are_reals(self, entry):
        with pytest.raises(ValueError, match="history entry must be a real number"):
            _report(history=(-3.0, entry))

    def test_history_entries_are_stored_as_floats(self):
        rep = _report(history=[np.float64(-3.0), -2])
        assert rep.history == (-3.0, -2.0)
        assert all(type(h) is float for h in rep.history)
        assert type(rep.log_likelihood) is float


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
UNSEEN_CASES = ["no counts", "one seen setting", "rotated singlet"]


def unseen_settings_fit(kind, case):
    """A spec at 1e5 counts per setting and counts in which some settings
    see nothing."""
    spec = getattr(tm, f"{kind}_settings")(100_000)
    counts = np.zeros(spec.n_settings)
    if case == "one seen setting":
        counts[spec.labels.index("HV")] = 700
    elif case == "rotated singlet":  # 6 of 36 (3 of 16) settings see nothing
        rot = DensityMatrix(enc.receiver("polarization").detected_state(
            ex.werner_state(1.0), np.pi / 2))
        counts = tm.simulate_counts(rot, spec, seed=77)
    return spec, counts


# Rank-4 states at 14 counts per setting whose loops stop at the numerical
# floor, 1.07x, 1.07x and 1.54x above the gap tolerance after 34, 32 and 31
# iterations: the rounding of the eigenvalue projection outweighs each step's
# gain; one Frank-Wolfe step each then certifies them
FLOOR_SEEDS = [1350, 1413, 1954]


def floor_fit(seed):
    spec = tm.standard_settings(14)
    rho = ginibre_state(np.random.default_rng(seed), 4)
    return spec, tm.simulate_counts(rho, spec, seed)


# Counts at 1e3 per setting, every other setting 0, whose projected linear
# inversion gives a seen setting p = 0, so the fit starts from its mix with
# I/4; their loops stop uncertified at 1.72x and 4.98x the gap tolerance
# after 20 and 59 iterations, and 3 and 6 Frank-Wolfe steps certify them
MIXED_START_CASES = [{"RH": 980, "LH": 261, "LV": 705},
                     {"RA": 390, "LD": 23, "RD": 913, "LA": 395}]


def mixed_start_fit(case):
    spec = tm.standard_settings(1000)
    counts = np.zeros(spec.n_settings)
    for label, count in case.items():
        counts[spec.labels.index(label)] = count
    return spec, counts


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
        rho = ginibre_state(np.random.default_rng(seed), rank)
        spec = (tm.minimal_settings if minimal else tm.standard_settings)(
            int(10 ** exponent))
        counts = tm.simulate_counts(rho, spec, seed)
        rep = tm.reconstruct(counts, spec)
        loglik, gap = certificate(counts, spec, rep.rho_hat.entries)
        assert rep.converged == (gap <= tm.GAP_TOL * counts.sum())
        assert rep.gap == pytest.approx(gap, rel=1e-6, abs=1e-9 * counts.sum())
        assert np.all(np.diff(rep.history) >= 0)
        assert len(rep.history) <= rep.iterations + 1
        assert rep.history[-1] == rep.log_likelihood

    def test_iteration_cap_is_not_convergence(self, monkeypatch):
        # Newton certifies this fit in 3 steps and the loop in 131: at a cap
        # of 2 neither does
        spec = tm.minimal_settings(100_000)
        counts = tm.simulate_counts(F977, spec, 56)
        monkeypatch.setattr(tm, "MAX_ITERATIONS", 2)
        rep = tm.reconstruct(counts, spec)
        _, gap = certificate(counts, spec, rep.rho_hat.entries)
        assert rep.iterations == 2
        assert not rep.converged
        assert gap > tm.GAP_TOL * counts.sum()

    @pytest.mark.parametrize("kind", ["standard", "minimal"])
    @pytest.mark.parametrize("case", UNSEEN_CASES)
    def test_fit_with_unseen_settings(self, kind, case):
        spec, counts = unseen_settings_fit(kind, case)
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

    @pytest.mark.parametrize("seed", FLOOR_SEEDS)
    def test_fit_certifies_at_the_numerical_floor(self, seed):
        spec, counts = floor_fit(seed)
        assert tm.reconstruct(counts, spec).converged

    @pytest.mark.parametrize("case", MIXED_START_CASES)
    def test_fit_from_the_mixed_start_certifies(self, case):
        spec, counts = mixed_start_fit(case)
        assert tm.reconstruct(counts, spec).converged


def is_newton_fit(rep, ref):
    """Whether a report starts elsewhere than the reference loop: a Newton
    fit, whose start is the loop's mixed with I/4."""
    return rep.history[0] != ref.history[0]


def assert_newton_fit(rep, counts, spec):
    """A Newton fit comes from an uncertified start, is certified within its
    steps and the cap, and lies within 2 tolerances of the uncapped
    reference loop's log-likelihood."""
    best = mle_oracle.reconstruct(counts, spec)
    assert is_newton_fit(rep, best)
    assert not mle_oracle.reconstruct(counts, spec, max_iterations=0).converged
    assert rep.converged and rep.iterations <= min(tm._NEWTON_STEPS, tm.MAX_ITERATIONS)
    assert abs(rep.log_likelihood - best.log_likelihood) <= 2 * rep.tolerance


def assert_same_fit(counts, spec, cap=tm.MAX_ITERATIONS, rep=None):
    """reconstruct (or its report rep) and the reference loop in mle_oracle
    agree bit for bit."""
    if rep is None:
        with mock.patch.object(tm, "MAX_ITERATIONS", cap):
            rep = tm.reconstruct(counts, spec)
    ref = mle_oracle.reconstruct(counts, spec, max_iterations=cap)
    assert rep.rho_hat.entries.tobytes() == ref.rho_hat.entries.tobytes()
    assert rep.history == ref.history
    assert (rep.iterations, rep.converged) == (ref.iterations, ref.converged)
    assert rep.gap.hex() == ref.gap.hex()
    assert rep.log_likelihood.hex() == ref.log_likelihood.hex()
    return rep


class TestOracleFit:
    """reconstruct returns the reference loop's report bit for bit on every
    fit its gate sends to the loop, up to the loop's fixed point."""

    @settings(max_examples=60, deadline=None)
    @given(rank=hs.integers(1, 4), exponent=hs.floats(1, 5),
           minimal=hs.booleans(), cap=hs.sampled_from([0, 1, 3, tm.MAX_ITERATIONS]),
           seed=hs.integers(0, 2**32 - 1))
    def test_fit_equals_reference_loop(self, rank, exponent, minimal, cap, seed):
        spec = (tm.minimal_settings if minimal else tm.standard_settings)(
            int(10 ** exponent))
        counts = tm.simulate_counts(ginibre_state(np.random.default_rng(seed), rank),
                                    spec, seed)
        with mock.patch.object(tm, "MAX_ITERATIONS", cap):
            rep = tm.reconstruct(counts, spec)
            ref = mle_oracle.reconstruct(counts, spec, max_iterations=cap)
            if is_newton_fit(rep, ref):
                assert_newton_fit(rep, counts, spec)
            elif ref.converged or ref.iterations == cap:
                assert_same_fit(counts, spec, cap, rep)
            else:
                assert_loop_then_end_game(counts, spec, rep)

    @pytest.mark.parametrize("kind", ["standard", "minimal"])
    @pytest.mark.parametrize("case", UNSEEN_CASES)
    def test_unseen_settings_fit_equals_reference_loop(self, kind, case):
        spec, counts = unseen_settings_fit(kind, case)
        assert_same_fit(counts, spec)

    @pytest.mark.parametrize("seed", FLOOR_SEEDS)
    def test_floor_fit_equals_reference_loop(self, seed):
        spec, counts = floor_fit(seed)
        rep, ref = assert_loop_then_end_game(counts, spec)
        assert rep.converged and len(rep.history) > len(ref.history)

    @pytest.mark.parametrize("case", MIXED_START_CASES)
    def test_mixed_start_fit_equals_reference_loop(self, case):
        spec, counts = mixed_start_fit(case)
        start = tm._project_density(
            (spec.pinv @ (counts / spec.counts_per_setting)).reshape(4, 4))
        assert tm._born(spec.design[counts > 0], start).min() <= 0
        rep, ref = assert_loop_then_end_game(counts, spec)
        assert rep.converged and len(rep.history) > len(ref.history)
        assert np.all(np.diff(ref.history) > 0)

    def test_end_game_stops_at_the_cap(self):
        # capped at the iteration where the loop stalls, the fit takes no
        # Frank-Wolfe step and is the reference loop's, uncertified
        spec, counts = floor_fit(FLOOR_SEEDS[0])
        cap = mle_oracle.reconstruct(counts, spec).iterations
        assert not assert_same_fit(counts, spec, cap).converged

    def test_gap_solve_runs_only_when_it_can_decide(self, monkeypatch):
        # a singular Hessian sends this interior fit back to the loop
        spec = tm.standard_settings(100_000)
        counts = tm.simulate_counts(F977, spec, 0)
        solves, eigvalsh = [], np.linalg.eigvalsh

        def counted(g):
            solves.append(g)
            return eigvalsh(g)

        monkeypatch.setattr(np.linalg, "solve", mock.Mock(
            side_effect=np.linalg.LinAlgError("Singular matrix")))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rep = tm.reconstruct(counts, spec)
        # an exact gap on every iteration would take iterations + 1 solves
        assert rep.converged
        assert 1 <= len(solves) < rep.iterations
        assert_same_fit(counts, spec, rep=rep)


def assert_loop_then_end_game(counts, spec, rep=None):
    """The reference loop stops uncertified at a fixed point below the cap;
    reconstruct's report (or rep) carries its history on with Frank-Wolfe
    steps, one iteration each, certified exactly when the gap allows."""
    rep = rep or tm.reconstruct(counts, spec)
    ref = mle_oracle.reconstruct(counts, spec, max_iterations=tm.MAX_ITERATIONS)
    assert not ref.converged and ref.iterations < tm.MAX_ITERATIONS
    assert rep.history[:len(ref.history)] == ref.history
    assert rep.iterations - ref.iterations == len(rep.history) - len(ref.history)
    assert np.all(np.diff(rep.history) >= 0)
    loglik, gap = certificate(counts, spec, rep.rho_hat.entries)
    assert rep.converged == (gap <= rep.tolerance)
    assert rep.log_likelihood == pytest.approx(loglik, rel=1e-12)
    return rep, ref


class TestNewtonFit:
    """Interior optima are fitted by damped Newton steps, certified or discarded."""

    @settings(max_examples=30, deadline=None)
    @given(exponent=hs.floats(4, 5), minimal=hs.booleans(),
           seed=hs.integers(0, 2**32 - 1))
    def test_full_rank_fit_is_certified_and_ascends(self, exponent, minimal, seed):
        spec = (tm.minimal_settings if minimal else tm.standard_settings)(
            int(10 ** exponent))
        counts = tm.simulate_counts(ginibre_state(np.random.default_rng(seed), 4),
                                    spec, seed)
        rep = tm.reconstruct(counts, spec)
        _, gap = certificate(counts, spec, rep.rho_hat.entries)
        assert rep.converged == (gap <= tm.GAP_TOL * counts.sum())
        assert np.all(np.diff(rep.history) >= 0)
        assert rep.iterations <= tm.MAX_ITERATIONS
        if is_newton_fit(rep, mle_oracle.reconstruct(counts, spec, max_iterations=0)):
            assert_newton_fit(rep, counts, spec)

    def test_a_certified_start_is_the_fit(self):
        # exact counts certify the projected linear inversion itself
        spec = tm.standard_settings(100_000)
        assert assert_same_fit(tm.expected_counts(F977, spec), spec).iterations == 0

    def test_a_step_that_loses_likelihood_is_not_taken(self, monkeypatch):
        # a reversed first Newton direction descends at every step length, so
        # the attempt is discarded and the loop's fit is reported, bit for bit
        spec = tm.standard_settings(100_000)
        counts = tm.simulate_counts(F977, spec, 0)
        solve, calls = np.linalg.solve, []

        def first_reversed(a, b):
            calls.append(b)
            return -solve(a, b) if len(calls) == 1 else solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", first_reversed)
        rep = assert_same_fit(counts, spec)
        assert len(calls) == 1
        assert rep.converged and np.all(np.diff(rep.history) >= 0)

    @pytest.mark.parametrize("case", ["one seen setting", "mixed start"])
    def test_fewer_than_15_seen_settings_take_no_newton_step(self, case, monkeypatch):
        # the Hessian D^T diag(n/p^2) D of fewer than 15 rows is singular
        spec, counts = (unseen_settings_fit("standard", case) if case == "one seen setting"
                        else mixed_start_fit(MIXED_START_CASES[0]))
        monkeypatch.setattr(np.linalg, "solve", mock.Mock(side_effect=AssertionError))
        assert tm.reconstruct(counts, spec).converged

    def test_a_cap_of_zero_takes_no_newton_step(self, monkeypatch):
        spec = tm.standard_settings(100_000)
        counts = tm.simulate_counts(F977, spec, 0)
        assert_newton_fit(tm.reconstruct(counts, spec), counts, spec)
        monkeypatch.setattr(np.linalg, "solve", mock.Mock(side_effect=AssertionError))
        assert not assert_same_fit(counts, spec, cap=0).converged
