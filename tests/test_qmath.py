import numpy as np
import pytest

from qmath_helpers import (
    ModeOperator,
    OperatorKind,
    expectation,
    normalized,
    partial_trace,
    tensor,
    trace_distance,
)
from vortexsteer import bounds as bd
from vortexsteer import encoding as enc
from vortexsteer import experiment as ex
from vortexsteer import steering as st
from vortexsteer import tomography as tm
from vortexsteer.qmath import DensityMatrix, StateVector, fidelity_pure, purity

SIGMA = {
    "x": enc.POL_X,
    "y": enc.POL_Y,
    "z": enc.POL_Z,
}


def ket(*amps):
    return StateVector(np.array(amps, dtype=complex))


def random_state(rng, dim=4):
    """Random full-rank density matrix via a Ginibre draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


class TestConstructors:
    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="empty state vector"):
            StateVector([])

    def test_normalized_helper_gives_unit_vector(self):
        psi = normalized([1.0, 1.0])
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1) < 1e-12

    def test_density_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(m)
        with pytest.raises(ValueError, match="density matrix must be square"):
            DensityMatrix(np.ones((2, 3)) / 2)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_operator_unitary_check(self):
        with pytest.raises(ValueError):
            ModeOperator(np.diag([1.0, 2.0]), OperatorKind.UNITARY)
        ModeOperator(np.diag([1.0, 1j]), OperatorKind.UNITARY)

    def test_operator_projector_check(self):
        with pytest.raises(ValueError):
            ModeOperator(np.diag([1.0, 2.0]), OperatorKind.PROJECTOR)
        ModeOperator(np.diag([1.0, 0.0]), OperatorKind.PROJECTOR)

    def test_bloch_vector_unit_check(self):
        x_axis, z_axis = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
        for bad in ([1.0, 1.0, 0.0], [0.0, 0.0, 0.5]):
            with pytest.raises(ValueError):
                enc.pol_observable(bad)
            with pytest.raises(ValueError):
                st.MeasurementSet([bad, z_axis])
            with pytest.raises(ValueError):
                bd.CheatStrategy(bad, (1, 0))
        enc.pol_observable(z_axis)
        st.MeasurementSet([x_axis, z_axis])
        bd.CheatStrategy(z_axis, (1, 0))

    @pytest.mark.parametrize("build", [
        lambda: StateVector([np.nan, 0, 0, 0]),
        lambda: DensityMatrix(np.diag([np.nan, 1, 0, 0])),
        lambda: st.MeasurementSet([[np.nan, 0, 0], [0, 0, 1]]),
        lambda: bd.CheatStrategy([np.nan, 0, 0], (1,)),
        lambda: enc.pol_projector([np.nan, 0, 0], +1),
    ], ids=["state-vector", "density-matrix", "measurement-set", "cheat-strategy",
            "pol-projector"])
    def test_non_finite_input_rejected(self, build):
        # NaN compares false against every tolerance, so each check must fail
        # closed; a NaN set would get the bound (0.0, ()), which any S > 0 beats
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: DensityMatrix([["1"]]),
        lambda: StateVector(["1", "0"]),
        lambda: DensityMatrix([[True]]),
        lambda: StateVector([True, False]),
        lambda: StateVector(np.array([1, 0], dtype=object)),
        lambda: DensityMatrix([[None]]),
    ], ids=["density-string", "state-string", "density-bool", "state-bool",
            "state-object", "density-none"])
    def test_non_numeric_entries_rejected_by_dtype(self, build):
        # numpy would read "1" and True as the number 1, and None as NaN
        with pytest.raises(ValueError, match="entries must be numbers, got dtype"):
            build()

    def test_integer_and_complex_entries_are_numbers(self):
        assert DensityMatrix([[1]]).entries.dtype == complex
        np.testing.assert_array_equal(StateVector([0, 1j]).amplitudes, [0, 1j])


class TestTensor:
    def test_basis_case(self):
        out = tensor(ket(1, 0), ket(1, 0))
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_identity_case(self):
        i2 = ModeOperator(np.eye(2), OperatorKind.UNITARY)
        out = tensor(i2, i2)
        assert np.allclose(out.entries, np.eye(4))

    def test_hv_index_layout(self):
        # |H>|V> sits at index 0*2 + 1 = 1 (first factor major)
        out = tensor(ket(1, 0), ket(0, 1))
        assert np.argmax(np.abs(out.amplitudes)) == 1

    def test_dim_multiplies_and_associativity(self):
        a, b, c = ket(1, 0), ket(0, 1), normalized([1, 1j])
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert left.dim == 8
        assert np.allclose(left.amplitudes, right.amplitudes)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor(ket(1, 0), ModeOperator(np.eye(2)))


class TestPartialTrace:
    def test_singlet_marginals_maximally_mixed(self):
        rho = enc.singlet_pol().density()
        for side in (0, 1):
            red = partial_trace(rho, side, [2, 2])
            assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovery(self):
        rho_a = ket(1, 0).density()
        rho_b = normalized([1, 1j]).density()
        joint = tensor(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, 0, [2, 2]).entries, rho_a.entries)
        assert np.allclose(partial_trace(joint, 1, [2, 2]).entries, rho_b.entries)

    @pytest.mark.parametrize("v", [0.0, 0.3, 0.9693, 1.0])
    def test_werner_marginal(self, v):
        red = partial_trace(ex.werner_state(v), 1, [2, 2])
        assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(ex.werner_state(0.5), 0, [2, 3])


class TestFidelityPurity:
    def test_fidelity_with_own_projector(self):
        psi = normalized([1, 2j, -1, 0.5])
        assert fidelity_pure(psi, psi.density()) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert fidelity_pure(enc.singlet_pol(), rho) == pytest.approx(0.25)

    @pytest.mark.parametrize("v", [0.0, 0.4, 0.9693, 1.0])
    def test_werner_fidelity_formula(self, v):
        expected = v + (1 - v) / 4
        assert fidelity_pure(enc.singlet_pol(), ex.werner_state(v)) == pytest.approx(
            expected, abs=1e-12)

    def test_purity_pure_and_mixed(self):
        psi = normalized([1, 1j])
        assert purity(psi.density()) == pytest.approx(1.0, abs=1e-12)
        assert purity(DensityMatrix(np.eye(4) / 4)) == pytest.approx(0.25)

    def test_werner_purity_formula(self):
        v = 0.9693
        assert purity(ex.werner_state(v)) == pytest.approx((1 + 3 * v**2) / 4,
                                                           abs=1e-12)

    def test_brute_force_agreement_on_random_states(self):
        # oracle: eigendecomposition-based fidelity and purity
        rng = np.random.default_rng(20260823)
        psi = normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        for _ in range(25):
            rho = random_state(rng)
            evals, evecs = np.linalg.eigh(rho.entries)
            fid_oracle = sum(lam * abs(np.vdot(psi.amplitudes, evecs[:, i])) ** 2
                             for i, lam in enumerate(evals))
            pur_oracle = float(np.sum(evals ** 2))
            assert fidelity_pure(psi, rho) == pytest.approx(fid_oracle, abs=1e-10)
            assert purity(rho) == pytest.approx(pur_oracle, abs=1e-10)

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure(normalized([1, 1]), ex.werner_state(1.0))

    def test_fidelity_rejects_an_imaginary_overlap(self):
        # a validated DensityMatrix is Hermitian to 1e-12, so only one whose
        # entries were replaced after validation reaches the imaginary-part check
        rho = DensityMatrix(np.eye(4) / 4)
        object.__setattr__(rho, "entries", np.eye(4) / 4 + 1e-6j * np.eye(4))
        with pytest.raises(ValueError, match="non-negligible imaginary part 1e-06"):
            fidelity_pure(StateVector(np.eye(4)[0]), rho)


# each model argument: a valid value, an array of its numbers, its type's name
MODELS = dict(psi=(enc.singlet_pol(), enc.singlet_pol().amplitudes, "StateVector"),
              rho=(RHO := enc.singlet_pol().density(), RHO.entries, "DensityMatrix"),
              spec=(SPEC := tm.minimal_settings(100), SPEC.projectors, "TomographySpec"),
              mset=(st.platonic_set(3), st.platonic_set(3).directions, "MeasurementSet"))
RX = enc.receiver("polarization")
# the functions outside the run functions that read a model's attributes, and
# the model arguments each takes
MODEL_CALLS = {
    "fidelity_pure": (lambda psi, rho, **_: fidelity_pure(psi, rho), "psi rho"),
    "purity": (lambda rho, **_: purity(rho), "rho"),
    "born_probabilities": (lambda rho, spec, **_: tm.born_probabilities(rho, spec),
                           "rho spec"),
    "expected_counts": (lambda rho, spec, **_: tm.expected_counts(rho, spec), "rho spec"),
    "simulate_counts": (lambda rho, spec, **_: tm.simulate_counts(rho, spec, 1),
                        "rho spec"),
    "reconstruct": (lambda spec, **_: tm.reconstruct(np.full(16, 10), spec), "spec"),
    "Receiver.read": (lambda rho, **_: RX.read(rho, np.ones((4, 4))), "rho"),
    "Receiver.detected_state": (lambda rho, **_: RX.detected_state(rho, 0.0), "rho"),
    "steering_parameter_exact": (lambda rho, mset, **_: st.steering_parameter_exact(
        rho, mset), "rho mset"),
    "loss_tolerant_bound": (lambda mset, **_: bd.loss_tolerant_bound(mset, 0.5), "mset"),
    "deterministic_bound": (lambda mset, **_: bd.deterministic_bound(mset), "mset"),
}


@pytest.mark.parametrize("function, name", [
    (function, name) for function, (_, names) in MODEL_CALLS.items()
    for name in names.split()])
@pytest.mark.parametrize("kind", ["array", "none"])
def test_functions_reject_a_model_of_the_wrong_type(function, name, kind):
    valid = {arg: value for arg, (value, _, _) in MODELS.items()}
    _, array, type_name = MODELS[name]
    with pytest.raises(ValueError, match=f"^{name} must be a {type_name}, got "):
        MODEL_CALLS[function][0](**valid | {name: array if kind == "array" else None})


class TestExpectation:
    def test_singlet_anticorrelation(self):
        rho = enc.singlet_pol().density()
        zz = ModeOperator(np.kron(SIGMA["z"], SIGMA["z"]))
        assert expectation(rho, zz) == pytest.approx(-1.0, abs=1e-12)

    def test_maximally_mixed_zero(self):
        rho = DensityMatrix(np.eye(4) / 4)
        xx = ModeOperator(np.kron(SIGMA["x"], SIGMA["x"]))
        assert expectation(rho, xx) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_werner_each_axis(self, axis):
        v = 0.77
        obs = ModeOperator(np.kron(SIGMA[axis], SIGMA[axis]))
        assert expectation(ex.werner_state(v), obs) == pytest.approx(-v, abs=1e-12)

    def test_rejects_nonhermitian(self):
        bad = ModeOperator(np.eye(4), OperatorKind.UNITARY)
        object.__setattr__(bad, "entries", np.triu(np.ones((4, 4)) * 1j))
        with pytest.raises(ValueError):
            expectation(ex.werner_state(1.0), bad)


def test_trace_distance_basics():
    a = ket(1, 0).density()
    b = ket(0, 1).density()
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
