import numpy as np
import pytest

import vortex_oracle as vo
from qmath_helpers import unit
from vortexsteer import encoding as enc
from vortexsteer.qmath import DensityMatrix, StateVector, fidelity_pure

SPACE = enc.DEFAULT_SPACE
VORTEX = enc.receiver("vortex")
QP = vo.qplate(SPACE)
# logical vortex qubit |0> = |L, -1>, |1> = |R, +1>
LOGICAL_ZERO = vo.composite_ket(enc.KET_L, -1, SPACE)
LOGICAL_ONE = vo.composite_ket(enc.KET_R, +1, SPACE)


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b))


class TestQPlate:
    """The receiver's closed-form encoder against the explicit test q-plate."""

    def test_operator_is_unitary(self):
        assert np.allclose(QP.conj().T @ QP, np.eye(SPACE.dim), atol=1e-12)

    @pytest.mark.parametrize("space", [SPACE, enc.OamSpace(-1, 1), enc.OamSpace(-5, 4)])
    def test_encoder_is_qplate_image_of_l0(self, space):
        np.testing.assert_allclose(enc.receiver("vortex", space).encoder,
                                   vo.qplate_encoder(space), rtol=0, atol=1e-15)

    def test_left_circular_input_gains_oam(self):
        out = VORTEX.encoder @ enc.KET_L
        assert overlap(out, QP @ vo.composite_ket(enc.KET_L, 0, SPACE)) == \
            pytest.approx(1.0, abs=1e-12)
        assert overlap(out, LOGICAL_ONE) == pytest.approx(1.0, abs=1e-12)

    def test_right_circular_input_loses_oam(self):
        out = VORTEX.encoder @ enc.KET_R
        assert overlap(out, QP @ vo.composite_ket(enc.KET_R, 0, SPACE)) == \
            pytest.approx(1.0, abs=1e-12)
        assert overlap(out, LOGICAL_ZERO) == pytest.approx(1.0, abs=1e-12)

    def test_double_pass_is_identity_on_pipeline_span(self):
        seeds = [
            vo.composite_ket(enc.KET_L, 0, SPACE),
            vo.composite_ket(enc.KET_R, 0, SPACE),
            LOGICAL_ZERO,
            LOGICAL_ONE,
            vo.composite_ket(enc.KET_R, -1, SPACE),
            vo.composite_ket(enc.KET_L, +1, SPACE),
        ]
        for psi in seeds:
            assert overlap(QP @ QP @ psi, psi) == pytest.approx(1.0, abs=1e-12)
        # a second pass brings the encoded qubit back to l=0
        back = np.column_stack([vo.composite_ket(p, 0, SPACE)
                                for p in (enc.KET_H, enc.KET_V)])
        assert np.allclose(QP @ VORTEX.encoder, back, atol=1e-12)


class TestRotation:
    """The beam rotation of the phase conventions, written out in `vortex_oracle`."""

    @pytest.mark.parametrize("theta", np.linspace(0, 2 * np.pi, 17))
    def test_logical_states_are_fixed_points(self, theta):
        r = vo.explicit_rotation("vortex", theta, SPACE)
        for k in (LOGICAL_ZERO, LOGICAL_ONE):
            assert np.max(np.abs(r @ k - k)) < 1e-12

    def test_quarter_turn_maps_h_to_v(self):
        h0 = vo.composite_ket(enc.KET_H, 0, SPACE)
        v0 = vo.composite_ket(enc.KET_V, 0, SPACE)
        out = vo.explicit_rotation("vortex", np.pi / 2, SPACE) @ h0
        assert abs(np.vdot(v0, out)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_angle_is_identity(self):
        assert np.allclose(vo.explicit_rotation("vortex", 0.0, SPACE), np.eye(SPACE.dim),
                           atol=1e-14)

    def test_pol_rotation_spins_linear_axis_by_twice_theta(self):
        theta = 0.37
        r = vo.explicit_rotation("polarization", theta, SPACE)
        rotated = r @ enc.pol_observable([1, 0, 0]) @ r.conj().T
        expected = (np.cos(2 * theta) * enc.POL_X + np.sin(2 * theta) * enc.POL_Y)
        assert np.allclose(rotated, expected, atol=1e-12)
        circ = r @ enc.pol_observable([0, 0, 1]) @ r.conj().T
        assert np.allclose(circ, enc.POL_Z, atol=1e-12)


class TestEncode:
    def test_h_encodes_to_equal_logical_superposition(self):
        out = VORTEX.encoder @ enc.KET_H
        target = (LOGICAL_ZERO + LOGICAL_ONE) / np.sqrt(2)
        assert overlap(out, target) == pytest.approx(1.0, abs=1e-12)

    def test_left_circular_encodes_to_logical_one(self):
        out = VORTEX.encoder @ enc.KET_L
        assert overlap(out, LOGICAL_ONE) == pytest.approx(1.0, abs=1e-12)

    def test_isometry_preserves_inner_products(self):
        rng = np.random.default_rng(7)
        v = VORTEX.encoder
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
        for _ in range(5):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert np.vdot(v @ a, v @ b) == pytest.approx(np.vdot(a, b), abs=1e-12)

    def test_encoded_singlet_reduces_to_polarization_singlet(self):
        # the two-photon shared state after Bob-side conversion is the
        # singlet in the logical frame the receiver reads out
        psi = enc.singlet_pol()
        w = np.kron(np.eye(2), VORTEX.encoder)
        joint = StateVector(w @ psi.amplitudes).density()
        reduced = VORTEX.detected_state(joint, 0.0)
        weight = float(np.trace(reduced).real)
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert fidelity_pure(psi, DensityMatrix(reduced / weight)) == \
            pytest.approx(1.0, abs=1e-12)


def rotated_analyzer(direction, theta: float, outcome) -> np.ndarray:
    """Test q-plate analyzer element for one outcome (None: either one)."""
    pol_op = np.eye(2) if outcome is None else enc.pol_projector(direction, outcome)
    r = vo.explicit_rotation("vortex", theta, SPACE)
    return r @ vo.analyzer_element(pol_op, SPACE) @ r.conj().T


class TestBobAnalyzer:
    def test_is_projector(self):
        e = rotated_analyzer([0, 1, 0], 0.4, +1)
        assert np.max(np.abs(e - e.conj().T)) < 1e-12
        assert np.max(np.abs(e @ e - e)) < 1e-10

    def test_passes_logical_one_on_circular_axis(self):
        e_plus = rotated_analyzer([0, 0, 1], 0.0, +1)
        assert np.allclose(e_plus @ LOGICAL_ONE, LOGICAL_ONE, atol=1e-12)
        assert np.max(np.abs(e_plus @ LOGICAL_ZERO)) < 1e-12

    def test_completeness_with_out_of_subspace_projector(self):
        u = unit([1.0, 2.0, -0.5])
        theta = 1.1
        total = rotated_analyzer(u, theta, +1) + rotated_analyzer(u, theta, -1)
        assert np.allclose(total, rotated_analyzer(u, theta, None), atol=1e-12)
        null = np.eye(SPACE.dim) - total
        assert np.allclose(null @ null, null, atol=1e-12)

    def test_analyzer_expectation_is_orientation_independent(self):
        # central invariance claim: statistics on the encoded singlet do not
        # depend on the receiver orientation
        psi = enc.singlet_pol()
        w = np.kron(np.eye(2), VORTEX.encoder)
        rho = StateVector(w @ psi.amplitudes).density()
        u = unit([0.3, -1.2, 0.4])
        values = []
        for theta in np.linspace(0, 2 * np.pi, 25):
            op = np.kron(np.eye(2), rotated_analyzer(u, theta, +1))
            values.append(float(np.trace(rho.entries @ op).real))
        assert np.ptp(values) < 1e-12
