"""Receiver and Born-table properties against an independent trace oracle.

The oracle builds every table entry as its own trace Tr[rho (P_a (x) E_b)]
over the full joint space: Alice's polarization projector, Bob's analyzer
element QP^dag (Pi (x) |l=0><l=0|) QP at zero orientation from the explicit
q-plate matrix in `vortex_oracle`, and the receiver rotation written out
there from the phase conventions in `encoding`.  None of it reads a
`Receiver`.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import vortex_oracle as vo
from qmath_helpers import unit
from vortexsteer import encoding as enc
from vortexsteer import steering
from vortexsteer.qmath import DensityMatrix

SPACE = enc.DEFAULT_SPACE
WIDE_SPACE = enc.OamSpace(-5, 4)
# joint dimensions 4, 20 and 40
RECEIVERS = [("polarization", SPACE), ("vortex", SPACE), ("vortex", WIDE_SPACE)]
SEEDS = hs.integers(0, 2 ** 32 - 1)
N_SETTINGS = hs.sampled_from([2, 3, 4, 6])


def random_set(n: int, seed: int) -> steering.MeasurementSet:
    """n random unit directions; a (near-)parallel pair has probability ~0."""
    vecs = np.random.default_rng(seed).normal(size=(n, 3))
    return steering.MeasurementSet([unit(v) for v in vecs])


# the Platonic sets, and n = 2..6 random unit directions
MEASUREMENT_SETS = hs.one_of(N_SETTINGS.map(steering.platonic_set),
                             hs.builds(random_set, hs.integers(2, 6), SEEDS))


def random_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Random density matrix of random rank (rank 1 is a pure state)."""
    rank = int(rng.integers(1, dim + 1))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


@lru_cache(maxsize=None)
def unrotated_bob_elements(u: tuple, kind: str, space: enc.OamSpace):
    """Bob's (+1, -1, null) elements at zero orientation; ``u`` is a tuple,
    so that it can key the cache."""
    if kind == "polarization":
        plus, minus = (enc.pol_projector(u, b) for b in (+1, -1))
        passed = np.eye(2)
    else:
        plus, minus = (vo.analyzer_element(enc.pol_projector(u, b), space)
                       for b in (+1, -1))
        passed = vo.analyzer_element(np.eye(2), space)
    return plus, minus, np.eye(len(passed)) - passed


def oracle_table(rho: DensityMatrix, mset, kind: str, thetas,
                 space: enc.OamSpace) -> np.ndarray:
    """p[k, alice, bob] from 6n separate traces; one angle per setting."""
    probs = np.zeros((mset.n, 2, 3))
    for k, (u, theta) in enumerate(zip(mset.directions, thetas)):
        r = vo.explicit_rotation(kind, theta, space)
        for ia, a in enumerate((+1, -1)):
            pa = enc.pol_projector(u, a)
            for ib, e in enumerate(unrotated_bob_elements(tuple(u), kind, space)):
                val = np.trace(rho.entries @ np.kron(pa, r @ e @ r.conj().T))
                probs[k, ia, ib] = max(0.0, float(val.real))
    return probs


def quadrature_table(rho: DensityMatrix, mset, kind: str, lo: float, hi: float,
                     space: enc.OamSpace) -> np.ndarray:
    """`oracle_table` averaged over one angle in [lo, hi] by 256-node
    Gauss-Legendre quadrature.  Each entry's trace at every node is one einsum
    over the stacked rotations, clipped at 0 node by node as in `oracle_table`."""
    x, weights = np.polynomial.legendre.leggauss(256)
    r = np.stack([vo.explicit_rotation(kind, t, space)
                  for t in (hi - lo) / 2 * x + (hi + lo) / 2])
    d = r.shape[-1]
    rho4 = rho.entries.reshape(2, d, 2, d)           # [alice i, bob x, alice j, bob y]
    probs = np.zeros((mset.n, 2, 3))
    for k, u in enumerate(mset.directions):
        rotated = [r @ e @ r.conj().transpose(0, 2, 1)
                   for e in unrotated_bob_elements(tuple(u), kind, space)]
        for ia, a in enumerate((+1, -1)):
            # Tr[rho (P_a (x) B)] = sum rho[i,x,j,y] P_a[j,i] B[y,x]
            alice = np.einsum("ixjy,ji->yx", rho4, enc.pol_projector(u, a))
            for ib, b in enumerate(rotated):
                vals = np.einsum("yx,tyx->t", alice, b)
                probs[k, ia, ib] = weights / 2 @ np.maximum(0.0, vals.real)
    return probs


@settings(max_examples=60, deadline=None)
@given(receiver=hs.sampled_from(RECEIVERS), mset=MEASUREMENT_SETS, seed=SEEDS,
       per_setting=hs.booleans())
def test_born_table_matches_trace_oracle(receiver, mset, seed, per_setting):
    kind, space = receiver
    rx = enc.receiver(kind, space)
    rng = np.random.default_rng(seed)
    rho = random_state(rng, 2 * space.dim if kind == "vortex" else 4)
    n = mset.n
    theta = rng.uniform(0, 2 * np.pi, size=n if per_setting else None)
    table = steering.born_table(rho, mset, rx.detected_state(rho, theta))
    expected = oracle_table(rho, mset, kind, np.broadcast_to(theta, (n,)), space)
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(receiver=hs.sampled_from(RECEIVERS), mset=hs.builds(random_set, N_SETTINGS, SEEDS),
       seed=SEEDS, encoded=hs.booleans(),
       thetas=hs.lists(hs.floats(0, 2 * np.pi, exclude_max=True), min_size=1, max_size=8),
       span=hs.sampled_from([0.0, 0.4]))
def test_stacked_tables_equal_separate_calls(receiver, mset, seed, encoded, thetas, span):
    # a (T, 1) stack of detected states gives T tables, bit for bit those of
    # T separate calls; a generic state lies outside the encoded subspace
    kind, space = receiver
    rx = enc.receiver(kind, space)
    rng = np.random.default_rng(seed)
    rho = random_state(rng, 4)
    if encoded or kind == "polarization":
        w = np.kron(np.eye(2), rx.encoder)
        rho = DensityMatrix(w @ rho.entries @ w.conj().T)
    else:
        rho = random_state(rng, 2 * space.dim)
    stack = rx.detected_state(rho, np.reshape(thetas, (-1, 1)), span)
    separate = [rx.detected_state(rho, t, span) for t in thetas]
    assert stack.shape == (len(thetas), 1, 4, 4)
    assert np.array_equal(stack[:, 0], separate)
    tables = steering.born_table(rho, mset, stack)
    assert tables.shape == (len(thetas), mset.n, 2, 3)
    assert np.array_equal(tables, [steering.born_table(rho, mset, s) for s in separate])


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_receiver_constants_are_shared_read_only_arrays(receiver):
    kind, space = receiver
    rx = enc.receiver(kind, space)
    assert enc.receiver(kind, space) is rx
    if kind == "polarization":
        kets, momenta = enc.CIRC_TO_HV, [1, -1]
        np.testing.assert_array_equal(rx.encoder, np.eye(2))
    else:  # the read-out |L> and |R> come back through the plate as |R, +1>, |L, -1>
        kets = np.column_stack([vo.composite_ket(enc.KET_R, +1, space),
                                vo.composite_ket(enc.KET_L, -1, space)])
        momenta = [-1 + 1, 1 - 1]
        np.testing.assert_array_equal(rx.encoder, kets @ enc.CIRC_TO_HV.conj().T)
    gaps = np.subtract.outer(momenta, momenta)
    np.testing.assert_array_equal(rx.gaps, np.block([[gaps, gaps], [gaps, gaps]]))
    np.testing.assert_array_equal(rx.lift, np.kron(np.eye(2), kets))
    np.testing.assert_array_equal(rx.readout, np.kron(np.eye(2), kets.conj().T @ rx.encoder))
    np.testing.assert_allclose(rx.readout, np.kron(np.eye(2), enc.CIRC_TO_HV.conj().T),
                               rtol=0, atol=1e-15)
    for part in (rx.encoder, rx.lift, rx.gaps, rx.readout):
        with pytest.raises(ValueError):
            part[0] = 0


@settings(max_examples=60, deadline=None)
@given(space=hs.sampled_from([SPACE, enc.OamSpace(-3, 3), WIDE_SPACE]), seed=SEEDS,
       theta=hs.floats(-50, 50), span=hs.sampled_from([0.0, np.pi]) | hs.floats(0, 10))
def test_vortex_detected_state_ignores_rotation(space, seed, theta, span):
    # both read modes have m = 0: any state, encoded or not, is read out the
    # same at every angle and span, bit for bit
    rx = enc.receiver("vortex", space)
    rng = np.random.default_rng(seed)
    rho = random_state(rng, 2 * space.dim)
    still = rx.detected_state(rho, 0.0)
    assert np.array_equal(rx.detected_state(rho, theta, span), still)
    angles = rng.uniform(-50, 50, size=3)
    for thetas in (angles, angles.reshape(-1, 1)):  # (n,) and (T, 1)
        got = rx.detected_state(rho, thetas, span)
        assert np.array_equal(got, np.broadcast_to(still, got.shape))


@settings(max_examples=30, deadline=None)
@given(receiver=hs.sampled_from(RECEIVERS + [("vortex", enc.OamSpace(-3, 3))]),
       n=N_SETTINGS, seed=SEEDS,
       span=hs.sampled_from([0.0, np.pi / 2]) | hs.floats(0, 2 * np.pi))
def test_detected_state_matches_full_frame_formula(receiver, n, seed, span):
    # the two read modes give the state the whole circular frame gives:
    # bit for bit for polarization, to rounding for vortex, whose full-frame
    # read-out carries residues of about 1e-17 on the other modes
    kind, space = receiver
    rx = enc.receiver(kind, space)
    rng = np.random.default_rng(seed)
    rho = random_state(rng, 2 * space.dim if kind == "vortex" else 4)
    angles = rng.uniform(0, 2 * np.pi, size=n)
    for theta in (angles[0], angles, angles.reshape(-1, 1)):  # scalar, (n,), (T, 1)
        got = rx.detected_state(rho, theta, span)
        want = vo.full_frame_detected_state(rx, rho, theta, span, space)
        assert got.shape == want.shape == np.shape(theta) + (4, 4)
        if kind == "polarization":
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@settings(max_examples=8, deadline=None)
@given(receiver=hs.sampled_from(RECEIVERS), n=N_SETTINGS, seed=SEEDS)
def test_span_average_matches_quadrature(receiver, n, seed):
    kind, space = receiver
    rx = enc.receiver(kind, space)
    rng = np.random.default_rng(seed)
    rho = random_state(rng, 2 * space.dim if kind == "vortex" else 4)
    mset = steering.platonic_set(n)
    lo, hi = np.sort(rng.uniform(-2 * np.pi, 2 * np.pi, size=2))
    expected = quadrature_table(rho, mset, kind, lo, hi, space)
    table = steering.born_table(rho, mset, rx.detected_state(rho, lo, hi - lo))
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(space=hs.sampled_from([SPACE, WIDE_SPACE, enc.OamSpace(-8, 8)]),
       seed=SEEDS, theta=hs.floats(-50, 50), span=hs.floats(0, 10))
def test_encoded_two_qubit_state_is_rotation_invariant(space, seed, theta, span):
    rx = enc.receiver("vortex", space)
    rho4 = random_state(np.random.default_rng(seed), 4)
    w = np.kron(np.eye(2), rx.encoder)
    encoded = DensityMatrix(w @ rho4.entries @ w.conj().T)
    for got in (rx.detected_state(encoded, theta),
                rx.detected_state(encoded, theta, span)):
        np.testing.assert_allclose(got, rho4.entries, rtol=0, atol=1e-12)


@pytest.mark.parametrize("space", [enc.OamSpace(0, 2), enc.OamSpace(1, 3),
                                   enc.OamSpace(-3, -1)])
def test_vortex_receiver_needs_levels_minus_one_to_plus_one(space):
    with pytest.raises(ValueError):
        enc.receiver("vortex", space)


@pytest.mark.parametrize("space", [SPACE, WIDE_SPACE])
def test_rotation_operator_matches_phase_convention(space):
    # a beam rotation is exp(-i theta (S + L)): S = POL_Z on polarization,
    # L = diag(l) on the OAM ladder
    for theta in np.linspace(-3, 7, 11):
        spin = vo.explicit_rotation("polarization", theta, space)
        orbit = np.diag(np.exp(-1j * vo.l_values(space) * theta))
        assert np.allclose(vo.explicit_rotation("vortex", theta, space),
                           np.kron(spin, orbit), atol=1e-13)
        # |L> -> e^{-i theta}|L>, |R> -> e^{+i theta}|R>
        assert np.allclose(enc.CIRC_TO_HV.conj().T @ spin @ enc.CIRC_TO_HV,
                           np.diag(np.exp([-1j * theta, 1j * theta])), atol=1e-13)


def test_oracle_analyzer_matches_receiver_readout():
    # rotated oracle elements are the receiver's read-out qubit projected
    # through its encoder: R V Pi V^dag R^dag, and I - R V V^dag R^dag for null
    u = unit([0.3, -1.2, 0.4])
    for space in (SPACE, WIDE_SPACE):
        rx = enc.receiver("vortex", space)
        plus, _, null = unrotated_bob_elements(tuple(u), "vortex", space)
        for theta in (0.0, 0.7, 2.9):
            r = vo.explicit_rotation("vortex", theta, space)
            rv = r @ rx.encoder
            assert np.allclose(r @ plus @ r.conj().T,
                               rv @ enc.pol_projector(u, +1) @ rv.conj().T,
                               atol=1e-13)
            assert np.allclose(r @ null @ r.conj().T,
                               np.eye(space.dim) - rv @ rv.conj().T, atol=1e-13)
        # the analyzer passes exactly the receiver's two read modes
        kets = rx.lift[:space.dim, :2]
        assert np.allclose(null, np.eye(space.dim) - kets @ kets.conj().T, atol=1e-13)


def test_unknown_encoding_rejected():
    with pytest.raises(ValueError):
        enc.receiver("time-bin")


def test_receiver_for_maps_state_dimension_to_encoding():
    assert enc.receiver_for(4) is enc.receiver("polarization")
    assert enc.receiver_for(2 * SPACE.dim) is enc.receiver("vortex")
    for dim in (2, 8, 2 * WIDE_SPACE.dim):
        with pytest.raises(ValueError):
            enc.receiver_for(dim)
