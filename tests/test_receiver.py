"""Receiver and Born-table properties against an independent trace oracle.

The oracle builds every table entry as its own trace Tr[rho (P_a (x) E_b)]
over the full joint space: Alice's polarization projector, Bob's analyzer
element QP^dag (Pi (x) |l=0><l=0|) QP at zero orientation from the explicit
q-plate matrix in `vortex_oracle`, and the receiver rotation written out
there from the phase conventions in `encoding`.  None of it reads a
`Receiver`.  The harmonic tables that runs sample are checked against the
oracle's two-stage table and against quadrature over the angle.
"""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import vortex_oracle as vo
from qmath_helpers import unit
from vortexsteer import encoding as enc
from vortexsteer import experiment, steering
from vortexsteer.qmath import DensityMatrix

SPACE = enc.OAM_LEVELS
WIDE_SPACE = tuple(range(-5, 5))  # a wider oracle ladder
# joint dimensions 4 and 20
RECEIVERS = [enc.receiver("polarization"), enc.receiver("vortex")]
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
def unrotated_bob_elements(u: tuple, kind: str, space: tuple = SPACE):
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


def oracle_table(rho: DensityMatrix, mset, kind: str, thetas) -> np.ndarray:
    """p[k, alice, bob] from 6n separate traces; one angle per setting."""
    probs = np.zeros((mset.n, 2, 3))
    for k, (u, theta) in enumerate(zip(mset.directions, thetas)):
        r = vo.explicit_rotation(kind, theta, SPACE)
        for ia, a in enumerate((+1, -1)):
            pa = enc.pol_projector(u, a)
            for ib, e in enumerate(unrotated_bob_elements(tuple(u), kind)):
                val = np.trace(rho.entries @ np.kron(pa, r @ e @ r.conj().T))
                probs[k, ia, ib] = max(0.0, float(val.real))
    return probs


def quadrature_table(rho: DensityMatrix, mset, kind: str, lo: float,
                     hi: float) -> np.ndarray:
    """`oracle_table` averaged over one angle in [lo, hi] by 256-node
    Gauss-Legendre quadrature.  Each entry's trace at every node is one einsum
    over the stacked rotations, clipped at 0 node by node as in `oracle_table`."""
    x, weights = np.polynomial.legendre.leggauss(256)
    r = np.stack([vo.explicit_rotation(kind, t, SPACE)
                  for t in (hi - lo) / 2 * x + (hi + lo) / 2])
    d = r.shape[-1]
    rho4 = rho.entries.reshape(2, d, 2, d)           # [alice i, bob x, alice j, bob y]
    probs = np.zeros((mset.n, 2, 3))
    for k, u in enumerate(mset.directions):
        rotated = [r @ e @ r.conj().transpose(0, 2, 1)
                   for e in unrotated_bob_elements(tuple(u), kind)]
        for ia, a in enumerate((+1, -1)):
            # Tr[rho (P_a (x) B)] = sum rho[i,x,j,y] P_a[j,i] B[y,x]
            alice = np.einsum("ixjy,ji->yx", rho4, enc.pol_projector(u, a))
            for ib, b in enumerate(rotated):
                vals = np.einsum("yx,tyx->t", alice, b)
                probs[k, ia, ib] = weights / 2 @ np.maximum(0.0, vals.real)
    return probs


@settings(max_examples=60, deadline=None)
@given(rx=hs.sampled_from(RECEIVERS), mset=MEASUREMENT_SETS, seed=SEEDS,
       per_setting=hs.booleans())
def test_born_table_matches_trace_oracle(rx, mset, seed, per_setting):
    # one angle per setting gives each setting its own table
    rng = np.random.default_rng(seed)
    rho = random_state(rng, len(rx.lift))
    n = mset.n
    theta = rng.uniform(0, 2 * np.pi, size=n if per_setting else None)
    table = steering._tables(rho, mset, 1.0, np.reshape(theta, (1, -1)), 0.0)[0]
    expected = oracle_table(rho, mset, rx.kind, np.broadcast_to(theta, (n,)))
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


def encoded_or_generic(rx, rng, encoded: bool) -> DensityMatrix:
    """A random state in the encoded subspace or, for vortex, a generic one,
    which lies outside it."""
    if encoded or rx.kind == "polarization":
        w = np.kron(np.eye(2), rx.encoder)
        return DensityMatrix(w @ random_state(rng, 4).entries @ w.conj().T)
    return random_state(rng, len(rx.lift))


@settings(max_examples=40, deadline=None)
@given(rx=hs.sampled_from(RECEIVERS), mset=hs.builds(random_set, N_SETTINGS, SEEDS),
       seed=SEEDS, encoded=hs.booleans(),
       thetas=hs.lists(hs.floats(0, 2 * np.pi, exclude_max=True), min_size=1, max_size=8),
       span=hs.sampled_from([0.0, 0.4]))
def test_stacked_tables_equal_separate_calls(rx, mset, seed, encoded, thetas, span):
    # a (T, 1) stack of angles gives T tables, bit for bit those of T
    # separate calls, as does a (T, 1) stack of detected states
    rho = encoded_or_generic(rx, np.random.default_rng(seed), encoded)
    stack = rx.detected_state(rho, np.reshape(thetas, (-1, 1)))
    assert stack.shape == (len(thetas), 1, 4, 4)
    assert np.array_equal(stack[:, 0], [rx.detected_state(rho, t) for t in thetas])
    tables = steering._tables(rho, mset, 0.7, np.reshape(thetas, (-1, 1)), span)
    assert tables.shape == (len(thetas), mset.n, 2, 3)
    assert np.array_equal(tables, [
        steering._tables(rho, mset, 0.7, np.array([[t]]), span)[0] for t in thetas])


@settings(max_examples=40, deadline=None)
@given(rx=hs.sampled_from(RECEIVERS), mset=MEASUREMENT_SETS, seed=SEEDS,
       encoded=hs.booleans(), efficiency=hs.floats(0.01, 1),
       per_setting=hs.booleans(), theta=hs.floats(-10, 10),
       span=hs.sampled_from([0.0, np.pi / 2, 2 * np.pi]) | hs.floats(0, 10))
def test_harmonic_table_matches_two_stage_table(rx, mset, seed, encoded, efficiency,
                                                per_setting, theta, span):
    # A + sum_g sinc(g s/2pi)(B_g cos g t + C_g sin g t) at the midpoint t of
    # the span is the span-averaged table built in two stages, with its clip at
    # 0 and its normalisation; block runs take one angle per setting, span 0
    rng = np.random.default_rng(seed)
    rho = encoded_or_generic(rx, rng, encoded)
    if per_setting:
        start, span = theta + rng.uniform(-3, 3, size=mset.n), 0.0
    else:
        start = theta
    got = steering._tables(rho, mset, efficiency,
                           np.reshape(start + span / 2, (1, -1)), span)[0]
    want = vo.two_stage_table(rho, mset, efficiency, start, span)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_receiver_constants_are_shared_read_only_arrays(receiver):
    rx = receiver
    assert enc.receiver(rx.kind) is rx
    if rx.kind == "polarization":
        kets, momenta = enc.CIRC_TO_HV, [1, -1]
        np.testing.assert_array_equal(rx.encoder, np.eye(2))
    else:  # the read-out |L> and |R> come back through the plate as |R, +1>, |L, -1>
        kets = np.column_stack([vo.composite_ket(enc.KET_R, +1, SPACE),
                                vo.composite_ket(enc.KET_L, -1, SPACE)])
        momenta = [-1 + 1, 1 - 1]
        np.testing.assert_array_equal(rx.encoder, kets @ enc.CIRC_TO_HV.conj().T)
    gaps = np.subtract.outer(momenta, momenta)
    np.testing.assert_array_equal(rx.gaps, np.block([[gaps, gaps], [gaps, gaps]]))
    np.testing.assert_array_equal(rx.lift, np.kron(np.eye(2), kets))
    # the read modes pulled back through the encoder are the exact read-out
    np.testing.assert_array_equal(enc.READOUT, np.kron(np.eye(2), enc.CIRC_TO_HV.conj().T))
    np.testing.assert_allclose(np.kron(np.eye(2), kets.conj().T @ rx.encoder), enc.READOUT,
                               rtol=0, atol=1e-15)
    for part in (rx.encoder, rx.lift, rx.gaps):
        with pytest.raises(ValueError):
            part[0] = 0


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, theta=hs.floats(-50, 50),
       span=hs.sampled_from([0.0, np.pi]) | hs.floats(0, 10))
def test_vortex_detected_state_ignores_rotation(seed, theta, span):
    # both read modes have m = 0: any state, encoded or not, is read out the
    # same at every angle, bit for bit, and its tables have no harmonic, so
    # they are the same at every angle and span
    rx = enc.receiver("vortex")
    rng = np.random.default_rng(seed)
    rho = random_state(rng, len(rx.lift))
    still = rx.detected_state(rho, 0.0)
    assert np.array_equal(rx.detected_state(rho, theta), still)
    angles = rng.uniform(-50, 50, size=3)
    for thetas in (angles, angles.reshape(-1, 1)):  # (n,) and (T, 1)
        got = rx.detected_state(rho, thetas)
        assert np.array_equal(got, np.broadcast_to(still, got.shape))
    mset = steering.platonic_set(3)
    gaps, coef = steering._harmonics(rho, mset, 0.45)
    assert gaps == [] and coef.shape == (1, 3, 2, 3)
    for thetas in (np.array([[theta]]), angles.reshape(1, -1), angles.reshape(-1, 1)):
        got = steering._tables(rho, mset, 0.45, thetas, span)
        assert np.array_equal(got, np.broadcast_to(coef[0], got.shape))


@settings(max_examples=30, deadline=None)
@given(rx=hs.sampled_from(RECEIVERS), n=N_SETTINGS, seed=SEEDS)
def test_detected_state_matches_full_frame_formula(rx, n, seed):
    # the two read modes give the state the whole circular frame gives:
    # bit for bit for polarization, to rounding for vortex, whose full-frame
    # read-out carries residues of about 1e-17 on the other modes
    rng = np.random.default_rng(seed)
    rho = random_state(rng, len(rx.lift))
    angles = rng.uniform(0, 2 * np.pi, size=n)
    for theta in (angles[0], angles, angles.reshape(-1, 1)):  # scalar, (n,), (T, 1)
        got = rx.detected_state(rho, theta)
        want = vo.full_frame_detected_state(rx.kind, rx.encoder, rho, theta, 0.0,
                                            SPACE)
        assert got.shape == want.shape == np.shape(theta) + (4, 4)
        if rx.kind == "polarization":
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@settings(max_examples=8, deadline=None)
@given(rx=hs.sampled_from(RECEIVERS), n=N_SETTINGS, seed=SEEDS)
def test_span_average_matches_quadrature(rx, n, seed):
    rng = np.random.default_rng(seed)
    rho = random_state(rng, len(rx.lift))
    mset = steering.platonic_set(n)
    lo, hi = np.sort(rng.uniform(-2 * np.pi, 2 * np.pi, size=2))
    expected = quadrature_table(rho, mset, rx.kind, lo, hi)
    table = steering._tables(rho, mset, 1.0, np.array([[(lo + hi) / 2]]), hi - lo)[0]
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, theta=hs.floats(-50, 50), span=hs.floats(0, 10))
def test_encoded_two_qubit_state_is_rotation_invariant(seed, theta, span):
    rx = enc.receiver("vortex")
    rho4 = random_state(np.random.default_rng(seed), 4)
    w = np.kron(np.eye(2), rx.encoder)
    encoded = DensityMatrix(w @ rho4.entries @ w.conj().T)
    np.testing.assert_allclose(rx.detected_state(encoded, theta), rho4.entries,
                               rtol=0, atol=1e-12)
    # averaged over any span, the table is that of the unencoded qubit at rest
    mset = steering.platonic_set(4)
    table = steering._tables(encoded, mset, 1.0, np.array([[theta]]), span)[0]
    at_rest = steering._tables(rho4, mset, 1.0, np.zeros((1, 1)), 0.0)[0]
    np.testing.assert_allclose(table, at_rest, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, encoded=hs.booleans(), theta=hs.floats(-50, 50),
       span=hs.sampled_from([0.0, np.pi]) | hs.floats(0, 10))
def test_wider_oracle_ladder_gives_the_same_detected_state(seed, encoded, theta,
                                                           span):
    # the vortex qubit has m = 0, so where the ladder is cut off does not
    # matter: a state zero-padded into the wider oracle ladder and read out
    # through the oracle's own q-plate, averaged over any span, gives the
    # receiver's detected state
    rx = enc.receiver("vortex")
    rng = np.random.default_rng(seed)
    if encoded:
        w = np.kron(np.eye(2), rx.encoder)
        rho = w @ random_state(rng, 4).entries @ w.conj().T
    else:
        rho = random_state(rng, len(rx.lift)).entries
    pad = np.kron(np.eye(2), vo.ladder_map(SPACE, WIDE_SPACE))
    wide = vo.full_frame_detected_state(
        "vortex", vo.qplate_encoder(WIDE_SPACE),
        DensityMatrix(pad @ rho @ pad.conj().T), theta, span, WIDE_SPACE)
    np.testing.assert_allclose(wide, rx.detected_state(DensityMatrix(rho), theta),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("space", [SPACE, WIDE_SPACE])
def test_rotation_operator_matches_phase_convention(space):
    # a beam rotation is exp(-i theta (S + L)): S = POL_Z on polarization,
    # L = diag(l) on the OAM ladder
    for theta in np.linspace(-3, 7, 11):
        spin = vo.explicit_rotation("polarization", theta, space)
        orbit = np.diag(np.exp(-1j * np.array(space) * theta))
        assert np.allclose(vo.explicit_rotation("vortex", theta, space),
                           np.kron(spin, orbit), atol=1e-13)
        # |L> -> e^{-i theta}|L>, |R> -> e^{+i theta}|R>
        assert np.allclose(enc.CIRC_TO_HV.conj().T @ spin @ enc.CIRC_TO_HV,
                           np.diag(np.exp([-1j * theta, 1j * theta])), atol=1e-13)


def test_oracle_analyzer_matches_receiver_readout():
    # rotated oracle elements are the receiver's read-out qubit projected
    # through its encoder: R V Pi V^dag R^dag, and I - R V V^dag R^dag for null;
    # in the wider oracle ladder, with the receiver's modes zero-padded into it
    u = unit([0.3, -1.2, 0.4])
    rx = enc.receiver("vortex")
    for space in (SPACE, WIDE_SPACE):
        pad = vo.ladder_map(SPACE, space)
        dim = len(pad)
        plus, _, null = unrotated_bob_elements(tuple(u), "vortex", space)
        for theta in (0.0, 0.7, 2.9):
            r = vo.explicit_rotation("vortex", theta, space)
            rv = r @ pad @ rx.encoder
            assert np.allclose(r @ plus @ r.conj().T,
                               rv @ enc.pol_projector(u, +1) @ rv.conj().T,
                               atol=1e-13)
            assert np.allclose(r @ null @ r.conj().T,
                               np.eye(dim) - rv @ rv.conj().T, atol=1e-13)
        # the analyzer passes exactly the receiver's two read modes
        kets = pad @ rx.lift[:2 * len(SPACE), :2]
        assert np.allclose(null, np.eye(dim) - kets @ kets.conj().T, atol=1e-13)


@pytest.mark.parametrize("rx", RECEIVERS, ids=lambda rx: rx.kind)
@pytest.mark.parametrize("theta, message", [
    (True, "dtype bool"), ("0.5", "dtype <U3"), (None, "dtype object"),
    (np.inf, "finite"), (np.nan, "finite"), ([0.1, -np.inf], "finite"),
])
def test_detected_state_rejects_a_non_real_or_non_finite_angle(rx, theta, message):
    # numpy would read True as 1.0, "0.5" as 0.5 and None as NaN
    rho = DensityMatrix(np.eye(rx.lift.shape[0]) / rx.lift.shape[0])
    with pytest.raises(ValueError, match=f"theta must be .*{message}"):
        rx.detected_state(rho, theta)


@pytest.mark.parametrize("theta", [1e308, -1e308, [0.0, 8.99e307]])
def test_polarization_angle_whose_phase_would_overflow_is_rejected(theta):
    # the polarization gap of 2 times theta overflows beyond about 9e307,
    # where numpy warned and returned NaN entries; the vortex gaps are 0
    rho = experiment.werner_state(0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^theta must not exceed 8\.98847e\+307 "
                           "in magnitude at the receiver's gap 2$"):
            enc.receiver("polarization").detected_state(rho, theta)
        assert np.all(np.isfinite(enc.receiver("polarization").detected_state(rho, 1e300)))
        vortex = experiment.prepare_state(experiment.NoiseModel(0.9), "vortex")
        assert np.all(np.isfinite(enc.receiver("vortex").detected_state(vortex, 1e308)))


@pytest.mark.parametrize("rx", RECEIVERS, ids=lambda rx: rx.kind)
@pytest.mark.parametrize("weights", [np.inf, np.nan, -np.inf,
                                     np.diag([1.0, np.nan, 1.0, 1.0])],
                         ids=["inf", "nan", "-inf", "nan-entry"])
def test_read_requires_finite_weights(rx, weights):
    # inf warned in numpy's product and nan returned an all-NaN state
    rho = DensityMatrix(np.eye(rx.lift.shape[0]) / rx.lift.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^weights must be finite$"):
            rx.read(rho, weights)


@pytest.mark.parametrize("rx", RECEIVERS, ids=lambda rx: rx.kind)
def test_detected_state_reads_integer_and_float32_angles_as_floats(rx):
    rho = DensityMatrix(np.eye(rx.lift.shape[0]) / rx.lift.shape[0])
    assert np.array_equal(rx.detected_state(rho, 1), rx.detected_state(rho, 1.0))
    assert np.array_equal(rx.detected_state(rho, np.float32(0.3)),
                          rx.detected_state(rho, float(np.float32(0.3))))


def test_unknown_encoding_rejected():
    with pytest.raises(ValueError):
        enc.receiver("time-bin")


@pytest.mark.parametrize("kind", [["vortex"], None, b"vortex", 2, ("vortex",)],
                         ids=["list", "none", "bytes", "int", "tuple"])
def test_a_kind_that_is_not_a_name_is_an_unknown_encoding(kind):
    # a list would fail the cache's hash with a bare TypeError
    with pytest.raises(ValueError, match="unknown encoding"):
        enc.receiver(kind)
    with pytest.raises(ValueError, match="unknown encoding"):
        experiment.prepare_state(experiment.NoiseModel(0.9), kind)


def test_receiver_for_maps_state_dimension_to_encoding():
    assert enc.receiver_for(4) is enc.receiver("polarization")
    assert enc.receiver_for(20) is enc.receiver("vortex")
    for dim in (2, 8, 4 * len(WIDE_SPACE)):
        with pytest.raises(ValueError):
            enc.receiver_for(dim)
    with pytest.raises(ValueError, match="vortex receiver expects a 20x20 state"):
        enc.receiver("vortex").detected_state(enc.singlet_pol().density(), 0.0)


@pytest.mark.parametrize("kind", enc.RECEIVER_KINDS)
def test_each_kind_builds_its_own_receiver(kind):
    # one table row per kind: the receiver it builds carries that kind, and
    # its state dimension maps back to it
    rx = enc.receiver(kind)
    assert rx.kind == kind
    assert enc.receiver_for(2 * rx.encoder.shape[0]) is rx
