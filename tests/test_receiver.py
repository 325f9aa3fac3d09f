"""Receiver and Born-table properties against an independent trace oracle.

The oracle builds every table entry as its own trace Tr[rho (P_a (x) E_b)]
over the full joint space: Alice's polarization projector, Bob's analyzer
element taken from `bob_analyzer` / `bob_analyzer_passed` at zero
orientation, and the receiver rotation written out here from the phase
conventions in `encoding`, independent of `Receiver.rotation`.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from vortexsteer import encoding as enc
from vortexsteer import steering
from vortexsteer.qmath import BlochVector, DensityMatrix

SPACE = enc.DEFAULT_SPACE
WIDE_SPACE = enc.OamSpace(-5, 4)
# joint dimensions 4, 20 and 40
RECEIVERS = [("polarization", SPACE), ("vortex", SPACE), ("vortex", WIDE_SPACE)]
SEEDS = hs.integers(0, 2 ** 32 - 1)
N_SETTINGS = hs.sampled_from([2, 3, 4, 6])


def random_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Random density matrix of random rank (rank 1 is a pure state)."""
    rank = int(rng.integers(1, dim + 1))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def explicit_rotation(kind: str, theta: float, space: enc.OamSpace) -> np.ndarray:
    if kind == "polarization":
        return np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * enc.POL_Z
    l_vals = space.l_values()
    phases = np.concatenate([np.exp(-1j * (1 + l_vals) * theta),
                             np.exp(-1j * (-1 + l_vals) * theta)])
    basis = np.kron(enc.CIRC_TO_HV, np.eye(space.n_levels))
    return basis @ np.diag(phases) @ basis.conj().T


@lru_cache(maxsize=None)
def unrotated_bob_elements(u: BlochVector, kind: str, space: enc.OamSpace):
    """Bob's (+1, -1, null) elements at zero orientation."""
    if kind == "polarization":
        plus, minus = (enc.pol_projector(u, b) for b in (+1, -1))
        passed = np.eye(2)
    else:
        plus, minus = (enc.bob_analyzer(u, 0.0, b, space).entries for b in (+1, -1))
        passed = enc.bob_analyzer_passed(0.0, space).entries
    return plus, minus, np.eye(len(passed)) - passed


def oracle_table(rho: DensityMatrix, mset, kind: str, thetas,
                 space: enc.OamSpace) -> np.ndarray:
    """p[k, alice, bob] from 6n separate traces; one angle per setting."""
    probs = np.zeros((mset.n, 2, 3))
    for k, (u, theta) in enumerate(zip(mset.directions, thetas)):
        r = explicit_rotation(kind, theta, space)
        for ia, a in enumerate((+1, -1)):
            pa = enc.pol_projector(u, a)
            for ib, e in enumerate(unrotated_bob_elements(u, kind, space)):
                val = np.trace(rho.entries @ np.kron(pa, r @ e @ r.conj().T))
                probs[k, ia, ib] = max(0.0, float(val.real))
    return probs


@settings(max_examples=40, deadline=None)
@given(receiver=hs.sampled_from(RECEIVERS), n=N_SETTINGS, seed=SEEDS,
       per_setting=hs.booleans())
def test_born_table_matches_trace_oracle(receiver, n, seed, per_setting):
    kind, space = receiver
    rx = enc.receiver(kind, space)
    rng = np.random.default_rng(seed)
    rho = random_state(rng, 2 * space.dim if kind == "vortex" else 4)
    mset = steering.platonic_set(n)
    theta = rng.uniform(0, 2 * np.pi, size=n if per_setting else None)
    table = steering.born_table(rho, mset, rx.detected_state(rho, theta))
    expected = oracle_table(rho, mset, kind, np.broadcast_to(theta, (n,)), space)
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


@settings(max_examples=8, deadline=None)
@given(receiver=hs.sampled_from(RECEIVERS), n=N_SETTINGS, seed=SEEDS)
def test_span_average_matches_quadrature(receiver, n, seed):
    kind, space = receiver
    rx = enc.receiver(kind, space)
    rng = np.random.default_rng(seed)
    rho = random_state(rng, 2 * space.dim if kind == "vortex" else 4)
    mset = steering.platonic_set(n)
    lo, hi = np.sort(rng.uniform(-2 * np.pi, 2 * np.pi, size=2))
    nodes, weights = np.polynomial.legendre.leggauss(256)
    expected = sum(w / 2 * oracle_table(rho, mset, kind, [t] * n, space)
                   for t, w in zip((hi - lo) / 2 * nodes + (hi + lo) / 2, weights))
    table = steering.born_table(rho, mset, rx.detected_state(rho, lo, hi - lo))
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, theta=hs.floats(-50, 50), span=hs.floats(0, 10))
def test_encoded_two_qubit_state_is_rotation_invariant(seed, theta, span):
    rx = enc.receiver("vortex")
    rho4 = random_state(np.random.default_rng(seed), 4)
    w = np.kron(np.eye(2), rx.encoder)
    encoded = DensityMatrix(w @ rho4.entries @ w.conj().T)
    for got in (rx.detected_state(encoded, theta),
                rx.detected_state(encoded, theta, span)):
        np.testing.assert_allclose(got, rho4.entries, rtol=0, atol=1e-12)


@pytest.mark.parametrize("space", [SPACE, WIDE_SPACE])
def test_rotation_operator_matches_phase_convention(space):
    for theta in np.linspace(-3, 7, 11):
        assert np.allclose(enc.rotation_operator(theta, space).entries,
                           explicit_rotation("vortex", theta, space), atol=1e-13)


def test_oracle_analyzer_rotation_matches_bob_analyzer():
    u = BlochVector.unit([0.3, -1.2, 0.4])
    for theta in (0.0, 0.7, 2.9):
        r = explicit_rotation("vortex", theta, SPACE)
        plus, _, null = unrotated_bob_elements(u, "vortex", SPACE)
        assert np.allclose(enc.bob_analyzer(u, theta, +1).entries,
                           r @ plus @ r.conj().T, atol=1e-13)
        assert np.allclose(np.eye(SPACE.dim) - enc.bob_analyzer_passed(theta).entries,
                           r @ null @ r.conj().T, atol=1e-13)


def test_unknown_encoding_rejected():
    with pytest.raises(ValueError):
        enc.receiver("time-bin")
