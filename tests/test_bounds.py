from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

import bound_oracles as bo
from vortexsteer import bounds as bd
from vortexsteer import experiment as ex
from vortexsteer import steering as st

M3 = st.platonic_set(3)
M4 = st.platonic_set(4)


class TestStrategyPayoff:
    def test_single_aligned_answer(self):
        s = bd.CheatStrategy([0, 0, 1], (1, 0, 0))
        payoff, answered = bo.strategy_payoff(s, M3)
        assert payoff == pytest.approx(1.0)
        assert answered == 1

    def test_diagonal_state_all_answered(self):
        s = bd.CheatStrategy(np.ones(3) / np.sqrt(3), (1, 1, 1))
        payoff, answered = bo.strategy_payoff(s, M3)
        assert payoff == pytest.approx(np.sqrt(3))
        assert answered == 3

    def test_all_null_rejected(self):
        with pytest.raises(ValueError):
            bd.CheatStrategy([0, 0, 1], (0, 0, 0))
        # int() would run 1.5 and "1" as 1, 0.9 as 0 and True as 1
        for answers in [(2, 0, 0), (1.5, 0, 0), (0.9, 1, 0), (1.0, 0, 0),
                        (np.float64(-1), 0, 0), ("1", 0, 0), (True, 0, 0),
                        (np.True_, 0, 0), (None, 1, 0)]:
            with pytest.raises(ValueError, match=r"answers must be \+1, -1 or 0 \(null\)"):
                bd.CheatStrategy(np.array([0, 0, 1.]), answers)
        answers = bd.CheatStrategy([0, 0, 1], tuple(np.array([1, 0, -1]))).answers
        assert answers == (1, 0, -1) and all(type(a) is int for a in answers)


class TestDeterministicBound:
    def test_two_orthogonal_axes(self):
        assert bd.deterministic_bound(st.platonic_set(2)) == pytest.approx(
            1 / np.sqrt(2), abs=1e-12)

    def test_three_pauli_axes(self):
        assert bd.deterministic_bound(M3) == pytest.approx(1 / np.sqrt(3),
                                                           abs=1e-12)

    def test_tetrahedron_against_dense_grid(self):
        # independent oracle: exhaustive sign patterns x dense sphere grid
        analytic = bd.deterministic_bound(M4)
        grid_value = bo.bound_oracle(M4, xi=1.0, sphere_resolution=1e-2)
        assert analytic >= grid_value - 1e-12
        assert analytic == pytest.approx(grid_value, abs=1e-4)


class TestLossTolerantBound:
    def test_xi_one_matches_deterministic(self):
        for mset in (st.platonic_set(2), M3, M4, st.platonic_set(6)):
            c, _ = bd.loss_tolerant_bound(mset, 1.0)
            assert c == pytest.approx(bd.deterministic_bound(mset), abs=1e-9)

    def test_answer_one_setting_perfectly(self):
        c, witness = bd.loss_tolerant_bound(M3, 1 / 3)
        assert c == pytest.approx(1.0, abs=1e-9)
        assert len(witness) <= 2

    def test_oracle_agreement_n3(self):
        c, _ = bd.loss_tolerant_bound(M3, 2 / 3)
        assert c == pytest.approx(bo.bound_oracle(M3, 2 / 3), abs=1e-6)

    @pytest.mark.parametrize("mset", [M3, M4], ids=["n3", "n4"])
    @pytest.mark.parametrize("xi", [0.4, 0.5, 0.7, 1.0])
    def test_lp_within_oracle_band(self, mset, xi):
        lp, _ = bd.loss_tolerant_bound(mset, xi)
        oracle = bo.bound_oracle(mset, xi)
        assert lp >= oracle - 1e-4
        assert lp <= oracle + 1e-3

    def test_invalid_xi(self):
        for xi in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                bd.loss_tolerant_bound(M3, xi)

    def test_witness_support_at_most_two(self):
        for xi in np.linspace(0.35, 1.0, 14):
            _, witness = bd.loss_tolerant_bound(M3, float(xi))
            assert 1 <= len(witness) <= 2
            assert sum(w for w, _ in witness) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("xi, value", [(np.float32(0.45), 0.848129453591574),
                                           (np.float64(0.45), 0.8481294420967284)],
                             ids=["float32", "float64"])
    def test_numpy_scalar_xi_is_read_as_a_python_float(self, xi, value):
        # float32 arithmetic gave float32(0.84812945) at n = 3
        c, witness = bd.loss_tolerant_bound(M3, xi)
        assert type(c) is float
        assert all(type(w) is float for w, _ in witness)
        assert c == bd.bound_curve(M3, [xi]).c_values[0] == value
        assert c == bd.loss_tolerant_bound(M3, float(xi))[0]

    def test_per_setting_floor_is_no_easier_for_the_cheater(self):
        for xi in (0.45, 0.6, 0.8):
            avg, _ = bd.loss_tolerant_bound(M3, xi)
            strict, _ = bo.lp_bound(M3, xi, per_setting=True)
            assert strict <= avg + 1e-9


class TestOracle:
    def test_monotone_in_xi(self):
        assert bo.bound_oracle(M3, 0.5) >= bo.bound_oracle(M3, 0.9) - 1e-12

    def test_floor_value(self):
        assert bo.bound_oracle(M3, 1 / 3) == pytest.approx(1.0, abs=1e-4)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            bo.bound_oracle(M3, 0.5, sphere_resolution=0.5)


class TestBoundCurve:
    def test_n3_endpoints_and_monotonicity(self):
        grid = np.linspace(1 / 3 + 1e-9, 1.0, 30)
        curve = bd.bound_curve(M3, grid)
        assert curve.c_values[0] == pytest.approx(1.0, abs=1e-6)
        assert curve.c_values[-1] == pytest.approx(1 / np.sqrt(3), abs=1e-9)
        assert all(b <= a + 1e-9 for a, b in zip(curve.c_values,
                                                 curve.c_values[1:]))

    def test_n4_versus_n3_relationship(self):
        # n=4 lies at-or-below n=3 at low and high transmission, but NOT in a
        # mid-transmission window: tetrahedral two-setting subsets give the
        # cheater payoff |u_i - u_j|/2 = 0.8165 per answered setting versus
        # 0.7071 for orthogonal axes.  The crossing is confirmed by the
        # independent brute-force oracle, so it is a property of the bound,
        # not an artifact of the LP.
        for xi in (0.42, 0.45, 0.65, 0.8, 1.0):
            c3, _ = bd.loss_tolerant_bound(M3, xi)
            c4, _ = bd.loss_tolerant_bound(M4, xi)
            assert c4 <= c3 + 1e-9
        xi = 0.512
        c3, _ = bd.loss_tolerant_bound(M3, xi)
        c4, _ = bd.loss_tolerant_bound(M4, xi)
        assert c4 > c3
        assert bo.bound_oracle(M4, xi) > bo.bound_oracle(M3, xi)

    @pytest.mark.parametrize("grid, message", [
        ([2.0, "x"], "grid value must be a real number"),   # before the range
        ([0.5, True], "grid value must be a real number"),
        ([0.5, 0.4, 2.0], r"grid values must lie in \(0, 1\]"),  # before order
        ([0.0, 0.5], r"grid values must lie in \(0, 1\]"),
        ([0.5, float("nan")], r"grid values must lie in \(0, 1\]"),
        ([0.5, 0.4], "strictly increasing"),
        ([0.5, 0.5], "strictly increasing"),
    ])
    def test_grid_validation(self, grid, message):
        # errors in order of precedence: real numbers, then range, then order
        with pytest.raises(ValueError, match=message):
            bd.bound_curve(M3, grid)
        # the set is checked after the range and before the order
        if message == "strictly increasing":
            message = "^mset must be a MeasurementSet, got None$"
        with pytest.raises(ValueError, match=message):
            bd.BoundCurve(None, grid)

    @pytest.mark.parametrize("mset", [None, M3.directions, M3.directions.tolist()],
                             ids=["none", "array", "rows"])
    def test_set_must_be_a_measurement_set(self, mset):
        for build in (bd.BoundCurve, bd.bound_curve):
            with pytest.raises(ValueError, match="^mset must be a MeasurementSet, got "):
                build(mset, [0.5])

    def test_curve_is_built_only_from_a_set_and_a_grid(self):
        with pytest.raises(TypeError):
            bd.BoundCurve(n=3, xi_grid=(), c_values=(), witnesses=())
        with pytest.raises(TypeError):
            bd.BoundCurve(M3, (), (), ())

    @pytest.mark.parametrize("rise, raises", [(3e-9, False), (4e-9, True)])
    def test_self_check_rejects_a_rising_curve(self, monkeypatch, rise, raises):
        # C_3 is flat for xi <= 1/3; a mix that adds `rise` times the floor
        # n xi = 0.3, 0.6, 0.9 makes the curve rise by 0.3 rise a step, and
        # the check allows a rise of up to 1e-9
        mix = bd._mix
        monkeypatch.setattr(bd, "_mix", lambda facet, floor: (
            mix(facet, floor)[0] + rise * floor, mix(facet, floor)[1]))
        grid = [0.1, 0.2, 0.3]
        if not raises:
            assert len(set(bd.bound_curve(M3, grid).c_values)) == 3
            return
        with pytest.raises(RuntimeError, match="^bound curve is not non-increasing$"):
            bd.bound_curve(M3, grid)

    def test_array_and_one_shot_grids_give_the_list_curve(self):
        grid = [0.2, 1 / 3, 0.5, 2 / 3, 0.9, 1.0]
        want = bd.bound_curve(M4, grid)
        empty = bd.BoundCurve(M4, ())
        assert bd.bound_curve(M4, []) == empty
        assert (empty.n, empty.xi_grid, empty.c_values, empty.witnesses) == (4, (), (), ())
        for other in (np.array(grid), (x for x in grid)):
            got = bd.bound_curve(M4, other)
            assert got == want
            assert all(type(x) is float for x in got.xi_grid)


SEEDS = hs.integers(0, 2 ** 32 - 1)
XI = hs.floats(1e-3, 1.0)


def random_set(n: int, seed: int) -> st.MeasurementSet:
    vecs = np.random.default_rng(seed).normal(size=(n, 3))
    try:
        return st.MeasurementSet(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))
    except ValueError:   # a (near-)parallel pair
        assume(False)


def grid_points(n: int):
    """xi values for curve grids: drawn ones, the kinks k/n and one ulp to
    either side, floors n xi within SUPPORT_TOL of an integer a (so of every
    hull vertex, where the witness keeps one strategy), and xi = 1."""
    kink = hs.tuples(hs.integers(1, n), hs.sampled_from([-1.0, 0.0, 1.0])).map(
        lambda ks: float(np.nextafter(ks[0] / n, ks[0] / n + ks[1])))
    near_vertex = hs.tuples(hs.integers(1, n),
                            hs.floats(-bd.SUPPORT_TOL, bd.SUPPORT_TOL)).map(
        lambda ad: (ad[0] + ad[1]) / n)
    return hs.one_of(XI, kink, near_vertex, hs.just(1.0))


class TestCurveWalk:
    @settings(max_examples=150, deadline=None)
    @given(n=hs.integers(2, 7), seed=SEEDS, platonic=hs.booleans(),
           one_point=hs.booleans(), data=hs.data())
    def test_curve_is_the_pointwise_bound_bit_for_bit(self, n, seed, platonic,
                                                      one_point, data):
        mset = st.platonic_set(n) if platonic and n in (2, 3, 4, 6) else random_set(n, seed)
        points = data.draw(hs.lists(grid_points(n), min_size=1, max_size=40))
        grid = sorted({x for x in points if 0.0 < x <= 1.0})
        assume(grid)
        grid = grid[-1:] if one_point else grid
        curve = bd.bound_curve(mset, grid)
        direct = bd.BoundCurve(mset, grid)
        assert len(curve.c_values) == len(direct.c_values) == len(grid)
        for xi, *got in zip(curve.xi_grid, curve.c_values, curve.witnesses,
                            direct.c_values, direct.witnesses):
            c_ref, witness_ref = bd.loss_tolerant_bound(mset, xi)
            for c, witness in (got[:2], got[2:]):
                assert c.hex() == c_ref.hex()
                assert len(witness) == len(witness_ref)
                for (w, s), (w_ref, s_ref) in zip(witness, witness_ref):
                    assert w.hex() == w_ref.hex()
                    assert s is s_ref


class TestFrozenMix:
    """Every bound output, against the arithmetic the facet records replaced:
    the pointwise curve test above cannot see a change all callers share."""

    @settings(max_examples=150, deadline=None)
    @given(n=hs.integers(2, 7), seed=SEEDS, platonic=hs.booleans(), data=hs.data())
    def test_bound_slope_and_curve_are_the_frozen_mix(self, n, seed, platonic, data):
        mset = st.platonic_set(n) if platonic and n in (2, 3, 4, 6) else random_set(n, seed)
        points = data.draw(hs.lists(grid_points(n), min_size=1, max_size=40))
        grid = sorted({x for x in points if 0.0 < x <= 1.0})
        assume(grid)
        curve = bd.bound_curve(mset, grid)
        direct = bd.BoundCurve(mset, grid)
        assert len(curve.c_values) == len(direct.c_values) == len(grid)
        for xi, c, witness, c_direct, witness_direct in zip(
                grid, curve.c_values, curve.witnesses, direct.c_values, direct.witnesses):
            c_ref, witness_ref, slope_ref = bo.frozen_bound(mset, xi)
            value, slope = bd._bound_and_slope(mset, xi)
            assert (value.hex(), slope.hex()) == (c_ref.hex(), slope_ref.hex())
            for c_got, witness_got in ((c, witness), (c_direct, witness_direct),
                                       bd.loss_tolerant_bound(mset, xi)):
                assert c_got.hex() == c_ref.hex()
                assert len(witness_got) == len(witness_ref)
                for (w, s), (w_ref, s_ref) in zip(witness_got, witness_ref):
                    assert w.hex() == w_ref.hex()
                    assert s is s_ref


class TestFacetLines:
    """Each facet's line P = alpha + beta a gives C_n = beta + alpha/(n xi)
    and C_n' = -alpha/(n xi^2) on it."""

    @settings(max_examples=150, deadline=None)
    @given(n=hs.integers(2, 7), seed=SEEDS, platonic=hs.booleans(), xi=XI)
    def test_line_gives_the_bound_and_its_slope(self, n, seed, platonic, xi):
        mset = st.platonic_set(n) if platonic and n in (2, 3, 4, 6) else random_set(n, seed)
        verts, facets = bd._facets(mset)
        facet = facets[int(np.searchsorted(verts, n * xi))]
        alpha, beta = facet.alpha, facet.beta
        c, slope = bd._bound_and_slope(mset, xi)
        assert c == bd.loss_tolerant_bound(mset, xi)[0]
        assert abs(beta + alpha / (n * xi) - c) <= 4.4e-16
        if n * xi not in verts:     # a kink takes the later facet: the next test
            assert slope == -alpha / (n * xi * xi)
        h = 1e-6 * xi
        if all(abs(n * x - k) > 1e-9 for x in (xi - h, xi + h) for k in verts) \
                and xi + h <= 1.0 and int(np.searchsorted(verts, n * (xi - h))) == \
                int(np.searchsorted(verts, n * (xi + h))):
            central = (bd.loss_tolerant_bound(mset, xi + h)[0]
                       - bd.loss_tolerant_bound(mset, xi - h)[0]) / (2 * h)
            assert slope == pytest.approx(central, rel=1e-7, abs=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_kink_takes_the_steeper_side(self, n):
        mset = st.platonic_set(n)
        verts, facets = bd._facets(mset)
        for j, a in enumerate(verts[:-1]):
            _, slope = bd._bound_and_slope(mset, a / n)
            assert slope == -facets[j + 1].alpha / (a * (a / n))
            assert abs(slope) >= facets[j].alpha / (a * (a / n))
        assert bd._bound_and_slope(mset, 1.0)[1] == -facets[-1].alpha / n
        assert bd._bound_and_slope(mset, 0.5 / n)[1] == 0.0     # the flat part


def witness_value(mset, witness) -> float:
    """Payoff per answered setting of a witness mixture, summed setting by
    setting."""
    payoff = sum(w * bo.strategy_payoff(s, mset)[0] for w, s in witness)
    return payoff / sum(w * bo.strategy_payoff(s, mset)[1] for w, s in witness)


class TestClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("k", range(4, 13))
    def test_exact_just_above_one_setting(self, n, k):
        # within its feasibility tolerance an LP returns exactly 1 here
        mset = st.platonic_set(n)
        xi = 1 / n + 10.0 ** -k
        c, _ = bd.loss_tolerant_bound(mset, xi)
        assert c == pytest.approx(bo.envelope(bo.brute_force_pstar(mset), xi),
                                  rel=0, abs=1e-12)
        assert c < 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_payoff_table_matches_enumeration(self, n):
        # the cached table is the hull's vertices: its chords are the facets
        mset = st.platonic_set(n)
        verts, facets = table = bd._facets(mset)
        assert table is bd._facets(st.platonic_set(n))   # cached
        assert verts[-1] == n
        assert verts == tuple(f.hi for f in facets)
        # each record starts where the one before ends, the first at the origin
        assert (facets[0].lo, facets[0].p_lo, facets[0].s_lo) == (0, 0.0, None)
        for before, f in zip(facets, facets[1:]):
            assert (f.lo, f.p_lo) == (before.hi, before.p_hi) and f.s_lo is before.s_hi
        pstar = bo.brute_force_pstar(mset)
        for f in facets:
            assert f.p_hi == pytest.approx(pstar[f.hi], rel=0, abs=1e-12)
            assert bo.strategy_payoff(f.s_hi, mset) == pytest.approx((f.p_hi, f.hi),
                                                                     abs=1e-12)
        ends = [(0, 0.0)] + [(f.hi, f.p_hi) for f in facets]
        chords = [((p0 * a1 - p1 * a0) / (a1 - a0), (p1 - p0) / (a1 - a0))
                  for (a0, p0), (a1, p1) in zip(ends, ends[1:])]
        lines = [(f.alpha, f.beta) for f in facets]
        np.testing.assert_allclose(chords, bo.hull_facets(pstar), rtol=0, atol=1e-12)
        np.testing.assert_allclose(lines, bo.hull_facets(pstar), rtol=0, atol=1e-12)
        assert lines[0][0] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(n=hs.integers(2, 5), seed=SEEDS, xi=XI)
    def test_matches_average_floor_lp(self, n, seed, xi):
        # the LP's feasibility tolerance makes it inexact just past n xi = k
        assume(min(abs(n * xi - k) for k in range(1, n + 1)) > 1e-6)
        mset = random_set(n, seed)
        c, witness = bd.loss_tolerant_bound(mset, xi)
        lp, _ = bo.lp_bound(mset, xi)
        assert c == pytest.approx(lp, rel=0, abs=1e-9)
        assert 1 <= len(witness) <= 2
        assert witness_value(mset, witness) == pytest.approx(c, rel=0, abs=1e-9)
        answered = sum(w * bo.strategy_payoff(s, mset)[1] for w, s in witness)
        assert answered >= n * xi - 1e-9

    @settings(max_examples=150, deadline=None)
    @given(n=hs.integers(2, 7), seed=SEEDS, platonic=hs.booleans(), xi=XI,
           k=hs.integers(0, 7), step=hs.sampled_from([-1.0, 0.0, 1.0]))
    def test_matches_two_point_envelope(self, n, seed, platonic, xi, k, step):
        # exact at the kinks n xi = k too, so no window around them; k = 0 or
        # k > n keeps the drawn xi, else xi is k/n or one ulp to either side
        mset = st.platonic_set(n) if platonic and n in (2, 3, 4, 6) else random_set(n, seed)
        if 0 < k <= n:
            xi = min(1.0, float(np.nextafter(k / n, k / n + step)))
        c, witness = bd.loss_tolerant_bound(mset, xi)
        assert c == pytest.approx(bo.envelope(bo.brute_force_pstar(mset), xi),
                                  rel=1e-15, abs=0)
        assert 1 <= len(witness) <= 2
        assert witness_value(mset, witness) == pytest.approx(c, rel=0, abs=1e-9)
        answered = sum(w * bo.strategy_payoff(s, mset)[1] for w, s in witness)
        assert answered >= n * xi - n * bd.SUPPORT_TOL

    @pytest.mark.parametrize("n, xis, answered", [(4, (0.6, 0.75, 0.9), (2, 4)),
                                                  (6, (0.7, 5 / 6, 0.95), (4, 6))])
    def test_witness_mixes_the_hull_facet_ends(self, n, xis, answered):
        # the hull of (a, P*(a)) skips a = 3 at n = 4 and a = 5 at n = 6
        mset = st.platonic_set(n)
        for xi in xis:
            _, witness = bd.loss_tolerant_bound(mset, xi)
            assert tuple(bo.strategy_payoff(s, mset)[1] for _, s in witness) == answered

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_hull_facets_are_steering_inequalities(self, n):
        # every deterministic pattern s obeys |sum_k s_k u_k| <= alpha + beta a(s)
        # on every facet, and C_n(xi) = min_j alpha_j / (n xi) + beta_j
        mset = st.platonic_set(n)
        facets = [(f.alpha, f.beta) for f in bd._facets(mset)[1]]
        patterns = np.array(list(product((0, 1, -1), repeat=n)))
        payoffs = np.linalg.norm(patterns @ mset.directions, axis=1)
        answered = np.count_nonzero(patterns, axis=1)
        for alpha, beta in facets:
            assert np.all(payoffs <= alpha + beta * answered + 1e-12)
        for xi in np.linspace(1e-3, 1.0, 2001):
            c, _ = bd.loss_tolerant_bound(mset, float(xi))
            assert c == pytest.approx(min(alpha / (n * xi) + beta for alpha, beta in facets),
                                      rel=0, abs=1e-15)

    @settings(max_examples=10, deadline=None)
    @given(n=hs.integers(2, 4), seed=SEEDS, xi=XI)
    def test_at_least_grid_oracle(self, n, seed, xi):
        mset = random_set(n, seed)
        c, _ = bd.loss_tolerant_bound(mset, xi)
        assert c >= bo.bound_oracle(mset, xi) - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(n=hs.sampled_from([2, 3, 4, 6]), xi=XI)
    def test_per_setting_floor_gives_the_same_value(self, n, xi):
        # every Platonic set's symmetry group is transitive on settings
        assume(min(abs(n * xi - k) for k in range(1, n + 1)) > 1e-6)
        mset = st.platonic_set(n)
        c, _ = bd.loss_tolerant_bound(mset, xi)
        strict, _ = bo.lp_bound(mset, xi, per_setting=True)
        assert c == pytest.approx(strict, rel=0, abs=1e-9)


def test_quantum_separable_state_never_beats_bound():
    # no false violations: white noise at realistic loss stays below C_3
    mset = M3
    channel = ex.ChannelModel(bob_efficiency=0.45)
    state = ex.prepare_state(ex.NoiseModel(0.0), "polarization")
    for seed in range(5):
        r = ex.run_experiment(state, mset, channel, ex.ThetaPolicy.fixed(0.0),
                              trials=200_000, seed=seed)
        assert r.estimate.s_value <= r.bound_at_observed_xi + 3 * r.estimate.std_err
        assert not r.violated


def lhs_table(mset, strategies) -> np.ndarray:
    """Exact (n, 2, 3) run table of a local-hidden-state cheater.  With weight
    w Alice holds the qubit of Bloch vector b and Bob answers setting k with
    B_k = pattern[k] (0 declines).  Bob's raw outcome is -B_k, so B = +1 lands
    in column 1 and B = -1 in column 0."""
    table = np.zeros((mset.n, 2, 3))
    for w, b, pattern in strategies:
        for k, (u, bk) in enumerate(zip(mset.directions, pattern)):
            column = 2 if bk == 0 else (1 + bk) // 2
            table[k, :, column] += w * (1 + np.array([1, -1]) * (u @ b)) / 2
    return table


# weight 0.1 answers setting 1 with b = u_1; weight 0.9 answers settings 2 and
# 3 with b on their bisector
CHEATER = lhs_table(M3, [(0.1, M3.directions[0], (1, 0, 0)),
                         (0.9, (M3.directions[1] + M3.directions[2]) / np.sqrt(2),
                          (0, 1, 1))])


def test_two_strategy_cheater_is_tight_on_the_pooled_ratio():
    # announce rates (0.1, 0.9, 0.9): the mean of ratios S = 0.8047 is above
    # C_3 = 0.7225 at xi = 0.633, which the pooled S' meets exactly
    announced = CHEATER[..., :2].sum(axis=(-2, -1))
    agree = CHEATER[..., 0, 1] + CHEATER[..., 1, 0]
    c3, _ = bd.loss_tolerant_bound(M3, announced.mean())
    assert np.allclose(CHEATER.sum(axis=(-2, -1)), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(announced, (0.1, 0.9, 0.9), rtol=0, atol=1e-15)
    assert np.mean((2 * agree - announced) / announced) == pytest.approx(
        (1 + np.sqrt(2)) / 3, abs=1e-12)
    assert (2 * agree - announced).sum() / announced.sum() == pytest.approx(
        c3, abs=1e-12)
    assert c3 == pytest.approx(0.7225, abs=1e-4)


def violations(mset, table, trials, seeds) -> int:
    """How many seeded runs that sample the exact (n, 2, 3) table are judged
    violated, each drawn and judged as `run_experiment` draws and judges."""
    count = 0
    for seed in seeds:
        draw = ex._thinned(ex.ChannelModel(), trials, seed)
        tally = ex._sample(ex._averaged(table[None]), [draw])[0]
        count += ex.SteeringRunResult(mset, "polarization", ex.ThetaPolicy.fixed(0.0),
                                      trials, *st._totals(tally), seed).violated
    return count


def test_two_strategy_cheater_is_not_judged_violated():
    # the nominal one-sided 2-sigma rate, 2.3%, plus 3 binomial standard
    # errors over 100 seeds: 2.3 + 3 * 1.5 = 6.8, fixed before any run
    assert violations(M3, CHEATER, 100_000, range(100)) <= 7


def mean_of_ratios(table) -> float:
    announced = table[..., :2].sum(axis=(-2, -1))
    agree = table[..., 0, 1] + table[..., 1, 0]
    return float(np.mean((2 * agree - announced) / announced))


# The cheaters that an LP at fixed per-setting rates D_k and a Nelder-Mead
# search over the D_k found against the mean of ratios: (n, D_k, its S).
RATE_CHEATERS = [(3, (0.95, 0.35, 0.05), 0.8991), (3, (0.10, 1, 1), 0.7609),
                 (6, (0.93, 0.93, 0.11, 0.05, 0.40, 0.29), 0.8743),
                 (6, (0.93, 1, 1, 0.98, 0.05, 0.24), 0.7515)]


RATE_IDS = [f"n{n}-xi{np.mean(rates):.2f}" for n, rates, _ in RATE_CHEATERS]


@pytest.mark.parametrize("n, rates, s_mean", RATE_CHEATERS, ids=RATE_IDS)
def test_rate_cheaters_beat_the_mean_of_ratios_not_the_pooled_ratio(n, rates, s_mean):
    mset = st.platonic_set(n)
    table = lhs_table(mset, bo.mean_ratio_cheater(mset, rates))
    estimate = st._exact(table)
    c, _ = bd.loss_tolerant_bound(mset, estimate.announce_fraction)
    assert estimate.announce_fraction == pytest.approx(np.mean(rates), abs=1e-9)
    # the rates are the search's, rounded to two decimals
    assert mean_of_ratios(table) == pytest.approx(s_mean, abs=1e-3)
    assert mean_of_ratios(table) > c + 0.05
    assert estimate.s_value <= c + 1e-12


@pytest.mark.parametrize("n, rates", [(3, None)] + [(n, r) for n, r, _ in RATE_CHEATERS],
                         ids=["two-strategy"] + RATE_IDS)
def test_cheaters_are_seldom_judged_violated(n, rates):
    # Type-I gate, fixed before any run: at most 7 of 100 seeded runs at 1e5
    # trials, the nominal one-sided 2-sigma rate 2.3% plus 3 binomial standard
    # errors (1.5%) over 100 seeds. The old mean-of-ratios verdict called each
    # of these cheaters violated in 1000 of 1000 seeds.
    mset = st.platonic_set(n)
    table = CHEATER if rates is None else lhs_table(mset, bo.mean_ratio_cheater(mset, rates))
    assert violations(mset, table, 100_000, range(1000, 1100)) <= 7


def unit_vectors():
    return hs.tuples(*[hs.floats(-1, 1)] * 3).filter(
        lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.array(v) / np.linalg.norm(v))


@settings(max_examples=500, deadline=None)
@given(n=hs.integers(2, 6), seed=SEEDS, data=hs.data())
def test_pooled_s_of_any_lhs_mixture_is_within_the_bound(n, seed, data):
    # per-setting announce rates come from the patterns' nulls; Bob's state is
    # either a pattern's best one (its resultant) or any
    mset = random_set(n, seed)
    pattern = hs.lists(hs.sampled_from([1, 0, -1]), min_size=n, max_size=n).filter(any)
    strategies = []
    for weight in data.draw(hs.lists(hs.floats(1e-3, 1), min_size=1, max_size=4)):
        answers = data.draw(pattern)
        resultant = np.array(answers) @ mset.directions
        norm = np.linalg.norm(resultant)
        best = data.draw(hs.booleans()) and norm > 1e-9
        strategies.append((weight, resultant / norm if best else data.draw(unit_vectors()),
                           answers))
    total = sum(w for w, _, _ in strategies)
    table = lhs_table(mset, [(w / total, b, p) for w, b, p in strategies])
    estimate = st._exact(table)
    c, _ = bd.loss_tolerant_bound(mset, estimate.announce_fraction)
    assert estimate.s_value <= c + 1e-12
