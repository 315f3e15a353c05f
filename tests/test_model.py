from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit._num import bisect_solve
from bvkit.errors import (
    InfiniteSegmentationError,
    OutOfDomainError,
    PreconditionError,
    SpecFormatError,
)
from bvkit.intervals import IntervalSet
from bvkit.model import (
    CONSTANT,
    DECREASING,
    INCREASING,
    FunctionModel,
    LinearPiece,
    PolynomialPiece,
    XSinPiece,
    build_cantor_iterate,
    build_zigzag,
    piecewise_linear,
)
from bvkit.specio import model_from_dict, model_to_dict

F = Fraction


class TestEvaluate:
    def test_identity_midpoint(self, identity):
        assert identity.evaluate(F(1, 2)) == F(1, 2)

    def test_cantor1_middle_third(self):
        # the level-1 iterate holds its midpoint value across [1/3, 2/3]
        c1 = build_cantor_iterate(1)
        assert c1.evaluate(F(1, 2)) == F(1, 2)
        assert c1.evaluate(F(1, 3)) == F(1, 2)
        assert c1.evaluate(F(3, 5)) == F(1, 2)

    def test_zigzag_interpolation(self, zigzag):
        # slope -4 on [1/4, 1/2]: 1 - 4*(3/8 - 1/4) = 1/2
        assert zigzag.evaluate(F(3, 8)) == F(1, 2)

    def test_out_of_domain(self, identity):
        with pytest.raises(OutOfDomainError):
            identity.evaluate(2)

    def test_cantor_piece_matches_expansion(self):
        c3 = build_cantor_iterate(3)
        from bvkit.model import CantorPiece
        piece = CantorPiece(F(0), F(1), 3)
        for num in range(0, 28):
            x = F(num, 27)
            assert piece.value(x) == c3.evaluate(x)

    def test_float_model_coerces_rational_points(self, square01):
        assert square01.evaluate(F(1, 2)) == 0.25
        assert isinstance(square01.evaluate(F(1, 2)), float)


def _float_cantor(level):
    # the float override keeps the expansion's Fraction knots
    return model_from_dict({"arithmetic": "float", "pieces": [
        {"kind": "cantor_iterate", "domain": ["0", "1"], "params": {"level": level}}]})


def _assert_sweep_matches(model, xs):
    got = model.evaluate_many(xs)
    want = [model.evaluate(x) for x in xs]
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


class TestEvaluateMany:
    """The sorted sweep picks the same piece as the bisection, so its
    values are ``==`` to pointwise evaluation."""

    def test_knots_ends_and_repeats(self, zigzag, cantor2, square_sym, cubic, xsin):
        # the jump at 1 tells the two pieces meeting at a knot apart
        jump = FunctionModel([LinearPiece(0, 1, 1, 0), LinearPiece(1, 2, 1, 5)])
        for model in (zigzag, cantor2, build_cantor_iterate(5), square_sym,
                      cubic, xsin, _float_cantor(3), _float_cantor(6), jump):
            knots = model.knots()
            xs = sorted(knots + knots[::3] + model.verification_grid(97)
                        + [model.a, model.a, model.b, model.b])
            _assert_sweep_matches(model, xs)

    def test_float_cantor_between_rounded_knots(self):
        # float(1/3) < 1/3 and float(2/3) > 2/3: a knot and its float
        # rounding straddle a piece start
        model = _float_cantor(4)
        xs = []
        for k in model.knots():
            xs += [k, float(k), k]
        _assert_sweep_matches(model, sorted(xs))

    def test_rational_model_fed_float_points(self, zigzag):
        c4 = build_cantor_iterate(4)
        for model in (zigzag, c4):
            xs = [i / 81 for i in range(82)] + [1 / 3, 2 / 3, 0.25, 0.75]
            _assert_sweep_matches(model, sorted(xs))
            assert all(isinstance(v, Fraction) for v in model.evaluate_many(sorted(xs)))

    @given(st.lists(st.integers(0, 3 ** 5), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_random_sorted_points(self, nums):
        xs = sorted(F(n, 3 ** 5) for n in nums)
        _assert_sweep_matches(build_cantor_iterate(4), xs)
        _assert_sweep_matches(_float_cantor(4), xs)

    def test_empty_input(self, zigzag):
        assert zigzag.evaluate_many([]) == []

    def test_out_of_domain(self, identity):
        with pytest.raises(OutOfDomainError):
            identity.evaluate_many([F(1, 2), 2])
        with pytest.raises(OutOfDomainError):
            identity.evaluate_many([F(-1, 2), 0])

    def test_unsorted_refused(self, zigzag):
        with pytest.raises(PreconditionError, match="non-decreasing"):
            zigzag.evaluate_many([F(1, 2), F(1, 4)])

    def test_nan_is_out_of_domain(self, square01, zigzag):
        # every comparison with NaN is false, so neither the domain test
        # nor the order test may be written as one that NaN fails to trip
        nan = float("nan")
        with pytest.raises(OutOfDomainError):
            square01.evaluate(nan)
        with pytest.raises(OutOfDomainError):
            square01.evaluate_many([0.1, nan, 0.05])
        with pytest.raises(OutOfDomainError):
            zigzag.evaluate(nan)
        with pytest.raises(OutOfDomainError):
            zigzag.evaluate_many([F(1, 4), nan])


class TestBisectSolve:
    def test_converges_on_a_monotone_bracket(self):
        root = bisect_solve(lambda x: x * x, 2, 0, 2)
        assert abs(root - 2 ** 0.5) <= 1e-12

    def test_iteration_cap_raises(self):
        # three halvings of [0, 2] cannot reach a 1e-12 bracket
        with pytest.raises(PreconditionError, match=r"\[0, 2\].*3 iterations"):
            bisect_solve(lambda x: x * x, 2, 0, 2, max_iter=3)


class TestValidation:
    def test_gap_rejected(self):
        with pytest.raises(SpecFormatError):
            FunctionModel([LinearPiece(0, 1, 1, 0), LinearPiece(2, 3, 1, 0)])

    def test_rational_mode_rejects_polynomials(self):
        with pytest.raises(SpecFormatError):
            FunctionModel([PolynomialPiece(0, 1, [0, 0, 1])], arithmetic="rational")

    def test_discontinuous_flagged(self):
        model = FunctionModel([LinearPiece(0, 1, 1, 0), LinearPiece(1, 2, 1, 5)])
        assert not model.continuity_flag

    def test_junction_within_tol_is_continuous(self):
        model = FunctionModel(
            [PolynomialPiece(0.0, 1.0, [0, 1]),
             PolynomialPiece(1.0, 2.0, [1e-13, 1])], tol=1e-12)
        assert model.continuity_flag


class TestSegmentation:
    def test_identity_single_segment(self, identity):
        segs = identity.monotone_segments()
        assert len(segs) == 1
        assert segs.segments[0].direction == INCREASING

    def test_zigzag_four_alternating(self, zigzag):
        segs = list(zigzag.monotone_segments())
        assert len(segs) == 4
        assert [s.direction for s in segs] == [INCREASING, DECREASING] * 2
        assert all(s.hi - s.lo == F(1, 4) for s in segs)

    def test_cantor2_seven_segments(self, cantor2):
        segs = list(cantor2.monotone_segments())
        assert len(segs) == 7
        assert sum(s.direction == INCREASING for s in segs) == 4
        assert sum(s.direction == CONSTANT for s in segs) == 3

    def test_cantor3_rising_lengths(self):
        segs = list(build_cantor_iterate(3).monotone_segments())
        rising = [s for s in segs if s.direction == INCREASING]
        assert len(rising) == 8
        assert all(s.hi - s.lo == F(1, 27) for s in rising)

    def test_square_two_segments(self, square_sym):
        segs = list(square_sym.monotone_segments())
        assert [s.direction for s in segs] == [DECREASING, INCREASING]
        assert segs[0].hi == 0.0

    def test_cubic_single_increasing(self, cubic):
        # derivative root at 0 has no sign change, so no split survives
        segs = list(cubic.monotone_segments())
        assert [s.direction for s in segs] == [INCREASING]

    def test_xsin_criticals_match_tangent_equation(self, xsin):
        # stationary points of x*sin(1/x) solve tan(1/x) = 1/x
        import math
        segs = xsin.monotone_segments()
        interior = segs.knots()[1:-1]
        assert len(interior) >= 2
        for r in interior:
            t = 1.0 / r
            assert abs(math.sin(t) - t * math.cos(t)) < 1e-9

    def test_untruncated_oscillation_refused(self):
        model = FunctionModel([XSinPiece(0.0, 1.0, 1)])
        with pytest.raises(InfiniteSegmentationError) as err:
            model.monotone_segments()
        assert err.value.hint is not None

    def test_alternation_is_maximal(self, zigzag, cantor2):
        for model in (zigzag, cantor2):
            segs = list(model.monotone_segments())
            for a, b in zip(segs, segs[1:]):
                assert a.direction != b.direction


class TestBuilders:
    def test_cantor0_is_identity(self):
        c0 = build_cantor_iterate(0)
        assert len(c0.pieces) == 1
        for num in range(5):
            assert c0.evaluate(F(num, 4)) == F(num, 4)

    def test_cantor1_pieces(self):
        c1 = build_cantor_iterate(1)
        kinds = [(p.kind, p.lo, p.hi) for p in c1.pieces]
        assert kinds == [("linear", F(0), F(1, 3)),
                         ("constant", F(1, 3), F(2, 3)),
                         ("linear", F(2, 3), F(1))]
        assert c1.pieces[0].slope == F(3, 2)

    def test_cantor_envelope(self):
        for k in (1, 2, 5):
            ck = build_cantor_iterate(k)
            assert ck.evaluate(0) == 0
            assert ck.evaluate(1) == 1
            rising = [s for s in ck.monotone_segments()
                      if s.direction == INCREASING]
            assert len(rising) == 2 ** k
            assert all(s.hi - s.lo == F(3) ** -k for s in rising)

    def test_cantor_subrange_piece_in_a_model(self):
        # a Cantor-iterate piece may cover only part of [0, 1]; the rest of
        # the model continues linearly from its boundary value
        from bvkit.model import CantorPiece, LinearPiece
        model = FunctionModel(
            [CantorPiece(F(0), F(2, 3), 2),
             LinearPiece(F(2, 3), F(1), F(3, 4), F(0))],
            arithmetic="rational")
        assert model.continuity_flag  # c_2(2/3) = 1/2 meets 3x/4 there
        assert model.evaluate(F(1, 2)) == F(1, 2)
        assert model.evaluate(F(5, 6)) == F(5, 8)
        from bvkit.variation import total_variation
        assert total_variation(model).lower == F(3, 4)

    def test_sin_reciprocal_exponent_zero(self):
        # exponent 0 is plain sin(1/x); criticals sit where cos(1/x) = 0
        import math
        model = FunctionModel([XSinPiece(0.2, 1.0, 0)])
        interior = model.monotone_segments().knots()[1:-1]
        # 1/x sweeps [1, 5], catching pi/2 and 3*pi/2
        assert len(interior) == 2
        assert abs(1.0 / interior[0] - 3 * math.pi / 2) < 1e-9
        assert abs(1.0 / interior[1] - math.pi / 2) < 1e-9
        with pytest.raises(SpecFormatError):
            XSinPiece(0.0, 1.0, 0)

    def test_piecewise_linear_rejects_bad_knots(self):
        with pytest.raises(SpecFormatError):
            piecewise_linear([(0, 0), (0, 1)])


class TestShift:
    def test_identity_becomes_double(self, identity):
        g = identity.shift_add_identity()
        assert g.evaluate(F(1, 3)) == F(2, 3)

    def test_cantor1_plateau_tilts(self):
        g = build_cantor_iterate(1).shift_add_identity()
        assert g.evaluate(F(1, 3)) == F(5, 6)
        assert g.is_nondecreasing()

    def test_constant_becomes_identity(self):
        flat = piecewise_linear([(0, 0), (1, 0)])
        g = flat.shift_add_identity()
        for num in range(5):
            assert g.evaluate(F(num, 4)) == F(num, 4)

    def test_additive_on_grid(self, zigzag):
        g = zigzag.shift_add_identity()
        for x in zigzag.verification_grid(64):
            assert g.evaluate(x) - zigzag.evaluate(x) == x


class TestPreimage:
    def test_identity_plain(self, identity):
        got = identity.preimage(F(1, 4), F(1, 2))
        assert got == IntervalSet.open(F(1, 4), F(1, 2))

    def test_zigzag_two_humps(self, zigzag):
        # above 1/2 the sawtooth lives on two symmetric humps; a target
        # reaching past the peak value keeps each hump in one piece
        got = zigzag.preimage(F(1, 2), F(2))
        assert [(c.lo, c.hi) for c in got] == [(F(1, 8), F(3, 8)),
                                               (F(5, 8), F(7, 8))]

    def test_zigzag_open_target_splits_at_peaks(self, zigzag):
        # the peaks map to 1, which an open (1/2, 1) excludes
        got = zigzag.preimage(F(1, 2), F(1))
        assert len(got) == 4
        assert not got.contains(F(1, 4))
        assert not got.contains(F(3, 4))

    def test_square_two_sided(self, square_sym):
        got = square_sym.preimage(0.25, 1.0)
        assert len(got) == 2
        (a, b), (c, d) = [(iv.lo, iv.hi) for iv in got]
        assert abs(a - (-1)) < 1e-9 and abs(b - (-0.5)) < 1e-9
        assert abs(c - 0.5) < 1e-9 and abs(d - 1.0) < 1e-9

    def test_float_knot_rounding_snaps_to_segment_end(self):
        # the rising piece rounds the peak at 7/78 an ulp below the value
        # evaluate reports there (taken from the falling piece)
        exact = piecewise_linear([(F(6, 78), 0), (F(7, 78), F(1, 78)),
                                  (F(11, 78), 0)])
        twin = model_from_dict(dict(model_to_dict(exact), arithmetic="float"))
        peak = float(F(7, 78))
        got = twin.preimage(0.0, twin.evaluate(peak))
        assert [(c.lo, c.hi) for c in got] == [
            (float(F(6, 78)), peak), (peak, float(F(11, 78)))]
        assert not got.contains(peak)

    def test_float_target_in_a_junction_gap_inside_a_segment(self):
        # the two rising pieces of the last segment round the knot 28/3
        # apart (-3.5 from the left, -3.4999999999999996 from the right),
        # so a target between them lies in neither piece's value range;
        # the continuous model attains it at the junction
        exact = piecewise_linear([
            (1, 0), (F(4, 3), 0), (F(5, 3), 0), (2, 0), (F(7, 3), 0),
            (F(8, 3), 0), (3, 0), (4, 0), (F(16, 3), F(-3, 2)), (F(20, 3), -3),
            (8, F(-9, 2)), (F(28, 3), F(-7, 2)), (F(31, 3), -3)])
        twin = model_from_dict(dict(model_to_dict(exact), arithmetic="float"))
        knot = float(F(28, 3))
        rising = twin.monotone_segments().segments[-1]
        assert twin._solve_in_segment(rising, -3.4999999999999996) == knot
        got = twin.preimage(-4, -3.4999999999999996)
        assert [(c.lo, c.hi, c.lo_open, c.hi_open) for c in got] == [
            (float(F(64, 9)), float(F(68, 9)), True, True),
            (float(F(26, 3)), knot, True, True)]
        want = exact.preimage(-4, F(-3.4999999999999996))
        for g, w in zip(got, want):
            assert abs(g.lo - w.lo) < 1e-12 and abs(g.hi - w.hi) < 1e-12

    def test_unattained_value_is_a_precondition_error(self, zigzag):
        rising = zigzag.monotone_segments().segments[0]
        with pytest.raises(PreconditionError):
            zigzag._solve_in_segment(rising, 2)
        twin = model_from_dict(dict(model_to_dict(zigzag), arithmetic="float"))
        with pytest.raises(PreconditionError):
            twin._solve_in_segment(twin.monotone_segments().segments[0], 1.5)

    def test_empty_preimage_is_empty_set(self, zigzag):
        assert zigzag.preimage(5, 6).is_empty

    @given(st.integers(0, 256), st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_membership(self, lo_num, x_num):
        # round trip: grid points inside any component map into (c, d)
        zz = build_zigzag()
        c = F(lo_num, 256)
        d = c + F(1, 3)
        pre = zz.preimage(c, d)
        x = F(x_num, 255)
        if pre.contains(x):
            assert c < zz.evaluate(x) < d
        else:
            v = zz.evaluate(x)
            assert not (c < v < d)


class TestReflect:
    def test_reflect_pointwise(self, zigzag, cantor2, square_sym, xsin):
        for model in (zigzag, cantor2, square_sym, xsin):
            r = model.reflect()
            csum = model.a + model.b
            for x in model.verification_grid(37):
                want = model.evaluate(x)
                got = r.evaluate(csum - x)
                if model.exact:
                    assert got == want
                else:
                    assert abs(got - want) <= 1e-9

    def test_double_reflect_identity(self, xsin):
        rr = xsin.reflect().reflect()
        for x in (0.1, 0.3, 0.77, 1.0):
            assert abs(rr.evaluate(x) - xsin.evaluate(x)) <= 1e-12


class TestVerificationGrid:
    def test_contains_knots_and_span(self, zigzag):
        grid = zigzag.verification_grid(64)
        for k in zigzag.knots():
            assert k in grid
        assert grid[0] == 0 and grid[-1] == 1
        assert all(a < b for a, b in zip(grid, grid[1:]))
