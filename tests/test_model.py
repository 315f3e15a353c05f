import math
import re
from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bvkit import model as model_module
from bvkit._num import bisect_solve, uniform_grid
from bvkit.corpus import build_oscillation
from bvkit.errors import (
    BVKitError,
    InfiniteSegmentationError,
    OutOfDomainError,
    PreconditionError,
    SpecFormatError,
)
from bvkit.intervals import IntervalSet
from bvkit.model import (
    CANTOR_LEVEL_LIMIT,
    CONSTANT,
    DECREASING,
    INCREASING,
    CantorPiece,
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    PolynomialPiece,
    XSinPiece,
    build_cantor_iterate,
    build_zigzag,
    make_transformed,
    piecewise_linear,
)
from bvkit.specio import model_from_dict
from bvkit.variation import jordan_decomposition

import wrapper_oracle
from support import corpus_by_name, model_to_dict
from test_evaluation_routes import _interval_keys, _key

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


def old_float_evaluate_many(model, xs):
    """The float loop before the float table, kept as the oracle: each
    point is checked against the point before it and against the domain
    as given, rounded once into a float (``_coerce``), and evaluated by the
    piece whose start the walk over the exact piece starts reaches."""

    def coerce(x):
        if not model.a <= x <= model.b:
            raise OutOfDomainError(f"{x} outside [{model.a}, {model.b}]")
        return x if isinstance(x, float) else float(x)

    pieces = model._expanded
    starts = [p.lo for p in pieces]
    last = len(starts) - 1
    prev = None
    out = []
    for raw in xs:
        if prev is not None and raw < prev:
            raise PreconditionError(
                f"evaluate_many needs non-decreasing points; {raw} follows {prev}")
        x = coerce(raw)
        if prev is None:
            i = max(bisect_right(starts, x) - 1, 0)
        prev = raw
        while i < last and starts[i + 1] <= x:
            i += 1
        out.append(pieces[i].value(x))
    return out


def _outcome(route, *args):
    """The values as keys, or the class and message of the error raised."""
    try:
        return "ok", [_key(v) for v in route(*args)]
    except (BVKitError, ArithmeticError, TypeError) as err:
        return "raised", type(err), str(err)


def _assert_sweep_matches(model, xs, may_raise=False):
    """The batch against one point at a time and, on a float model, both
    against the float loop they replaced: values by type and bits, or the
    same error class and message. The batch must succeed unless the caller
    passes ``may_raise``, for batches built to hold bad points."""
    got = _outcome(model.evaluate_many, xs)
    if not may_raise:
        assert got[0] == "ok", got
    if not model.exact:
        assert got == _outcome(old_float_evaluate_many, model, xs)
        for x in xs:
            assert _outcome(lambda: [model.evaluate(x)]) == \
                _outcome(old_float_evaluate_many, model, [x])
    if got[0] == "ok":
        assert got[1] == [_key(model.evaluate(x)) for x in xs]


# closer to a knot than any float step near it, on either side
_TINY = (F(1, 2 ** 80), F(1, 3 * 10 ** 25))
_FAR = (math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, True, False)


def _probe_points(model):
    """Every knot (a and b included) as given, rounded, the floats on both
    sides of its rounding, and Fractions just below and above it."""
    pts = []
    for k in model.knots():
        pts.append(k)
        if k in (-math.inf, math.inf):
            continue
        pts += [F(k) + s * t for t in _TINY for s in (-1, 1)]
        if abs(k) < 2 ** 1023:
            f = float(k)
            pts += [f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)]
    return pts


def _sorted_batch(pts):
    """The points in order, NaN left out (it has no place in one)."""
    return sorted(x for x in pts if x == x)


def _float_knot_model(pieces):
    return FunctionModel(pieces, arithmetic="float")


# float models whose starts and ends are not floats, nor dyadic, nor in
# float range, beside polynomial and x*sin(1/x) pieces, which evaluate
# through their ``value``
FLOAT_MODELS = {
    "thirds": lambda: _float_knot_model([
        LinearPiece(0, F(1, 3), F(3, 2), 0), ConstantPiece(F(1, 3), F(2, 3), F(1, 2)),
        LinearPiece(F(2, 3), 1, F(3, 2), F(-1, 2))]),
    "sevenths-int-and-float-params": lambda: _float_knot_model([
        LinearPiece(-1, F(-3, 7), 2, 1), ConstantPiece(F(-3, 7), F(1, 7), 0.25),
        LinearPiece(F(1, 7), F(9, 10), 0.5, F(1, 3)), ConstantPiece(F(9, 10), 2, 3)]),
    "poly-xsin-linear": lambda: _float_knot_model([
        XSinPiece(F(1, 10), F(1, 3), 1), PolynomialPiece(F(1, 3), F(2, 3), [0, F(1, 3), 1]),
        LinearPiece(F(2, 3), 1, F(1, 3), F(1, 7))]),
    "float-knots": lambda: FunctionModel([
        PolynomialPiece(-1.0, 0.1, [0, 0, 1]), LinearPiece(0.1, 0.7, 0.2, 0.0),
        XSinPiece(0.7, 1.3, 2)]),
    "past-float-range": lambda: _float_knot_model([
        LinearPiece(-10 ** 400, 0, F(1, 3), 0), ConstantPiece(0, F(10 ** 400, 3), 1)]),
    "slope-past-float-range": lambda: _float_knot_model([LinearPiece(0, 1, 10 ** 400, 1)]),
    "infinite-end": lambda: _float_knot_model([
        LinearPiece(-math.inf, F(-1, 3), 0.5, 1), ConstantPiece(F(-1, 3), math.inf, 2.5)]),
}


@st.composite
def float_knot_models(draw):
    """Float models of linear, constant and polynomial pieces on knots
    over one denominator that is mostly not a power of 2, ints when whole."""
    den = draw(st.sampled_from([1, 3, 5, 7, 10, 243]))
    nums = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=8, unique=True))
    knots = [F(n, den) for n in sorted(nums)]
    knots = [int(k) if k.denominator == 1 else k for k in knots]
    number = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=12),
                       st.floats(-4, 4))
    pieces = []
    for lo, hi in zip(knots, knots[1:]):
        kind = draw(st.sampled_from(["linear", "constant", "polynomial"]))
        if kind == "linear":
            pieces.append(LinearPiece(lo, hi, draw(number), draw(number)))
        elif kind == "constant":
            pieces.append(ConstantPiece(lo, hi, draw(number)))
        else:
            pieces.append(PolynomialPiece(lo, hi, [draw(number), draw(number), 1]))
    return _float_knot_model(pieces)


@st.composite
def probe_batches(draw, model):
    """A batch of probe points and far points; in order (NaN aside) or not."""
    pool = _probe_points(model) + list(_FAR)
    xs = draw(st.lists(st.sampled_from(pool), max_size=30))
    if draw(st.booleans()):
        xs = _sorted_batch(xs)
        if draw(st.booleans()):
            xs.insert(draw(st.integers(0, len(xs))), math.nan)
    return xs


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


class TestFloatTable:
    """A float model's table against the float loop it replaced, on points
    at and next to every knot: the keys must pick the piece the exact
    starts picked, and the order and domain tests must fall back to the
    points as given wherever the rounded floats tie."""

    @pytest.mark.parametrize("level", range(9))
    def test_float_cantor_levels(self, level):
        model = _float_cantor(level)
        pts = _probe_points(model) + list(_FAR)
        _assert_sweep_matches(model, _sorted_batch(pts), may_raise=True)
        _assert_sweep_matches(model, pts, may_raise=True)

    @pytest.mark.parametrize("name", FLOAT_MODELS)
    def test_hand_built(self, name):
        model = FLOAT_MODELS[name]()
        pts = _probe_points(model) + list(_FAR)
        _assert_sweep_matches(model, _sorted_batch(pts), may_raise=True)
        _assert_sweep_matches(model, pts, may_raise=True)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_models_and_batches(self, data):
        model = data.draw(st.one_of(
            float_knot_models(),
            st.sampled_from(sorted(FLOAT_MODELS)).map(lambda name: FLOAT_MODELS[name]()),
            st.integers(0, 8).map(_float_cantor)))
        _assert_sweep_matches(model, data.draw(probe_batches(model)), may_raise=True)

    def test_fractions_that_round_to_one_float(self):
        model = _float_cantor(2)
        below, above = F(1, 3) - _TINY[0], F(1, 3) + _TINY[0]
        assert float(below) == float(above)
        _assert_sweep_matches(model, [below, F(1, 3), above, above])
        with pytest.raises(PreconditionError, match="non-decreasing"):
            model.evaluate_many([above, below])
        _assert_sweep_matches(model, [above, below], may_raise=True)

    def test_ends_of_the_domain(self):
        # 1/3 rounds down and 2/3 up: the Fractions just inside the domain
        # round outside it, and those just outside round onto its ends
        model = _float_knot_model([LinearPiece(F(1, 3), F(2, 3), 1, 0)])
        a, b = model.a, model.b
        inside = [a, a + _TINY[0], b - _TINY[0], b]
        assert model.evaluate_many(inside) == [float(x) for x in inside]
        for x in (a - _TINY[0], b + _TINY[0], math.nextafter(float(a), -1),
                  math.nextafter(float(b), 2)):
            with pytest.raises(OutOfDomainError):
                model.evaluate(x)
        _assert_sweep_matches(model, _sorted_batch(_probe_points(model)), may_raise=True)


def old_polynomial_value(piece, x):
    """Horner's rule on the coefficients as given, kept as the oracle: a
    float point meets a Fraction coefficient in each step."""
    acc = piece.coefficients[-1] + x * 0
    for c in reversed(piece.coefficients[:-1]):
        acc = acc * x + c
    return acc


_MAX = 2 ** 1024 - 2 ** 970  # the largest float, as an int
# at, just past and far past the float range (the halfway point to 2**1024
# rounds up and overflows), and at and below the least subnormal
_EDGE_COEFFICIENTS = (_MAX, _MAX + 2 ** 969 - 1, _MAX + 2 ** 969, 2 ** 1024,
                      10 ** 400, F(2 ** 1100, 3), F(1, 2 ** 1074),
                      F(1, 2 ** 1075), F(3, 2 ** 1076), F(1, 10 ** 400))
_EDGE_POINTS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e200, -1e200,
                math.inf, -math.inf, math.nan)

coefficients = st.lists(st.one_of(
    st.integers(),
    st.integers(-2 ** 1030, 2 ** 1030),
    st.fractions(),
    st.builds(F, st.integers(-2 ** 1100, 2 ** 1100), st.integers(1, 2 ** 1100)),
    st.floats(),
    st.sampled_from(_EDGE_COEFFICIENTS + tuple(-c for c in _EDGE_COEFFICIENTS))),
    min_size=1, max_size=9)
float_points = st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_POINTS)),
                        min_size=1, max_size=8)


def _assert_value_matches(coeffs, xs):
    piece = PolynomialPiece(0, 1, coeffs)
    for x in xs:
        assert _outcome(lambda: [piece.value(x)]) == \
            _outcome(lambda: [old_polynomial_value(piece, x)]), (coeffs, x)


class _FloatSubclass(float):
    pass


class TestPolynomialFloatHorner:
    """A float point runs Horner's rule on float coefficients, which must
    give the bits of the rule on the coefficients as given; every other
    point keeps that rule."""

    @given(coefficients, float_points)
    @example([F(1, 3)], [math.inf, math.nan])
    @example([-0.0], [-1.0, 0.0])
    @example([F(1, 3), F(2, 7), F(-5, 11)], [0.1, -3.5])
    @example([1, 2 ** 1024], [0.5])
    @settings(max_examples=500, deadline=None)
    def test_float_points_match_the_fraction_loop(self, coeffs, xs):
        _assert_value_matches(coeffs, xs)

    @given(coefficients, st.lists(st.one_of(
        st.integers(-10 ** 6, 10 ** 6), st.fractions(),
        st.floats(-1e6, 1e6).map(_FloatSubclass)), min_size=1, max_size=4))
    @example([F(1, 3), 1], [F(1, 2), 3])
    @settings(max_examples=200, deadline=None)
    def test_exact_points_keep_the_exact_loop(self, coeffs, xs):
        _assert_value_matches(coeffs, xs)

    def test_past_the_float_range_raises_as_before(self):
        piece = PolynomialPiece(0, 1, [1, 2 ** 1024])
        with pytest.raises(OverflowError) as raised:
            old_polynomial_value(piece, 0.5)
        with pytest.raises(OverflowError, match=re.escape(str(raised.value))):
            piece.value(0.5)
        assert piece.value(F(1, 2)) == 1 + 2 ** 1023

    @pytest.mark.parametrize("name", ["square", "cubic", "mixed"])
    def test_corpus_routes_match_the_oracle(self, name):
        # each route on F, p, n and F + x, run once as is and once with the
        # oracle in place of the piece's value, on fresh models
        def routes():
            model = corpus_by_name()[name].model
            jordan = jordan_decomposition(model)
            out = []
            for m in (model, jordan.p, jordan.n, model.shift_add_identity()):
                a, b = float(m.a), float(m.b)
                values = m.evaluate_many(m.verification_grid(257))
                out.append([_key(v) for v in values])
                lo, hi = min(values), max(values)
                for t in (F(1, 7), F(1, 3), F(1, 2), F(5, 6)):
                    y = float(lo + t * (hi - lo))
                    out.append([_key(v) for v in m.level_points(y, a, b)])
                    out.append(_interval_keys(m.preimage(float(lo) - 1, y)))
                    out.append(_interval_keys(m.preimage(y, float(hi) + 1, a + (b - a) / 3, b)))
            return out

        got = routes()
        with mock.patch.object(PolynomialPiece, "value", old_polynomial_value):
            assert got == routes()


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

    def test_rational_jump_below_the_float_tolerance_is_flagged(self):
        # rational continuity is ==, not agreement within tol
        model = FunctionModel([LinearPiece(0, 1, 1, 0),
                               ConstantPiece(1, 2, 1 + F(1, 10 ** 15))])
        assert not model.continuity_flag

    def test_mode_zero_and_grace(self, zigzag):
        assert type(zigzag.zero) is Fraction and zigzag.zero == 0
        assert type(zigzag.grace) is int and zigzag.grace == 0
        model = FunctionModel([PolynomialPiece(0.0, 1.0, [0, 1])], tol=1e-12)
        assert type(model.zero) is float and model.zero.hex() == (0.0).hex()
        assert model.grace == 10 * 1e-12

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


# ---------------------------------------------------------------------------
# polynomial criticals: exact bisection against the np.roots route
# ---------------------------------------------------------------------------


def roots_oracle_criticals(piece):
    """The np.roots route that ``PolynomialPiece.interior_criticals`` took
    before, kept verbatim as the oracle."""
    np = pytest.importorskip("numpy")
    dcoeffs = [k * c for k, c in enumerate(piece.coefficients)][1:]
    if len(dcoeffs) <= 1:
        return []
    # numpy wants descending float coefficients
    desc = [float(c) for c in reversed(dcoeffs)]
    roots = np.roots(desc)
    lo, hi = float(piece.lo), float(piece.hi)
    width = hi - lo
    found = []
    for r in roots:
        if abs(r.imag) > 1e-9:
            continue
        x = float(r.real)
        if lo + 1e-12 * max(1.0, width) < x < hi - 1e-12 * max(1.0, width):
            found.append(x)
    found.sort()
    out = []
    for x in found:
        if not out or x - out[-1] > 1e-12 * max(1.0, width):
            out.append(x)
    return out


def exact_derivative(piece):
    return [k * F(c) for k, c in enumerate(piece.coefficients)][1:]


def exact_sign(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * F(x) + c
    return (acc > 0) - (acc < 0)


def rounding_interval(r):
    """The reals that round to the float r: from halfway to the float
    below to halfway to the float above."""
    return ((F(math.nextafter(r, -math.inf)) + F(r)) / 2,
            (F(r) + F(math.nextafter(r, math.inf))) / 2)


def assert_nearest_to_a_root(deriv, r):
    """The derivative changes sign, or is zero, between the ends of r's
    rounding interval, so r is the float nearest that root, and no other
    float is nearer to it."""
    below, above = rounding_interval(r)
    assert exact_sign(deriv, below) * exact_sign(deriv, above) <= 0, r


def assert_guards(piece, got):
    """Sorted, clear of the ends and of each other by the margin."""
    lo, hi = float(piece.lo), float(piece.hi)
    margin = 1e-12 * max(1.0, hi - lo)
    assert all(lo + margin < x < hi - margin for x in got)
    assert all(y - x > margin for x, y in zip(got, got[1:]))


def _times_linear(coeffs, r):
    """coeffs (ascending) times (x - r)."""
    out = [F(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] += c
        out[i] -= c * r
    return out


# distinct roots are at least 1/35 apart, far past the 1e-12 margin
_ROOT = st.builds(F, st.integers(-21, 21), st.sampled_from([1, 2, 3, 5, 7])).filter(
    lambda r: abs(r) <= 3)
# ends at a root, within the margin of one (1e-13, 5e-13) or just past it
_OFFSET = st.sampled_from([0, F(1, 10 ** 13), F(1, 2 * 10 ** 12), F(1, 10 ** 11)])


@st.composite
def known_root_pieces(draw, simple=False, near_ends=True):
    """``(piece, roots, exact)``: a polynomial piece of degree 2 to 8 whose
    derivative has the drawn roots, with multiplicities 1 to 3 unless
    ``simple``; ``roots`` are those of odd multiplicity, where the
    derivative changes sign.  The coefficients are ints, Fractions or their
    floats; ``exact`` is False for floats, which move the roots.  Each end
    is an odd multiple of 1/16, at least 1/112 from every root, or, with
    ``near_ends``, may be at a root or near one; the piece may be
    reflected."""
    roots = draw(st.lists(_ROOT, min_size=1, max_size=7, unique=True))
    deriv = [F(draw(st.integers(1, 9)), draw(st.integers(1, 5))) * draw(st.sampled_from([1, -1]))]
    odd = []
    for r in roots:
        mult = 1 if simple else draw(st.integers(1, 3))
        mult = min(mult, 8 - len(deriv))
        for _ in range(mult):
            deriv = _times_linear(deriv, r)
        if mult % 2:
            odd.append(r)
        if len(deriv) == 8:
            break
    coeffs = [F(draw(st.integers(-3, 3)), 2)] + [c / (k + 1) for k, c in enumerate(deriv)]
    kind = draw(st.sampled_from(["int", "fraction", "float"]))
    if kind == "int":
        den = math.lcm(*(c.denominator for c in coeffs))
        coeffs = [int(c * den) for c in coeffs]
    elif kind == "float":
        coeffs = [float(c) for c in coeffs]
    ends = []
    for side in (-1, 1):
        if near_ends and draw(st.booleans()):
            end = draw(st.sampled_from(roots)) + side * draw(_OFFSET)
        else:
            end = F(2 * draw(st.integers(0, 31)) + 1, 16) * side
        ends.append(float(end) if draw(st.booleans()) else end)
    lo, hi = sorted(ends)
    assume(lo < hi)
    piece = PolynomialPiece(lo, hi, coeffs)
    if draw(st.booleans()):
        csum = draw(_ROOT)
        at = csum if kind != "float" else float(csum)
        assume(at - hi < at - lo)  # float ends may round together
        piece = piece.reflected(at)
        odd = [csum - r for r in odd]
    return piece, sorted(odd), kind != "float"


def _segmentation(piece):
    segs = FunctionModel([piece], arithmetic="float").monotone_segments()
    return list(segs.knots()), [s.direction for s in segs]


class TestPolynomialCriticals:
    @given(known_root_pieces())
    @settings(max_examples=300, deadline=None)
    def test_known_roots(self, drawn):
        piece, roots, exact = drawn
        got = piece.interior_criticals()
        assert_guards(piece, got)
        deriv = exact_derivative(piece)
        for r in got:
            assert_nearest_to_a_root(deriv, r)
        if exact:
            # exactly the sign-change roots, each rounded as float() rounds
            lo, hi = float(piece.lo), float(piece.hi)
            margin = 1e-12 * max(1.0, hi - lo)
            assert got == [float(r) for r in roots if lo + margin < float(r) < hi - margin]

    @pytest.mark.parametrize("lo, hi, coeffs, want", [
        (-1, 1, [0, 0, 1], [0.0]),
        (0, 1, [0, 0, 1], []),
        # x^3: the root 0 of F'' stops the bisection, and F' keeps its sign
        (-1, 1, [0, 0, 0, 1], []),
        # F' = x^2 - 2, whose roots math.sqrt rounds correctly
        (-2, 2, [0, -2, 0, F(1, 3)], [-math.sqrt(2), math.sqrt(2)]),
        # F' = x^2 (x + 1): 0 is a double root
        (-2, 1, [0, 0, 0, F(1, 3), F(1, 4)], [-1.0]),
        # F' = (x - 1/3)^3, and x - 1/3 +- 10^-13, inside the end margin
        (0, 1, [0, F(-1, 27), F(1, 6), F(-1, 3), F(1, 4)], [1 / 3]),
        (F(1, 3) - F(1, 10 ** 13), 1, [0, F(-1, 3), F(1, 2)], []),
        (0, F(1, 3) + F(1, 10 ** 13), [0, F(-1, 3), F(1, 2)], []),
        (F(1, 3) - F(1, 10 ** 11), 1, [0, F(-1, 3), F(1, 2)], [1 / 3]),
        # F' = (x - 1/3)(x - 1/3 - 10^-13): two roots closer than the
        # margin merge into the first
        (0, 1, [0, F(1, 9) + F(1, 3 * 10 ** 13), F(-1, 3) - F(1, 2 * 10 ** 13), F(1, 3)],
         [1 / 3]),
        # tiny leading coefficients: the root of F' = 8 + 4.45e-308 x is far
        # outside, and F' = 1e-300 - 2x + 1.5e-323 x^2 has one near 5e-301
        (-4, 4, [0, 8, 2.2250738585072014e-308], []),
        (-4, 4, [0, 1e-300, -1.0, 5e-324], [1e-300 / 2]),
    ])
    def test_examples(self, lo, hi, coeffs, want):
        assert PolynomialPiece(lo, hi, coeffs).interior_criticals() == want

    @pytest.mark.parametrize("lo, hi", [(0, math.inf), (-math.inf, 0)])
    def test_infinite_ends_are_refused(self, lo, hi):
        with pytest.raises(SpecFormatError, match="finite ends only"):
            PolynomialPiece(lo, hi, [0, -1, 1]).interior_criticals()

    def test_ends_near_the_float_range_do_not_overflow(self):
        # halving [8e307, 1.7e308] as (a + b) / 2 would overflow to inf
        piece = PolynomialPiece(8e307, 1.7e308, [0, -1.7e308, 1])
        assert piece.interior_criticals() == [1.7e308 / 2]

    def test_a_double_root_leaves_no_sliver(self):
        # F' = (x - 1/3)^2 (x + 1): np.roots split the double root into
        # 0.33333332966 and 0.33333333701, and F tied at both in floats, so
        # the segmentation held a constant sliver between them
        piece = PolynomialPiece(-2, 1, [0, F(1, 9), F(-5, 18), F(1, 9), F(1, 4)])
        knots, directions = _segmentation(piece)
        assert knots == [-2, -1.0, 1] and directions == [DECREASING, INCREASING]

    def test_an_exact_zero_ends_the_bisection(self, monkeypatch):
        # 0 is probed first and is the root: the signs at the two ends and
        # at 0, where halving alone would take 1,075 steps to reach it
        calls = []
        sign_at = model_module._sign_at
        monkeypatch.setattr(model_module, "_sign_at",
                            lambda ints, x: calls.append(x) or sign_at(ints, x))
        assert PolynomialPiece(-1, 2, [0, 0, 1]).interior_criticals() == [0.0]
        assert calls == [-1.0, 2.0, 0.0]

    # no end near a root: np.roots misses a root by up to about 1e-11 here,
    # so it puts a knot on either side of the end margin, and a segment
    # that narrow takes its direction from the rounding of F's values
    @given(known_root_pieces(simple=True, near_ends=False))
    @settings(max_examples=200, deadline=None)
    def test_segments_as_the_roots_oracle(self, drawn):
        piece, _, _ = drawn
        knots, directions = _segmentation(piece)
        with mock.patch.object(PolynomialPiece, "interior_criticals", roots_oracle_criticals):
            old_knots, old_directions = _segmentation(piece)
        assert directions == old_directions
        assert len(knots) == len(old_knots)
        assert knots[0] == old_knots[0] and knots[-1] == old_knots[-1]
        deriv = exact_derivative(piece)
        for k, q in zip(knots[1:-1], old_knots[1:-1]):
            # one sign change between the pair: they bracket one root
            (below, _), (_, above) = rounding_interval(min(k, q)), rounding_interval(max(k, q))
            assert exact_sign(deriv, below) * exact_sign(deriv, above) < 0
            assert_nearest_to_a_root(deriv, k)

    # np.roots raises LinAlgError when the companion matrix overflows, as
    # with a leading coefficient near 1e-308 (see test_examples), so the
    # floats stay above 1e-6 in magnitude here
    @given(st.integers(2, 8).flatmap(lambda deg: st.lists(
        st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=30),
                  st.floats(-9, 9).filter(lambda c: c == 0 or abs(c) >= 1e-6)),
        min_size=deg + 1, max_size=deg + 1)))
    @settings(max_examples=300, deadline=None)
    def test_random_coefficients_against_the_roots_oracle(self, coeffs):
        assume(coeffs[-1] != 0)
        piece = PolynomialPiece(-4, 4, coeffs)
        got = piece.interior_criticals()
        assert_guards(piece, got)
        deriv = exact_derivative(piece)
        for r in got:
            assert_nearest_to_a_root(deriv, r)
        for q in roots_oracle_criticals(piece):
            # where the derivative changes sign across q, a root of ours is
            # within the same bracket, and it is the nearer one
            near = 1e-9 * max(1.0, abs(q))
            if exact_sign(deriv, q - near) * exact_sign(deriv, q + near) < 0:
                assert any(abs(r - q) < near for r in got), (q, got)


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

    def test_int_valued_model_solves_exactly(self):
        # int slopes, intercepts and targets: a solved end is a Fraction,
        # not the float that int / int rounds to
        model = FunctionModel([LinearPiece(0, 2, 3, 1), LinearPiece(2, 5, -1, 9),
                               ConstantPiece(5, 8, 4)])
        got = model.preimage(2, 5)
        assert [(c.lo, c.hi, c.lo_open, c.hi_open) for c in got] == [
            (F(1, 3), F(4, 3), True, True), (4, 8, True, False)]
        assert [(type(c.lo), type(c.hi)) for c in got] == [(F, F), (F, int)]
        assert [(type(x), x) for x in model.level_points(2, 0, 8)] == [(F, F(1, 3))]

    def test_float_model_solves_by_float_division(self):
        model = FunctionModel([LinearPiece(0.0, 2.0, 3.0, 1.0),
                               LinearPiece(2.0, 5.0, -1.0, 9.0),
                               ConstantPiece(5.0, 8.0, 4.0)], arithmetic="float")
        got = model.preimage(2.0, 5.0)
        assert [(c.lo.hex(), c.hi.hex()) for c in got] == [
            (((2.0 - 1.0) / 3.0).hex(), ((5.0 - 1.0) / 3.0).hex()),
            (((5.0 - 9.0) / -1.0).hex(), (8.0).hex())]

    @given(st.integers(-50, 50).filter(bool), st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_linear_solve_divides_ints_exactly(self, slope, intercept, y):
        got = LinearPiece(0, 1, slope, intercept).solve(y, 0, 1)
        assert type(got) is F and got == F(y - intercept, slope)

    @given(st.floats(-1e6, 1e6).filter(bool), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_linear_solve_keeps_the_float_quotient(self, slope, intercept, y):
        got = LinearPiece(0.0, 1.0, slope, intercept).solve(y, 0.0, 1.0)
        assert got.hex() == ((y - intercept) / slope).hex()


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

    @pytest.mark.parametrize("exponent", [1, 2])
    def test_float_mirror_keeps_the_domain(self, exponent):
        # 0.1 + 1.0 - 1.0 rounds to 0.10000000000000009, which the mirror's
        # first piece started at, so its own a was out of its domain
        model = build_oscillation(exponent)
        mirror = model.reflect()
        assert (mirror.a, mirror.b) == (model.a, model.b) == (0.1, 1.0)
        assert mirror.pieces[0].lo == 0.1 and mirror.pieces[-1].hi == 1.0
        assert mirror.evaluate(0.1) == model.evaluate(1.0)
        assert mirror.evaluate(1.0) == pytest.approx(model.evaluate(0.1), abs=1e-12)
        for x in mirror.verification_grid(37):
            assert mirror.evaluate(x) == pytest.approx(model.evaluate(1.1 - x), abs=1e-9)
        twice = mirror.reflect()
        assert (twice.a, twice.b) == (0.1, 1.0)
        for x in (0.1, 0.3, 0.77, 1.0):
            assert twice.evaluate(x) == pytest.approx(model.evaluate(x), abs=1e-12)

    def test_rational_mirror_ends_are_left_as_they_are(self):
        # an int a and a Fraction b: the mirror's ends are csum - b and
        # csum - a, Fractions, as before
        model = FunctionModel([LinearPiece(0, F(1, 2), 2, 0),
                               ConstantPiece(F(1, 2), F(1), 1)])
        mirror = model.reflect()
        want = [(F(1) - p.hi, F(1) - p.lo) for p in reversed(model.pieces)]
        assert [(p.lo, p.hi) for p in mirror.pieces] == want
        assert all(type(p.lo) is Fraction for p in mirror.pieces)
        assert type(mirror.a) is Fraction and type(model.a) is int


class TestWrappedRoutes:
    """The mirror and affine routes no corpus model takes, each against its
    base at the mirrored points."""

    def test_a_mirror_shift_segments_on_the_reflected_derivative(self):
        # G(x) = F(csum - x) + x turns where F'(csum - x) = 1, so its knots
        # mirror those of F(y) - y on the base piece
        model = build_oscillation(1)
        csum = model.a + model.b
        [mirrored] = model.reflect().pieces
        shift = model.reflect().shift_add_identity()
        [piece] = shift.pieces
        assert type(mirrored) is XSinPiece and mirrored.affine is None
        # the mirror's restriction to [a, b] stores the base's ends as csum - x
        assert mirrored.mirrors == ((csum, csum - 1.0, csum - 0.1),)
        assert type(piece) is XSinPiece and piece.mirrors == mirrored.mirrors
        assert piece.affine == (1, 1, 0)
        want = make_transformed(model.pieces[0], 1, -1, 0).interior_criticals()
        assert len(want) >= 2
        knots = shift.monotone_segments().knots()
        assert knots[0] == 0.1 and knots[-1] == 1.0
        assert knots[1:-1] == pytest.approx(sorted(csum - y for y in want), abs=1e-9)
        base = model.pieces[0]
        grid = mirrored._sample_grid(mirrored.lo, mirrored.hi)
        assert grid == pytest.approx(sorted(csum - t for t in base._sample_grid(0.1, 1.0)),
                                     abs=1e-12)
        for x in grid[1:-1]:
            assert mirrored.derivative(x) == -base.derivative(csum - x)
            assert shift.evaluate(x) == pytest.approx(model.evaluate(csum - x) + x,
                                                      abs=1e-12)

    def test_a_jordan_part_mirrors_through_its_transformed_pieces(self):
        model = build_oscillation(1)
        p = jordan_decomposition(model).p
        mirror = p.reflect()
        assert any(type(q) is XSinPiece and q.affine is not None and len(q.mirrors) == 1
                   for q in mirror.pieces)
        assert (mirror.a, mirror.b) == (p.a, p.b) == (0.1, 1.0)
        assert mirror.continuity_flag
        for x in [0.1, *p.verification_grid(65), 1.0]:
            assert mirror.evaluate(x) == pytest.approx(p.evaluate(1.1 - x), abs=1e-9)
        assert not mirror.is_nondecreasing() and p.is_nondecreasing()

    def test_a_mirror_about_another_center_nests(self):
        piece = XSinPiece(0.1, 0.5, 1).reflected(1.0)  # x -> xsin(1 - x) on [0.5, 0.9]
        model = FunctionModel([piece])
        mirror = model.reflect()  # about 1.4, not 1.0: a second mirror
        [outer] = mirror.pieces
        assert type(outer) is XSinPiece and outer.affine is None
        assert [csum for csum, _, _ in outer.mirrors] == [1.0, 1.4]
        assert (mirror.a, mirror.b) == (0.5, 0.9)
        for x in [0.5, *model.verification_grid(33), 0.9]:
            # the piece itself, as 1.4 - 0.9 rounds below the model's domain
            assert mirror.evaluate(x) == pytest.approx(piece.value(1.4 - x), abs=1e-12)
        knots = mirror.monotone_segments().knots()
        want = model.monotone_segments().knots()
        assert knots == pytest.approx(sorted(1.4 - k for k in want), abs=1e-9)
        # a mirror about the last mirror's own center undoes it, and the
        # piece regains the domain that mirror stored
        bare = piece.reflected(1.0)
        assert (bare.lo, bare.hi, bare.mirrors, bare.affine) == (0.1, 0.5, (), None)

    @pytest.mark.parametrize("exponent", [1, 2])
    def test_a_jordan_part_mirrors_back_to_itself(self, exponent):
        # the mirror of p's mirror undoes the x*sin pieces' mirrors, which
        # regain their stored ends, and each constant piece between them
        # starts where the last piece ends: c - (c - x) may miss that end
        p = jordan_decomposition(build_oscillation(exponent)).p
        twice = p.reflect().reflect()
        assert [(q.lo, q.hi) for q in twice.pieces] == [(q.lo, q.hi) for q in p.pieces]
        assert all(q.mirrors == () for q in twice.pieces if type(q) is XSinPiece)
        grid = p.verification_grid(4096)
        assert twice.evaluate_many(grid) == p.evaluate_many(grid)

    def test_make_transformed_refuses_a_base_it_cannot_fold(self):
        message = ("cannot transform a CantorPiece on [0, 1]; "
                   "transform its expansion")
        with pytest.raises(SpecFormatError, match=f"^{re.escape(message)}$"):
            make_transformed(CantorPiece(0, 1, 2), 0, 1, 0)


def _reprs(values) -> list:
    # repr tells -0.0 from 0.0, and every float bit for bit
    return [repr(v) for v in values]


_FOLD_OPS = st.one_of(
    st.tuples(st.just("reflect"), st.sampled_from(["span", "last", 1.0, 1.3, 2])),
    st.tuples(st.just("restrict"), st.sampled_from([0, 0.125, 0.25, 1 / 3]),
              st.sampled_from([2 / 3, 0.75, 0.875, 1])),
    st.tuples(st.just("transform"), st.sampled_from([1, -1, 0.5, -2.5, F(1, 3)]),
              st.sampled_from([0, -0.0, 1, -1, 0.25]),
              st.sampled_from([0, 0.0, -0.0, 1, -0.75, F(2, 3)])),
)


class TestFoldedXSinPiece:
    """An x*sin piece with its mirrors and affine part against the wrapper
    tree it replaced (:mod:`wrapper_oracle`), bit for bit, after any
    sequence of mirrors, restrictions and transforms."""

    @staticmethod
    def assert_same(new, old):
        assert type(new) is XSinPiece
        assert _reprs([new.lo, new.hi]) == _reprs([old.lo, old.hi])
        xs = [new.lo + (new.hi - new.lo) * k / 8 for k in range(9)]
        assert _reprs(map(new.value, xs)) == _reprs(map(old.value, xs))
        assert _reprs(map(new.derivative, xs)) == _reprs(map(old.derivative, xs))
        assert _reprs(new.interior_criticals()) == _reprs(old.interior_criticals())
        # a transformed piece samples its base's grid
        gridded = old.base if type(old) is wrapper_oracle.TransformedPiece else old
        assert (_reprs(new._sample_grid(new.lo, new.hi))
                == _reprs(gridded._sample_grid(old.lo, old.hi)))

    @given(exponent=st.sampled_from([0, 1, 2, 1.5]),
           lo=st.sampled_from([0.05, 0.1, 0.3]),
           width=st.sampled_from([0.4, 0.9, 1.0]),
           ops=st.lists(_FOLD_OPS, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_wrapper_tree(self, exponent, lo, width, ops):
        new = XSinPiece(lo, lo + width, exponent)
        old = wrapper_oracle.XSinPiece(lo, lo + width, exponent)
        self.assert_same(new, old)
        for op, *args in ops:
            if op == "reflect":
                csum = args[0]
                if csum == "last":
                    csum = new.mirrors[-1][0] if new.mirrors else "span"
                if csum == "span":
                    csum = new.lo + new.hi
                new, old = new.reflected(csum), old.reflected(csum)
            elif op == "restrict":
                width = new.hi - new.lo
                at_lo, at_hi = (new.lo + width * u for u in args)
                new, old = new.restrict(at_lo, at_hi), old.restrict(at_lo, at_hi)
            else:
                new = make_transformed(new, *args)
                old = wrapper_oracle.make_transformed(old, *args)
            self.assert_same(new, old)


class TestPieceRules:
    """Each piece and model refuses its own bad parameters, for a spec and
    a library caller alike."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: LinearPiece(1, 1, 0, 0), SpecFormatError,
         "piece domain must satisfy lo < hi, got [1, 1]"),
        (lambda: CantorPiece(0, 1, -1), SpecFormatError, "cantor_iterate level must be >= 0"),
        (lambda: CantorPiece(0, F(4, 3), 2), SpecFormatError,
         "cantor_iterate pieces live inside [0, 1]"),
        (lambda: CantorPiece(F(-1, 3), 1, 2), SpecFormatError,
         "cantor_iterate pieces live inside [0, 1]"),
        (lambda: CantorPiece(0, 1, 2.7), SpecFormatError,
         "cantor_iterate level must be an int; got 2.7"),
        (lambda: CantorPiece(0, 1, True), SpecFormatError,
         "cantor_iterate level must be an int; got True"),
        (lambda: CantorPiece(0, 1, F(5, 2)), SpecFormatError,
         "cantor_iterate level must be an int; got Fraction(5, 2)"),
        (lambda: CantorPiece(0, 1, math.nan), SpecFormatError,
         "cantor_iterate level must be an int; got nan"),
        (lambda: XSinPiece(-0.5, 1, 1), SpecFormatError, "x_sin_family pieces need lo >= 0"),
        (lambda: XSinPiece(0.1, 1, True), SpecFormatError,
         "x_sin_family exponent must be a number; got True"),
        (lambda: CantorPiece(0, 1, "3"), SpecFormatError,
         "cantor_iterate level must be an int; got '3'"),
        (lambda: CantorPiece(0, 1, None), SpecFormatError,
         "cantor_iterate level must be an int; got None"),
        (lambda: XSinPiece(0.1, 1, "x"), SpecFormatError,
         "x_sin_family exponent must be a number; got 'x'"),
        (lambda: XSinPiece(0.1, 1, "3"), SpecFormatError,
         "x_sin_family exponent must be a number; got '3'"),
        (lambda: XSinPiece(0.1, 1, None), SpecFormatError,
         "x_sin_family exponent must be a number; got None"),
        (lambda: XSinPiece(0.1, 1, 10 ** 400), SpecFormatError,
         "x_sin_family exponent must be finite and >= 0; got inf"),
        (lambda: XSinPiece(0.1, 1, -10 ** 400), SpecFormatError,
         "x_sin_family exponent must be finite and >= 0; got -inf"),
        (lambda: CantorPiece(0, 1, 17), SpecFormatError,
         "cantor_iterate level must be at most 16; got 17"),
        (lambda: CantorPiece(0, 1, 40.0), SpecFormatError,
         "cantor_iterate level must be at most 16; got 40.0"),
        (lambda: FunctionModel([]), SpecFormatError, "a model needs at least one piece"),
        (lambda: FunctionModel([LinearPiece(0, 1, 1, 0)], arithmetic="decimal"),
         SpecFormatError, "unknown arithmetic mode 'decimal'"),
        (lambda: build_zigzag().preimage(F(1, 2), F(1, 2)), SpecFormatError,
         "target interval must satisfy c < d"),
        (lambda: build_zigzag().preimage(1, 0), SpecFormatError,
         "target interval must satisfy c < d"),
        (lambda: FunctionModel([LinearPiece(0, 1, 1, 0), LinearPiece(1, 2, 1, 5)])
         .preimage(0, 1), PreconditionError, "preimage requires a continuous model"),
        (lambda: build_cantor_iterate(-1), SpecFormatError, "level must be >= 0"),
        (lambda: piecewise_linear([(0, 0)]), SpecFormatError, "need at least two knots"),
    ], ids=["empty-domain", "cantor-level-negative", "cantor-past-one",
            "cantor-below-zero", "cantor-level-fraction", "cantor-level-bool",
            "cantor-level-rational", "cantor-level-nan", "xsin-below-zero",
            "xsin-exponent-bool", "cantor-level-str", "cantor-level-none",
            "xsin-exponent-str", "xsin-exponent-numeric-str", "xsin-exponent-none",
            "xsin-exponent-huge-int", "xsin-exponent-huge-negative-int",
            "cantor-level-past-limit", "cantor-level-far-past-limit",
            "no-pieces", "unknown-arithmetic",
            "preimage-point-target", "preimage-reversed-target",
            "preimage-discontinuous", "cantor-builder-negative", "one-knot"])
    def test_refused(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("level", [3, 3.0, F(3)])
    def test_integral_levels_are_ints(self, level):
        piece = CantorPiece(0, 1, level)
        assert type(piece.level) is int and piece.level == 3

    def test_the_level_limit_itself_is_a_level(self):
        # a piece expands only in a model, so this builds no pieces
        assert CantorPiece(0, 1, CANTOR_LEVEL_LIMIT).level == CANTOR_LEVEL_LIMIT == 16


class TestVerificationGrid:
    def test_contains_knots_and_span(self, zigzag):
        grid = zigzag.verification_grid(64)
        for k in zigzag.knots():
            assert k in grid
        assert grid[0] == 0 and grid[-1] == 1
        assert all(a < b for a, b in zip(grid, grid[1:]))


def old_exact_grid(a, b, n):
    """The exact grid as a sum of steps, kept as the oracle."""
    a, b = Fraction(a), Fraction(b)
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n)]


grid_ends = st.one_of(st.integers(-10 ** 30, 10 ** 30), st.fractions(),
                      st.floats(allow_nan=False, allow_infinity=False))


class TestExactGrid:
    """The exact grid over one common denominator gives the step sum's
    Fractions, ends included."""

    @given(grid_ends, grid_ends, st.integers(2, 4097))
    @example(0, 1, 1024)
    @example(F(1, 3), F(-2, 7), 5)
    @example(0.1, 0.1, 3)
    @example(-5, -5, 2)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_step_sum(self, a, b, n):
        got = uniform_grid(a, b, n, exact=True)
        assert [(type(x), x) for x in got] == \
            [(type(x), x) for x in old_exact_grid(a, b, n)]
        assert got[0] == Fraction(a) and got[-1] == Fraction(b)

    @pytest.mark.parametrize("exact", [True, False])
    def test_too_few_points_refused_first(self, exact):
        for n in (1, 0, -3):
            with pytest.raises(SpecFormatError, match="at least two"):
                uniform_grid(math.nan, 1, n, exact)
