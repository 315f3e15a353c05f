import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit.errors import (
    NotBVError,
    OutOfDomainError,
    PreconditionError,
    SpecFormatError,
    UnresolvedOscillationError,
)
from bvkit.corpus import default_corpus
from bvkit.model import (
    CONSTANT,
    DECREASING,
    INCREASING,
    FunctionModel,
    XSinPiece,
    build_cantor_iterate,
    build_zigzag,
    make_transformed,
    piecewise_linear,
)
from bvkit.specio import model_from_dict
from bvkit.variation import (
    jordan_decomposition,
    partition_sum,
    total_variation,
    uniform_approx,
    validate_partition,
    variation_function,
)

from support import model_to_dict, piece_params

F = Fraction

ZIGZAG_KNOTS = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


def brute_variation(model, x, depth):
    """Oracle: partition sum over a dense dyadic grid plus all knots.

    Always a lower bound for the variation; for piecewise-linear models it
    is exact once the knots are in the partition.
    """
    pts = {model.a, x}
    pts.update(k for k in model.knots() if model.a < k < x)
    for i in range(2 ** depth + 1):
        pts.add(model.a + (x - model.a) * F(i, 2 ** depth))
    return partition_sum(model, sorted(pts))


class TestPartitionSum:
    def test_identity_span(self, identity):
        assert partition_sum(identity, (0, 1)) == 1

    def test_zigzag_knots_give_four_unit_swings(self, zigzag):
        assert partition_sum(zigzag, ZIGZAG_KNOTS) == 4

    def test_zigzag_endpoints_cancel(self, zigzag):
        assert partition_sum(zigzag, (0, 1)) == 0

    def test_partition_validation(self, identity):
        with pytest.raises(SpecFormatError):
            validate_partition(identity, (0,))
        with pytest.raises(SpecFormatError):
            validate_partition(identity, (0, 0))
        with pytest.raises(SpecFormatError):
            validate_partition(identity, (0, 2))

    @given(st.sets(st.integers(1, 63), min_size=1, max_size=6),
           st.sets(st.integers(1, 63), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_refinement_monotonicity(self, base, extra):
        # inserting points never decreases the partition sum
        zz = build_zigzag()
        coarse = sorted({F(0), F(1)} | {F(n, 64) for n in base})
        fine = sorted(set(coarse) | {F(n, 64) for n in extra})
        assert partition_sum(zz, fine) >= partition_sum(zz, coarse)


class TestTotalVariation:
    def test_cantor_iterates_have_unit_variation(self):
        for level in range(0, 11):
            est = total_variation(build_cantor_iterate(level))
            assert est.lower == 1 and est.upper == 1 and est.converged

    def test_zigzag_values(self, zigzag):
        assert total_variation(zigzag).lower == 4
        assert total_variation(zigzag, F(1, 2)).lower == 2
        # oracle agreement
        assert brute_variation(zigzag, F(1, 2), 4) == 2

    def test_monotone_shortcut(self, identity):
        for num in range(5):
            t = F(num, 4)
            assert total_variation(identity, t).lower == t

    def test_at_start_is_zero(self, zigzag):
        est = total_variation(zigzag, 0)
        assert est.lower == 0 and est.converged

    def test_achieving_partition_achieves(self, zigzag, cantor2):
        for model in (zigzag, cantor2):
            est = total_variation(model)
            assert partition_sum(model, est.achieving_partition) == est.lower

    def test_square_exact_vs_oracle(self, square_sym):
        est = total_variation(square_sym)
        assert est.lower == 2.0
        assert brute_variation(square_sym, 1, 8) <= est.lower <= \
            brute_variation(square_sym, 1, 8) + 1e-9

    @given(st.integers(1, 63))
    @settings(max_examples=30, deadline=None)
    def test_additivity_at_grid_points(self, num):
        zz = build_zigzag()
        c = F(num, 64)
        left = total_variation(zz, c).lower
        total = total_variation(zz).lower
        # variation over [c, 1] via the reflected model
        right = total_variation(zz.reflect(), 1 - c).lower
        assert left + right == total

    def test_adaptive_refinement_converges_for_integrable_oscillation(self):
        # x^2*sin(1/x) on [0, 1]: infinitely many wiggles, finite variation
        model = FunctionModel([XSinPiece(0.0, 1.0, 2)], name="x2sin0")
        est = total_variation(model, tol=1e-3)
        assert est.converged
        assert est.upper - est.lower <= 1e-3 * (1 + 1e-9)
        sums = [v for _, v in est.refinement_trace]
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        # sanity bracket: |F'| <= 2x + 1 gives variation at most 2
        assert 0.9 < est.lower < 2.0

    def test_unbounded_oscillation_reports_partial_lower_bound(self):
        model = FunctionModel([XSinPiece(0.0, 1.0, 1)], name="xsin0")
        with pytest.raises(UnresolvedOscillationError) as err:
            total_variation(model, tol=1e-3, max_points=4096)
        assert err.value.lower_bound > 1
        assert err.value.estimate.converged is False


class TestVariationFunction:
    def test_identity(self, identity):
        p = variation_function(identity)
        assert p(F(3, 7)) == F(3, 7)

    def test_zigzag_partial_swing(self, zigzag):
        p = variation_function(zigzag)
        # one full unit swing plus slope-4 progress past 1/4
        assert p(F(3, 8)) == F(3, 2)
        assert p(0) == 0
        assert p(1) == 4

    def test_decreasing_reference(self):
        neg = piecewise_linear([(0, 0), (1, -1)])
        p = variation_function(neg)
        for num in range(5):
            assert p(F(num, 4)) == F(num, 4)

    def test_matches_clipped_variation(self, cantor2):
        p = variation_function(cantor2)
        for num in range(0, 10):
            x = F(num, 9)
            assert p(x) == total_variation(cantor2, x).lower

    def test_p_model_agrees(self, zigzag):
        p = variation_function(zigzag)
        pm = jordan_decomposition(zigzag).p
        for x in zigzag.verification_grid(128):
            assert pm.evaluate(x) == p(x)

    @pytest.mark.parametrize("x, message", [
        (2, "2 outside [0, 1]"), (F(-1, 3), "-1/3 outside [0, 1]"),
        (math.nan, "nan outside [0, 1]"), (math.inf, "inf outside [0, 1]")],
        ids=["int", "fraction", "nan", "inf"])
    def test_a_point_outside_the_domain_has_one_refusal(self, zigzag, x, message):
        # p, u and the variation to x each evaluate F at x first, so NaN is
        # refused as every other point outside [a, b] is
        u = uniform_approx(zigzag, F(1, 100))
        for call in (variation_function(zigzag), u.evaluate,
                     lambda x: total_variation(zigzag, x)):
            with pytest.raises(OutOfDomainError, match=f"^{re.escape(message)}$"):
                call(x)


class TestJordanDecomposition:
    def test_decreasing_reference(self):
        neg = piecewise_linear([(0, 0), (1, -1)])
        dec = jordan_decomposition(neg)
        for num in range(5):
            x = F(num, 4)
            assert dec.p.evaluate(x) == x
            assert dec.n.evaluate(x) == 2 * x

    def test_zigzag_totals(self, zigzag):
        dec = jordan_decomposition(zigzag)
        assert dec.p.evaluate(1) == 4
        assert dec.n.evaluate(1) == 4

    def test_cantor_negative_part_vanishes(self, cantor2):
        dec = jordan_decomposition(cantor2)
        for x in cantor2.verification_grid(64):
            assert dec.n.evaluate(x) == 0
            assert dec.p.evaluate(x) == cantor2.evaluate(x)

    def test_exact_identity_everywhere(self, zigzag, cantor2):
        for model in (zigzag, cantor2):
            dec = jordan_decomposition(model)
            for x in model.verification_grid(128):
                assert dec.p.evaluate(x) - dec.n.evaluate(x) == model.evaluate(x)

    def test_float_identity_within_tol(self, square_sym, xsin):
        for model in (square_sym, xsin):
            dec = jordan_decomposition(model)
            for x in model.verification_grid(128):
                got = dec.p.evaluate(x) - dec.n.evaluate(x)
                assert abs(got - model.evaluate(x)) <= 1e-9

    def test_monotone_parts_start_right(self, zigzag):
        dec = jordan_decomposition(zigzag)
        assert dec.p.evaluate(0) == 0
        assert dec.n.evaluate(0) == -zigzag.evaluate(0)

    def test_not_bv_raises(self):
        model = FunctionModel([XSinPiece(0.0, 1.0, 1)], name="xsin0")
        with pytest.raises(NotBVError):
            jordan_decomposition(model)

    @given(st.integers(0, 128), st.integers(0, 128))
    @settings(max_examples=50, deadline=None)
    def test_triangle_bound_on_pairs(self, i, j):
        # |n(y) - n(x)| <= |p(y) - p(x)| + |F(y) - F(x)|
        zz = build_zigzag()
        dec = jordan_decomposition(zz)
        x, y = F(i, 128), F(j, 128)
        lhs = abs(dec.n.evaluate(y) - dec.n.evaluate(x))
        rhs = abs(dec.p.evaluate(y) - dec.p.evaluate(x)) + \
            abs(zz.evaluate(y) - zz.evaluate(x))
        assert lhs <= rhs


class TestUniformApprox:
    def test_knot_partition_reproduces_p(self, zigzag):
        # the achieving partition collapses the defect to zero everywhere
        u = uniform_approx(zigzag, F(1, 100))
        for x in zigzag.verification_grid(256):
            assert u.gap(x) == 0
        # symbolic check on [1/4, 1/2]: 1 + (4x - 1) = 4x
        assert u.evaluate(F(3, 8)) == F(3, 2)

    def test_identity_any_epsilon(self, identity):
        u = uniform_approx(identity, F(1, 10))
        assert u.evaluate(F(7, 16)) == F(7, 16)

    def test_cantor2_plateaus_contribute_nothing(self, cantor2):
        u = uniform_approx(cantor2, F(1, 8))
        p = variation_function(cantor2)
        for x in cantor2.verification_grid(128):
            assert u.evaluate(x) == p(x)

    def test_perturbed_partition_gap_is_positive_but_bounded(self, zigzag):
        # moving the knots by 1/64 misses the variation by exactly 24/64 = 3/8,
        # so any epsilon above 3/8 is admissible (oracle: partition_sum)
        delta = F(1, 64)
        base = (F(0), F(1, 4) - delta, F(1, 2) - delta, F(3, 4) - delta, F(1))
        defect = total_variation(zigzag).lower - partition_sum(zigzag, base)
        assert defect == F(3, 8)
        eps = F(1, 2)
        u = uniform_approx(zigzag, eps, base_partition=base)
        gaps = [u.gap(x) for x in zigzag.verification_grid(512)]
        assert all(0 <= g < eps for g in gaps)
        assert max(gaps) > 0
        # frozen spot value: p(3/8) = 3/2 while the cell rebuild reaches
        # 15/16 + |1/2 - 15/16| = 11/8, leaving a gap of exactly 1/8
        assert u.gap(F(3, 8)) == F(1, 8)

    def test_epsilon_below_defect_refused(self, zigzag):
        delta = F(1, 64)
        base = (F(0), F(1, 4) - delta, F(1, 2) - delta, F(3, 4) - delta, F(1))
        with pytest.raises(PreconditionError):
            uniform_approx(zigzag, F(1, 4), base_partition=base)

    def test_uniform_convergence_sequence(self, zigzag):
        # sup gap under eps = 2^-k stays at or below 2^-k
        grid = zigzag.verification_grid(256)
        for k in range(1, 8):
            eps = F(1, 2) ** k
            u = uniform_approx(zigzag, eps, verify_points=0)
            assert max(u.gap(x) for x in grid) <= eps

    def test_pasting_agrees_at_shared_knots(self, zigzag):
        u = uniform_approx(zigzag, F(1, 100))
        p = variation_function(zigzag)
        for knot in ZIGZAG_KNOTS:
            assert u.evaluate(knot) == p(knot)

    @pytest.mark.parametrize("epsilon", [0, -F(1, 8), 0.0, math.inf, math.nan])
    def test_epsilon_must_be_positive_and_finite(self, zigzag, epsilon):
        with pytest.raises(SpecFormatError, match="^epsilon must be positive and finite$"):
            uniform_approx(zigzag, epsilon)

    def test_a_float_epsilon_is_read_exactly_on_a_rational_model(self, zigzag):
        u = uniform_approx(zigzag, 0.01)
        assert type(u.epsilon) is F and u.epsilon == F(0.01)
        float_zigzag = FunctionModel(zigzag.pieces, arithmetic="float")
        assert uniform_approx(float_zigzag, 0.01).epsilon.hex() == (0.01).hex()


_SIGN = {INCREASING: 1, DECREASING: -1, CONSTANT: 0}


def envelope_oracle(model):
    """The O(segments x pieces) assembly of p and n: clip every expanded
    piece against every segment and keep the non-empty clips."""
    pf = variation_function(model)
    p_pieces, n_pieces = [], []
    for idx, seg in enumerate(model.monotone_segments()):
        s = _SIGN[seg.direction]
        c = pf.prefix[idx] - s * model.evaluate(seg.lo)
        for piece in model._expanded:
            lo, hi = max(piece.lo, seg.lo), min(piece.hi, seg.hi)
            if lo < hi:
                p_pieces.append(make_transformed(piece, s, 0, c, lo, hi))
                n_pieces.append(make_transformed(piece, s - 1, 0, c, lo, hi))
    return p_pieces, n_pieces


def _piece_keys(pieces):
    return [(type(p), p.lo, type(p.lo), p.hi, type(p.hi), piece_params(p))
            for p in pieces]


def assert_envelope_matches_oracle(model):
    dec = jordan_decomposition(model)
    p_want, n_want = envelope_oracle(model)
    assert _piece_keys(dec.p.pieces) == _piece_keys(p_want)
    assert _piece_keys(dec.n.pieces) == _piece_keys(n_want)


def _float_twin(model):
    return model_from_dict(dict(model_to_dict(model), arithmetic="float"))


def _cantor(level, arithmetic):
    if arithmetic == "rational":
        return build_cantor_iterate(level)
    # the float override keeps the expansion's Fraction knots
    return model_from_dict({"arithmetic": arithmetic, "pieces": [
        {"kind": "cantor_iterate", "domain": ["0", "1"], "params": {"level": level}}]})


@st.composite
def rise_fall_plateau(draw):
    """Continuous piecewise-linear knot lists mixing rises, falls and
    plateaus, so runs of same-direction pieces merge into one segment."""
    steps = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(-3, 3)),
                          min_size=1, max_size=12))
    x, y = F(draw(st.integers(-2, 2))), F(draw(st.integers(-2, 2)))
    knots = [(x, y)]
    for width, rise in steps:
        x, y = x + F(width, 3), y + F(rise, 2)
        knots.append((x, y))
    return knots


class TestEnvelopeWalk:
    """The two-pointer walk emits exactly the oracle's pieces for p and n:
    same type, domain and parameters, in the same order."""

    @pytest.mark.parametrize("entry", default_corpus(), ids=lambda e: e.name)
    def test_corpus(self, entry):
        assert_envelope_matches_oracle(entry.model)

    @pytest.mark.parametrize(
        "entry", [e for e in default_corpus() if e.model.exact],
        ids=lambda e: e.name)
    def test_corpus_float_twins(self, entry):
        assert_envelope_matches_oracle(_float_twin(entry.model))

    @pytest.mark.parametrize("arithmetic", ["rational", "float"])
    def test_cantor_levels(self, arithmetic):
        for level in range(10):
            assert_envelope_matches_oracle(_cantor(level, arithmetic))

    def test_segment_ends_inside_pieces(self, square_sym, cubic, xsin):
        # square_sym turns inside its one piece; xsin spans many segments
        # with a single piece
        assert len(square_sym.monotone_segments()) == 2
        assert len(xsin.monotone_segments()) > len(xsin.pieces)
        for model in (square_sym, cubic, xsin):
            assert_envelope_matches_oracle(model)

    @given(rise_fall_plateau())
    @settings(max_examples=60, deadline=None)
    def test_random_piecewise_linear(self, knots):
        model = piecewise_linear(knots)
        assert_envelope_matches_oracle(model)
        assert_envelope_matches_oracle(_float_twin(model))

    def test_wide_and_float_critical_models(self):
        # test_windows imports this module, so its models load here
        from test_windows import _coprime_model, _cubic_models

        # knots over a 2,684-bit common denominator, in both modes, and
        # float criticals beside Fraction knots
        coprime = _coprime_model()
        assert coprime.monotone_segments().scale.bit_length() == 2684
        for model in (coprime, _float_twin(coprime), *_cubic_models()):
            assert_envelope_matches_oracle(model)

    def test_cantor_10_decomposition(self):
        model = build_cantor_iterate(10)
        dec = jordan_decomposition(model)
        assert dec.p.evaluate(1) == 1
        assert all(dec.n.evaluate(k) == 0 for k in model.knots())

    def test_jordan_reuses_the_cached_pair(self, zigzag):
        dec = jordan_decomposition(zigzag)
        assert jordan_decomposition(zigzag) is dec
        assert dec.p_function is variation_function(zigzag)
