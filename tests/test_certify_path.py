"""The certificate path without repeated work, against the code it replaced.

Family levels built from integers, the propagation search that measures
each level once, and the segment lookups on integer keys (``window``,
``_solve_in_segment`` and the ``image_set`` walk, in both arithmetic
modes) are each compared with the previous route, kept here as the
oracle: equal values of the same type, the same open flags, and floats by
their bits.
"""

import math
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit import certificate, measure
from bvkit.certificate import (
    PropagationReport,
    PropagationRow,
    lusin_propagation_check,
    variation_certificate,
)
from bvkit.errors import PreconditionError
from bvkit.intervals import Interval, IntervalSet
from bvkit.measure import (
    FAILS,
    NullSetFamily,
    cantor_family,
    image_measure,
    image_set,
    lusin_probe,
    shrinking_family,
)
from bvkit.model import CONSTANT, Segment, build_cantor_iterate, build_zigzag, piecewise_linear

from oracles import bisected_window_oracle as window_oracle
from oracles import windowed_image_set_oracle as image_set_oracle
from test_evaluation_routes import _interval_keys, _key, _keys
from test_integer_intervals import _cantor_level
from test_variation import _cantor, _float_twin, rise_fall_plateau
from test_windows import _coprime_model, _cubic_models, _sawtooth

F = Fraction


# ---------------------------------------------------------------------------
# the previous routes, kept as oracles
# ---------------------------------------------------------------------------


def level_oracle(family, j):
    """``NullSetFamily.level`` in Fraction arithmetic, as it was."""
    a, b = family.domain
    if not (isinstance(a, float) or isinstance(b, float)):
        a, b = measure.frac(a), measure.frac(b)
    if family.kind == "cantor_levels":
        span = b - a
        return IntervalSet(
            Interval(a + lo * span, a + hi * span) for lo, hi in _cantor_level(j))
    w = (b - a) / family.count
    ratio = measure.frac(family.rate) ** j
    if isinstance(w, float):
        ratio = float(ratio)
    return IntervalSet(
        Interval(a + i * w, a + i * w + ratio * w) for i in range(family.count))


def propagation_oracle(model, family, eps_schedule, max_level=40, probe_levels=6,
                       max_components=4096):
    """The search that built and measured each level afresh per epsilon."""
    probe = lusin_probe(model, family, probe_levels)
    if probe.verdict == FAILS:
        raise PreconditionError("model fails its null-family probe; "
                                "propagation is vacuous")
    rows = []
    for eps in eps_schedule:
        chosen = None
        for j in range(1, max_level + 1):
            if family.component_count(j) > max_components:
                break
            nj = family.level(j)
            img = image_measure(model, nj)
            if 2 * img < eps and 2 * nj.measure < eps:
                chosen = (j, nj, img)
                break
        if chosen is None:
            zero = model.zero
            rows.append(PropagationRow(eps, None, zero, zero, zero, zero,
                                       False, False))
            continue
        j, nj, img = chosen
        trace = variation_certificate(model, nj, eps)
        rows.append(PropagationRow(eps, j, nj.measure, img,
                                   trace.max_p_sum, trace.max_n_sum,
                                   True, trace.ok))
    return PropagationReport(tuple(rows))


def solve_oracle(model, seg, y):
    """``_solve_in_segment`` with its pieces found by bisecting the starts;
    the rational branch only (a rational model has no float fallback)."""
    lo_i = bisect_right(model._starts, seg.lo) - 1
    hi_i = bisect_right(model._starts, seg.hi) - 1
    if hi_i >= len(model._expanded) or model._expanded[hi_i].lo == seg.hi:
        hi_i -= 1
    increasing = seg.direction != "decreasing"
    for i in range(max(lo_i, 0), hi_i + 1):
        p = model._expanded[i]
        plo, phi = max(p.lo, seg.lo), min(p.hi, seg.hi)
        v_lo, v_hi = p.value(plo), p.value(phi)
        lo_v, hi_v = (v_lo, v_hi) if increasing else (v_hi, v_lo)
        if lo_v <= y <= hi_v:
            if v_lo == y:
                return plo
            if v_hi == y:
                return phi
            return p.solve(y, plo, phi)
    raise PreconditionError(f"value {y} not attained on segment [{seg.lo}, {seg.hi}]")


# ---------------------------------------------------------------------------
# family levels
# ---------------------------------------------------------------------------

DOMAINS = [(0, 1), (F(1, 3), F(5, 7)), (-2, F(-1, 3)), ("1/4", "3"), (F(-7, 2), 0),
           (0.0, 1.0), (-0.5, 0.25), (0, 1.0), (F(1, 3), 2.0), (-3.0, -1)]
DOMAIN_IDS = ["int", "fraction", "negative", "strings", "negative-to-zero",
              "float", "float-negative", "int-float", "fraction-float", "float-int"]


def assert_same_level(got, want):
    assert _interval_keys(got) == _interval_keys(want)
    assert _key(got.measure) == _key(want.measure)


class TestFamilyLevels:
    @pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
    def test_cantor_levels(self, domain):
        family = cantor_family(domain)
        for j in range(1, 11):
            assert_same_level(family.level(j), level_oracle(family, j))

    @pytest.mark.parametrize("rate", [F(1, 2), F(2, 3)], ids=["half", "two-thirds"])
    @pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
    def test_shrinking_levels(self, domain, rate):
        for count in range(1, 65):
            family = shrinking_family(domain, count=count, rate=rate)
            for j in (1, 2, 3, 7):
                assert_same_level(family.level(j), level_oracle(family, j))

    def test_exact_ends_are_fractions(self):
        for family in (cantor_family((0, 1)), shrinking_family((0, 2), count=3)):
            ends = [e for iv in family.level(2) for e in (iv.lo, iv.hi)]
            assert {type(e) for e in ends} == {Fraction}

    def test_refusals_come_first(self):
        with pytest.raises(measure.SpecFormatError, match="levels start at 1"):
            cantor_family().level(0)
        custom = NullSetFamily("custom", (0, 1), levels=(IntervalSet.closed(0, F(1, 2)),))
        assert custom.level(1) == IntervalSet.closed(0, F(1, 2))
        with pytest.raises(measure.SpecFormatError, match="only 1 levels"):
            custom.level(2)
        # the domain is read before a custom family's levels, as it was
        unreadable = NullSetFamily("custom", ("x", 1), levels=custom.levels)
        with pytest.raises(measure.SpecFormatError, match="cannot parse rational"):
            unreadable.level(1)


# ---------------------------------------------------------------------------
# propagation measures each level once
# ---------------------------------------------------------------------------


def _propagation_cases():
    cantor2, zigzag = build_cantor_iterate(2), build_zigzag()
    pl = piecewise_linear([(0, 0), (F(1, 3), F(1, 2)), (F(1, 2), F(1, 2)), (1, F(3, 2))])
    schedule = [F(1, 2), F(1, 8), F(1, 64), F(1, 4), F(1, 2), F(1, 4096)]
    cases = [
        (cantor2, shrinking_family((0, 1)), schedule, {}),
        (cantor2, shrinking_family((0, 1), count=4), schedule, {"max_level": 12}),
        (zigzag, shrinking_family((0, 1), count=3, rate=F(2, 3)), schedule, {}),
        (zigzag, cantor_family((0, 1)), schedule, {"max_level": 9, "max_components": 64}),
        (pl, cantor_family((0, 1)), schedule, {"max_components": 4, "probe_levels": 4}),
        (pl, shrinking_family((0, 1), count=2), schedule, {"probe_levels": 8}),
        (_float_twin(pl), shrinking_family((0.0, 1.0), count=2),
         [0.5, 0.125, 0.015625, 0.25], {}),
        (_float_twin(cantor2), cantor_family((0.0, 1.0)), [0.5, 0.125, 0.25],
         {"max_level": 7}),
    ]
    ids = ["cantor2-one", "cantor2-four", "zigzag-rate", "zigzag-cantor-budget",
           "pl-cantor-tight", "pl-deep-probe", "pl-float", "cantor2-float"]
    return cases, ids


PROPAGATION, PROPAGATION_IDS = _propagation_cases()


class TestPropagationSearch:
    @pytest.mark.parametrize("model,family,schedule,options", PROPAGATION,
                             ids=PROPAGATION_IDS)
    def test_reports_match_the_search_that_measured_again(self, model, family,
                                                          schedule, options):
        got = lusin_propagation_check(model, family, schedule, **options)
        want = propagation_oracle(model, family, schedule, **options)
        assert got == want
        for g, w in zip(got.rows, want.rows):
            assert _keys([g.set_measure, g.image_measure, g.max_p_sum, g.max_n_sum]) == \
                _keys([w.set_measure, w.image_measure, w.max_p_sum, w.max_n_sum])

    @pytest.mark.parametrize("model,family,schedule,options", PROPAGATION,
                             ids=PROPAGATION_IDS)
    def test_each_level_is_measured_and_built_once(self, model, family, schedule,
                                                   options, monkeypatch):
        max_components = options.get("max_components", 4096)
        probe_levels = options.get("probe_levels", 6)
        # every level the search could read, and the first one past the budget
        levels = {}
        for j in range(1, options.get("max_level", 40) + 1):
            levels[family.level(j).components] = j
            if family.component_count(j) > max_components and j > probe_levels:
                break
        measured, built = [], []
        real_measure, real_level = measure.image_measure, NullSetFamily.level

        def counting_measure(m, E):
            if m is model and E.components in levels:
                measured.append(levels[E.components])
            return real_measure(m, E)

        def counting_level(self, j):
            built.append(j)
            return real_level(self, j)

        monkeypatch.setattr(measure, "image_measure", counting_measure)
        monkeypatch.setattr(certificate, "image_measure", counting_measure)
        monkeypatch.setattr(NullSetFamily, "level", counting_level)
        lusin_propagation_check(model, family, schedule, **options)
        # the probe measures levels 1 to probe_levels, and nothing is
        # measured twice; past the probe only levels within the budget are
        assert measured[:probe_levels] == list(range(1, probe_levels + 1))
        assert len(measured) == len(set(measured))
        assert all(family.component_count(j) <= max_components
                   for j in measured[probe_levels:])
        # the probe's sets are kept for the search, so every level,
        # chosen or not, is built once
        for j in set(built):
            assert built.count(j) == 1, j


# ---------------------------------------------------------------------------
# segment lookups on integer keys
# ---------------------------------------------------------------------------

CANTOR_LEVELS = [build_cantor_iterate(level) for level in range(1, 10)]
CANTOR_IDS = [f"cantor_{level}" for level in range(1, 10)]
# the float override keeps the expansion's Fraction knots, so float points
# are placed among Fraction knots
FLOAT_CANTOR = [_cantor(level, "float") for level in range(1, 9)]
FLOAT_CANTOR_IDS = [f"cantor_{level}-float" for level in range(1, 9)]


WIDE = [_sawtooth(16), _float_twin(_sawtooth(16)), *_cubic_models(), _coprime_model(),
        _float_twin(_coprime_model())]
WIDE_IDS = ["saw_16", "saw_16-float", "cubic-float", "mixed-float", "coprime",
            "coprime-float"]
LOOKUP_MODELS = CANTOR_LEVELS + [build_zigzag()] + FLOAT_CANTOR + WIDE
LOOKUP_IDS = CANTOR_IDS + ["zigzag"] + FLOAT_CANTOR_IDS + WIDE_IDS


def _points(model):
    """Knots, points inside segments, the domain ends and points past them,
    -0.0 and the infinities, in the model's types and as floats."""
    knots = model.monotone_segments().knots()
    step = max(1, len(knots) // 40)
    pts = list(knots[::step]) + [knots[-1]]
    pts += [(u + v) / 2 for u, v in zip(knots[::step], knots[1::step])]
    pts += [(2 * u + v) / 3 for u, v in zip(knots[::step], knots[1::step])]
    a, b = model.a, model.b
    pts += [a - 1, a - F(1, 7), b + F(1, 9), b + 2, int(a), int(b)]
    pts += [float(x) for x in pts[::3]] + [-0.0, -math.inf, math.inf]
    return pts


def assert_windows_match(model):
    segmentation = model.monotone_segments()
    pts = sorted(_points(model))
    for i, lo in enumerate(pts):
        for hi in pts[i::max(1, len(pts) // 12)]:
            # float ends on exact knots, and inverted windows
            for u, v in ((lo, hi), (float(lo), hi), (lo, float(hi)), (hi, lo)):
                assert segmentation.window(u, v) == window_oracle(segmentation, u, v)


def assert_solves_match(model):
    segmentation = model.monotone_segments()
    values = segmentation.values
    for k, seg in enumerate(segmentation.segments):
        if seg.direction == CONSTANT:
            continue
        u, v = sorted((values[k], values[k + 1]))
        # the pieces of the segment, and of a part of it with float ends as
        # level_points may pass
        part = Segment(float(seg.lo), float(seg.hi), seg.direction)
        for s, y in [(seg, u), (seg, v), (seg, (u + v) / 2), (seg, (3 * u + v) / 4),
                     (part, (u + v) / 2)]:
            got = model._solve_in_segment(s, y)
            try:
                want = solve_oracle(model, s, y)
            except PreconditionError:
                # a float y that misses every piece by rounding snaps to a
                # point within the grace, a tolerance policy and no lookup
                assert not model.exact
                assert abs(model.evaluate(got) - y) <= model.grace
                continue
            assert _key(got) == _key(want)
        if u < v:
            with pytest.raises(PreconditionError, match="not attained"):
                model._solve_in_segment(seg, v + 1)


def assert_keys_order_as_values(model):
    """A knot is below a point, or at most the point, exactly when its key
    is below, or at most, the point's key."""
    segmentation = model.monotone_segments()
    pts = _points(model)
    step = max(1, len(segmentation.bounds) // 40)
    for knot, knot_key in zip(segmentation.bounds[::step], segmentation.keys[::step]):
        assert segmentation.key(knot) == knot_key
        for x in pts:
            x_key = segmentation.key(x)
            assert (knot_key < x_key, knot_key <= x_key) == (knot < x, knot <= x), (knot, x)
    starts = [p.lo for p in model._expanded]
    assert list(segmentation.starts) == [segmentation.key(s) for s in starts]


class TestPairLookups:
    """``window`` and ``_solve_in_segment`` on integer keys, against the
    routes that bisected the knots' values."""

    @pytest.mark.parametrize("model", LOOKUP_MODELS, ids=LOOKUP_IDS)
    def test_window_and_solve(self, model):
        assert_windows_match(model)
        assert_solves_match(model)
        assert_keys_order_as_values(model)

    @given(rise_fall_plateau())
    @settings(max_examples=40, deadline=None)
    def test_window_and_solve_on_random_models(self, knots):
        model = piecewise_linear(knots)
        for m in (model, _float_twin(model)):
            assert_windows_match(m)
            assert_solves_match(m)
            assert_keys_order_as_values(m)

    def test_float_bounds(self):
        model = _float_twin(build_zigzag())
        segmentation = model.monotone_segments()
        for lo, hi in ((0, F(1, 3)), (F(1, 4), F(1, 4)), (0.3, 0.9), (-0.0, 0.25)):
            assert segmentation.window(lo, hi) == window_oracle(segmentation, lo, hi)

    def test_wide_denominator(self):
        segmentation = _coprime_model().monotone_segments()
        assert segmentation.scale.bit_length() == 2684
        assert len(segmentation) == 199


@st.composite
def sets_on(draw, model):
    """Interval sets with open and closed ends, point components, ends on
    knots and ends past the domain, in the model's types and as floats,
    -0.0 and the infinities among them."""
    knots = model.monotone_segments().knots()
    a, b = model.a, model.b
    w = b - a
    exact = st.one_of(st.sampled_from(knots),
                      st.integers(-12, 60).map(lambda k: a + w * F(k, 48)),
                      st.sampled_from([a - 1, b + 1, int(a), int(b)]))
    spots = st.one_of(exact, exact.map(float),
                      st.sampled_from([-0.0, -math.inf, math.inf]))
    comps = []
    for _ in range(draw(st.integers(0, 8))):
        u, v = sorted((draw(spots), draw(spots)))
        point = draw(st.booleans())
        if point:
            if math.isinf(u):
                continue
            comps.append(Interval(u, u))
        else:
            comps.append(Interval(u, v, draw(st.booleans()), draw(st.booleans())))
    return IntervalSet(comps)


def assert_images_match(model, E):
    got = image_set(model, E)
    assert _interval_keys(got) == _interval_keys(image_set_oracle(model, E))


def _family_sets(model, levels=7):
    a, b = model.a, model.b
    families = (cantor_family((a, b)), shrinking_family((a, b), count=7),
                shrinking_family((a + (b - a) / 5, b - (b - a) / 5), count=3))
    return [family.level(j) for family in families for j in range(1, levels + 1)]


def _float_ends(E):
    return IntervalSet(Interval(float(c.lo), float(c.hi), c.lo_open, c.hi_open) for c in E)


def _knot_sets(model):
    """Every segment as a closed, an open and a point component."""
    knots = model.monotone_segments().knots()
    return [IntervalSet(Interval(u, v) for u, v in zip(knots[::2], knots[1::2])),
            IntervalSet(Interval(u, v, True, True) for u, v in zip(knots, knots[1:])),
            IntervalSet(Interval(u, u) for u in knots)]


class TestImageSetWalk:
    @pytest.mark.parametrize("model", CANTOR_LEVELS + FLOAT_CANTOR,
                             ids=CANTOR_IDS + FLOAT_CANTOR_IDS)
    def test_cantor_levels(self, model):
        for E in _family_sets(model) + _knot_sets(model):
            assert_images_match(model, E)
            if not model.exact:
                assert_images_match(model, _float_ends(E))

    @pytest.mark.parametrize("model", WIDE, ids=WIDE_IDS)
    def test_wide_and_float_models(self, model):
        for E in _family_sets(model, 5) + _knot_sets(model):
            assert_images_match(model, E)
            assert_images_match(model, _float_ends(E))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_sets_on_random_models(self, data):
        model = piecewise_linear(data.draw(rise_fall_plateau()))
        model = data.draw(st.sampled_from([model, _float_twin(model)]))
        assert_images_match(model, data.draw(sets_on(model)))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_sets_on_cantor_levels(self, data):
        model = data.draw(st.sampled_from(CANTOR_LEVELS[:6] + FLOAT_CANTOR[:6]))
        assert_images_match(model, data.draw(sets_on(model)))

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_sets_on_wide_and_float_models(self, data):
        model = data.draw(st.sampled_from(WIDE))
        assert_images_match(model, data.draw(sets_on(model)))

    def test_float_ends_on_rational_models(self):
        model = build_zigzag()
        for E in (IntervalSet.closed(0.1, 0.6), IntervalSet.open(0.25, 0.75),
                  IntervalSet([Interval(0, F(1, 8)), Interval(0.5, 0.5),
                               Interval(F(5, 8), 0.9, True, False)]),
                  IntervalSet([Interval(-math.inf, -0.0), Interval(0.25, math.inf)])):
            assert_images_match(model, E)
