"""Interval sets and sorted grids on integer positions, against the
``(value, eps)`` code they replaced.

The reference constructor, measure loop, set algebra and
``_sorted_unique`` below are the earlier implementations, kept verbatim
as oracles.  Every comparison is component by component: the ``lo`` and
``hi`` objects by value and by type, the open flags, ``_starts``, and the
value and type of ``measure``.
"""

import math
import re
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bvkit._num import EXPONENT_LIMIT, frac, uniform_grid
from bvkit.certificate import shift_certificate
from bvkit.errors import SpecFormatError
from bvkit.intervals import Interval, IntervalSet, positions
from bvkit.measure import cantor_family, split_cover_at
from bvkit.model import (
    CantorPiece,
    FunctionModel,
    _sorted_unique,
    build_cantor_iterate,
    piecewise_linear,
)

# ---------------------------------------------------------------------------
# the reference: sort and merge on (value, eps) keys
# ---------------------------------------------------------------------------

_NEG_INF = float("-inf")
_POS_INF = float("inf")


def ref_start_key(iv):
    return (iv.lo, 1 if iv.lo_open else 0)


def ref_end_key(iv):
    return (iv.hi, -1 if iv.hi_open else 0)


def ref_from_keys(start_key, end_key):
    (lo, se), (hi, ee) = start_key, end_key
    return Interval(lo, hi, lo_open=(se == 1), hi_open=(ee == -1))


def ref_gap_between(end_key, start_key):
    (v, ee), (w, se) = end_key, start_key
    if v < w:
        return True
    return v == w and ee == -1 and se == 1


def ref_components(intervals):
    comps = sorted(
        (iv for iv in intervals if not iv.empty),
        key=lambda iv: (ref_start_key(iv), ref_end_key(iv)),
    )
    merged = []
    for iv in comps:
        if merged and not ref_gap_between(ref_end_key(merged[-1]), ref_start_key(iv)):
            last = merged[-1]
            if ref_end_key(iv) > ref_end_key(last):
                merged[-1] = ref_from_keys(ref_start_key(last), ref_end_key(iv))
        else:
            merged.append(iv)
    return tuple(merged)


def ref_measure(components):
    total = 0
    for iv in components:
        total += iv.length
    return total


def ref_sorted_unique(values):
    out = []
    for v in sorted(values):
        if not out or v != out[-1]:
            out.append(v)
    return out


class RefSet:
    """The earlier set algebra, every result built by ref_components."""

    def __init__(self, intervals=()):
        self.components = ref_components(intervals)

    def union(self, other):
        return RefSet(self.components + other.components)

    def intersect(self, other):
        out = []
        a, b = self.components, other.components
        i = j = 0
        while i < len(a) and j < len(b):
            piece = a[i].intersect(b[j])
            if not piece.empty:
                out.append(piece)
            if ref_end_key(a[i]) < ref_end_key(b[j]):
                i += 1
            else:
                j += 1
        return RefSet(out)

    def complement(self):
        out = []
        prev_end = (_NEG_INF, 1)
        for iv in self.components:
            sk = ref_start_key(iv)
            end = (sk[0], sk[1] - 1)
            if prev_end <= end:
                out.append(ref_from_keys(prev_end, end))
            ek = ref_end_key(iv)
            prev_end = (ek[0], ek[1] + 1)
        tail = (_POS_INF, -1)
        if prev_end <= tail:
            out.append(ref_from_keys(prev_end, tail))
        return RefSet(out)

    def difference(self, other):
        return self.intersect(other.complement())

    def clip(self, lo, hi, lo_open=False, hi_open=False):
        window = Interval(lo, hi, lo_open, hi_open)
        comps = self.components
        out = []
        starts = [iv.lo for iv in comps]
        for i in range(max(bisect_right(starts, lo) - 1, 0), len(comps)):
            comp = comps[i]
            if comp.lo > hi:
                break
            piece = comp.intersect(window)
            if not piece.empty:
                out.append(piece)
        return RefSet(out)

    def affine(self, scale, offset):
        out = []
        for iv in self.components:
            u = scale * iv.lo + offset
            v = scale * iv.hi + offset
            if scale >= 0:
                out.append(Interval(u, v, iv.lo_open, iv.hi_open))
            else:
                out.append(Interval(v, u, iv.hi_open, iv.lo_open))
        return RefSet(out)


def same_value(got, want):
    return type(got) is type(want) and got == want


def assert_same(got: IntervalSet, want):
    """got against the reference components (a RefSet or a tuple)."""
    comps = want.components if isinstance(want, RefSet) else tuple(want)
    assert len(got.components) == len(comps), (got, comps)
    for g, w in zip(got.components, comps):
        assert same_value(g.lo, w.lo), (g, w)
        assert same_value(g.hi, w.hi), (g, w)
        assert (g.lo_open, g.hi_open) == (w.lo_open, w.hi_open), (g, w)
    assert len(got._starts) == len(comps)
    assert all(same_value(s, w.lo) for s, w in zip(got._starts, comps))
    m, wm = got.measure, ref_measure(comps)
    assert same_value(m, wm), (m, wm)


def assert_same_values(got, want):
    assert len(got) == len(want), (got, want)
    assert all(same_value(g, w) for g, w in zip(got, want)), (got, want)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# denominators of 1,366 bits: D runs past 4,096 bits within a few endpoints
HUGE = 2 ** 1365


@st.composite
def endpoints(draw, kinds=("int", "fraction", "fraction", "float", "huge")):
    """A value from a small pool, so that equal values, shared ends and
    overhang are common; an int-valued point may come as an int or as a
    Fraction of equal value."""
    value = F(draw(st.integers(-8, 16)), draw(st.sampled_from([1, 2, 3, 4, 6])))
    kind = draw(st.sampled_from(kinds))
    if kind == "float":
        return float(value)
    if kind == "huge":
        return value + F(draw(st.integers(-3, 3)), HUGE + draw(st.integers(0, 10 ** 6)))
    if kind == "int" and value.denominator == 1:
        return int(value)
    return value


@st.composite
def interval_lists(draw, kinds=("int", "fraction", "fraction", "float", "huge")):
    point = endpoints(kinds)
    out = []
    for _ in range(draw(st.integers(0, 8))):
        lo = draw(point)
        hi = lo if draw(st.integers(0, 4)) == 0 else draw(point)
        out.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return out


EXACT = ("int", "fraction")
# which route a set takes: exact sets take positions at any size, and one
# float sends a set to the values
KINDS = st.sampled_from([EXACT, EXACT, ("int", "fraction", "huge"),
                         ("int", "fraction", "fraction", "float", "huge")])


@st.composite
def set_pairs(draw):
    kinds = draw(KINDS)
    return draw(interval_lists(kinds)), draw(interval_lists(kinds))


def built(ivs):
    return IntervalSet(ivs), RefSet(ivs)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestPositions:
    def test_scale_and_order(self):
        den, at = positions([F(1, 2), 3, F(-2, 3), F(4, 6)])
        assert den == 6
        assert at == [3, 18, -4, 4]

    def test_refuses_floats_and_bools_and_scales_huge_denominators(self):
        assert positions([F(1, 2), 0.5]) is None
        assert positions([1, True]) is None
        dens = [HUGE + 1, HUGE + 3, HUGE + 5, HUGE + 7]
        den, at = positions([F(1, d) for d in dens])
        assert den == math.lcm(*dens) and den.bit_length() > 4096
        assert at == [den // d for d in dens]
        assert positions([]) == (1, [])

    def test_huge_exact_sets_take_positions(self):
        small = [Interval(F(1, 3), F(1, 2)), Interval(0, F(1, 7))]
        assert IntervalSet(small)._span is not None
        huge = small + [Interval(F(k, HUGE + k), F(1, 2) + F(k, HUGE + k))
                        for k in range(1, 6)]
        assert IntervalSet(huge)._span is not None
        assert_same(IntervalSet(huge), ref_components(huge))


class TestConstructor:
    @given(KINDS.flatmap(interval_lists))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, ivs):
        assert_same(IntervalSet(ivs), ref_components(ivs))

    @given(interval_lists(EXACT))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_exact_ends(self, ivs):
        assert_same(IntervalSet(ivs), ref_components(ivs))

    def test_equal_keys_keep_input_order(self):
        # equal values of int and Fraction type: the first one given wins
        a = Interval(F(0), 1)
        b = Interval(0, F(1))
        assert_same(IntervalSet([a, b]), ref_components([a, b]))
        assert type(IntervalSet([a, b]).lo) is F
        assert type(IntervalSet([b, a]).lo) is int
        # an equal end does not extend the component: its hi stays
        c = Interval(F(1, 2), 1)
        got = IntervalSet([b, c])
        assert type(got.hi) is F and got.measure == 1 and type(got.measure) is F

    def test_touching_ends(self):
        cases = [
            [Interval(0, 1, hi_open=True), Interval(1, 2, lo_open=True)],
            [Interval(0, 1, hi_open=True), Interval(1, 2)],
            [Interval(0, 1), Interval(1, 2, lo_open=True)],
            [Interval(0, 1), Interval(F(1), 1), Interval(1, 1, True)],
            [Interval(0, 0, True), Interval(2, 1), Interval(F(1, 2), F(1, 2))],
        ]
        for ivs in cases:
            assert_same(IntervalSet(ivs), ref_components(ivs))
        assert len(IntervalSet(cases[0])) == 2
        assert len(IntervalSet(cases[1])) == 1

    def test_measure_type_follows_the_kept_ends(self):
        # the absorbed Fraction does not make the measure a Fraction
        ints = IntervalSet([Interval(0, 3), Interval(F(1, 2), F(5, 2))])
        assert ints.measure == 3 and type(ints.measure) is int
        mixed = IntervalSet([Interval(0, F(3))])
        assert mixed.measure == 3 and type(mixed.measure) is F
        assert type(IntervalSet().measure) is int
        assert type(IntervalSet([Interval(0.0, 1)]).measure) is float


class TestAlgebra:
    @given(set_pairs())
    @settings(max_examples=300, deadline=None)
    def test_binary_operations(self, pair):
        (a, ra), (b, rb) = built(pair[0]), built(pair[1])
        assert_same(a.union(b), ra.union(rb))
        assert_same(a.intersect(b), ra.intersect(rb))
        assert_same(a.difference(b), ra.difference(rb))
        assert_same(b.difference(a), rb.difference(ra))

    @given(KINDS.flatmap(interval_lists))
    @settings(max_examples=200, deadline=None)
    def test_complement(self, ivs):
        a, ra = built(ivs)
        assert_same(a.complement(), ra.complement())
        assert_same(a.complement().complement(), ra.complement().complement())

    @given(KINDS.flatmap(interval_lists), endpoints(), endpoints(),
           st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_clip(self, ivs, lo, hi, lo_open, hi_open):
        a, ra = built(ivs)
        assert_same(a.clip(lo, hi, lo_open, hi_open), ra.clip(lo, hi, lo_open, hi_open))
        if a.is_empty:
            return
        # a window around the whole set, and windows that shave each end
        assert_same(a.clip(a.lo, a.hi), ra.clip(a.lo, a.hi))
        assert_same(a.clip(a.lo, a.hi, True, True), ra.clip(a.lo, a.hi, True, True))
        assert_same(a.clip(a.lo - 1, a.hi), ra.clip(a.lo - 1, a.hi))

    def test_clip_inside_the_window_is_the_set(self):
        a = IntervalSet.from_pairs([(F(1, 3), F(1, 2)), (F(2, 3), 1)])
        assert a.clip(0, 1) is a
        assert a.clip(F(1, 3), 1) is a
        overhang = a.clip(F(1, 3), 1, lo_open=True)
        assert overhang is not a and overhang.lo == F(1, 3) and overhang.components[0].lo_open
        assert a.clip(0, F(9, 10)).hi == F(9, 10)

    @given(KINDS.flatmap(interval_lists), endpoints(EXACT + ("float",)),
           endpoints(EXACT + ("float",)))
    @settings(max_examples=200, deadline=None)
    def test_affine(self, ivs, scale, offset):
        a, ra = built(ivs)
        assert_same(a.affine(scale, offset), ra.affine(scale, offset))

    @given(KINDS.flatmap(interval_lists), st.lists(endpoints(), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_split_cover_at(self, ivs, values):
        a, ra = built(ivs)
        want = ra.difference(RefSet(Interval(v, v) for v in values))
        assert_same(split_cover_at(a, values), want)


def _cantor_level(j):
    """The middle-third intervals of level j in Fraction arithmetic, as
    ``bvkit.measure`` built them before its levels came from integers."""
    comps = [(F(0), F(1))]
    for _ in range(j):
        nxt = []
        for lo, hi in comps:
            w = (hi - lo) / 3
            nxt.append((lo, lo + w))
            nxt.append((hi - w, hi))
        comps = nxt
    return comps


def cantor_level_intervals(j):
    a, b = frac(0), frac(1)
    return [Interval(a + lo * (b - a), a + hi * (b - a)) for lo, hi in _cantor_level(j)]


class TestCantorLevels:
    @pytest.mark.parametrize("j", range(1, 10))
    def test_levels_and_their_algebra(self, j):
        ivs = cantor_level_intervals(j)
        level = cantor_family().level(j)
        assert_same(level, ref_components(ivs))
        ref = RefSet(ivs)
        nxt = RefSet(cantor_level_intervals(j + 1))
        nxt_set = cantor_family().level(j + 1)
        assert_same(level.union(nxt_set), ref.union(nxt))
        assert_same(level.intersect(nxt_set), ref.intersect(nxt))
        assert_same(level.difference(nxt_set), ref.difference(nxt))
        assert_same(level.complement(), ref.complement())
        assert level.clip(0, 1) is level
        assert_same(level.clip(F(1, 5), F(4, 5)), ref.clip(F(1, 5), F(4, 5)))
        assert_same(level.affine(F(-1, 2), 1), ref.affine(F(-1, 2), 1))
        assert_same(level.affine(2, F(1, 3)).union(level),
                    ref.affine(2, F(1, 3)).union(ref))
        cuts = [F(1, 2), F(1, 4), F(7, 9)]
        assert_same(split_cover_at(level, cuts),
                    ref.difference(RefSet(Interval(v, v) for v in cuts)))

    @pytest.mark.parametrize("level", [3, 6, 9])
    def test_verification_grid(self, level):
        model = build_cantor_iterate(level)
        for n in (2, 1000, 4096):
            pts = uniform_grid(model.a, model.b, n, True)
            pts.extend(model.knots())
            assert_same_values(model.verification_grid(n), ref_sorted_unique(pts))


class TestSortedUnique:
    @given(st.lists(endpoints(), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, values):
        assert_same_values(_sorted_unique(values), ref_sorted_unique(values))

    @given(st.lists(endpoints(EXACT), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_on_exact_values(self, values):
        assert_same_values(_sorted_unique(values), ref_sorted_unique(values))

    def test_first_of_equal_values_is_kept(self):
        assert_same_values(_sorted_unique([F(1), 0, 1, F(0)]), [0, F(1)])
        assert_same_values(_sorted_unique(iter([1, F(1, 2), F(1)])), [F(1, 2), 1])


# ---------------------------------------------------------------------------
# what rides along: the plateau cut, spec numbers, float Cantor wrappers
# ---------------------------------------------------------------------------


@st.composite
def monotone_models(draw):
    count = draw(st.integers(3, 7))
    ys = sorted(draw(st.integers(-8, 8)) for _ in range(count))
    return piecewise_linear([(F(i, count - 1), F(y, 4)) for i, y in enumerate(ys)])


def assert_trimmed_by_the_plateau_scan(trace):
    """The trimmed components against the scan of every plateau."""
    want = []
    for comp in trace.open_core:
        cut = [iv for iv, _ in trace.plateaus
               if iv.contains(comp.lo) or iv.contains(comp.hi)]
        want.extend(IntervalSet((comp,)).difference(IntervalSet(cut)).components)
    assert_same_values([(c.lo, c.hi) for c in trace.trimmed],
                       [(c.lo, c.hi) for c in want])
    assert trace.trimmed == tuple(want)


class TestPlateauCut:
    @given(monotone_models(), st.lists(st.integers(0, 197), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_trimmed_matches_the_plateau_scan(self, model, spots):
        nullset = IntervalSet.from_pairs([(F(p, 200), F(p, 200) + F(1, 500)) for p in spots])
        assert_trimmed_by_the_plateau_scan(shift_certificate(model, nullset, F(1, 4)))

    # rises on [0, 1/4] and [1/2, 3/4], plateaus on [1/4, 1/2] and [3/4, 1]
    @pytest.mark.parametrize("lo, hi, eps, ends", [
        (F(23, 100), F(24, 100), F(1, 4), "hi"),
        (F(51, 100), F(52, 100), F(1, 4), "lo"),
        (F(62, 100), F(63, 100), F(1, 2), "both"),
    ], ids=["hi-in-plateau", "lo-in-plateau", "both-in-plateaus"])
    def test_core_ends_on_plateaus(self, lo, hi, eps, ends):
        model = piecewise_linear([(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 4)),
                                  (F(3, 4), F(1, 2)), (1, F(1, 2))])
        trace = shift_certificate(model, IntervalSet.closed(lo, hi), eps)
        (comp,) = trace.open_core
        held = {end for end, x in (("lo", comp.lo), ("hi", comp.hi))
                if any(iv.contains(x) for iv, _ in trace.plateaus)}
        assert held == ({"lo", "hi"} if ends == "both" else {ends})
        assert_trimmed_by_the_plateau_scan(trace)


SPEC_NUMBERS = [" 3/4 ", "3/ 4", "1_0", "+1", "0.25", "1e3", "1/0", "٣", "3/٤",
                "-7/14", "-0", "007/010", "--1", "-", "/4", "4/", "1/-2", "½",
                "²", "1 /2", "", " ", "nan", "inf", "3/4/5", "1.5/2", "-1_000/3",
                "1e4300", "-2.5E-4300", "1e4301", "1e-4301", "1E+99999999", "1e1_0000",
                "1e٤٣٠١", "1e 99999", "1/2e99999", "x e99999"]


# the exponent that ends a spelling, as Fraction(str) reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)


def assert_frac_like_fraction(text):
    """frac reads text as Fraction(str) does, but refuses an exponent past
    EXPONENT_LIMIT, for which Fraction(str) would build 10**exp in full."""
    exponent = _EXPONENT.search(text.strip())
    if exponent and abs(int(exponent[1])) > EXPONENT_LIMIT:
        with pytest.raises(SpecFormatError, match=r"^cannot parse rational .*: its exponent "
                                                  r"is past 4300$"):
            frac(text)
        return
    try:
        want = F(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SpecFormatError, match=r"^cannot parse rational "):
            frac(text)
        return
    got = frac(text)
    assert type(got) is F and got == want


class TestSpecNumbers:
    @pytest.mark.parametrize("text", SPEC_NUMBERS)
    def test_examples(self, text):
        assert_frac_like_fraction(text)

    @given(st.text(alphabet=st.sampled_from("0123456789-+/_. e٣²\t"), max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_spellings_near_the_fast_path(self, text):
        assert_frac_like_fraction(text)

    @given(st.text(max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_any_text(self, text):
        assert_frac_like_fraction(text)

    def test_error_message(self):
        with pytest.raises(SpecFormatError, match=r"^cannot parse rational '1/0'$"):
            frac("1/0")


class TestFloatCantorWrappers:
    def test_a_bare_cantor_piece_still_builds(self):
        model = FunctionModel([CantorPiece(0, 1, 2)], arithmetic="float")
        assert model.monotone_segments()
