from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bvkit.intervals import Interval, IntervalSet

from test_integer_intervals import ref_end_key, ref_start_key


def test_empty_and_degenerate():
    assert Interval(1, 0).empty
    assert Interval(1, 1).degenerate
    assert Interval(1, 1, lo_open=True).empty
    assert Interval(1, 1, hi_open=True).empty
    assert IntervalSet.empty().is_empty
    assert IntervalSet.point(3).measure == 0
    assert IntervalSet.point(3).contains(3)


def test_measure_basic():
    E = IntervalSet.from_pairs([(0, Fraction(1, 3)), (Fraction(2, 3), 1)])
    assert E.measure == Fraction(2, 3)
    assert IntervalSet.empty().measure == 0


def test_union_merges_through_shared_closed_endpoint():
    a = IntervalSet.closed(0, 1)
    b = IntervalSet.from_pairs([(1, 2)], lo_open=True)
    assert len(a.union(b)) == 1
    assert a.union(b).measure == 2


def test_union_keeps_open_open_gap():
    a = IntervalSet.open(0, 1)
    b = IntervalSet.open(1, 2)
    u = a.union(b)
    assert len(u) == 2
    assert not u.contains(1)


def test_intersection_openness():
    a = IntervalSet.closed(0, 1)
    b = IntervalSet.open(1, 2)
    assert a.intersect(b).is_empty
    c = IntervalSet.from_pairs([(Fraction(1, 2), 2)], hi_open=True)
    got = a.intersect(c)
    assert got == IntervalSet.closed(Fraction(1, 2), 1)


def test_difference_flags():
    # removing a closed block from an open interval keeps the cut points out
    a = IntervalSet.open(0, 10)
    b = IntervalSet.closed(3, 4)
    d = a.difference(b)
    assert len(d) == 2
    assert not d.contains(3) and not d.contains(4)
    assert d.contains(Fraction(29, 10))
    assert d.measure == 9

    # removing a single point splits but keeps the measure
    e = a.difference(IntervalSet.point(5))
    assert len(e) == 2
    assert e.measure == 10
    assert not e.contains(5)


def test_covers_and_clip():
    a = IntervalSet.from_pairs([(0, 1), (2, 3)])
    assert a.covers(IntervalSet.closed(Fraction(1, 4), Fraction(1, 2)))
    assert not a.covers(IntervalSet.closed(1, 2))
    assert a.clip(Fraction(1, 2), Fraction(5, 2)).measure == 1


def test_affine_reflection():
    a = IntervalSet.from_pairs([(0, 1), (2, 3)], hi_open=True)
    r = a.affine(-1, 10)
    assert [(c.lo, c.hi) for c in r] == [(7, 8), (9, 10)]
    assert [c.lo_open for c in r] == [True, True]
    assert r.measure == a.measure


@st.composite
def interval_sets(draw):
    n = draw(st.integers(0, 5))
    comps = []
    for _ in range(n):
        lo = draw(st.integers(-20, 20))
        width = draw(st.integers(0, 6))
        comps.append(Interval(Fraction(lo, 4), Fraction(lo, 4) + Fraction(width, 4),
                              draw(st.booleans()), draw(st.booleans())))
    return IntervalSet(comps)


@given(interval_sets(), interval_sets(), st.integers(-90, 90))
def test_set_algebra_pointwise(a, b, num):
    # membership of union / intersection / difference must match pointwise
    x = Fraction(num, 8)  # eighths probe endpoints and interiors
    assert a.union(b).contains(x) == (a.contains(x) or b.contains(x))
    assert a.intersect(b).contains(x) == (a.contains(x) and b.contains(x))
    assert a.difference(b).contains(x) == (a.contains(x) and not b.contains(x))


@given(interval_sets(), interval_sets())
def test_measure_inclusion_exclusion(a, b):
    lhs = a.union(b).measure + a.intersect(b).measure
    assert lhs == a.measure + b.measure


@given(interval_sets())
def test_components_disjoint_and_sorted(a):
    for left, right in zip(a.components, a.components[1:]):
        assert ref_end_key(left) < ref_start_key(right)
        # no touching components survive normalization
        assert left.hi < right.lo or (left.hi == right.lo
                                      and left.hi_open and right.lo_open)


# the (value, eps) key code that intersect, empty and contains replaced
def _key_intersect(s, o):
    (lo, se) = max(ref_start_key(s), ref_start_key(o))
    (hi, ee) = min(ref_end_key(s), ref_end_key(o))
    return Interval(lo, hi, lo_open=(se == 1), hi_open=(ee == -1))


def _same(got, want):
    """Equal ends of the same types, and the same flags."""
    return ((type(got.lo), got.lo, type(got.hi), got.hi, got.lo_open, got.hi_open)
            == (type(want.lo), want.lo, type(want.hi), want.hi, want.lo_open, want.hi_open))


# a small pool, so ties are common, with an int and a Fraction of one value
# and floats of the same values
_ENDS = st.sampled_from([0, 1, Fraction(0), Fraction(1), Fraction(1, 2),
                         Fraction(1, 3), 0.0, 0.5, 1.0, -1, 2])


@st.composite
def _intervals(draw):
    return Interval(draw(_ENDS), draw(_ENDS), draw(st.booleans()), draw(st.booleans()))


@given(_intervals(), _intervals(), _ENDS)
def test_interval_methods_match_the_key_order(s, o, x):
    assert _same(s.intersect(o), _key_intersect(s, o))
    assert s.empty == (ref_start_key(s) > ref_end_key(s))
    assert s.contains(x) == (ref_start_key(s) <= (x, 0) <= ref_end_key(s))


def test_clip_keeps_a_set_inside_the_window():
    # on a tie an open end of the set lies inside the window's end
    s = IntervalSet.from_pairs([(0, 1), (2, 3)], lo_open=True, hi_open=True)
    assert s.clip(0, 3, lo_open=True, hi_open=True) is s
    assert s.clip(0, 3) is s
    closed = IntervalSet.from_pairs([(0, 1), (2, 3)])
    assert closed.clip(0, 3, lo_open=True) == IntervalSet([Interval(0, 1, True), Interval(2, 3)])


def test_a_full_tie_keeps_the_first_ends():
    got = Interval(1, Fraction(2)).intersect(Interval(Fraction(1), 2))
    assert type(got.lo) is int and type(got.hi) is Fraction
    # an open end is inside a closed one at the same value
    got = Interval(1, Fraction(2)).intersect(Interval(Fraction(1), 2, True, True))
    assert type(got.lo) is Fraction and type(got.hi) is int
    assert (got.lo_open, got.hi_open) == (True, True)


_OPERANDS = [
    IntervalSet(),
    IntervalSet([Interval(0, Fraction(1, 2)), Interval(1, 2, True, False)]),
    IntervalSet([Interval(Fraction(1, 4), 1), Interval(3, 3)]),
    IntervalSet([Interval(0.25, 1.5, True, True)]),
]


def _ends(s):
    return [(type(c.lo), c.lo, type(c.hi), c.hi, c.lo_open, c.hi_open) for c in s]


@pytest.mark.parametrize("left", range(len(_OPERANDS)))
@pytest.mark.parametrize("right", range(len(_OPERANDS)))
def test_operators_are_the_named_methods(left, right):
    a, b = _OPERANDS[left], _OPERANDS[right]
    assert _ends(a | b) == _ends(a.union(b))
    assert _ends(a & b) == _ends(a.intersect(b))
    assert _ends(a - b) == _ends(a.difference(b))


def test_equal_sets_hash_alike():
    a = IntervalSet([Interval(1, 2, True, False), Interval(0, Fraction(1, 2))])
    b = IntervalSet([Interval(0, Fraction(1, 4)), Interval(Fraction(1, 4), Fraction(1, 2)),
                     Interval(1, 2, True, False)])
    assert a == b and hash(a) == hash(b) == hash(a.components)
    assert len({a, b, IntervalSet(), IntervalSet.empty()}) == 2
    assert a != IntervalSet([Interval(0, Fraction(1, 2)), Interval(1, 2)])
