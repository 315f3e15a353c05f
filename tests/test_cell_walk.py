"""The certificates' cell walk against the routes it replaced.

``variation_certificate`` walks its partition, the segmentation and N's
components together and works each one-segment cell on its segment alone;
``shift_certificate`` pulls its cover back through knot windows and takes
the trimmed images from F at the component ends.  ``certificate_oracle``
keeps the previous routes with their code unchanged.  Every field of every
trace must match the oracle's, type and all (floats by their bits), or the
two must refuse with the same class and message.
"""

import dataclasses
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import certificate_oracle as oracle
from bvkit.certificate import shift_certificate, variation_certificate
from bvkit.corpus import default_corpus
from bvkit.intervals import Interval, IntervalSet
from bvkit.measure import image_set, inflate, split_cover_at
from bvkit.model import (
    CONSTANT,
    DECREASING,
    INCREASING,
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    Segment,
    build_cantor_iterate,
    piecewise_linear,
)
from bvkit.specio import model_from_dict

from support import model_to_dict
from test_variation import rise_fall_plateau

F = Fraction


def _atom(x):
    if isinstance(x, float):
        return ("float", struct.pack(">d", x))
    return (type(x).__name__, x)


def mismatch(a, b, path="trace"):
    """The path of the first difference between a and b, types included
    and floats by their bits, or None."""
    if type(a) is not type(b):
        return f"{path}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, IntervalSet):
        return mismatch(a.components, b.components, path)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            found = mismatch(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
            if found:
                return found
        return None
    if isinstance(a, (tuple, list)):
        if len(a) != len(b):
            return f"{path}: {len(a)} vs {len(b)} items"
        for i, (u, v) in enumerate(zip(a, b)):
            found = mismatch(u, v, f"{path}[{i}]")
            if found:
                return found
        return None
    if _atom(a) != _atom(b):
        return f"{path}: {a!r} vs {b!r}"
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # the refusal is the outcome compared
        return (type(err), str(err))


def assert_same(new, old):
    if isinstance(old, tuple) and old and isinstance(old[0], type):
        assert new == old
        return
    assert not (isinstance(new, tuple) and new and isinstance(new[0], type)), new
    found = mismatch(new, old)
    assert found is None, found


# ---------------------------------------------------------------------------
# models, null sets and partitions
# ---------------------------------------------------------------------------


def _twin(model):
    return model_from_dict(dict(model_to_dict(model), arithmetic="float"))


def _cantor(level, arithmetic):
    if arithmetic == "rational":
        return build_cantor_iterate(level)
    return model_from_dict({"arithmetic": arithmetic, "pieces": [
        {"kind": "cantor_iterate", "domain": ["0", "1"], "params": {"level": level}}]})


def _corpus():
    models = []
    for entry in default_corpus():
        model = entry.model
        if not model.continuity_flag:
            continue
        models.append(model)
        if model.exact:
            models.append(_twin(model))
    return models


CORPUS = _corpus()
CANTORS = [_cantor(level, mode) for level in range(9) for mode in ("rational", "float")]


@st.composite
def int_models(draw, monotone=False):
    """Rational models on int knots with int slopes and intercepts, so F at
    an int point is an int and at a Fraction a Fraction."""
    x, y = 0, draw(st.integers(-2, 2))
    pieces = []
    for rise in draw(st.lists(st.integers(0 if monotone else -2, 2), min_size=1, max_size=8)):
        pieces.append(ConstantPiece(x, x + 1, y) if rise == 0
                      else LinearPiece(x, x + 1, rise, y - rise * x))
        x, y = x + 1, y + rise
    return FunctionModel(pieces)


@st.composite
def knot_models(draw, monotone=False):
    """Piecewise-linear models with rises, falls and plateaus, in either
    arithmetic, and int-valued ones."""
    if draw(st.integers(0, 3)) == 0:
        return draw(int_models(monotone))
    knots = draw(rise_fall_plateau())
    if monotone:
        y = knots[0][1]
        fixed = [knots[0]]
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            y += abs(y1 - y0)
            fixed.append((x1, y))
        knots = fixed
    model = piecewise_linear(knots, name="walk")
    return _twin(model) if draw(st.booleans()) else model


def _points(model):
    """The segment knots, the midpoints between them and two points just
    inside each segment."""
    knots = model.monotone_segments().knots()
    pts = list(knots)
    for lo, hi in zip(knots, knots[1:]):
        step = (hi - lo) / 7
        pts.extend([lo + step, (lo + hi) / 2, hi - step])
    return sorted(set(pts))


@st.composite
def null_sets(draw, model):
    """Components on the model's knots and between them, closed or open at
    either end, single points and whole plateaus; on a float model their
    ends may be Fractions."""
    pts = _points(model)
    if not model.exact and draw(st.booleans()):
        pts = [F(x) for x in pts]
    comps = []
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(pts) - 1))
        j = draw(st.integers(i, min(i + 3, len(pts) - 1)))
        if i == j:
            comps.append(Interval(pts[i], pts[i]))
        else:
            comps.append(Interval(pts[i], pts[j], draw(st.booleans()), draw(st.booleans())))
    segmentation = model.monotone_segments()
    for seg in segmentation:
        if seg.direction == CONSTANT and draw(st.booleans()):
            comps.append(Interval(seg.lo, seg.hi))
    return IntervalSet(comps)


@st.composite
def partitions(draw, model):
    """None, for the segment-knot partition, or a base partition that keeps
    every turning knot, drops others and adds points inside segments, so
    its cells span several segments or part of one."""
    if draw(st.booleans()):
        return None
    segmentation = model.monotone_segments()
    knots = segmentation.knots()
    segs = segmentation.segments
    pts = [model.a]
    for m in range(1, len(knots) - 1):
        turning = {segs[m - 1].direction, segs[m].direction} == {INCREASING, DECREASING}
        if turning or draw(st.booleans()):
            # a knot given as a Fraction where the model has an int
            pts.append(F(knots[m]) if draw(st.booleans()) else knots[m])
        if draw(st.integers(0, 3)) == 0:
            pts.append((knots[m] + knots[m + 1]) / 2)
    pts.append(model.b)
    return sorted(set(pts))


EPS = st.sampled_from([F(1, 64), F(1, 8), F(1, 2), F(2), F(16)])


def _eps(model, eps):
    return eps if model.exact else float(eps)


def check_variation(model, N, eps, partition=None):
    eps = _eps(model, eps)
    new = outcome(variation_certificate, model, N, eps, partition)
    old = outcome(oracle.variation_certificate, model, N, eps, partition)
    assert_same(new, old)
    return new


def check_shift(model, N, eps):
    eps = _eps(model, eps)
    new = outcome(shift_certificate, model, N, eps)
    old = outcome(oracle.shift_certificate, model, N, eps)
    assert_same(new, old)
    return new


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------


class TestVariationCells:
    @given(st.data(), EPS)
    @settings(max_examples=250, deadline=None)
    def test_random_knot_models(self, data, eps):
        model = data.draw(knot_models())
        N = data.draw(null_sets(model))
        check_variation(model, N, eps, data.draw(partitions(model)))

    @pytest.mark.parametrize("index", range(len(CORPUS)))
    @given(st.data(), EPS)
    @settings(max_examples=8, deadline=None)
    def test_corpus_models(self, index, data, eps):
        model = CORPUS[index]
        check_variation(model, data.draw(null_sets(model)), eps)

    @pytest.mark.parametrize("index", range(len(CANTORS)))
    @given(st.data(), EPS)
    @settings(max_examples=4, deadline=None)
    def test_cantor_levels(self, index, data, eps):
        model = CANTORS[index]
        check_variation(model, data.draw(null_sets(model)), eps,
                        data.draw(partitions(model)))

    @pytest.mark.parametrize("partition", [[0, F(1), 2, 3], [F(0), 1, F(2), 3]])
    def test_partition_points_typed_unlike_the_knots(self, partition):
        # on a rising or falling int piece F at a Fraction point is a
        # Fraction, as evaluated, where the int knot's stored value is an int
        model = FunctionModel([LinearPiece(0, 1, 2, 0), LinearPiece(1, 2, -2, 4),
                               ConstantPiece(2, 3, 0)])
        trace = check_variation(model, IntervalSet.closed(F(1, 4), F(1, 2)), F(2), partition)
        assert [type(cell.f_lo) for cell in trace.cells[:2]] == [type(x) for x in partition[:2]]

    def test_most_random_traces_certify(self):
        # the comparison is worth little if both sides always refuse
        model = piecewise_linear([(0, 0), (1, 2), (2, 1), (3, 1), (4, 3)])
        for N in (IntervalSet.closed(F(1, 2), F(3, 4)),
                  IntervalSet.from_pairs([(1, F(5, 4)), (3, 3)]),
                  IntervalSet((Interval(F(1), F(2), True, False), Interval(F(5, 2), 3)))):
            for partition in (None, [0, 1, F(3, 2), 2, 4]):
                trace = check_variation(model, N, F(4), partition)
                assert trace.ok


class TestShiftWalk:
    @given(st.data(), EPS)
    @settings(max_examples=150, deadline=None)
    def test_random_monotone_models(self, data, eps):
        model = data.draw(knot_models(monotone=True))
        check_shift(model, data.draw(null_sets(model)), eps)

    @pytest.mark.parametrize("index", range(len(CANTORS)))
    @given(st.data(), EPS)
    @settings(max_examples=4, deadline=None)
    def test_cantor_levels(self, index, data, eps):
        model = CANTORS[index]
        check_shift(model, data.draw(null_sets(model)), eps)

    def test_a_straddling_set_certifies(self):
        model = build_cantor_iterate(3)
        N = IntervalSet.from_pairs([(F(1, 9), F(1, 3)), (F(2, 3), F(20, 27))])
        trace = check_shift(model, N, F(1, 2))
        assert trace.ok and trace.trimmed


class TestChangedHelpers:
    """The measure helpers and the segment solve, changed in place, against
    their previous code."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_image_set(self, data):
        model = data.draw(knot_models())
        N = data.draw(null_sets(model))
        assert_same(outcome(image_set, model, N), outcome(oracle.image_set, model, N))

    @given(st.data(), st.sampled_from([F(1, 100), F(1, 3), F(5)]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_inflate_and_split(self, data, slack, floats):
        model = data.draw(knot_models())
        E = data.draw(null_sets(model))
        if floats:
            E = IntervalSet(Interval(float(iv.lo), float(iv.hi), iv.lo_open, iv.hi_open)
                            for iv in E)
            slack = float(slack)
        cover = outcome(inflate, E, slack)
        assert_same(cover, outcome(oracle.inflate, E, slack))
        values = data.draw(st.lists(st.sampled_from(_points(model)), max_size=3))
        if floats:
            values = [float(v) for v in values] + [math.nan]
        # an open cover, and the closed set itself, which a point can cut at an end
        for target in (cover, E):
            assert_same(split_cover_at(target, values), oracle.split_cover_at(target, values))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_segment_solve(self, data):
        model = data.draw(knot_models())
        segmentation = model.monotone_segments()
        moving = [(seg, lo, hi) for seg, lo, hi in zip(segmentation, segmentation.values,
                                                       segmentation.values[1:])
                  if seg.direction != CONSTANT]
        if not moving:
            return
        seg, v0, v1 = data.draw(st.sampled_from(moving))
        # a sub-segment too, as level_points brackets one
        cut = data.draw(st.sampled_from([seg.hi, (seg.lo + seg.hi) / 2]))
        part = Segment(seg.lo, cut, seg.direction)
        t = data.draw(st.integers(0, 8))
        y = v0 + (v1 - v0) * F(t, 8) if model.exact else v0 + (v1 - v0) * t / 8
        for s in (seg, part):
            assert_same(outcome(model._solve_in_segment, s, y),
                        outcome(oracle._solve_in_segment, model, s, y))
