"""Per-cell queries walk only what meets their window.

``MonotoneSegmentation.window`` bisects to the first segment meeting
``[lo, hi]``; the windowed ``preimage``, ``level_points`` and
``IntervalSet.clip`` visit only what the window meets.  Each is compared
with the route it replaced, kept here as the oracle: ``==`` with the same
type in rational mode, bit-equal floats in float mode, errors included.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit import certificate
from bvkit.certificate import shift_certificate, variation_certificate
from bvkit.errors import PreconditionError, SpecFormatError
from bvkit.intervals import Interval, IntervalSet
from bvkit.measure import shrinking_family
from bvkit.model import (
    CONSTANT,
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    PolynomialPiece,
    Segment,
    _sorted_unique,
    build_zigzag,
    piecewise_linear,
)
from bvkit.specio import model_from_dict
from bvkit.variation import jordan_decomposition

from test_evaluation_routes import (
    CANTOR_IDS,
    CANTOR_MODELS,
    CONTINUOUS,
    CORPUS_IDS,
    CORPUS_MODELS,
    _interval_keys,
    _keys,
    _sets,
    _targets,
    preimage_oracle,
)
from test_variation import _cantor, _float_twin, rise_fall_plateau

F = Fraction

# Cantor levels 0-8 in both modes
CANTOR = [(m, i) for m, i in zip(CANTOR_MODELS, CANTOR_IDS)
          if not i.startswith("cantor_9")]


def _primes(count, start):
    """The first ``count`` primes from ``start`` on."""
    primes, n = [], start
    while len(primes) < count:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            primes.append(n)
        n += 1
    return primes


def _coprime_model(count=200):
    """Knots ``k + 1/p_k`` over ``count`` primes past 10,000, so the knots'
    common denominator is the primes' product (2,684 bits at 200), with
    rises, plateaus and falls."""
    heights = (0, 1, 1, 3, 0, F(1, 2))
    return piecewise_linear([(k + F(1, p), heights[k % len(heights)])
                             for k, p in enumerate(_primes(count, 10_000))], name="coprime")


def _cubic_models():
    """x^3 - x on [-1, 1] in float mode, whose criticals -+1/sqrt(3) are
    float knots, and a float model with that cubic on [-1, 1/3] beside
    Fraction knots, a linear rise and a plateau."""
    cubic = model_from_dict({"arithmetic": "float", "pieces": [
        {"kind": "polynomial", "domain": ["-1", "1"],
         "params": {"coefficients": ["0", "-1", "0", "1"]}}]})
    mixed = FunctionModel([PolynomialPiece(F(-1), F(1, 3), [0, -1, 0, 1]),
                           LinearPiece(F(1, 3), F(2, 3), F(8, 9), F(-16, 27)),
                           ConstantPiece(F(2, 3), 1, 0)], arithmetic="float")
    return [cubic, mixed]


# float criticals, and a common denominator of 2,684 bits
WIDE = [*_cubic_models(), _coprime_model()]
WIDE_IDS = ["cubic-float", "mixed-float", "coprime"]


def _windows(model):
    """Whole domain, touching a or b, degenerate, on knots, inside a piece;
    some of them with float ends, and windows from -0.0 and the
    infinities."""
    a, b = model.a, model.b
    inner = model.monotone_segments().knots()[1:-1]
    knots = inner[::max(1, len(inner) // 2)][:2]
    piece = model._expanded[len(model._expanded) // 2]
    third = (piece.hi - piece.lo) / 3
    inside = (piece.lo + third, piece.hi - third)
    windows = [(a, b), (a, a), (b, b), (a, inside[0]), (inside[1], b), inside,
               (inside[0], inside[0])]
    for k in knots:
        windows += [(k, k), (a, k), (k, b), tuple(sorted((k, inside[0])))]
    if len(knots) >= 2:
        windows.append((knots[0], knots[-1]))
    windows += [(float(lo), float(hi)) for lo, hi in windows[:6]]
    windows += [(-math.inf, inside[0]), (inside[1], math.inf), (-math.inf, math.inf),
                (-0.0, b)]
    return windows


def _outcome(route, *args):
    """Keys of the result, or the error when the route refuses."""
    try:
        result = route(*args)
    except PreconditionError as err:
        return str(err)
    if isinstance(result, IntervalSet):
        return _interval_keys(result)
    return _keys(result)


# ---------------------------------------------------------------------------
# the window helper
# ---------------------------------------------------------------------------


def window_oracle(segmentation, lo, hi):
    return [i for i, seg in enumerate(segmentation) if seg.lo <= hi and seg.hi >= lo]


class TestWindow:
    @pytest.mark.parametrize("model", CORPUS_MODELS + [m for m, _ in CANTOR] + WIDE,
                             ids=CORPUS_IDS + [i for _, i in CANTOR] + WIDE_IDS)
    def test_meeting_segments(self, model):
        segmentation = model.monotone_segments()
        a, b = model.a, model.b
        for lo, hi in _windows(model) + [(a - 1, a), (b, b + 1), (a - 2, a - 1),
                                         (b + 1, b + 2), (b, a), (-0.0, -0.0),
                                         (math.inf, math.inf), (-math.inf, -math.inf),
                                         (math.inf, -math.inf)]:
            assert list(segmentation.window(lo, hi)) == \
                window_oracle(segmentation, lo, hi)


ZIGZAG = [build_zigzag(), _float_twin(build_zigzag())]

# the answers of window, preimage((1/10, 1/2)) and level_points(1/4) on the
# zigzag for windows with infinite ends, in the form str gives them
INFINITE_ENDS = [
    ((-math.inf, math.inf), [0, 1, 2, 3],
     "IntervalSet((1/40, 1/8) ∪ (3/8, 19/40) ∪ (21/40, 5/8) ∪ (7/8, 39/40))",
     "[Fraction(1, 16), Fraction(7, 16), Fraction(9, 16), Fraction(15, 16)]",
     "IntervalSet((0.025, 0.125) ∪ (0.375, 0.475) ∪ (0.525, 0.625) ∪ (0.875, 0.975))",
     "[0.0625, 0.4375, 0.5625, 0.9375]"),
    ((-math.inf, F(1, 3)), [0, 1], "IntervalSet((1/40, 1/8))", "[Fraction(1, 16)]",
     "IntervalSet((0.025, 0.125))", "[0.0625]"),
    ((F(1, 3), math.inf), [1, 2, 3],
     "IntervalSet((3/8, 19/40) ∪ (21/40, 5/8) ∪ (7/8, 39/40))",
     "[Fraction(7, 16), Fraction(9, 16), Fraction(15, 16)]",
     "IntervalSet((0.375, 0.475) ∪ (0.525, 0.625) ∪ (0.875, 0.975))",
     "[0.4375, 0.5625, 0.9375]"),
    ((-math.inf, F(1, 4)), [0, 1], "IntervalSet((1/40, 1/8))", "[Fraction(1, 16)]",
     "IntervalSet((0.025, 0.125))", "[0.0625]"),
    ((F(3, 4), math.inf), [2, 3], "IntervalSet((7/8, 39/40))", "[Fraction(15, 16)]",
     "IntervalSet((0.875, 0.975))", "[0.9375]"),
    ((-math.inf, 0), [0], "IntervalSet()", "[]", "IntervalSet()", "[]"),
    ((1, math.inf), [3], "IntervalSet()", "[]", "IntervalSet()", "[]"),
    ((-math.inf, -math.inf), [], "IntervalSet()", "[]", "IntervalSet()", "[]"),
    ((math.inf, math.inf), [], "IntervalSet()", "[]", "IntervalSet()", "[]"),
    ((math.inf, -math.inf), [], "IntervalSet()", "[]", "IntervalSet()", "[]"),
]


class TestWindowEnds:
    """A NaN end is refused; infinite ends keep the answers they gave when
    the segments were located by comparing values."""

    @pytest.mark.parametrize("model", ZIGZAG, ids=["zigzag", "zigzag-float"])
    def test_nan_ends_are_refused(self, model):
        segmentation = model.monotone_segments()
        nan, half = math.nan, F(1, 2)
        calls = [lambda: segmentation.window(nan, half),
                 lambda: segmentation.window(0, nan),
                 lambda: model.preimage(F(1, 10), half, nan, half),
                 lambda: model.preimage(F(1, 10), half, 0, nan),
                 lambda: model.level_points(F(1, 4), nan, half),
                 lambda: model.level_points(F(1, 4), 0, nan),
                 lambda: model.level_points(F(1, 4), half, nan)]
        for call in calls:
            with pytest.raises(SpecFormatError, match="got nan"):
                call()

    def test_numpy_integer_ends(self):
        # a numpy integer is read by its numerator and denominator, as Python
        # ints, so a wide common denominator does not overflow int64
        np = pytest.importorskip("numpy")
        for model in ZIGZAG + [_coprime_model()]:
            segmentation = model.monotone_segments()
            for lo, hi in ((np.int64(0), np.int64(1)), (np.int64(0), F(1, 3)),
                           (np.int64(1), np.int64(1)), (np.int64(3), np.int64(5))):
                assert list(segmentation.window(lo, hi)) == window_oracle(segmentation, lo, hi)

    @pytest.mark.parametrize("window,segments,pre,points,pre_float,points_float",
                             INFINITE_ENDS, ids=[str(w) for w, *_ in INFINITE_ENDS])
    def test_infinite_ends(self, window, segments, pre, points, pre_float, points_float):
        for model, want in zip(ZIGZAG, ((pre, points), (pre_float, points_float))):
            assert list(model.monotone_segments().window(*window)) == segments
            assert (str(model.preimage(F(1, 10), F(1, 2), *window)),
                    repr(model.level_points(F(1, 4), *window))) == want


# ---------------------------------------------------------------------------
# windowed preimages
# ---------------------------------------------------------------------------


def assert_windowed_preimages_match(model):
    for c, d in _targets(model)[::3]:
        try:
            full = preimage_oracle(model, c, d)
        except PreconditionError as err:
            full = err
        for lo, hi in _windows(model):
            if isinstance(full, PreconditionError):
                want = str(full)
            else:
                want = _interval_keys(full.intersect(IntervalSet((Interval(lo, hi),))))
            assert _outcome(model.preimage, c, d, lo, hi) == want


class TestTouchingSegments:
    """A segment that meets the window at one knot only is decided from the
    value stored at that knot: ``_segment_preimage``, and so every solve,
    runs only on segments that overlap the window."""

    @pytest.mark.parametrize("model", [m for m, _ in CONTINUOUS + CANTOR],
                             ids=[i for _, i in CONTINUOUS + CANTOR])
    def test_only_overlapping_segments_are_visited(self, model, monkeypatch):
        visits = []
        segment_preimage = FunctionModel._segment_preimage

        def logged(self, seg, *rest):
            visits.append(seg)
            return segment_preimage(self, seg, *rest)

        monkeypatch.setattr(FunctionModel, "_segment_preimage", logged)
        for c, d in _targets(model)[::3]:
            for lo, hi in _windows(model):
                visits.clear()
                try:
                    model.preimage(c, d, lo, hi)
                except PreconditionError:
                    continue
                assert all(seg.lo < hi and seg.hi > lo for seg in visits), (lo, hi)


class TestWindowedPreimage:
    @pytest.mark.parametrize("model", [m for m, _ in CONTINUOUS] + WIDE,
                             ids=[i for _, i in CONTINUOUS] + WIDE_IDS)
    def test_corpus_and_float_twins(self, model):
        assert_windowed_preimages_match(model)

    @pytest.mark.parametrize("model", [m for m, _ in CANTOR], ids=[i for _, i in CANTOR])
    def test_cantor_levels(self, model):
        assert_windowed_preimages_match(model)

    @given(rise_fall_plateau(), st.integers(0, 48), st.integers(0, 48))
    @settings(max_examples=40, deadline=None)
    def test_random_piecewise_linear(self, knots, i, j):
        exact = piecewise_linear(knots)
        for model in (exact, _float_twin(exact)):
            a, w = model.a, model.b - model.a
            lo, hi = a + w * min(i, j) / 48, a + w * max(i, j) / 48
            for c, d in _targets(model):
                want = _outcome(lambda: preimage_oracle(model, c, d)
                                .intersect(IntervalSet((Interval(lo, hi),))))
                assert _outcome(model.preimage, c, d, lo, hi) == want


# ---------------------------------------------------------------------------
# windowed level points
# ---------------------------------------------------------------------------


def level_points_oracle(model, y, lo, hi):
    """The old route: every segment visited, both clipped ends evaluated."""
    points = []
    for seg in model.monotone_segments():
        s_lo, s_hi = max(seg.lo, lo), min(seg.hi, hi)
        if not s_lo <= s_hi:
            continue
        flo, fhi = model.evaluate(s_lo), model.evaluate(s_hi)
        if seg.direction == CONSTANT:
            if flo == y:
                points.extend([s_lo, s_hi])
            continue
        lo_v, hi_v = (flo, fhi) if flo <= fhi else (fhi, flo)
        if lo_v <= y <= hi_v:
            if flo == y:
                points.append(s_lo)
            elif fhi == y:
                points.append(s_hi)
            else:
                points.append(model._solve_in_segment(
                    Segment(s_lo, s_hi, seg.direction), y))
    return _sorted_unique(points)


def _levels(model):
    """Knot values, the midpoints between them, and values beyond the range."""
    values = sorted(set(model.monotone_segments().values))
    picked = values[::max(1, len(values) // 3)]
    levels = picked + [(u + v) / 2 for u, v in zip(picked, picked[1:])]
    return levels + [values[0] - 1, values[-1] + 1]


def assert_level_points_match(model):
    for y in _levels(model):
        for lo, hi in _windows(model):
            assert _outcome(model.level_points, y, lo, hi) == \
                _outcome(level_points_oracle, model, y, lo, hi)


class TestWindowedLevelPoints:
    @pytest.mark.parametrize("model", CORPUS_MODELS + WIDE, ids=CORPUS_IDS + WIDE_IDS)
    def test_corpus_and_float_twins(self, model):
        assert_level_points_match(model)

    @pytest.mark.parametrize("model", [m for m, _ in CANTOR], ids=[i for _, i in CANTOR])
    def test_cantor_levels(self, model):
        assert_level_points_match(model)

    @given(rise_fall_plateau(), st.integers(0, 48), st.integers(0, 48))
    @settings(max_examples=40, deadline=None)
    def test_random_piecewise_linear(self, knots, i, j):
        exact = piecewise_linear(knots)
        for model in (exact, _float_twin(exact)):
            a, w = model.a, model.b - model.a
            lo, hi = a + w * min(i, j) / 48, a + w * max(i, j) / 48
            for y in _levels(model):
                assert _outcome(model.level_points, y, lo, hi) == \
                    _outcome(level_points_oracle, model, y, lo, hi)


# ---------------------------------------------------------------------------
# clip bisects to the first component
# ---------------------------------------------------------------------------


def clip_oracle(E, lo, hi, lo_open=False, hi_open=False):
    """The old route: a two-pointer intersect with a one-interval set."""
    return E.intersect(IntervalSet((Interval(lo, hi, lo_open, hi_open),)))


FLAGS = [(False, False), (True, True), (True, False), (False, True)]


def assert_clips_match(model):
    for E in _sets(model, 3):
        for lo, hi in _windows(model):
            for flags in FLAGS:
                assert _interval_keys(E.clip(lo, hi, *flags)) == \
                    _interval_keys(clip_oracle(E, lo, hi, *flags))


class TestClip:
    @pytest.mark.parametrize("model", CORPUS_MODELS, ids=CORPUS_IDS)
    def test_corpus_and_float_twins(self, model):
        assert_clips_match(model)

    @pytest.mark.parametrize("model", [m for m, _ in CANTOR], ids=[i for _, i in CANTOR])
    def test_cantor_levels(self, model):
        assert_clips_match(model)

    @given(rise_fall_plateau(),
           st.lists(st.tuples(st.integers(0, 48), st.integers(0, 48),
                              st.booleans(), st.booleans()), max_size=8),
           st.integers(-4, 52), st.integers(-4, 52), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_sets_and_windows(self, knots, raw, i, j, lo_open, hi_open):
        # windows may reach past the set, be inverted, or be a point
        exact = piecewise_linear(knots)
        for model in (exact, _float_twin(exact)):
            a, w = model.a, model.b - model.a
            E = IntervalSet(Interval(a + w * min(p, q) / 48, a + w * max(p, q) / 48,
                                     lo_o and p != q, hi_o and p != q)
                            for p, q, lo_o, hi_o in raw)
            lo, hi = a + w * i / 48, a + w * j / 48
            assert _interval_keys(E.clip(lo, hi, lo_open, hi_open)) == \
                _interval_keys(clip_oracle(E, lo, hi, lo_open, hi_open))


# ---------------------------------------------------------------------------
# certificate cells stay local
# ---------------------------------------------------------------------------


def _sawtooth(teeth):
    """Teeth rising from 0 and falling back, with uneven flanks and peaks."""
    x = F(0)
    knots = [(x, F(0))]
    for k in range(teeth):
        rise, fall = F(1 + k % 3, 8), F(1 + (2 * k) % 3, 8)
        knots.append((x + rise, F(1 + k % 4, 4)))
        x += rise + fall
        knots.append((x, F(0)))
    return piecewise_linear(knots, name=f"saw_{teeth}")


class _LoggedSegments(tuple):
    """A segment tuple that reports every segment read while ``log.active``."""

    def __new__(cls, segments, log):
        obj = super().__new__(cls, segments)
        obj.log = log
        return obj

    def __getitem__(self, i):
        if self.log.active:
            self.log.read(tuple.__getitem__(self, i))
        return tuple.__getitem__(self, i)

    def __iter__(self):
        if self.log.active:
            for seg in tuple.__iter__(self):
                self.log.read(seg)
        return tuple.__iter__(self)


class _VisitLog:
    def __init__(self):
        self.cells = []       # the cell [xl, xr] being built, innermost last
        self.active = False   # inside level_points
        self.preimage_visits = []
        self.level_visits = []

    def read(self, seg):
        if self.cells:
            self.level_visits.append((self.cells[-1], seg))


class TestCellLocality:
    """A count, not a timing: building cell [xl, xr] touches no segment
    outside [xl, xr], neither in its preimages nor in its level points."""

    @pytest.mark.parametrize("arithmetic", ["rational", "float"])
    def test_sawtooth_cells_visit_only_their_segments(self, monkeypatch, arithmetic):
        model = _sawtooth(32)
        if arithmetic == "float":
            model = _float_twin(model)
        segmentation = model.monotone_segments()
        log = _VisitLog()
        model._cache["segments"] = replace(
            segmentation, segments=_LoggedSegments(segmentation.segments, log))

        cell_record = certificate._cell_record

        def logged_cell(m, decomposition, index, cell, *rest):
            log.cells.append(cell[:2])  # (xl, xr)
            try:
                return cell_record(m, decomposition, index, cell, *rest)
            finally:
                log.cells.pop()

        segment_preimage = FunctionModel._segment_preimage

        def logged_segment_preimage(self, seg, *rest):
            if self is model and log.cells:
                log.preimage_visits.append((log.cells[-1], seg))
            return segment_preimage(self, seg, *rest)

        level_points = FunctionModel.level_points

        def logged_level_points(self, *args):
            log.active = self is model
            try:
                return level_points(self, *args)
            finally:
                log.active = False

        monkeypatch.setattr(certificate, "_cell_record", logged_cell)
        monkeypatch.setattr(FunctionModel, "_segment_preimage", logged_segment_preimage)
        monkeypatch.setattr(FunctionModel, "level_points", logged_level_points)

        nullset = shrinking_family((model.a, model.b), count=64).level(9)
        trace = variation_certificate(model, nullset, F(1, 64))
        assert trace.ok
        assert len(trace.cells) == 2 * 32
        # a cell that is one segment reads its anchors off its components,
        # but a float cell still solves, on its window, each anchor that
        # closes before the next one starts
        assert log.preimage_visits and bool(log.level_visits) == (arithmetic == "float")
        for visits in (log.preimage_visits, log.level_visits):
            for (xl, xr), seg in visits:
                assert seg.lo <= xr and seg.hi >= xl, (xl, xr, seg)


class TestCellSums:
    """Each cell's p, n and swing sums, and its anchored swing total, come
    from one sweep per cover piece; they equal the per-point route they
    replaced, which evaluated F and p at every end on its own."""

    @pytest.mark.parametrize("model", [
        _sawtooth(16), _float_twin(_sawtooth(16)),
        _cantor(4, "rational"), _cantor(4, "float")],
        ids=["saw_16", "saw_16-float", "cantor_4", "cantor_4-float"])
    def test_sums_match_pointwise_route(self, model):
        nullset = shrinking_family((model.a, model.b), count=64).level(9)
        eps = F(1, 64)
        if not model.exact:
            nullset = IntervalSet(Interval(float(c.lo), float(c.hi)) for c in nullset)
            eps = float(eps)
        trace = variation_certificate(model, nullset, eps)
        pf = jordan_decomposition(model).p_function
        f = model.evaluate
        assert any(cell.anchors for cell in trace.cells)
        for cell in trace.cells:
            p_sum = n_sum = f_sum = F(0) if model.exact else 0.0
            for cp in cell.cover:
                for comp in cp.components:
                    p_sum += pf(comp.hi) - pf(comp.lo)
                    n_sum += (pf(comp.hi) - f(comp.hi)) - (pf(comp.lo) - f(comp.lo))
                    f_sum += abs(f(comp.hi) - f(comp.lo))
            assert _keys([cell.p_sum, cell.n_sum, cell.f_sum]) == \
                _keys([p_sum, n_sum, f_sum])
            if cell.anchors:
                anchored = sum(abs(f(a.beta) - f(a.alpha)) for a in cell.anchors)
                assert _keys(e.lhs for e in cell.ledger
                             if e.name == "anchor_swings_vs_mid_cover") == _keys([anchored])


# ---------------------------------------------------------------------------
# the shift certificate pulls its image cover back in one set
# ---------------------------------------------------------------------------


def _staircase(steps):
    knots = [(F(0), F(0))]
    for k in range(steps):
        x, y = knots[-1]
        knots.append((x + F(1 + k % 2, 4), y + F(1 + k % 3, 8)))
        knots.append((knots[-1][0] + F(1, 4), knots[-1][1]))
    return piecewise_linear(knots)


class TestShiftPullback:
    @pytest.mark.parametrize("model", [
        _staircase(12), _float_twin(_staircase(12)),
        _cantor(3, "rational"), _cantor(3, "float"),
        _cantor(6, "rational"), _cantor(6, "float")],
        ids=["stairs", "stairs-float", "cantor_3", "cantor_3-float", "cantor_6",
             "cantor_6-float"])
    def test_open_core_matches_successive_unions(self, model):
        nullset = shrinking_family((model.a, model.b), count=16).level(8)
        eps = F(1, 16)
        if not model.exact:
            nullset = IntervalSet(Interval(float(c.lo), float(c.hi)) for c in nullset)
            eps = float(eps)
        trace = shift_certificate(model, nullset, eps)
        assert not trace.n2.is_empty
        pre_u = IntervalSet.empty()
        for piece in trace.image_cover:
            pre_u = pre_u.union(model.preimage(piece.lo, piece.hi))
        assert _interval_keys(trace.open_core) == \
            _interval_keys(trace.set_cover.intersect(pre_u))
