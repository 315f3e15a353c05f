"""The two routes by which F's values reach the algorithms: the values the
monotone segmentation stores at its knots, and one ``evaluate_many`` sweep
per sorted batch.  Each is compared with the per-point route it replaced,
kept here as the oracle: ``==`` with the same type in rational mode, and
bit-equal floats in float mode."""

import pytest
from hypothesis import given, settings, strategies as st

from bvkit.corpus import default_corpus
from bvkit.density import density_grid, monotone_density
from bvkit.errors import PreconditionError
from bvkit.intervals import Interval, IntervalSet
from bvkit.measure import cantor_family, image_set, shrinking_family
from bvkit.model import (
    FunctionModel,
    LinearPiece,
    build_cantor_iterate,
    piecewise_linear,
)
from bvkit.variation import jordan_decomposition

from oracles import image_set_oracle
from test_variation import _cantor, _float_twin, rise_fall_plateau

CORPUS = default_corpus()
CORPUS_MODELS = ([e.model for e in CORPUS]
                 + [_float_twin(e.model) for e in CORPUS if e.model.exact])
CORPUS_IDS = ([e.name for e in CORPUS]
              + [f"{e.name}-float" for e in CORPUS if e.model.exact])
CONTINUOUS = [(m, i) for m, i in zip(CORPUS_MODELS, CORPUS_IDS) if m.continuity_flag]
CANTOR_MODELS = [_cantor(level, arithmetic) for arithmetic in ("rational", "float")
                 for level in range(10)]
CANTOR_IDS = [f"cantor_{level}-{arithmetic}" for arithmetic in ("rational", "float")
              for level in range(10)]


def _key(v):
    """Type and value; floats by their bits, so 0.0 and -0.0 differ."""
    return type(v), v.hex() if isinstance(v, float) else v


def _keys(values):
    return [_key(v) for v in values]


def _interval_keys(intervals):
    return [(_key(iv.lo), _key(iv.hi), iv.lo_open, iv.hi_open) for iv in intervals]


# ---------------------------------------------------------------------------
# knot values on the segmentation
# ---------------------------------------------------------------------------


def assert_knot_values(model):
    segmentation = model.monotone_segments()
    knots = segmentation.knots()
    assert len(segmentation.values) == len(knots)
    assert _keys(segmentation.values) == _keys(model.evaluate(k) for k in knots)


class TestKnotValues:
    """``values[k]`` is F at ``knots()[k]``, exactly as ``evaluate`` gives it."""

    @pytest.mark.parametrize("model", CORPUS_MODELS, ids=CORPUS_IDS)
    def test_corpus_and_float_twins(self, model):
        assert_knot_values(model)

    @pytest.mark.parametrize("model", CANTOR_MODELS, ids=CANTOR_IDS)
    def test_cantor_levels(self, model):
        assert_knot_values(model)

    @given(rise_fall_plateau())
    @settings(max_examples=60, deadline=None)
    def test_random_piecewise_linear(self, knots):
        model = piecewise_linear(knots)
        assert_knot_values(model)
        assert_knot_values(_float_twin(model))


# ---------------------------------------------------------------------------
# preimages read the stored knot values
# ---------------------------------------------------------------------------


def preimage_oracle(model, c, d):
    """The old route: both ends of every segment evaluated on every call."""
    parts = []
    for seg in model.monotone_segments():
        flo, fhi = model.evaluate(seg.lo), model.evaluate(seg.hi)
        parts.extend(model._segment_preimage(seg, flo, fhi, c, d))
    return IntervalSet(parts)


def _targets(model):
    """Open targets around, between and inside the knot values."""
    values = sorted(set(model.monotone_segments().values))
    targets = [(values[0] - 1, values[-1] + 1)]
    step = max(1, len(values) // 6)
    for u, v in zip(values[::step], values[1::step]):
        targets += [(u, v), (u + (v - u) / 3, v - (v - u) / 3), (u - 1, v)]
    return [(c, d) for c, d in targets if c < d]


def _outcome(route, model, c, d):
    """The components, or the error when the route refuses the target."""
    try:
        return _interval_keys(route(model, c, d))
    except PreconditionError as err:
        return str(err)


def assert_preimages_match(model):
    # a float target in the ulp gap two pieces leave at a knot inside a
    # segment resolves to that knot; both routes solve through
    # _solve_in_segment, so they agree there too
    for c, d in _targets(model):
        assert _outcome(FunctionModel.preimage, model, c, d) == \
            _outcome(preimage_oracle, model, c, d)


class TestPreimageFromKnotValues:
    @pytest.mark.parametrize("model", [m for m, _ in CONTINUOUS],
                             ids=[i for _, i in CONTINUOUS])
    def test_corpus_and_float_twins(self, model):
        assert_preimages_match(model)

    @pytest.mark.parametrize("model", CANTOR_MODELS, ids=CANTOR_IDS)
    def test_cantor_levels(self, model):
        assert_preimages_match(model)

    @given(rise_fall_plateau())
    @settings(max_examples=40, deadline=None)
    def test_random_piecewise_linear(self, knots):
        model = piecewise_linear(knots)
        assert_preimages_match(model)
        assert_preimages_match(_float_twin(model))


# ---------------------------------------------------------------------------
# image sets evaluate their part ends in one sweep
# ---------------------------------------------------------------------------


def _sets(model, cantor_levels):
    a, b = model.a, model.b
    w = b - a
    sets = [cantor_family((a, b)).level(j) for j in range(1, cantor_levels + 1)]
    sets += [
        shrinking_family((a, b), count=3).level(2),
        IntervalSet.open(a + w / 5, b - w / 7),
        IntervalSet.point(a + w / 3),
        IntervalSet([Interval(a, a + w / 4, False, True),
                     Interval(a + w / 2, b, True, False)]),
        IntervalSet.closed(a - 1, b + 1),
    ]
    return sets


def assert_image_sets_match(model, cantor_levels=4):
    for E in _sets(model, cantor_levels):
        assert _interval_keys(image_set(model, E)) == \
            _interval_keys(image_set_oracle(model, E))


class TestImageSetSweep:
    @pytest.mark.parametrize("model", [m for m, _ in CONTINUOUS],
                             ids=[i for _, i in CONTINUOUS])
    def test_corpus_and_float_twins(self, model):
        assert_image_sets_match(model)

    @pytest.mark.parametrize("model", CANTOR_MODELS, ids=CANTOR_IDS)
    def test_cantor_levels(self, model):
        assert_image_sets_match(model, cantor_levels=3)

    @given(rise_fall_plateau(),
           st.lists(st.tuples(st.integers(0, 48), st.integers(0, 48),
                              st.booleans(), st.booleans()), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_random_piecewise_linear(self, knots, raw):
        model = piecewise_linear(knots)
        a, w = model.a, model.b - model.a
        E = IntervalSet(Interval(a + w * min(i, j) / 48, a + w * max(i, j) / 48,
                                 lo_open and i != j, hi_open and i != j)
                        for i, j, lo_open, hi_open in raw)
        for m in (model, _float_twin(model)):
            assert _interval_keys(image_set(m, E)) == \
                _interval_keys(image_set_oracle(m, E))


# ---------------------------------------------------------------------------
# density windows evaluate every window end in one sweep
# ---------------------------------------------------------------------------


def monotone_density_oracle(model, grid, h):
    """The old route: both ends of every window evaluated on their own."""
    values = []
    for x in grid:
        if x == model.b:
            lo = max(model.b - h, model.a)
            values.append((model.evaluate(model.b) - model.evaluate(lo)) / h)
        else:
            hi = min(x + h, model.b)
            values.append((model.evaluate(hi) - model.evaluate(x)) / (hi - x))
    return values


def _grids(model):
    """Unsorted, repeated and clipped-at-b grids, in the model's arithmetic."""
    grid, h = density_grid(model, 64)
    a, b = model.a, model.b
    return h, [
        grid[::-1],
        grid[1::2] + grid[::2],
        [grid[5], grid[5], grid[9], grid[5], b, b],
        [b - h / 2, b - h / 3, b, a, b - h / 2],
    ]


def assert_densities_match(model):
    h, grids = _grids(model)
    for grid in grids:
        got = monotone_density(model, grid, h)
        assert list(got.grid) == list(grid)
        assert _keys(got.values) == _keys(monotone_density_oracle(model, grid, h))


class TestMonotoneDensitySweep:
    @pytest.mark.parametrize("model", [m for m, _ in CONTINUOUS],
                             ids=[i for _, i in CONTINUOUS])
    def test_jordan_parts_of_corpus_and_float_twins(self, model):
        parts = jordan_decomposition(model)
        assert_densities_match(parts.p)
        assert_densities_match(parts.n)


# ---------------------------------------------------------------------------
# the sweep may start anywhere
# ---------------------------------------------------------------------------


class TestSweepStart:
    def test_first_point_anywhere(self):
        # the jump at 1 tells the two pieces meeting at a knot apart, so a
        # sweep starting exactly on a knot must pick the right-hand piece
        jump = FunctionModel([LinearPiece(0, 1, 1, 0), LinearPiece(1, 2, 1, 5)])
        for model in (jump, build_cantor_iterate(3), _cantor(3, "float")):
            xs = sorted(model.knots() + model.verification_grid(33))
            for k in range(len(xs)):
                assert _keys(model.evaluate_many(xs[k:])) == \
                    _keys(model.evaluate(x) for x in xs[k:])
