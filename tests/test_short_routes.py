"""The exact short routes, each compared with the long route it replaced,
kept here as the oracle: ``==`` with the same type in rational mode, and
bit-equal floats in float mode.

* Image measures of continuous monotone rational models are sums of
  ``|F(hi) - F(lo)|`` over the components; the oracle measures the merged
  image set.
* With the default partition, the approximant u takes p's own tables; the
  oracle builds them from ``total_variation`` and a second evaluation, and
  walks the verification grid.
* With the default partition, ``variation_certificate`` takes the
  partition and its defect from p; the oracle calls ``total_variation`` and
  ``partition_sum``.
* On a finite segmentation, ``total_variation`` reads p(x) from p's
  tables; the oracle evaluates F again on a, the segment ends below x and
  x, and sums the swings.
* ``density_grid`` builds on the verification grid; the oracle builds the
  uniform grid, knots and window points itself.
* On a rational model ``bv_density`` is F's own window quotient; the
  oracle recovers p and n through their shifts, four monotone passes of
  the loop below, and checks each against its direct quotient.  A float
  window or point on a rational model is read as ``Fraction(x)``.
* On a rational model the window quotients run on integer pairs; the
  oracle is the loop over the values' own arithmetic, which divides
  exactly.  Exact cumulative sums and the reconstruction error run on
  integer pairs too; the oracles are the loops over the values' own
  arithmetic.  The report and CLI writers format a row
  with one ``%``; the oracle formats each number with ``sig15``.
"""

import json
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

import bvkit.cli as cli_mod
import bvkit.density as density_mod
import bvkit.measure as measure_mod
import bvkit.plots as plots_mod
from bvkit.certificate import variation_certificate
from bvkit._num import fraction_quotient, sig15, uniform_grid
from bvkit.cli import main
from bvkit.corpus import default_corpus
from bvkit.density import (
    BV_DIFFERENCE,
    DensityGrid,
    ReconstructionReport,
    bv_density,
    density_grid,
    integrate,
    reconstruction_error,
    shifted_monotone_density,
)
from bvkit.errors import (
    InfiniteSegmentationError,
    OutOfDomainError,
    PreconditionError,
    SpecFormatError,
)
from bvkit.intervals import Interval, IntervalSet
from bvkit.measure import cantor_family, image_measure, image_set, shrinking_family
from bvkit.model import (
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    XSinPiece,
    _sorted_unique,
    build_zigzag,
    piecewise_linear,
)
from bvkit.variation import (
    VariationFunction,
    jordan_decomposition,
    partition_sum,
    total_variation,
    uniform_approx,
    variation_function,
)

from support import model_to_dict

from test_evaluation_routes import (
    CANTOR_IDS,
    CANTOR_MODELS,
    CONTINUOUS,
    CORPUS,
    CORPUS_IDS,
    CORPUS_MODELS,
    _key,
    _keys,
)
from test_variation import _cantor, _float_twin, rise_fall_plateau

F = Fraction


# ---------------------------------------------------------------------------
# image measures
# ---------------------------------------------------------------------------


def old_image_measure(model, E):
    return image_set(model, E).measure


def _monotone(model) -> bool:
    directions = {seg.direction for seg in model.monotone_segments()}
    return not {"increasing", "decreasing"} <= directions


def _companions(model):
    """The model, its Jordan parts and the ``+ x`` companions of the
    non-decreasing ones."""
    jordan = jordan_decomposition(model)
    out = [model, jordan.p, jordan.n]
    out += [m.shift_add_identity() for m in list(out) if m.is_nondecreasing()]
    return out


def _monotone_rational_models():
    models, ids = [], []
    for entry in default_corpus():
        if entry.model.exact and entry.model.continuity_flag:
            for model in _companions(entry.model):
                if _monotone(model):
                    models.append(model)
                    ids.append(model.name)
    for level in range(10):
        if f"cantor_{level}" not in ids:
            models.append(_cantor(level, "rational"))
            ids.append(f"cantor_{level}")
    return models, ids


MONOTONE, MONOTONE_IDS = _monotone_rational_models()


def _random_set(rng, a, b, count):
    """Components with open or closed ends and some points, spilling up to
    a quarter width past either end of [a, b]."""
    width = b - a
    out = []
    for _ in range(count):
        lo = a - width / 4 + F(rng.randrange(0, 1536), 1024) * width
        if rng.random() < 0.2:
            out.append(Interval(lo, lo))
            continue
        hi = lo + F(rng.randrange(1, 97), 1024) * width
        out.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return IntervalSet(out)


def _sets(model):
    a, b = model.a, model.b
    cantor, shrinking = cantor_family((a, b)), shrinking_family((a, b), count=3)
    rng = random.Random(7)
    width = b - a
    sets = [IntervalSet.empty(),
            IntervalSet.closed(a - width / 2, b + width / 2),
            IntervalSet.open(a, b),
            IntervalSet.point(a),
            IntervalSet.point(b)]
    sets += [cantor.level(j) for j in range(1, 6)]
    sets += [shrinking.level(j) for j in range(1, 5)]
    sets += [_random_set(rng, a, b, count) for count in (1, 2, 5, 17, 40)]
    return sets


def assert_image_measures_match(model):
    for E in _sets(model):
        assert _key(image_measure(model, E)) == _key(old_image_measure(model, E)), E


class _CountImageSets:
    def __init__(self, monkeypatch):
        self.calls = 0
        real = measure_mod.image_set

        def counting(model, E):
            self.calls += 1
            return real(model, E)

        monkeypatch.setattr(measure_mod, "image_set", counting)


class TestImageMeasure:
    """``image_measure`` agrees with the measure of the merged image set."""

    @pytest.mark.parametrize("model", MONOTONE, ids=MONOTONE_IDS)
    def test_monotone_rational_models(self, model):
        assert model.exact and _monotone(model)
        assert_image_measures_match(model)

    @pytest.mark.parametrize("model", [m for m, _ in CONTINUOUS],
                             ids=[i for _, i in CONTINUOUS])
    def test_corpus_and_float_twins(self, model):
        assert_image_measures_match(model)

    @given(rise_fall_plateau())
    @settings(max_examples=40, deadline=None)
    def test_random_jordan_parts(self, knots):
        model = piecewise_linear(knots)
        jordan = jordan_decomposition(model)
        for part in (model, jordan.p, jordan.n, jordan.p.shift_add_identity()):
            assert_image_measures_match(part)

    @pytest.mark.parametrize("model", MONOTONE, ids=MONOTONE_IDS)
    def test_monotone_rational_models_take_the_sum(self, model, monkeypatch):
        counter = _CountImageSets(monkeypatch)
        for E in _sets(model):
            image_measure(model, E)
        assert counter.calls == 0

    @pytest.mark.parametrize("model", [_float_twin(m) for m in MONOTONE[:12]]
                             + [_cantor(6, "float")],
                             ids=[f"{i}-float" for i in MONOTONE_IDS[:12]]
                             + ["cantor_6-float"])
    def test_float_models_measure_the_image_set(self, model, monkeypatch):
        assert _monotone(model)
        counter = _CountImageSets(monkeypatch)
        sets = _sets(model)
        for E in sets:
            image_measure(model, E)
        assert counter.calls == len(sets)

    @pytest.mark.parametrize("model", [m for m, _ in CONTINUOUS if not _monotone(m)],
                             ids=[i for m, i in CONTINUOUS if not _monotone(m)])
    def test_non_monotone_models_measure_the_image_set(self, model, monkeypatch):
        counter = _CountImageSets(monkeypatch)
        sets = _sets(model)
        for E in sets:
            image_measure(model, E)
        assert counter.calls == len(sets)

    def test_int_valued_model_keeps_the_merged_type(self):
        # two components whose images touch at the Fraction 1/2 between
        # int ends: the merged image [0, 1] has the int length 1, while a
        # sum of the two halves would be Fraction(1)
        model = FunctionModel([LinearPiece(0, F(1, 2), 1, 0),
                               ConstantPiece(F(1, 2), F(3, 4), F(1, 2)),
                               LinearPiece(F(3, 4), 1, 2, -1)])
        assert model.exact and not model.fraction_valued
        E = IntervalSet([Interval(0, F(5, 8)), Interval(F(11, 16), 1)])
        assert _key(image_measure(model, E)) == _key(old_image_measure(model, E)) \
            == (int, 1)

    def test_discontinuous_model_is_refused(self):
        step = FunctionModel([LinearPiece(F(0), F(1), F(1), F(0)),
                              LinearPiece(F(1), F(2), F(1), F(1))])
        assert step.exact and not step.continuity_flag
        with pytest.raises(PreconditionError, match="continuous"):
            image_measure(step, IntervalSet.closed(F(0), F(2)))


# ---------------------------------------------------------------------------
# the default approximant
# ---------------------------------------------------------------------------


def old_default_tables(model):
    """u's partition, values and running sums as the grid-walk route built
    them: the achieving partition of ``total_variation``, F evaluated on
    it again, and the running swing sums."""
    base = total_variation(model, model.b).achieving_partition
    values = model.evaluate_many(base)
    prefix = [F(0) if model.exact else 0.0]
    for v0, v1 in zip(values, values[1:]):
        prefix.append(prefix[-1] + abs(v1 - v0))
    return base, values, prefix


def old_grid_gaps(model, approx, verify_points=1024):
    """p - u on the verification grid, as the grid walk computed it."""
    grid = model.verification_grid(verify_points)
    return [approx.p_function.at(x, fx) - approx.evaluate(x)
            for x, fx in zip(grid, model.evaluate_many(grid))]


APPROX_MODELS = [m for m, _ in CONTINUOUS] + CANTOR_MODELS
APPROX_IDS = [i for _, i in CONTINUOUS] + CANTOR_IDS


def _eps(model):
    return F(1, 100) if model.exact else 0.01


class TestDefaultApproximant:
    """With no base partition, u's tables are p's, as the old route built them."""

    @pytest.mark.parametrize("model", APPROX_MODELS, ids=APPROX_IDS)
    def test_tables_match_the_old_route(self, model):
        approx = uniform_approx(model, _eps(model))
        base, values, prefix = old_default_tables(model)
        assert type(approx.base_partition) is type(base) is tuple
        assert type(approx.base_values) is type(values) is list
        assert type(approx.prefix) is type(prefix) is list
        assert _keys(approx.base_partition) == _keys(base)
        assert _keys(approx.base_values) == _keys(values)
        assert _keys(approx.prefix) == _keys(prefix)

    @pytest.mark.parametrize("model", APPROX_MODELS, ids=APPROX_IDS)
    def test_old_grid_walk_finds_no_gap(self, model):
        approx = uniform_approx(model, _eps(model))
        assert all(g == 0 for g in old_grid_gaps(model, approx))

    def test_tables_are_copies(self, zigzag):
        approx = uniform_approx(zigzag, F(1, 100))
        pf = variation_function(zigzag)
        approx.prefix[-1] += 1
        approx.base_values[0] -= 1
        assert pf.prefix[-1] == 4 and pf.values[0] == 0

    def test_differing_tables_are_refused(self, monkeypatch):
        model = piecewise_linear([(0, 0), (1, 1), (2, 0)])
        monkeypatch.setattr(VariationFunction, "achieving_partition",
                            property(lambda pf: (pf.model.a, pf.model.b)))
        with pytest.raises(PreconditionError, match="tables differ"):
            uniform_approx(model, F(1, 100))
        assert uniform_approx(model, F(1, 100), verify_points=0).base_partition \
            == (0, 2)


# ---------------------------------------------------------------------------
# the default certificate partition
# ---------------------------------------------------------------------------


class TestDefaultCertificatePartition:
    """With no base partition, the certificate's partition and defect are
    those of ``total_variation`` and ``partition_sum``."""

    @pytest.mark.parametrize("model", APPROX_MODELS, ids=APPROX_IDS)
    def test_partition_and_defect_match_the_old_route(self, model):
        trace = variation_certificate(model, IntervalSet.empty(), _eps(model))
        partition = total_variation(model, model.b).achieving_partition
        defect = variation_function(model).total - partition_sum(model, partition)
        assert type(trace.base_partition) is tuple
        assert _keys(trace.base_partition) == _keys(partition)
        assert _key(trace.partition_defect) == _key(defect)


# ---------------------------------------------------------------------------
# V(x) from p's tables
# ---------------------------------------------------------------------------


def old_total_variation(model, x):
    """V_a^x(F) and its partition as the partition-sum route built them:
    a, the segment ends below x and x, with F evaluated on them again."""
    knots = [model.a] + [seg.hi for seg in model.monotone_segments() if seg.hi < x]
    pts = tuple(_sorted_unique(knots + [x]))
    return partition_sum(model, pts), pts


def _finite(model) -> bool:
    try:
        model.monotone_segments()
    except InfiniteSegmentationError:
        return False
    return True


VARIATION_MODELS = [m for m in CORPUS_MODELS + CANTOR_MODELS if _finite(m)]
VARIATION_IDS = [i for m, i in zip(CORPUS_MODELS + CANTOR_MODELS,
                                   CORPUS_IDS + CANTOR_IDS) if _finite(m)]


class TestVariationFromTables:
    """``total_variation`` on a finite segmentation gives the old route's
    value, partition and trace, by type and value.  The oracle costs
    O(knots) per point, so past 128 knots every k-th knot is taken, with
    k = #knots // 128."""

    @pytest.mark.parametrize("model", VARIATION_MODELS, ids=VARIATION_IDS)
    def test_knots_and_grid_match_the_old_route(self, model):
        knots = model.monotone_segments().knots()
        grid = uniform_grid(model.a, model.b, 33, model.exact)
        for x in knots[1::max(1, len(knots) // 128)] + [knots[-1]] + grid[1:]:
            est = total_variation(model, x)
            value, pts = old_total_variation(model, x)
            assert _key(est.lower) == _key(est.upper) == _key(value), x
            assert type(est.achieving_partition) is tuple
            assert _keys(est.achieving_partition) == _keys(pts), x
            assert est.refinement_trace == ((len(pts), value),)

    def test_f_is_evaluated_once(self, monkeypatch):
        model = _cantor(6, "rational")
        variation_function(model)
        calls = []
        real = FunctionModel.evaluate_many
        monkeypatch.setattr(FunctionModel, "evaluate_many",
                            lambda m, xs: calls.append(len(xs)) or real(m, xs))
        total_variation(model, F(1, 3))
        assert calls == [1]


# ---------------------------------------------------------------------------
# the density grid
# ---------------------------------------------------------------------------


def old_density_grid(model, n, h=None):
    """The recovery grid as it was built before it reused the
    verification grid."""
    pts = uniform_grid(model.a, model.b, n, model.exact)
    spacing = (model.b - model.a) / (n - 1)
    if h is None:
        h = spacing / 4
    if not model.exact:
        h = float(h)
    knots = model.knots()
    pts.extend(knots)
    pts.extend(k - h for k in knots if k - h > model.a)
    if not model.exact:
        pts = [float(x) for x in pts]
    grid = [x for x in _sorted_unique(pts) if model.a <= x <= model.b]
    return grid, h


class TestDensityGrid:
    """``density_grid`` gives the old recipe's points and window."""

    @pytest.mark.parametrize("model", CORPUS_MODELS + CANTOR_MODELS,
                             ids=CORPUS_IDS + CANTOR_IDS)
    def test_matches_the_old_recipe(self, model):
        for n in (192, 512, 1024, 4096):
            grid, h = density_grid(model, n)
            want_grid, want_h = old_density_grid(model, n)
            assert _key(h) == _key(want_h)
            assert _keys(grid) == _keys(want_grid)

    def test_explicit_window(self, zigzag):
        for h in (F(1, 7), F(1, 3)):
            grid, got_h = density_grid(zigzag, 64, h)
            assert got_h is h
            assert _keys(grid) == _keys(old_density_grid(zigzag, 64, h)[0])


# ---------------------------------------------------------------------------
# BV density as F's window quotient
# ---------------------------------------------------------------------------


def loop_window_quotients(model, grid, h):
    """The window quotients as the loop over the values' own arithmetic
    gives them, each divided by ``fraction_quotient`` (exact for ints):
    over the forward window [x, min(x + h, b)] of each grid point x, and
    over the left window [max(b - h, a), b] at b, whose width is h
    whenever h <= b - a."""
    b = model.b
    order = sorted(range(len(grid)), key=grid.__getitem__)
    los = [grid[i] for i in order if grid[i] != b]
    his = [min(x + h, b) for x in los]
    left = max(b - h, model.a)
    width = h if h <= b - model.a else b - left
    values = [fraction_quotient(model.evaluate(b) - model.evaluate(left), width)] * len(grid)
    for i, lo, hi, f_lo, f_hi in zip(order, los, his, model.evaluate_many(los),
                                     model.evaluate_many(his)):
        values[i] = fraction_quotient(f_hi - f_lo, hi - lo)
    return tuple(values)


def four_pass_bv_density(model, grid=None, h=None):
    """``bv_density`` by the shift route: p and n each recovered through
    its shift and checked against its direct quotient, on the loop above.
    The window and points are taken as given."""
    if not model.continuity_flag:
        raise PreconditionError("density recovery requires a continuous model")
    decomposition = jordan_decomposition(model)
    if grid is None:
        grid, h = density_grid(model, h=h)
    if not model.exact:
        h = float(h)
    parts = []
    for part in (decomposition.p, decomposition.n):
        density_mod._require_nondecreasing(part, "shifted density recovery")
        values = [v - 1 for v in loop_window_quotients(part.shift_add_identity(), grid, h)]
        direct = loop_window_quotients(part, grid, h)
        tolerance = 0 if model.exact else 2 * h * (max(map(abs, direct)) + 1) + 1e-9
        for got, want in zip(values, direct):
            if abs(got - want) > tolerance:
                raise PreconditionError(
                    f"shifted quotient {got} strays from direct quotient {want}")
        parts.append(values)
    values = tuple(g - r for g, r in zip(*parts))
    return DensityGrid(tuple(grid), values, h, BV_DIFFERENCE)


def _read_exactly(x):
    """A float as the Fraction of its exact value, any other number as it
    is: how a rational model reads its window and points."""
    return F(x) if isinstance(x, float) else x


def _density_outcome(recover, model, grid, h):
    """Grid, values and window by type and bits, or the error's class and
    message."""
    try:
        d = recover(model, grid, h)
    except Exception as exc:  # the oracle's errors are part of its answer
        return type(exc), str(exc)
    return _keys(d.grid), _keys(d.values), _key(d.window), d.method


def assert_density_matches(model, grid=None, h=None):
    """``bv_density`` against the oracle; on a rational model the oracle
    gets each float read exactly."""
    want_grid, want_h = grid, h
    if model.exact and grid is not None:
        want_grid, want_h = [_read_exactly(x) for x in grid], _read_exactly(h)
    want = _density_outcome(four_pass_bv_density, model, want_grid, want_h)
    assert _density_outcome(bv_density, model, grid, h) == want


def assert_grids_match(model, sizes, explicit=True):
    """The default grids of each size, and explicit grids with a window h
    and h/2, with and without b, reversed with b twice."""
    for n in sizes:
        assert_density_matches(model, *density_grid(model, n))
    if not explicit:
        return
    grid, h = density_grid(model, 64)
    for window in (h, h / 2):
        assert_density_matches(model, grid, window)
        assert_density_matches(model, grid[:-1], window)
        assert_density_matches(model, grid[::-1] + [model.b], window)


def _int_valued():
    """Int knots, slopes and intercepts: F is int at int points."""
    return FunctionModel([LinearPiece(0, 2, 3, 1), LinearPiece(2, 5, -1, 9),
                          ConstantPiece(5, 8, 4)])


def _reflected():
    """A falling piece reflected into a linear piece, then a rise."""
    return FunctionModel([LinearPiece(0, 1, F(1, 3), 1).reflected(1),
                          LinearPiece(1, 2, F(2), F(-1))])


# the corpus's cantor_k entries are Cantor levels below, so each is run once
RATIONAL_CORPUS = [e.model for e in CORPUS
                   if e.model.exact and not e.name.startswith("cantor")]
RATIONAL_CORPUS_IDS = [e.name for e in CORPUS
                       if e.model.exact and not e.name.startswith("cantor")]
FLOAT_CORPUS = [e.model for e in CORPUS
                if not e.model.exact and e.model.continuity_flag]
FLOAT_CORPUS_IDS = [e.name for e in CORPUS
                    if not e.model.exact and e.model.continuity_flag]
CANTOR_RATIONAL = CANTOR_MODELS[:10]
CANTOR_RATIONAL_IDS = CANTOR_IDS[:10]


class _CountMonotonePasses:
    def __init__(self, monkeypatch):
        self.calls = 0
        real = density_mod.monotone_density

        def counting(model, grid=None, h=None):
            self.calls += 1
            return real(model, grid, h)

        monkeypatch.setattr(density_mod, "monotone_density", counting)


def _bump_at(model, knot, delta):
    """Shadow ``model.evaluate_many`` with one that adds delta at knot."""
    real = model.evaluate_many

    def bumped(xs):
        return [v + delta if x == knot else v for x, v in zip(xs, real(xs))]

    model.evaluate_many = bumped


class TestBVDensityWindowQuotient:
    """``bv_density`` gives the four-pass route's values, by type and bits,
    and its errors, by class and message."""

    @pytest.mark.parametrize("model", RATIONAL_CORPUS + CANTOR_RATIONAL,
                             ids=RATIONAL_CORPUS_IDS + CANTOR_RATIONAL_IDS)
    def test_rational_models(self, model):
        assert_grids_match(model, (2, 192, 1024, 4096))

    @pytest.mark.parametrize("model", RATIONAL_CORPUS + CANTOR_RATIONAL,
                             ids=RATIONAL_CORPUS_IDS + CANTOR_RATIONAL_IDS)
    def test_jordan_parts(self, model):
        jordan = jordan_decomposition(model)
        for part in (jordan.p, jordan.n):
            assert_grids_match(part, (2, 192), explicit=False)

    @pytest.mark.parametrize("model", FLOAT_CORPUS, ids=FLOAT_CORPUS_IDS)
    def test_float_models(self, model):
        assert_grids_match(model, (2, 192))

    @given(rise_fall_plateau())
    @settings(max_examples=25, deadline=None)
    def test_random_models(self, knots):
        model = piecewise_linear(knots)
        assert_grids_match(model, (2, 48))

    @pytest.mark.parametrize("build", [_int_valued, _reflected],
                             ids=["int-valued", "reflected"])
    def test_hand_built(self, build):
        model = build()
        assert_grids_match(model, (2, 192))
        for h in (1, 2, F(1, 3)):
            assert_density_matches(model, list(range(int(model.b) + 1)), h)
        values = bv_density(model, [0, 1], 1).values
        assert all(type(v) is Fraction for v in values)

    def test_float_inputs_are_read_exactly(self):
        # slopes of 1/3: a float point is a long binary fraction, and the
        # quotients over it are still exact
        thirds = piecewise_linear([(0, 0), (F(1, 3), 1), (1, F(1, 7))])
        zigzag = build_zigzag()
        default, window = density_grid(zigzag, 64)
        for model, grid, h in [
                (thirds, [F(0), 0.3, F(1, 2)], F(1, 64)),
                (thirds, [0.1, 0.3, 0.7, 1.0], 1 / 64),
                (zigzag, default, float(window)),
                (zigzag, [float(x) for x in default], window)]:
            assert_density_matches(model, grid, h)
            density = bv_density(model, grid, h)
            assert all(type(x) in (int, Fraction) for x in density.grid)
            assert all(type(v) is Fraction for v in density.values)
            assert type(density.window) in (int, Fraction)

    def test_float_inputs_of_the_monotone_routes_are_read_exactly(self):
        p = jordan_decomposition(piecewise_linear([(0, 0), (F(1, 3), 1),
                                                   (1, F(1, 7))])).p
        grid = [0.1, 0.3, 0.7, 1.0]
        exact = [F(x) for x in grid]
        for recover in (density_mod.monotone_density, shifted_monotone_density):
            got = recover(p, grid, 1 / 64)
            want = recover(p, exact, F(1 / 64))
            assert _keys(got.grid) == _keys(exact)
            assert _keys(got.values) == _keys(want.values)
            assert all(type(v) is Fraction for v in got.values)
            assert _key(got.window) == _key(F(1 / 64))

    @pytest.mark.parametrize("grid, h", [
        ([F(0), F(1, 2), F(1)], F(3, 2)),     # h > b - a, b in the grid
        ([0, F(1, 2), 1], F(3, 2)),
        ([F(0), F(1, 2)], F(3, 2)),           # h > b - a, b not in the grid
        ([F(0), F(1)], F(2)),
        ([F(0), F(1)], F(1)),                 # h = b - a
        ([0.5, F(3, 4), 1], F(1, 64)),
        ([F(1, 2), 1], 1 / 64),
        ([F(1, 4), 1], 1.5),
    ], ids=["wide-h-with-b", "wide-h-int-points", "wide-h-without-b", "twice-b-a",
            "full-h", "float-point", "float-h", "wide-float-h"])
    def test_windows(self, grid, h):
        assert_density_matches(build_zigzag(), grid, h)
        assert_density_matches(_offset(), grid, h)

    @pytest.mark.parametrize("grid, h, error, message", [
        ([F(1, 2)], F(0), SpecFormatError, "window h must be positive and finite"),
        ([F(1, 2)], F(-1, 64), SpecFormatError, "window h must be positive and finite"),
        ([F(1, 2)], float("inf"), SpecFormatError, "window h must be positive and finite"),
        ([F(1, 2)], float("nan"), SpecFormatError, "window h must be positive and finite"),
        ([F(1, 2)], None, SpecFormatError, "an explicit grid needs an explicit window h"),
        ([], F(1, 64), SpecFormatError, "the density grid is empty"),
        ([F(-1), F(1, 2)], F(1, 64), OutOfDomainError, "-1 outside [0, 1]"),
        ([F(1, 2), F(3, 2)], F(1, 64), OutOfDomainError, "3/2 outside [0, 1]"),
        ([0.5, float("nan")], F(1, 64), OutOfDomainError, "nan outside [0, 1]"),
        ([0.5, float("inf")], F(1, 64), OutOfDomainError, "inf outside [0, 1]"),
    ], ids=["zero-h", "negative-h", "infinite-h", "nan-h", "no-h", "empty-grid",
            "below-a", "above-b", "nan-point", "infinite-point"])
    def test_errors(self, grid, h, error, message):
        model = build_zigzag()
        p = jordan_decomposition(model).p
        for recover, on in [(bv_density, model), (shifted_monotone_density, p),
                            (density_mod.monotone_density, p)]:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                recover(on, grid, h)

    @pytest.mark.parametrize("arithmetic", ["rational", "float"])
    def test_the_value_at_b_is_over_its_own_width(self, arithmetic):
        # F(b) - F(a) = -1/21 on [0, 1]: over h = 3/2 it would be -2/63
        model = _offset() if arithmetic == "rational" else _float_twin(_offset())
        p = jordan_decomposition(model).p
        a, b = model.a, model.b
        for h in (F(3, 2), F(1), F(1, 3)):
            h = h if model.exact else float(h)
            left = max(b - h, a)
            for recover, on in [(bv_density, model), (shifted_monotone_density, p),
                                (density_mod.monotone_density, p)]:
                got = recover(on, [a, (a + b) / 2, b], h).values[-1]
                want = (on.evaluate(b) - on.evaluate(left)) / (b - left)
                # float mode's shift route rounds through G = part + x
                assert got == want if model.exact else abs(got - want) < 1e-12
        # inside the domain the float quotient at b keeps dividing by h: at
        # h = 1/3 the rounded width b - (b - h) is not h
        h = 1 / 3
        twin = _float_twin(p)
        assert b - (b - h) != h
        got = density_mod._window_quotients(twin, (1.0,), h)[0]
        assert got == (twin.evaluate(1.0) - twin.evaluate(1.0 - h)) / h

    def test_discontinuous_model(self):
        model = FunctionModel([LinearPiece(0, 1, 1, 0), ConstantPiece(1, 2, 3)])
        assert not model.continuity_flag
        assert_density_matches(model)
        assert_density_matches(model, [F(1, 2)], F(1, 64))

    def test_oscillating_model(self):
        model = FunctionModel([XSinPiece(0.0, 1.0, 1)])
        assert_density_matches(model)
        assert_density_matches(model, [0.5], 1 / 64)

    @pytest.mark.parametrize("model", RATIONAL_CORPUS + FLOAT_CORPUS,
                             ids=RATIONAL_CORPUS_IDS + FLOAT_CORPUS_IDS)
    def test_monotone_passes(self, model, monkeypatch):
        counter = _CountMonotonePasses(monkeypatch)
        bv_density(model, *density_grid(model, 64))
        assert counter.calls == (0 if model.exact else 4)

    def test_a_falling_part_is_refused(self, monkeypatch):
        # p = F and n = 0 pass both table checks, but p falls
        model = build_zigzag()
        zero = FunctionModel([ConstantPiece(model.a, model.b, F(0))])
        fake = replace(jordan_decomposition(model), p=model, n=zero)
        monkeypatch.setattr(density_mod, "jordan_decomposition", lambda m: fake)
        grid = density_grid(model, 64)
        got = _density_outcome(bv_density, model, *grid)
        monkeypatch.setattr(sys.modules[__name__], "jordan_decomposition",
                            lambda m: fake)
        assert got == _density_outcome(four_pass_bv_density, model, *grid)
        assert got[1] == "shifted density recovery requires a non-decreasing model"

    def test_a_wrong_knot_of_p_is_refused(self):
        model = build_zigzag()
        p = jordan_decomposition(model).p
        p.monotone_segments()
        _bump_at(p, F(1, 4), F(1, 7))
        with pytest.raises(PreconditionError, match="^shift .* is not"):
            bv_density(model, *density_grid(model, 64))

    def test_a_wrong_knot_of_a_shift_is_refused(self, monkeypatch):
        model = build_zigzag()
        n = jordan_decomposition(model).n
        real = FunctionModel.shift_add_identity

        def shift(part):
            shifted = real(part)
            if part is n:
                _bump_at(shifted, F(1, 2), F(1, 7))
            return shifted

        monkeypatch.setattr(FunctionModel, "shift_add_identity", shift)
        with pytest.raises(PreconditionError, match="^shift .* is not"):
            bv_density(model, *density_grid(model, 64))

    def test_a_wrong_jordan_pair_is_refused(self, monkeypatch):
        # p and its shift move together, so only p - n == F can see it
        model = build_zigzag()
        p = jordan_decomposition(model).p
        p.monotone_segments()
        real = FunctionModel.shift_add_identity

        def shift(part):
            shifted = real(part)
            if part is p:
                _bump_at(shifted, F(3, 4), F(1, 7))
            return shifted

        monkeypatch.setattr(FunctionModel, "shift_add_identity", shift)
        _bump_at(p, F(3, 4), F(1, 7))
        with pytest.raises(PreconditionError, match="^p - n = .* not F"):
            bv_density(model, *density_grid(model, 64))

    @pytest.mark.parametrize("model", [build_zigzag(), CANTOR_MODELS[4]],
                             ids=["zigzag", "cantor_4"])
    def test_recover_writes_the_oracle_route_bytes(self, model, tmp_path,
                                                   monkeypatch, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(model_to_dict(model)))
        outputs = []
        for route in ("window", "four-pass"):
            if route == "four-pass":
                monkeypatch.setattr(cli_mod, "bv_density", four_pass_bv_density)
            out = tmp_path / route
            out.mkdir()
            assert main(["recover", str(spec), "--emit", str(out / "f.csv"),
                         "--report", str(out / "recon.json")]) == 0
            outputs.append(((out / "f.csv").read_bytes(),
                            (out / "recon.json").read_bytes(),
                            capsys.readouterr().out.replace(str(out), "")))
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# window quotients, cumulative sums and reconstruction on integer pairs
# ---------------------------------------------------------------------------


def old_cumulative(density):
    """``DensityGrid.cumulative`` as it was: the trapezoid sum in the
    values' own arithmetic."""
    acc = [density.values[0] * 0]
    for (x0, f0), (x1, f1) in zip(zip(density.grid, density.values),
                                  zip(density.grid[1:], density.values[1:])):
        acc.append(acc[-1] + (f0 + f1) * (x1 - x0) / 2)
    return tuple(acc)


def old_reconstruction_error(model, density):
    """``reconstruction_error`` as it was, on the old cumulative sum."""
    f_a = model.evaluate(model.a)
    cum = old_cumulative(density)
    worst = None
    arg = density.grid[0]
    for x, fx, acc in zip(density.grid, model.evaluate_many(density.grid), cum):
        err = abs(fx - f_a - acc)
        if worst is None or err > worst:
            worst, arg = err, x
    return ReconstructionReport(worst, arg, len(density.grid), density.window)


def _outcome(compute, *args):
    """Values by type and bits (a report field by field), or the error's
    class and message."""
    try:
        got = compute(*args)
    except Exception as exc:  # the oracle's errors are part of its answer
        return type(exc), str(exc)
    if isinstance(got, ReconstructionReport):
        got = (got.sup_error, got.argmax, got.grid_points, got.window)
    return _keys(got)


def _fresh(density):
    """A copy with no cumulative sum cached yet."""
    return DensityGrid(density.grid, density.values, density.window, density.method)


def assert_pair_routes_match(model, grid, h):
    """Window quotients (the mode's kernel against the loop), the
    cumulative sum, the reconstruction error and integrals at and between
    the grid points, by both routes."""
    kernel = (density_mod._pair_window_quotients if model.exact
              else density_mod._window_quotients)
    assert _outcome(kernel, model, grid, h) == _outcome(loop_window_quotients, model, grid, h)
    density = bv_density(model, grid, h)
    assert _keys(density.cumulative()) == _keys(old_cumulative(density))
    assert _outcome(reconstruction_error, model, _fresh(density)) == \
        _outcome(old_reconstruction_error, model, density)
    if list(density.grid) != sorted(density.grid):
        return
    oracle = _fresh(density)
    oracle._cumulative = old_cumulative(density)
    between = [(x0 + x1) / 2 for x0, x1 in zip(density.grid, density.grid[1:])]
    for x in list(density.grid) + between[::3]:
        assert _key(integrate(density, x)) == _key(integrate(oracle, x))


def assert_pair_grids_match(model, sizes, explicit=True):
    """The default grids of each size, and explicit grids with a window h
    and h/2, with and without b, reversed with b twice."""
    for n in sizes:
        assert_pair_routes_match(model, *density_grid(model, n))
    if not explicit:
        return
    grid, h = density_grid(model, 64)
    for window in (h, h / 2):
        assert_pair_routes_match(model, grid, window)
        assert_pair_routes_match(model, grid[:-1], window)
        assert_pair_routes_match(model, grid[::-1] + [model.b], window)


class _CountPairRoutes:
    """Counts the pair routes' calls; the pair walk counts only the calls
    that ask for pairs."""

    def __init__(self, monkeypatch):
        self.calls = {"windows": 0, "cumulative": 0, "walk": 0}
        self._count(monkeypatch, density_mod, "_pair_window_quotients", "windows")
        self._count(monkeypatch, density_mod, "_pair_cumulative", "cumulative")
        real = FunctionModel._pair_many

        def walk(model, xs, pairs=False):
            self.calls["walk"] += bool(pairs)
            return real(model, xs, pairs)

        monkeypatch.setattr(FunctionModel, "_pair_many", walk)

    def _count(self, monkeypatch, owner, name, key):
        real = getattr(owner, name)

        def counting(*args):
            self.calls[key] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counting)


def _offset():
    """F(a) = 1/3: the reconstruction error's F(a) has a denominator."""
    return piecewise_linear([(0, F(1, 3)), (F(1, 2), F(4, 3)), (1, F(2, 7))])


class TestDensityPairRoutes:
    """The pair routes give the loops' values, by type and bits, the same
    argmax, and the loops' errors, by class and message."""

    @pytest.mark.parametrize("model", RATIONAL_CORPUS + CANTOR_RATIONAL,
                             ids=RATIONAL_CORPUS_IDS + CANTOR_RATIONAL_IDS)
    def test_rational_models(self, model):
        assert_pair_grids_match(model, (2, 192, 1024, 4096))

    @pytest.mark.parametrize("model", RATIONAL_CORPUS + CANTOR_RATIONAL,
                             ids=RATIONAL_CORPUS_IDS + CANTOR_RATIONAL_IDS)
    def test_jordan_parts(self, model):
        jordan = jordan_decomposition(model)
        for part in (jordan.p, jordan.n):
            assert_pair_grids_match(part, (2, 192), explicit=False)

    @given(rise_fall_plateau())
    @settings(max_examples=25, deadline=None)
    def test_random_models(self, knots):
        assert_pair_grids_match(piecewise_linear(knots), (2, 48))

    @pytest.mark.parametrize("build", [_int_valued, _reflected, _offset],
                             ids=["int-valued", "reflected", "offset"])
    def test_hand_built(self, build):
        # int bounds give a Fraction default window; the int windows reach
        # past b - a on [0, 1]
        model = build()
        for n in (2, 64, 192):
            grid, h = density_grid(model, n)
            for window in (h, h / 2):
                assert_pair_routes_match(model, grid, window)
                assert_pair_routes_match(model, grid[:-1], window)
                assert_pair_routes_match(model, grid[::-1] + [model.b], window)
        for h in (1, 2, F(1, 3)):
            assert_pair_routes_match(model, list(range(int(model.b) + 1)), h)

    @pytest.mark.parametrize("model", RATIONAL_CORPUS, ids=RATIONAL_CORPUS_IDS)
    def test_rational_models_take_the_pair_routes(self, model, monkeypatch):
        counter = _CountPairRoutes(monkeypatch)
        reconstruction_error(model, bv_density(model, *density_grid(model, 64)))
        # F's pair walk over the window starts, the window ends and the grid
        assert counter.calls == {"windows": 1, "cumulative": 1, "walk": 3}

    @pytest.mark.parametrize("model", FLOAT_CORPUS, ids=FLOAT_CORPUS_IDS)
    def test_float_models_keep_the_loops(self, model, monkeypatch):
        counter = _CountPairRoutes(monkeypatch)
        assert_pair_grids_match(model, (2, 192))
        assert counter.calls == {"windows": 0, "cumulative": 0, "walk": 0}

    @pytest.mark.parametrize("grid", [
        [F(-1), F(1, 2)], [F(1, 2), F(3, 2)], [-1, F(1, 2), 2],
    ], ids=["below-a", "above-b", "both"])
    def test_window_errors(self, grid):
        model = build_zigzag()
        got = _outcome(density_mod._pair_window_quotients, model, grid, F(1, 64))
        assert got[0] is OutOfDomainError
        assert got == _outcome(loop_window_quotients, model, grid, F(1, 64))

    @pytest.mark.parametrize("values, grid", [
        ((F(2), F(2), F(2)), (0, F(1, 4), F(1, 2))),            # every error 0
        ((F(0), F(0), F(4)), (0, F(1, 4), F(1, 2))),            # 1/2 at 1/4 and 1/2
        ((1, 2, 3, 4), (0, F(1, 3), F(2, 3), 1)),               # int values
        ((1, 2, 3, 4), (0, 1, 2, 3)),                           # and int points
        ((F(1), F(1, 2), F(1, 3), F(1, 4)), (0, 0.25, 0.5, 1)),  # a float point
        ((F(1), 0.5, F(1, 3), F(1, 4)), (0, F(1, 3), F(2, 3), 1)),  # a float value
        ((F(3, 2),), (F(1, 2),)),
        ((F(3, 2),), (0.5,)),
    ], ids=["zero-errors", "tie", "int-values", "int-grid", "float-point", "float-value",
            "one-point", "one-float-point"])
    def test_hand_built_densities(self, values, grid):
        # the first maximal point stays the argmax
        model = _offset()
        density = DensityGrid(grid, values, F(1, 64), BV_DIFFERENCE)
        assert _keys(density.cumulative()) == _keys(old_cumulative(density))
        assert _outcome(reconstruction_error, model, _fresh(density)) == \
            _outcome(old_reconstruction_error, model, density)

    @pytest.mark.parametrize("model", RATIONAL_CORPUS + CANTOR_RATIONAL[:5]
                             + [_int_valued()],
                             ids=RATIONAL_CORPUS_IDS + CANTOR_RATIONAL_IDS[:5]
                             + ["int-valued"])
    def test_the_pair_walk_hands_out_pairs(self, model):
        grid = model.verification_grid(65) + [model.b]
        pairs = model._pair_many(grid, pairs=True)
        assert all(d > 0 for _, d in pairs)
        assert [F(n, d) for n, d in pairs] == model.evaluate_many(grid)
        assert model._pair_many([x.as_integer_ratio() for x in grid], pairs=True) == pairs
        below, above = model.a - 1, model.b + 1
        for xs in ([grid[5], grid[4]], [below], [above], [grid[3], above, grid[1]]):
            with pytest.raises(Exception) as want:
                model.evaluate_many(xs)
            with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
                model._pair_many(xs, pairs=True)


# CSV rows: floats (signed zeros, subnormal, huge, non-finite), ints (one
# past float precision) and Fractions
WRITER_ROWS = [
    (0.0, -0.0, 5e-324, 1.7976931348623157e308),
    (float("inf"), float("-inf"), float("nan"), 0.1),
    (0, -7, 10 ** 17 + 1, 2 ** 60),
    (F(1, 3), F(-22, 7), F(10 ** 20, 3), F(0)),
    (1, F(1, 3), 0.25, -2),
]
_rng = random.Random(7)
WRITER_ROWS += [tuple(F(_rng.randint(-10 ** 9, 10 ** 9), _rng.randint(1, 10 ** 6))
                      for _ in range(4)) for _ in range(40)]


class TestOneFormatPerRow:
    """The writers emit the bytes of one ``sig15`` or ``%.4f`` per number."""

    @pytest.mark.parametrize("width", [2, 4])
    def test_csv_rows(self, tmp_path, width):
        header = ["x", "F", "p", "n"][:width]
        rows = [row[:width] for row in WRITER_ROWS]
        plots_mod._write_csv(tmp_path / "rows.csv", header, rows)
        want = "\n".join([",".join(header)]
                         + [",".join(sig15(v) for v in row) for row in rows]) + "\n"
        assert (tmp_path / "rows.csv").read_text() == want

    def test_svg_points(self):
        xs = [0.0, 0.125, 1 / 3, 0.5, 1.0]
        ys = [0.0, -0.0, 2.5e-9, 7 / 3, -1.0]
        doc = plots_mod._svg_document([("F", xs, ys), ("f", xs, ys[::-1])], "t")
        to_px, _ = plots_mod._scale(xs + xs, ys + ys[::-1])
        for sx, sy in ((xs, ys), (xs, ys[::-1])):
            want = " ".join("%s,%s" % tuple(map(plots_mod._fmt, to_px(x, y)))
                            for x, y in zip(sx, sy))
            assert f'points="{want}"' in doc

    @pytest.mark.parametrize("model", [build_zigzag(), _int_valued(), CANTOR_MODELS[4],
                                       CANTOR_MODELS[14]],
                             ids=["zigzag", "int-valued", "cantor_4", "cantor_4-float"])
    def test_decompose_rows(self, model, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(model_to_dict(model)))
        paths = [tmp_path / "p.csv", tmp_path / "n.csv"]
        assert main(["decompose", str(spec), "--grid", "257",
                     "--emit", *map(str, paths)]) == 0
        capsys.readouterr()
        grid = model.verification_grid(257)
        jordan = jordan_decomposition(model)
        for path, part in zip(paths, (jordan.p, jordan.n)):
            want = "x,value\n" + "".join(f"{sig15(x)},{sig15(v)}\n"
                                         for x, v in zip(grid, part.evaluate_many(grid)))
            assert path.read_text() == want
