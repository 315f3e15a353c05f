"""The integer-pair kernel behind ``evaluate`` and ``evaluate_many`` on
rational models, compared with the per-piece loop every model ran before,
kept here as the oracle: the same values with ``==`` and the same types
(floats by their bits), and the same first error on bad input."""

import math
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings

from bvkit._num import FLOAT
from bvkit.corpus import default_corpus
from bvkit.errors import OutOfDomainError, PreconditionError
from bvkit.model import (
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    ReflectedPiece,
    build_cantor_iterate,
    piecewise_linear,
)
from bvkit.variation import jordan_decomposition

from test_evaluation_routes import _keys
from test_variation import rise_fall_plateau


def _old_coerce(model, x):
    if x < model.a or x > model.b:
        raise OutOfDomainError(f"{x} outside [{model.a}, {model.b}]")
    if model.arithmetic == FLOAT:
        if not isinstance(x, float):
            x = float(x)
    elif isinstance(x, float):
        x = Fraction(x)
    return x


def old_evaluate_many(model, xs):
    """The per-piece loop: bisect the first point into the piece starts,
    walk for the rest, and let the piece evaluate the coerced point."""
    pieces = model._expanded
    starts = [p.lo for p in pieces]
    last = len(starts) - 1
    prev = None
    out = []
    for raw in xs:
        if prev is not None and raw < prev:
            raise PreconditionError(
                f"evaluate_many needs non-decreasing points; {raw} follows {prev}")
        x = _old_coerce(model, raw)
        if prev is None:
            i = max(bisect_right(starts, x) - 1, 0)
        prev = raw
        while i < last and starts[i + 1] <= x:
            i += 1
        out.append(pieces[i].value(x))
    return out


def _outcome(route, model, xs):
    try:
        return "ok", _keys(route(model, xs))
    except (OutOfDomainError, PreconditionError) as err:
        return "raised", type(err)


def _points(model):
    """Knots as given, as floats and as the floats next to them; a grid in
    the model's arithmetic and as floats; the integers and -0.0 in the
    domain.  Sorted, so points of different types mix and repeat."""
    knots = model.knots()
    floats = [float(k) for k in knots]
    grid = model.verification_grid(33)
    pts = knots + knots[::5] + floats + grid + [float(x) for x in grid]
    pts += [math.nextafter(f, -math.inf) for f in floats]
    pts += [math.nextafter(f, math.inf) for f in floats]
    pts += list(range(math.ceil(model.a), math.floor(model.b) + 1)) + [-0.0]
    return sorted(x for x in pts if model.a <= x <= model.b)


def assert_kernel_matches(model):
    xs = _points(model)
    # sub-sampled batches start anywhere
    for batch in [xs, []] + [xs[k::7] for k in (0, 3, 6)]:
        assert _outcome(FunctionModel.evaluate_many, model, batch) == \
            _outcome(old_evaluate_many, model, batch)
    for x in xs[::3] + [model.a, model.b]:
        assert _keys([model.evaluate(x)]) == _keys(old_evaluate_many(model, [x]))


def assert_errors_match(model):
    a, b = model.a, model.b
    mid = a + (b - a) / 3
    below, above = a - Fraction(1, 7), b + Fraction(1, 7)
    batches = [
        [mid, a],                           # unsorted
        [below], [above], [float(below)], [float(above)],
        [math.floor(a) - 1], [math.ceil(b) + 1],
        [a, mid, above], [below, mid],      # out of domain at either end
        [mid, below],                       # unsorted before out of domain
        [above, a], [mid, above, a],        # out of domain before unsorted
        [float(mid), -math.inf], [math.inf], [-math.inf, a],
    ]
    for xs in batches:
        got = _outcome(FunctionModel.evaluate_many, model, xs)
        assert got[0] == "raised"
        assert got == _outcome(old_evaluate_many, model, xs)


PARTS = ("F", "p", "n", "p+x", "n+x")


def _part(model, part):
    """F, its Jordan parts p and n, or their strictly increasing companions."""
    if part == "F":
        return model
    d = jordan_decomposition(model)
    half = d.p if part[0] == "p" else d.n
    return half.shift_add_identity() if part.endswith("+x") else half


# parts are built inside the tests, so a broken kernel fails them rather
# than collection
CORPUS = {e.name: e.model for e in default_corpus()}
CORPUS_CASES = [(name, part) for name in CORPUS for part in PARTS]
CORPUS_IDS = [f"{name}-{part}" for name, part in CORPUS_CASES]


def _corpus_model(name, part):
    return _part(CORPUS[name], part)


# int slopes and intercepts give int values at int points; the jumps tell
# apart the two pieces that meet at a knot
HAND_BUILT = {
    "int-identity": lambda: FunctionModel([LinearPiece(0, 1, 1, 0)]),
    "int-rise-flat-fall": lambda: FunctionModel([
        LinearPiece(0, 1, 2, 0), ConstantPiece(1, 2, 2), LinearPiece(2, 3, -1, 4)]),
    "jumps": lambda: FunctionModel([
        LinearPiece(0, 1, 1, 0), ConstantPiece(1, 2, Fraction(7, 3)),
        LinearPiece(2, Fraction(5, 2), Fraction(-2, 5), Fraction(1, 3))]),
    # a reflected piece leaves no pair table, so the model keeps the loop
    "reflected": lambda: FunctionModel([
        ReflectedPiece(LinearPiece(0, 1, Fraction(1, 3), 1), 1)]),
}


class TestKernelMatchesOldLoop:
    @pytest.mark.parametrize("name, part", CORPUS_CASES, ids=CORPUS_IDS)
    def test_corpus_jordan_parts_and_companions(self, name, part):
        model = _corpus_model(name, part)
        assert_kernel_matches(model)
        assert_errors_match(model)

    @pytest.mark.parametrize("level", range(10))
    def test_cantor_levels(self, level):
        model = build_cantor_iterate(level)
        assert_kernel_matches(model)
        assert_errors_match(model)

    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_hand_built(self, name):
        model = HAND_BUILT[name]()
        assert_kernel_matches(model)
        assert_errors_match(model)

    @given(rise_fall_plateau())
    @settings(max_examples=60, deadline=None)
    def test_random_piecewise_linear(self, knots):
        model = piecewise_linear(knots)
        for part in PARTS[:3]:
            assert_kernel_matches(_part(model, part))
            assert_errors_match(_part(model, part))


class TestPairTable:
    def test_every_rational_corpus_model_has_one(self):
        # the p + x companions of constant pieces carry the int slope 1
        for name, part in CORPUS_CASES:
            model = _corpus_model(name, part)
            assert (model._table is not None) == model.exact, (name, part)
        assert all(build_cantor_iterate(level)._table is not None for level in range(10))

    def test_pieces_it_cannot_hold(self):
        reflected = HAND_BUILT["reflected"]()
        assert reflected.exact and reflected._table is None
        # a float parameter in an exact piece keeps the loop too
        model = FunctionModel([LinearPiece(0, 1, 0.5, 0)])
        assert model.exact and model._table is None
        assert model.evaluate(Fraction(1, 2)) == 0.25

    def test_int_values_at_int_points(self):
        model = HAND_BUILT["int-identity"]()
        assert [type(v) for v in model.evaluate_many([0, Fraction(1, 2), 0.5, 1])] \
            == [int, Fraction, Fraction, int]
