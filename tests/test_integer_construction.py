"""Rational models built on integers: the Cantor expansion, the continuity
check on the pair table, the Jordan parts p and n, and the companions
F + x, p + x and n + x.  Each is compared with the construction it
replaced, kept here as the oracle: the Fraction Cantor loop, the
continuity loop over piece values, the ``make_transformed`` envelope walk
with its ``evaluate_many`` monotonicity check, and the ``make_transformed``
shift.  Pieces must match in class, ends, parameters and their types;
models in name, ``continuity_flag`` and ``_table``; failures in class and
message."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bvkit.variation as variation_mod
from bvkit.corpus import default_corpus
from bvkit.errors import BVKitError, NotBVError, PreconditionError
from bvkit.model import (
    CONSTANT,
    DECREASING,
    INCREASING,
    CantorPiece,
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    XSinPiece,
    build_cantor_iterate,
    build_identity,
    make_transformed,
    piecewise_linear,
)
from bvkit.specio import model_from_dict
from bvkit.variation import (
    JORDAN_VERIFY_POINTS,
    jordan_decomposition,
    variation_function,
)

from support import piece_params

F = Fraction


# ---------------------------------------------------------------------------
# the old constructions, kept as oracles
# ---------------------------------------------------------------------------


def old_cantor_pieces(level):
    """The Fraction loop: split every rise into rise / plateau / rise."""
    rising = [(F(0), F(0), F(1), F(1))]
    plateaus = []
    for _ in range(level):
        next_rising = []
        for x0, y0, x1, y1 in rising:
            w = (x1 - x0) / 3
            ym = (y0 + y1) / 2
            next_rising.append((x0, y0, x0 + w, ym))
            plateaus.append((x0 + w, x1 - w, ym))
            next_rising.append((x1 - w, ym, x1, y1))
        rising = next_rising
    pieces = []
    for x0, y0, x1, y1 in rising:
        slope = (y1 - y0) / (x1 - x0)
        pieces.append(LinearPiece(x0, x1, slope, y0 - slope * x0))
    for x0, x1, ym in plateaus:
        pieces.append(ConstantPiece(x0, x1, ym))
    pieces.sort(key=lambda p: p.lo)
    return pieces


def old_expanded(model):
    out = []
    for piece in model.pieces:
        if isinstance(piece, CantorPiece):
            out.extend(p.restrict(max(p.lo, piece.lo), min(p.hi, piece.hi))
                       for p in old_cantor_pieces(piece.level)
                       if p.lo < piece.hi and p.hi > piece.lo)
        else:
            out.append(piece)
    return out


def old_continuity(pieces, arithmetic, tol):
    for left, right in zip(pieces, pieces[1:]):
        lv, rv = left.value(left.hi), right.value(right.lo)
        if arithmetic == "rational":
            if lv != rv:
                return False
        elif not abs(float(lv) - float(rv)) <= tol:
            return False
    return True


_SIGN = {INCREASING: 1, DECREASING: -1, CONSTANT: 0}


def old_envelope(model):
    """The ``make_transformed`` walk over segments and expanded pieces."""
    pf = variation_function(model)
    expanded = model._expanded
    p_pieces, n_pieces = [], []
    j = 0
    for idx, seg in enumerate(model.monotone_segments()):
        s = _SIGN[seg.direction]
        c = pf.prefix[idx] - s * pf.values[idx]
        while expanded[j].hi <= seg.lo:
            j += 1
        k = j
        while k < len(expanded) and expanded[k].lo < seg.hi:
            piece = expanded[k]
            lo, hi = max(piece.lo, seg.lo), min(piece.hi, seg.hi)
            p_pieces.append(make_transformed(piece, s, 0, c, lo, hi))
            n_pieces.append(make_transformed(piece, s - 1, 0, c, lo, hi))
            k += 1
    return p_pieces, n_pieces


def old_fall_check(model, p_model, n_model):
    grid = model.verification_grid(JORDAN_VERIFY_POINTS)
    p_values = p_model.evaluate_many(grid)
    n_values = n_model.evaluate_many(grid)
    grace = model.grace
    for g0, g1, p0, p1, n0, n1 in zip(grid, grid[1:], p_values, p_values[1:],
                                      n_values, n_values[1:]):
        if p1 - p0 < -grace:
            raise NotBVError(f"p not non-decreasing between {g0} and {g1}")
        if n1 - n0 < -grace:
            raise NotBVError(f"n not non-decreasing between {g0} and {g1}")


def old_jordan(model):
    """p's and n's pieces as the old ``jordan_decomposition`` built them."""
    if not old_continuity(old_expanded(model), model.arithmetic, model.tol):
        raise PreconditionError("Jordan decomposition requires a continuous model")
    p_pieces, n_pieces = old_envelope(model)
    base = model.name or "F"
    p_model, n_model = (
        FunctionModel(pieces, arithmetic=model.arithmetic, tol=model.tol,
                      name=f"{suffix}[{base}]")
        for suffix, pieces in (("p", p_pieces), ("n", n_pieces)))
    old_fall_check(model, p_model, n_model)
    return p_pieces, n_pieces


def old_shift(model):
    """G = F + x's pieces as the old ``shift_add_identity`` built them,
    with its checks."""
    pieces = [make_transformed(p, 1, 1, 0) for p in model._expanded]
    if model.is_nondecreasing():
        if not old_continuity(pieces, model.arithmetic, model.tol):
            raise PreconditionError("shift of a continuous model lost continuity")
        shifted = FunctionModel(pieces, arithmetic=model.arithmetic, tol=model.tol)
        segmentation = shifted.monotone_segments()
        knots, values = segmentation.knots(), segmentation.values
        for k0, k1, v0, v1 in zip(knots, knots[1:], values, values[1:]):
            if k1 - k0 > model.grace and not v1 > v0:
                raise PreconditionError("shift of a non-decreasing model is "
                                        "not strictly increasing")
    return pieces


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _key(v):
    """Type and value; floats by their bits."""
    if isinstance(v, (list, tuple)):
        return tuple(_key(x) for x in v)
    return type(v), v.hex() if isinstance(v, float) else v


def piece_key(piece):
    return (type(piece), _key(piece.lo), _key(piece.hi),
            tuple((name, _key(v)) for name, v in sorted(piece_params(piece).items())))


def model_key(model):
    """Everything the old and new constructions must agree on."""
    return (model.name, model.arithmetic, _key(model.a), _key(model.b),
            [piece_key(p) for p in model.pieces],
            [piece_key(p) for p in model._expanded],
            model.continuity_flag, model._table)


def oracle_key(pieces, like, name, expanded=None):
    """``model_key`` of the model the old construction gave: its pieces, the
    old continuity loop's verdict, and the pair table of its expansion."""
    expanded = pieces if expanded is None else expanded
    table = FunctionModel(expanded, arithmetic=like.arithmetic, tol=like.tol)._table
    first, last = pieces[0], pieces[-1]
    return (name, like.arithmetic, _key(first.lo), _key(last.hi),
            [piece_key(p) for p in pieces],
            [piece_key(p) for p in expanded],
            old_continuity(expanded, like.arithmetic, like.tol), table)


def _outcome(build):
    try:
        return "ok", build()
    except BVKitError as err:
        return type(err), str(err)


def _shift_name(model):
    return None if model.name is None else f"{model.name}+x"


def assert_shift_matches(model):
    got = _outcome(lambda: model_key(model.shift_add_identity()))
    want = _outcome(lambda: oracle_key(old_shift(model), model, _shift_name(model)))
    assert got == want


def assert_construction_matches(model):
    """F, p, n, F + x, p + x and n + x against the old constructions."""
    assert model_key(model) == oracle_key(list(model.pieces), model, model.name,
                                          old_expanded(model))
    assert_shift_matches(model)
    got = _outcome(lambda: jordan_decomposition(model))
    want = _outcome(lambda: old_jordan(model))
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    dec = got[1]
    base = model.name or "F"
    for part, pieces, suffix in ((dec.p, want[1][0], "p"), (dec.n, want[1][1], "n")):
        assert model_key(part) == oracle_key(pieces, model, f"{suffix}[{base}]")
        assert_shift_matches(part)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def _cantor_doc(arithmetic, pieces):
    return model_from_dict({"arithmetic": arithmetic, "pieces": pieces})


def _cantor_spec(level, arithmetic):
    return _cantor_doc(arithmetic, [{"kind": "cantor_iterate", "domain": ["0", "1"],
                                     "params": {"level": level}}])


def _subrange_models(level):
    """Cantor pieces on parts of [0, 1], with int and Fraction ends, alone
    and between linear and constant pieces; some meet their neighbours,
    some do not."""
    top = F(1)
    return [
        FunctionModel([CantorPiece(F(0), F(2, 3), level),
                       LinearPiece(F(2, 3), F(1), F(3, 4), F(0))]),
        FunctionModel([CantorPiece(F(1, 3), F(7, 9), level)]),
        FunctionModel([CantorPiece(0, 1, level)]),
        FunctionModel([CantorPiece(F(1, 9), 1, level), ConstantPiece(1, 2, top)]),
        FunctionModel([ConstantPiece(-1, 0, 0), CantorPiece(0, F(1, 2), level),
                       LinearPiece(F(1, 2), 1, -1, F(3, 2))]),
        FunctionModel([LinearPiece(-1, 0, 1, 1), CantorPiece(0, F(5, 6), level)]),
    ]


CORPUS = default_corpus()
RATIONAL_CORPUS = [e for e in CORPUS if e.model.exact]


def _int_or_fraction(draw, v):
    """v as an int when it is whole and the draw says so."""
    return int(v) if v.denominator == 1 and draw(st.booleans()) else v


@st.composite
def tabled_models(draw, jumps=False):
    """Rational models of linear and constant pieces, with int and Fraction
    knots, slopes, intercepts and constants, plateaus as constant pieces
    and as zero-slope linear pieces.  Continuous, unless ``jumps``: then
    at least one junction jumps."""
    count = draw(st.integers(1, 9))
    x = F(draw(st.integers(-3, 3)))
    y = F(draw(st.integers(-4, 4)), draw(st.sampled_from((1, 2, 3))))
    jump_at = draw(st.integers(1, count)) if jumps else None
    pieces = []
    for i in range(count):
        if i == jump_at:
            y += F(draw(st.sampled_from((-2, -1, 1, 3))), draw(st.sampled_from((1, 3))))
        x1 = x + F(draw(st.integers(1, 4)), draw(st.sampled_from((1, 2, 3))))
        kind = draw(st.sampled_from(("linear", "linear", "constant", "flat-linear")))
        if kind == "linear":
            y1 = y + F(draw(st.integers(-4, 4)), draw(st.sampled_from((1, 2))))
        else:
            y1 = y
        lo, hi = _int_or_fraction(draw, x), _int_or_fraction(draw, x1)
        if pieces:
            lo = pieces[-1].hi  # the same object, as a spec would give
        if kind == "constant":
            pieces.append(ConstantPiece(lo, hi, _int_or_fraction(draw, y)))
        else:
            slope = (y1 - y) / (x1 - x)
            pieces.append(LinearPiece(lo, hi, _int_or_fraction(draw, slope),
                                      _int_or_fraction(draw, y - slope * x)))
        x, y = x1, y1
    if jumps and jump_at == count:
        # a jump after the last piece: a constant piece above it
        pieces.append(ConstantPiece(pieces[-1].hi, pieces[-1].hi + 1, y + 1))
    return FunctionModel(pieces, arithmetic="rational")


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestCantorExpansion:
    """The level's table gives the Fraction loop's pieces, in order."""

    @pytest.mark.parametrize("level", range(11))
    def test_pieces_match_the_fraction_loop(self, level):
        got = CantorPiece(0, 1, level).expand()
        want = old_cantor_pieces(level)
        assert [piece_key(p) for p in got] == [piece_key(p) for p in want]
        assert len(got) == 2 ** (level + 1) - 1

    def test_full_range_piece_is_not_restricted(self):
        # the spans-[0, 1] shortcut keeps the expansion's own ends, as the
        # restriction did, whatever the type of the piece's bounds
        for lo, hi in ((F(0), F(1)), (0, 1), (0.0, 1.0)):
            pieces = CantorPiece(lo, hi, 3).expand()
            assert pieces[0].lo == 0 and type(pieces[0].lo) is Fraction
            assert pieces[-1].hi == 1 and type(pieces[-1].hi) is Fraction


class TestConstruction:
    """F, p, n, F + x, p + x and n + x equal the old constructions."""

    @pytest.mark.parametrize("level", range(11))
    def test_cantor_rational(self, level):
        assert_construction_matches(build_cantor_iterate(level))
        assert_construction_matches(_cantor_spec(level, "rational"))

    @pytest.mark.parametrize("level", range(8))
    def test_cantor_float(self, level):
        model = _cantor_spec(level, "float")
        assert model._table is None
        assert_construction_matches(model)

    @pytest.mark.parametrize("level", (0, 1, 2, 3, 5))
    def test_cantor_subranges(self, level):
        for model in _subrange_models(level):
            assert_construction_matches(model)

    @pytest.mark.parametrize("entry", RATIONAL_CORPUS, ids=lambda e: e.name)
    def test_rational_corpus(self, entry):
        assert entry.model._table is not None
        assert_construction_matches(entry.model)

    @given(tabled_models())
    @settings(max_examples=80, deadline=None)
    def test_random_tabled_models(self, model):
        assert model._table is not None
        assert_construction_matches(model)

    def test_piecewise_linear_and_identity(self):
        for model in (build_identity(), build_identity(-2, 3),
                      piecewise_linear([(0, 1), (1, 1), (2, 0), (F(5, 2), 0), (3, 2)])):
            assert_construction_matches(model)

    def test_a_reflected_linear_piece(self):
        # a falling piece, reflected into a linear piece of the table
        model = FunctionModel([LinearPiece(0, 1, F(1, 3), 1).reflected(1),
                               LinearPiece(1, 2, F(2), F(-1))])
        assert model._table is not None
        assert_construction_matches(model)


class TestNegativeCases:
    """Discontinuous, falling and unresolvable inputs fail as before."""

    @given(tabled_models(jumps=True))
    @settings(max_examples=60, deadline=None)
    def test_random_jumps_are_discontinuous(self, model):
        assert model._table is not None
        assert not model.continuity_flag
        assert_construction_matches(model)

    @pytest.mark.parametrize("pieces", [
        [LinearPiece(0, 1, 1, 0), LinearPiece(1, 2, 1, 5)],
        [LinearPiece(0, 1, 2, 0), ConstantPiece(1, 3, 3)],
        [ConstantPiece(0, 1, 1), ConstantPiece(1, 2, 2)],
        [LinearPiece(F(0), F(1, 3), F(3, 2), F(0)),
         ConstantPiece(F(1, 3), F(2, 3), F(1, 3))],
        [LinearPiece(F(0), F(1, 2), F(1, 3), F(1, 7)),
         LinearPiece(F(1, 2), F(1), F(1, 3), F(1, 6))],
    ], ids=["int-linear", "int-constant", "constants", "fraction-plateau",
            "fraction-linear"])
    def test_discontinuous_junctions(self, pieces):
        model = FunctionModel(pieces)
        assert model._table is not None and not model.continuity_flag
        assert_construction_matches(model)
        with pytest.raises(PreconditionError,
                           match="^Jordan decomposition requires a continuous model$"):
            jordan_decomposition(model)

    def test_discontinuous_nondecreasing_shift(self):
        model = FunctionModel([LinearPiece(0, 1, 1, 0), ConstantPiece(1, 2, 2)])
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(PreconditionError,
                               match="^shift of a continuous model lost continuity$"):
                model.shift_add_identity()
        assert "shift" not in model._cache

    def test_falling_model_has_an_unchecked_shift(self):
        model = piecewise_linear([(0, 0), (1, 2), (2, 0)])
        assert_shift_matches(model)
        assert not model.shift_add_identity().is_nondecreasing()

    def test_unresolvable_variation_is_not_bv(self):
        model = FunctionModel([XSinPiece(0.0, 1.0, 1)])
        with pytest.raises(NotBVError) as err:
            jordan_decomposition(model)
        assert str(err.value).startswith("model is not of resolvable bounded variation: ")

    @pytest.mark.parametrize("parts", [
        ("falls", "rises"), ("rises", "falls"), ("falls", "falls"),
        ("dips", "falls"),
    ])
    def test_falling_parts_are_reported_as_before(self, monkeypatch, parts):
        # the pair route's fall check names the same grid cell, p before n
        shapes = {"rises": [(0, 0), (1, 1)],
                  "falls": [(0, 0), (F(1, 2), 1), (1, 0)],
                  "dips": [(0, 0), (F(1, 3), 1), (F(1, 2), F(1, 2)), (1, 2)]}
        p_model, n_model = (piecewise_linear(shapes[name]) for name in parts)
        model = build_identity()
        monkeypatch.setattr(variation_mod, "_monotone_envelope_models",
                            lambda pf: (p_model, n_model))
        with pytest.raises(NotBVError) as want:
            old_fall_check(model, p_model, n_model)
        with pytest.raises(NotBVError) as got:
            jordan_decomposition(model)
        assert str(got.value) == str(want.value)


class TestShiftCache:
    def test_shift_is_built_once_per_model(self):
        model = build_cantor_iterate(3)
        shifted = model.shift_add_identity()
        assert model.shift_add_identity() is shifted
        dec = jordan_decomposition(model)
        assert dec.p.shift_add_identity() is dec.p.shift_add_identity()
        assert dec.p.shift_add_identity() is not shifted

    def test_float_models_keep_the_piece_loop(self, square01):
        shifted = square01.shift_add_identity()
        assert square01.shift_add_identity() is shifted
        want = [make_transformed(p, 1, 1, 0) for p in square01._expanded]
        assert [piece_key(p) for p in shifted.pieces] == [piece_key(p) for p in want]
