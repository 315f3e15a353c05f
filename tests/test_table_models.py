"""Rational models built, checked and segmented on their tables, against
the construction they replaced (``table_oracle``): the spec reader, the
Cantor expansion, ``piecewise_linear`` and ``build_cantor_iterate``, the
segmentation, the Jordan parts p and n, the companion F + x, and the
modulus.  Pieces (the view a table-built model rebuilds) must match in
class, ends, parameters and their types; models in name, ``_table``,
``continuity_flag``, knots and segmentation; modulus reports field by
field with their types; failures in class and message, the first of
several faults included."""

import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvkit.corpus import default_corpus
from bvkit.density import _greedy_items, ac_modulus
from bvkit.errors import BVKitError
from bvkit.model import (
    CantorPiece,
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    build_cantor_iterate,
    piecewise_linear,
)
from bvkit.specio import model_from_dict
from bvkit.variation import _monotone_envelope_models, variation_function

from support import model_to_dict
from table_oracle import (
    OldModel,
    old_ac_modulus,
    old_build_cantor_iterate,
    old_greedy_items,
    old_model_from_dict,
    old_monotone_envelope_models,
    old_piecewise_linear,
)
from test_integer_construction import _key, piece_key, tabled_models

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import workloads  # noqa: E402  (the bench's spec generator)

F = Fraction
DELTAS = (F(1, 1000), F(1, 64), F(1, 7), F(1, 3), F(1, 2), 1, 2, 0.3)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _outcome(build):
    try:
        return "ok", build()
    except BVKitError as err:
        return type(err), str(err)


def model_key(model):
    """Everything a model's construction decides, pieces by the view."""
    return (model.name, model.arithmetic, _key(model.a), _key(model.b), repr(model),
            [piece_key(p) for p in model.pieces],
            [piece_key(p) for p in model._expanded],
            model.continuity_flag, model._table, _key(model.knots()))


def segments_key(model):
    segmentation = model.monotone_segments()
    return ([(_key(s.lo), _key(s.hi), s.direction) for s in segmentation],
            _key(segmentation.values), segmentation.scale, segmentation.starts)


def modulus_key(report):
    return (report.verdict,
            [(_key(d), _key(w), [(_key(c.lo), _key(c.hi), c.lo_open, c.hi_open)
                                 for c in chosen.components])
             for d, w, chosen in report.samples])


def full_key(model):
    return model_key(model), _outcome(lambda: segments_key(model))


def assert_same(new, old, deltas=DELTAS):
    """``new`` against the oracle's ``old``: the models, their
    segmentations, p and n, F + x, and the modulus of F, p and n."""
    assert full_key(new) == full_key(old)
    if not _outcome(lambda: segments_key(new))[0] == "ok":
        return
    assert (_outcome(lambda: full_key(new.shift_add_identity()))
            == _outcome(lambda: full_key(old.shift_add_identity())))
    if not new.exact:
        assert repr(_greedy_items(new)) == repr(old_greedy_items(old))
    got = _outcome(lambda: _monotone_envelope_models(variation_function(new)))
    want = _outcome(lambda: old_monotone_envelope_models(variation_function(old)))
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == want
        parts = ()
    else:
        parts = list(zip(got[1], want[1]))
        for p_new, p_old in parts:
            assert full_key(p_new) == full_key(p_old)
    for m_new, m_old in [(new, old)] + parts:
        assert (_outcome(lambda: modulus_key(ac_modulus(m_new, deltas)))
                == _outcome(lambda: modulus_key(old_ac_modulus(m_old, deltas))))


def assert_spec_matches(doc, deltas=DELTAS):
    got = _outcome(lambda: model_from_dict(doc))
    want = _outcome(lambda: old_model_from_dict(doc))
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    assert_same(got[1], want[1], deltas)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def _cantor_doc(level, arithmetic="rational", lo="0", hi="1"):
    return {"arithmetic": arithmetic, "name": f"cantor_{level}",
            "pieces": [{"kind": "cantor_iterate", "domain": [lo, hi],
                        "params": {"level": level}}]}


_OLD_CORPUS = {
    "identity": lambda: old_piecewise_linear([(0, 0), (1, 1)], name="identity"),
    "neg_slope": lambda: old_piecewise_linear([(0, 0), (1, -1)], name="neg_slope"),
    "zigzag": lambda: old_piecewise_linear(
        [(0, 0), (F(1, 4), 1), (F(1, 2), 0), (F(3, 4), 1), (1, 0)], name="zigzag"),
}

CORPUS = default_corpus()


def _bench_docs():
    docs = []
    for name, seed in (("cantor", 3), ("certify", 3)):
        for key, spec in workloads.build(name, seed).models.items():
            docs.append((f"{name}-{key}", spec.doc))
    return docs


BENCH_DOCS = _bench_docs()


def _fmt(q, draw):
    """q as a spec number: an unreduced "n/d", a reduced one, or a JSON int."""
    q = F(q)
    if q.denominator == 1 and draw(st.booleans()):
        return int(q)
    k = draw(st.sampled_from((1, 1, 2, 3)))
    return f"{q.numerator * k}/{q.denominator * k}"


@st.composite
def table_specs(draw):
    """Rational specs of linear, constant and Cantor pieces, continuous or
    not, with reduced and unreduced numbers and JSON ints."""
    count = draw(st.integers(1, 6))
    x = F(draw(st.integers(-2, 1)))
    pieces = []
    for _ in range(count):
        kind = draw(st.sampled_from(("linear", "linear", "constant", "cantor_iterate")))
        if kind == "cantor_iterate" and 0 <= x < 1:
            hi = draw(st.sampled_from([h for h in (F(1, 3), F(1, 2), F(7, 9), F(1)) if h > x]))
            params = {"level": draw(st.integers(0, 4))}
        else:
            kind = "constant" if kind == "cantor_iterate" else kind
            hi = x + F(draw(st.integers(1, 4)), draw(st.sampled_from((1, 2, 3))))
            if kind == "linear":
                params = {"slope": _fmt(F(draw(st.integers(-4, 4)), draw(st.sampled_from((1, 2)))), draw),
                          "intercept": _fmt(F(draw(st.integers(-4, 4)), 3), draw)}
            else:
                params = {"value": _fmt(F(draw(st.integers(-3, 3)), 2), draw)}
        pieces.append({"kind": kind, "domain": [_fmt(x, draw), _fmt(hi, draw)], "params": params})
        x = hi
    doc = {"arithmetic": "rational", "pieces": pieces}
    if draw(st.booleans()):
        doc["name"] = "drawn"
    return doc


# each fault is (piece index, field, value); several may apply at once
_FAULTS = [
    (1, "domain", ["1/2", "1"]),            # a gap after piece 0
    (1, "domain", ["1/8", "1"]),            # an overlap
    (2, "domain", ["1", "1"]),              # lo == hi
    (2, "domain", ["2", "1"]),              # lo > hi
    (0, "params", {"level": 17}),           # past the level limit
    (0, "params", {"level": True}),
    (0, "params", {"level": -1}),
    (0, "params", {"level": 2.5}),
    (0, "domain", ["-1/3", "1/4"]),         # a Cantor piece below 0
    (1, "kind", "polynomial"),
    (2, "params", {"slope": "1/0", "intercept": "0"}),
    (2, "params", {"slope": "x", "intercept": "0"}),
    (1, "params", {}),
    (2, "domain", ["1"]),
    (2, "domain", ["1", "2", "bad"]),
]


def _faulty(faults):
    pieces = [
        {"kind": "cantor_iterate", "domain": ["0", "1/4"], "params": {"level": 2}},
        {"kind": "constant", "domain": ["1/4", "1"], "params": {"value": "1/2"}},
        {"kind": "linear", "domain": ["1", "2"], "params": {"slope": "1/2", "intercept": "0"}},
    ]
    for i, name, value in faults:
        if name == "kind":
            pieces[i] = {"kind": value, "domain": pieces[i]["domain"],
                         "params": {"coefficients": ["1/2", "0", "1"]}}
        else:
            pieces[i] = dict(pieces[i], **{name: value})
    return {"arithmetic": "rational", "pieces": pieces}


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestCantor:
    @pytest.mark.parametrize("level", range(11))
    def test_rational_levels(self, level):
        assert_same(build_cantor_iterate(level), old_build_cantor_iterate(level))
        assert_spec_matches(_cantor_doc(level))

    @pytest.mark.parametrize("level", range(11))
    def test_float_levels(self, level):
        assert_spec_matches(_cantor_doc(level, "float"))

    @pytest.mark.parametrize("lo, hi", [("0", "2/3"), ("1/3", "7/9"), ("1/9", "1"),
                                        ("1/4", "1/4"), ("2/6", "1")])
    def test_subranges(self, lo, hi):
        for level in (0, 2, 5):
            assert_spec_matches(_cantor_doc(level, lo=lo, hi=hi))

    def test_hand_built_cantor_pieces(self):
        for pieces in ([CantorPiece(0, F(2, 3), 3), LinearPiece(F(2, 3), 1, F(3, 4), F(1, 4))],
                       [ConstantPiece(-1, 0, 0), CantorPiece(0, 1, 2)],
                       [CantorPiece(F(1, 9), 1, 4)]):
            assert_same(FunctionModel(pieces), OldModel(pieces))


class TestCorpusAndBench:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_corpus(self, entry):
        model = entry.model
        if entry.name in _OLD_CORPUS:
            old = _OLD_CORPUS[entry.name]()
        elif entry.name.startswith("cantor_"):
            old = old_build_cantor_iterate(int(entry.name.split("_")[1]))
        else:
            old = OldModel(model.pieces, arithmetic=model.arithmetic, tol=model.tol,
                           name=model.name)
        assert_same(model, old, entry.ac_deltas)
        if model.exact:
            assert_spec_matches(model_to_dict(model), entry.ac_deltas)

    @pytest.mark.parametrize("name, doc", BENCH_DOCS, ids=[n for n, _ in BENCH_DOCS])
    def test_bench_specs(self, name, doc):
        assert_spec_matches(doc)
        if doc["arithmetic"] == "rational":
            assert_spec_matches(dict(doc, arithmetic="float"))


class TestRandomTables:
    @given(table_specs())
    @settings(max_examples=60, deadline=None)
    def test_specs(self, doc):
        assert_spec_matches(doc)

    @given(tabled_models())
    @settings(max_examples=40, deadline=None)
    def test_piece_lists(self, model):
        # a hand-built list keeps its per-piece checks and _pair_table
        assert_same(model, OldModel(model.pieces, arithmetic="rational"))

    @given(tabled_models(jumps=True))
    @settings(max_examples=30, deadline=None)
    def test_piece_lists_with_jumps(self, model):
        assert_same(model, OldModel(model.pieces, arithmetic="rational"))

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=2, max_size=7),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_piecewise_linear(self, raw, data):
        # int, Fraction and text knots, increasing or not
        points = []
        for x, y in raw:
            kind = data.draw(st.sampled_from(("int", "fraction", "text")))
            x = F(x, data.draw(st.sampled_from((1, 2, 3))))
            cast = {"int": lambda q: q if q.denominator != 1 else int(q),
                    "fraction": lambda q: q,
                    "text": lambda q: f"{q.numerator * 2}/{q.denominator * 2}"}[kind]
            points.append((cast(x), cast(F(y, 2))))
        got = _outcome(lambda: piecewise_linear(points, name="pl"))
        want = _outcome(lambda: old_piecewise_linear(points, name="pl"))
        if got[0] != "ok" or want[0] != "ok":
            assert got == want
        else:
            assert_same(got[1], want[1])


class TestRefusals:
    @pytest.mark.parametrize("faults", [[f] for f in _FAULTS] + [
        [_FAULTS[0], _FAULTS[2]], [_FAULTS[2], _FAULTS[0]], [_FAULTS[0], _FAULTS[4]],
        [_FAULTS[1], _FAULTS[9]], [_FAULTS[3], _FAULTS[9]], [_FAULTS[8], _FAULTS[0]],
        [_FAULTS[10], _FAULTS[0]], [_FAULTS[12], _FAULTS[2]], [_FAULTS[13], _FAULTS[0]],
    ], ids=lambda faults: "+".join(str(_FAULTS.index(f)) for f in faults))
    def test_first_error(self, faults):
        doc = _faulty(faults)
        got, want = _outcome(lambda: model_from_dict(doc)), _outcome(lambda: old_model_from_dict(doc))
        assert got == want

    def test_unfaulted_spec_loads(self):
        assert_spec_matches(_faulty([]))

    @pytest.mark.parametrize("doc", [
        {"pieces": []},
        {"arithmetic": "rational", "domain": ["0", "3"], "pieces": _faulty([])["pieces"]},
        {"arithmetic": "rational", "domain": ["0"], "pieces": _faulty([])["pieces"]},
        {"arithmetic": "rational", "domain": ["x", "2"], "pieces": _faulty([])["pieces"]},
    ], ids=["no-pieces", "domain-off", "domain-short", "domain-unparsable"])
    def test_document_level_errors(self, doc):
        got = _outcome(lambda: model_from_dict(doc))
        assert got[0] != "ok" and got == _outcome(lambda: old_model_from_dict(doc))
