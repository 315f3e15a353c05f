"""JSON schemas: function spec files, interval sets, and report payloads.

Rationals serialize as ``"p/q"`` strings; floats stay JSON numbers.  The
function spec document is::

    {"domain": [a, b],
     "arithmetic": "rational" | "float",
     "tol": 1e-12,                     # optional, float mode
     "pieces": [{"kind": ..., "domain": [u, v], "params": {...}}, ...]}

with kinds ``linear`` (slope, intercept), ``constant`` (value),
``polynomial`` (coefficients, ascending), ``cantor_iterate`` (level) and
``x_sin_family`` (exponent).

A rational spec of linear, constant and Cantor pieces is read straight
into its model's table: each number string once, into a reduced integer
pair, the piece rules and the tiling checked on those pairs with the
constructors' messages, in their order.  Any other spec builds its pieces.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from ._num import DEFAULT_FLOAT_TOL, FLOAT, RATIONAL, as_number, fmt_number, frac_pair
from .errors import SpecFormatError
from .intervals import Interval, IntervalSet
from .model import (
    _FRACTIONS,
    CantorPiece,
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    PolynomialPiece,
    XSinPiece,
    _cantor_table,
    _checked_level,
    _domain_error,
    _Table,
    _tiling_error,
)

_PIECE_KINDS = ("linear", "constant", "polynomial", "cantor_iterate", "x_sin_family")
# the kinds a rational spec reads into its table
_TABLED_KINDS = ("linear", "constant", "cantor_iterate")
_TABLED = (LinearPiece, ConstantPiece, CantorPiece)

# what reading a field of a document that is not the expected shape raises:
# a missing key, a wrong container or scalar type, an unparsable value
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def model_from_dict(doc: dict) -> FunctionModel:
    """Build a model from a spec document; a document whose fields cannot
    be read, whose optional ``domain`` is not the span of its pieces, or
    (in float mode) whose ``tol`` is NaN, infinite or negative, raises
    :class:`SpecFormatError`.

    A rational spec of linear, constant and Cantor pieces reads each of
    their numbers once, into a reduced integer pair, and builds the
    model's table from the pairs (:func:`_spec_table`); any other spec
    builds its pieces, each checked by its constructor."""
    try:
        arithmetic = doc.get("arithmetic", RATIONAL)
        tol = float(doc.get("tol", DEFAULT_FLOAT_TOL))
        raw_pieces = doc["pieces"]
        name = doc.get("name")
        raw_domain = doc.get("domain")
    except _MALFORMED as exc:
        raise SpecFormatError(f"malformed function spec: {exc!r}") from exc
    if arithmetic not in (RATIONAL, FLOAT):
        raise SpecFormatError(f"unknown arithmetic {arithmetic!r}")
    if arithmetic == FLOAT and not 0 <= tol < math.inf:
        # an infinite tol passes every junction, a NaN one fails them all
        raise SpecFormatError(f"tol must be finite and non-negative; got {tol}")
    try:
        fields = [_piece_fields(entry, arithmetic) for entry in raw_pieces]
    except _MALFORMED as exc:
        raise SpecFormatError(f"malformed piece: {exc!r}") from exc
    try:
        domain = (None if raw_domain is None
                  else [as_number(v, arithmetic) for v in raw_domain])
    except _MALFORMED as exc:
        raise SpecFormatError(f"malformed spec domain: {exc!r}") from exc
    if arithmetic == RATIONAL and fields and all(cls in _TABLED for cls, _ in fields):
        model = FunctionModel(_spec_table(fields), arithmetic=arithmetic, tol=tol, name=name)
    else:
        # a tabled kind's pairs become Fractions, as frac reads them
        model = FunctionModel([cls(*(Fraction(*v) if type(v) is tuple else v for v in args))
                               for cls, args in fields],
                              arithmetic=arithmetic, tol=tol, name=name)
    if domain is not None and domain != [model.a, model.b]:
        raise SpecFormatError(f"spec domain {raw_domain} is not the pieces' "
                              f"span [{model.a}, {model.b}]")
    return model


def _piece_fields(entry: dict, arithmetic: str) -> tuple:
    """The piece class and its constructor arguments, read from one entry;
    in rational mode a linear, constant or Cantor piece's numbers are
    reduced integer pairs (:func:`frac_pair`)."""
    kind = entry.get("kind")
    if kind not in _PIECE_KINDS:
        raise SpecFormatError(f"unknown piece kind {kind!r}")
    if arithmetic == RATIONAL and kind in _TABLED_KINDS:
        number = frac_pair
    else:
        def number(value):
            return as_number(value, arithmetic)
    lo, hi = (number(v) for v in entry["domain"])
    params = entry.get("params", {})
    if kind == "linear":
        return LinearPiece, (lo, hi, number(params["slope"]), number(params["intercept"]))
    if kind == "constant":
        return ConstantPiece, (lo, hi, number(params["value"]))
    if kind == "polynomial":
        return PolynomialPiece, (lo, hi, [number(c) for c in params["coefficients"]])
    if kind == "cantor_iterate":
        return CantorPiece, (lo, hi, _json_number(params["level"], int))
    return XSinPiece, (lo, hi, _json_number(params["exponent"], float))


def _spec_table(fields) -> _Table:
    """The table of a rational spec's linear, constant and Cantor pieces,
    whose numbers are reduced pairs.  Each piece's rules come first, in
    order (``lo < hi`` by cross-multiplication, then a Cantor piece's level
    and range), then the tiling, with the messages and in the order the
    constructors give them.  Knots and constants become Fractions; a
    Cantor piece's rows are its level's table cut to its domain."""
    for cls, (lo, hi, *params) in fields:
        if not lo[0] * hi[1] < hi[0] * lo[1]:
            raise _domain_error(Fraction(*lo), Fraction(*hi))
        if cls is CantorPiece:
            _checked_level(params[0])
            if lo[0] < 0 or hi[0] > hi[1]:
                raise SpecFormatError("cantor_iterate pieces live inside [0, 1]")
    for (_, (_, left, *_)), (_, (right, *_)) in zip(fields, fields[1:]):
        if left[0] * right[1] != right[0] * left[1]:
            raise _tiling_error(Fraction(*left), Fraction(*right))
    knots = [Fraction(*fields[0][1][0])]
    num, den, coeffs, consts, forms, given = [], [], [], [], [], []
    for cls, (lo, hi, *params) in fields:
        first, end = len(coeffs), Fraction(*hi)
        num.append(lo[0])
        den.append(lo[1])
        if cls is CantorPiece:
            level = _checked_level(params[0])
            cut = _cantor_table(level)
            # the rows meeting (lo, hi): each ends past lo and starts before hi
            r0 = bisect_right(cut.knots, knots[-1]) - 1
            r1 = bisect_left(cut.knots, end)
            num.extend(cut.num[r0 + 1:r1])
            den.extend(cut.den[r0 + 1:r1])
            knots.extend(cut.knots[r0 + 1:r1])
            coeffs.extend(cut.coeffs[r0:r1])
            consts.extend(cut.consts[r0:r1])
            forms.extend(cut.forms[r0:r1])
            given.append((first, len(coeffs), level))
        elif cls is LinearPiece:
            (a, d), (c, e) = params
            coeffs.append((a * e, c * d, d * e, False))
            consts.append(None)
            forms.append(_FRACTIONS)
            given.append(first)
        else:
            coeffs.append(None)
            consts.append(Fraction(*params[0]))
            forms.append(None)
            given.append(first)
        knots.append(end)
    cantor = any(type(g) is tuple for g in given)
    return _Table(knots[:-1], knots, num, den, fields[-1][1][1], coeffs, consts, forms,
                  given if cantor else None)


def _json_number(value, parse):
    """A JSON number (a bool too) as it is, for the piece's rules; else ``parse(value)``."""
    return value if isinstance(value, (int, float)) else parse(value)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
    except (OSError, ValueError) as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc


def load_model(path, arithmetic=None) -> FunctionModel:
    """Read a spec file; a non-None ``arithmetic`` overrides the file's mode."""
    doc = _read_json(path)
    if arithmetic is not None and isinstance(doc, dict):
        doc["arithmetic"] = arithmetic
    return model_from_dict(doc)


def intervals_from_dict(doc: dict, arithmetic: str = RATIONAL) -> IntervalSet:
    """Read an interval-set document.  A component whose ``lo_open`` or
    ``hi_open`` is given but is not a JSON boolean, or whose ``lo`` lies
    above its ``hi``, raises :class:`SpecFormatError`."""
    try:
        fields = [(as_number(comp["lo"], arithmetic),
                   as_number(comp["hi"], arithmetic),
                   _flag(comp, "lo_open"), _flag(comp, "hi_open"))
                  for comp in doc["components"]]
    except _MALFORMED as exc:
        raise SpecFormatError(f"malformed interval set: {exc!r}") from exc
    for lo, hi, _, _ in fields:
        if lo > hi:
            raise SpecFormatError(f"interval component has lo {lo} above hi {hi}")
    return IntervalSet(Interval(*args) for args in fields)


def _flag(comp: dict, name: str) -> bool:
    flag = comp.get(name, False)
    if type(flag) is not bool:
        raise SpecFormatError(f"{name} must be true or false; got {flag!r}")
    return flag


def intervals_to_dict(E: IntervalSet) -> dict:
    return {"components": [
        {"lo": fmt_number(c.lo), "hi": fmt_number(c.hi),
         "lo_open": c.lo_open, "hi_open": c.hi_open}
        for c in E
    ]}


def load_intervals(path, arithmetic: str = RATIONAL) -> IntervalSet:
    return intervals_from_dict(_read_json(path), arithmetic)


# chunks held before a write, so a document is never held whole: on the
# bench's seed-3 certify traces the writer's traced peak stays near 106 KiB,
# where json.dump of jsonable's structures reached 578 KiB
_BATCH = 1024


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _fraction_text(q: Fraction) -> str:
    """``fmt_number(q)`` as a JSON string, which has nothing to escape."""
    if q.denominator == 1:
        return f'"{q.numerator}"'
    return f'"{q.numerator}/{q.denominator}"'


# the text of a scalar, by its exact type
_SCALARS = {
    str: _encode_str,
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    float: _float_text,
    type(None): lambda _: "null",
    Fraction: _fraction_text,
}


def dump_json(payload, path) -> None:
    """Write ``payload`` as ``json.dump(jsonable(payload), fh, indent=2,
    sort_keys=True)`` plus a newline would, byte for byte, in one pass over
    the toolkit values and with no intermediate structure.

    A Fraction is written as ``"n/d"``, or ``"n"`` when its denominator is
    1; an :class:`Interval` as its four keys, its ends through
    :func:`fmt_number`; an :class:`IntervalSet` as ``{"components": [...]}``;
    a dataclass by its fields and a dict by ``str(k)``, both in sorted
    order; a list or tuple as a list; a string with every non-ASCII
    character escaped; a float by its ``repr`` (``NaN``, ``Infinity`` and
    ``-Infinity`` for the rest); ints, bools and ``None`` as ``json``
    writes them.  Any other value raises ``TypeError``, as ``json.dump``
    does.  The text goes out in batches of about ``_BATCH`` chunks."""
    out = []
    field_names = {}  # dataclass type -> its field names, sorted

    def value(v, nl):
        # nl: a newline and the indentation of the line v starts on
        kind = type(v)
        scalar = _SCALARS.get(kind)
        if scalar is not None:
            out.append(scalar(v))
        elif kind is list or kind is tuple:
            array(v, nl)
        elif kind is Interval:
            interval(v, nl)
        elif kind in field_names:
            obj([(name, getattr(v, name)) for name in field_names[kind]], nl)
        else:
            other(v, nl)

    def other(v, nl):
        # the order the reference rendering (jsonable, then json) tests in
        if isinstance(v, Fraction):
            out.append(_fraction_text(v))
        elif isinstance(v, Interval):
            interval(v, nl)
        elif isinstance(v, IntervalSet):
            obj([("components", v.components)], nl)
        elif isinstance(v, dict):
            obj(sorted({str(k): x for k, x in v.items()}.items()), nl)
        elif isinstance(v, (list, tuple)):
            array(v, nl)
        elif hasattr(v, "__dataclass_fields__"):
            names = sorted(v.__dataclass_fields__)
            if hasattr(type(v), "__dataclass_fields__"):
                field_names[type(v)] = names
            obj([(name, getattr(v, name)) for name in names], nl)
        elif isinstance(v, str):
            out.append(_encode_str(v))
        elif isinstance(v, int):
            out.append(int.__repr__(v))
        elif isinstance(v, float):
            out.append(_float_text(v))
        else:
            raise TypeError(f"Object of type {v.__class__.__name__} "
                            f"is not JSON serializable")

    def array(values, nl):
        if not values:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in values:
            out.append(sep)
            value(v, inner)
            sep = "," + inner
            if len(out) >= _BATCH:
                fh.write("".join(out))
                out.clear()
        out.append(nl + "]")

    def obj(items, nl):
        # items: the (str key, value) pairs, sorted
        if not items:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in items:
            out.append(sep + _encode_str(k) + ": ")
            value(v, inner)
            sep = "," + inner
            if len(out) >= _BATCH:
                fh.write("".join(out))
                out.clear()
        out.append(nl + "}")

    def interval(iv, nl):
        obj([("hi", fmt_number(iv.hi)), ("hi_open", iv.hi_open),
             ("lo", fmt_number(iv.lo)), ("lo_open", iv.lo_open)], nl)

    with open(path, "w", encoding="utf-8") as fh:
        value(payload, "\n")
        out.append("\n")
        fh.write("".join(out))


def jsonable(value):
    """Recursively render toolkit values into JSON-safe structures, the
    structures :func:`dump_json` writes (it does not build them)."""
    if isinstance(value, Fraction):
        return fmt_number(value)
    if isinstance(value, Interval):
        return {"lo": fmt_number(value.lo), "hi": fmt_number(value.hi),
                "lo_open": value.lo_open, "hi_open": value.hi_open}
    if isinstance(value, IntervalSet):
        return intervals_to_dict(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {name: jsonable(getattr(value, name))
                for name in value.__dataclass_fields__}
    return value
