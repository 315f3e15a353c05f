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
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._num import DEFAULT_FLOAT_TOL, FLOAT, RATIONAL, as_number, fmt_number
from .errors import SpecFormatError
from .intervals import Interval, IntervalSet
from .model import (
    CantorPiece,
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    PolynomialPiece,
    XSinPiece,
)

_PIECE_KINDS = ("linear", "constant", "polynomial", "cantor_iterate", "x_sin_family")


def model_from_dict(doc: dict) -> FunctionModel:
    try:
        arithmetic = doc.get("arithmetic", RATIONAL)
        tol = float(doc.get("tol", DEFAULT_FLOAT_TOL))
        raw_pieces = doc["pieces"]
        domain = doc.get("domain")
    except (KeyError, TypeError) as exc:
        raise SpecFormatError(f"malformed function spec: {exc}") from exc
    if arithmetic not in (RATIONAL, FLOAT):
        raise SpecFormatError(f"unknown arithmetic {arithmetic!r}")
    pieces = []
    for entry in raw_pieces:
        kind = entry.get("kind")
        if kind not in _PIECE_KINDS:
            raise SpecFormatError(f"unknown piece kind {kind!r}")
        lo, hi = (as_number(v, arithmetic) for v in entry["domain"])
        params = entry.get("params", {})
        if kind == "linear":
            pieces.append(LinearPiece(lo, hi,
                                      as_number(params["slope"], arithmetic),
                                      as_number(params["intercept"], arithmetic)))
        elif kind == "constant":
            pieces.append(ConstantPiece(lo, hi,
                                        as_number(params["value"], arithmetic)))
        elif kind == "polynomial":
            coeffs = [as_number(c, FLOAT if arithmetic == FLOAT else RATIONAL)
                      for c in params["coefficients"]]
            pieces.append(PolynomialPiece(lo, hi, coeffs))
        elif kind == "cantor_iterate":
            pieces.append(CantorPiece(lo, hi, int(params["level"])))
        else:
            pieces.append(XSinPiece(lo, hi, float(params["exponent"])))
    return FunctionModel(pieces, arithmetic=arithmetic, tol=tol,
                         name=doc.get("name"))


def model_to_dict(model: FunctionModel) -> dict:
    pieces = []
    for p in model.pieces:
        pieces.append({
            "kind": p.kind,
            "domain": [fmt_number(p.lo), fmt_number(p.hi)],
            "params": {k: _fmt_param(v) for k, v in p.params_dict().items()},
        })
    doc = {
        "domain": [fmt_number(model.a), fmt_number(model.b)],
        "arithmetic": model.arithmetic,
        "pieces": pieces,
    }
    if model.arithmetic == FLOAT:
        doc["tol"] = model.tol
    if model.name:
        doc["name"] = model.name
    return doc


def _fmt_param(value):
    if isinstance(value, (list, tuple)):
        return [_fmt_param(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt_param(v) for k, v in value.items()}
    return fmt_number(value)


def load_model(path, arithmetic=None) -> FunctionModel:
    """Read a spec file; a non-None ``arithmetic`` overrides the file's mode."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if arithmetic is not None:
        doc["arithmetic"] = arithmetic
    return model_from_dict(doc)


def intervals_from_dict(doc: dict, arithmetic: str = RATIONAL) -> IntervalSet:
    try:
        comps = doc["components"]
    except (KeyError, TypeError) as exc:
        raise SpecFormatError(f"malformed interval set: {exc}") from exc
    out = []
    for comp in comps:
        out.append(Interval(
            as_number(comp["lo"], arithmetic),
            as_number(comp["hi"], arithmetic),
            bool(comp.get("lo_open", False)),
            bool(comp.get("hi_open", False)),
        ))
    return IntervalSet(out)


def intervals_to_dict(E: IntervalSet) -> dict:
    return {"components": [
        {"lo": fmt_number(c.lo), "hi": fmt_number(c.hi),
         "lo_open": c.lo_open, "hi_open": c.hi_open}
        for c in E
    ]}


def load_intervals(path, arithmetic: str = RATIONAL) -> IntervalSet:
    with open(path, "r", encoding="utf-8") as fh:
        return intervals_from_dict(json.load(fh), arithmetic)


def dump_json(payload, path) -> None:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def jsonable(value):
    """Recursively render toolkit values into JSON-safe structures."""
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
