"""Helpers that only the tests use: a spec writer, piece parameters, the
corpus by name and a certificate cell's cover pieces by band.

``model_to_dict`` writes the spec document that
:func:`bvkit.specio.model_from_dict` reads, so a test can round-trip a
model or rebuild it in the other arithmetic.
"""

from __future__ import annotations

from bvkit._num import FLOAT, fmt_number
from bvkit.corpus import default_corpus
from bvkit.errors import SpecFormatError


def piece_params(piece) -> dict:
    """The parameters of a piece by name, as its spec entry holds them; an
    x^p*sin(1/x) piece with mirrors or an affine part gives those too."""
    kind = piece.kind
    if kind == "linear":
        return {"slope": piece.slope, "intercept": piece.intercept}
    if kind == "constant":
        return {"value": piece.const}
    if kind == "polynomial":
        return {"coefficients": list(piece.coefficients)}
    if kind == "cantor_iterate":
        return {"level": piece.level}
    if piece.mirrors or piece.affine is not None:
        return {"exponent": piece.exponent, "mirrors": piece.mirrors,
                "affine": piece.affine}
    return {"exponent": piece.exponent}


def model_to_dict(model) -> dict:
    pieces = []
    for p in model.pieces:
        if p.kind == "x_sin_family" and (p.mirrors or p.affine is not None):
            # the reader's x_sin_family entry holds the exponent alone
            raise SpecFormatError(f"cannot write an x_sin_family piece with mirrors "
                                  f"or an affine part on [{p.lo}, {p.hi}]")
        pieces.append({
            "kind": p.kind,
            "domain": [fmt_number(p.lo), fmt_number(p.hi)],
            "params": {k: _fmt_param(v) for k, v in piece_params(p).items()},
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


def corpus_by_name() -> dict:
    return {entry.name: entry for entry in default_corpus()}


def family_pieces(cell, band: str) -> tuple:
    """The cover pieces of a certificate cell in one band."""
    return tuple(cp for cp in cell.cover if cp.band == band)
