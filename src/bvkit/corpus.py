"""Corpus registry and the equivalence-table runner.

Every corpus entry carries ground-truth flags for the four properties
(continuity, bounded variation, the null-to-null image property, absolute
continuity) together with the probe configuration at which the verdicts
are decided.  The flags of every entry satisfy ac = continuous and bv and
null-preserving, so an all-green agreement column is the executable form
of the classical equivalence on this corpus.

Probe resolutions are matched to each entry's structure scale: the Cantor
iterate at level k is probed against the level-k middle-thirds family and
a modulus schedule reaching (2/3)^k, which is exactly where its modulus
pins at 1 while its set measure vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._num import fmt_number
from .density import (
    AC_AT_RESOLUTION,
    ModulusReport,
    ac_modulus,
    bv_density,
    density_grid,
    reconstruction_error,
)
from .errors import BVKitError
from .measure import (
    PASSES,
    LusinReport,
    NullSetFamily,
    cantor_family,
    lusin_probe,
    shrinking_family,
)
from .model import (
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    PolynomialPiece,
    XSinPiece,
    build_cantor_iterate,
    build_identity,
    build_zigzag,
    piecewise_linear,
)
from .variation import total_variation


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    model: FunctionModel
    truth: dict                    # continuous / bv / lusin / ac
    lusin_family: NullSetFamily
    lusin_levels: int
    ac_deltas: tuple
    expected_variation: object = None
    note: str = ""

    def __post_init__(self):
        t = self.truth
        if t["ac"] != (t["continuous"] and t["bv"] and t["lusin"]):
            raise BVKitError(
                f"corpus entry {self.name}: flags break the equivalence")


def _poly(name, lo, hi, coeffs) -> FunctionModel:
    return FunctionModel([PolynomialPiece(lo, hi, coeffs)], name=name)


def build_mixed() -> FunctionModel:
    """Quadratic rise, plateau, linear fall on [0, 2]; total variation 7/4."""
    pieces = [
        PolynomialPiece(0, 1, [0, 0, 1]),
        ConstantPiece(1, Fraction(5, 4), 1),
        LinearPiece(Fraction(5, 4), 2, -1, Fraction(9, 4)),
    ]
    return FunctionModel(pieces, name="mixed")


def build_oscillation(exponent: int, x_min=Fraction(1, 10)) -> FunctionModel:
    """x^p * sin(1/x) truncated away from its oscillation accumulation."""
    return FunctionModel([XSinPiece(float(x_min), 1.0, exponent)],
                         name=f"xsin_p{exponent}")


_ALL_TRUE = {"continuous": True, "bv": True, "lusin": True, "ac": True}
_CANTOR_TRUTH = {"continuous": True, "bv": True, "lusin": False, "ac": False}
_DYADIC = tuple(Fraction(1, 2) ** j for j in range(1, 9))


def default_corpus() -> list:
    """The standard battery: smooth and sawtooth members that satisfy all
    four properties, plus Cantor iterates that separate continuity + BV
    from the null-preserving property at matched resolution."""
    entries = [
        CorpusEntry("identity", build_identity(), dict(_ALL_TRUE),
                    shrinking_family((0, 1)), 8, _DYADIC,
                    expected_variation=Fraction(1),
                    note="Lipschitz-1 reference"),
        CorpusEntry("neg_slope", piecewise_linear([(0, 0), (1, -1)], name="neg_slope"),
                    dict(_ALL_TRUE), shrinking_family((0, 1)), 8, _DYADIC,
                    expected_variation=Fraction(1),
                    note="monotone decreasing reference"),
        CorpusEntry("square", _poly("square", 0, 1, [0, 0, 1]), dict(_ALL_TRUE),
                    shrinking_family((0, 1)), 8, _DYADIC,
                    expected_variation=Fraction(1),
                    note="left-anchored shrink gives image measure 4^-j"),
        CorpusEntry("cubic", _poly("cubic", -1, 1, [0, 0, 0, 1]), dict(_ALL_TRUE),
                    shrinking_family((-1, 1)), 8, _DYADIC,
                    expected_variation=Fraction(2)),
        CorpusEntry("zigzag", build_zigzag(), dict(_ALL_TRUE),
                    shrinking_family((0, 1)), 8, _DYADIC,
                    expected_variation=Fraction(4),
                    note="uniform |slope| 4 sawtooth"),
        CorpusEntry("mixed", build_mixed(), dict(_ALL_TRUE),
                    shrinking_family((0, 2)), 8, _DYADIC,
                    expected_variation=Fraction(7, 4),
                    note="quadratic / plateau / linear composite"),
        CorpusEntry("xsin_trunc", build_oscillation(1), dict(_ALL_TRUE),
                    shrinking_family((0.1, 1.0), count=2), 8, _DYADIC,
                    note="oscillating but Lipschitz on the truncated domain"),
        CorpusEntry("x2sin_trunc", build_oscillation(2), dict(_ALL_TRUE),
                    shrinking_family((0.1, 1.0), count=2), 8, _DYADIC),
    ]
    for level in (2, 4, 6, 8):
        entries.append(CorpusEntry(
            f"cantor_{level}", build_cantor_iterate(level), dict(_CANTOR_TRUTH),
            cantor_family((0, 1)), level,
            tuple(Fraction(2, 3) ** j for j in range(1, level + 1)),
            expected_variation=Fraction(1),
            note="separates continuity+BV from the null-preserving property "
                 "at its own resolution"))
    return entries


@dataclass
class EquivalenceRow:
    name: str
    truth: dict
    measured: dict
    variation: object
    expected_variation: object
    reconstruction_error: object
    mismatches: list
    lusin: LusinReport = None
    modulus: ModulusReport = None
    entry: CorpusEntry = None
    density: object = None
    error: str = ""

    @property
    def agree(self) -> bool:
        return not self.mismatches and not self.error


@dataclass(frozen=True)
class CorpusConfig:
    grid_points: int = 1024


@dataclass
class EquivalenceTable:
    rows: list
    config: CorpusConfig

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    def payload(self) -> dict:
        out = []
        for row in self.rows:
            out.append({
                "name": row.name,
                "truth": row.truth,
                "measured": row.measured,
                "variation": _num(row.variation),
                "expected_variation": _num(row.expected_variation),
                "reconstruction_error": _num(row.reconstruction_error),
                "agreement": row.agree,
                "mismatches": list(row.mismatches),
                "error": row.error,
                "lusin_rows": [[j, _num(a), _num(b)]
                               for j, a, b in (row.lusin.levels if row.lusin else ())],
                "modulus_rows": [[_num(d), _num(w)]
                                 for d, w, _ in (row.modulus.samples if row.modulus else ())],
            })
        return {"rows": out, "all_agree": self.all_agree,
                "grid_points": self.config.grid_points}


def _num(value):
    if value is None:
        return None
    return fmt_number(value) if isinstance(value, Fraction) else float(value)


def run_entry(entry: CorpusEntry, config: CorpusConfig) -> EquivalenceRow:
    model = entry.model
    measured = {}
    mismatches = []

    measured["continuous"] = bool(model.continuity_flag)

    try:
        estimate = total_variation(model)
        measured["bv"] = bool(estimate.converged)
        variation = estimate.lower
    except BVKitError:
        measured["bv"] = False
        variation = None

    lusin = lusin_probe(model, entry.lusin_family, entry.lusin_levels)
    measured["lusin"] = lusin.verdict == PASSES

    modulus = ac_modulus(model, entry.ac_deltas)
    measured["ac"] = modulus.verdict == AC_AT_RESOLUTION

    density = None
    recon = None
    if measured["bv"]:
        grid, h = density_grid(model, config.grid_points)
        density = bv_density(model, grid, h)
        recon = reconstruction_error(model, density).sup_error

    for key in ("continuous", "bv", "lusin", "ac"):
        if measured[key] != entry.truth[key]:
            mismatches.append(f"{key}: measured {measured[key]}, "
                              f"expected {entry.truth[key]}")
    if measured["ac"] != (measured["continuous"] and measured["bv"]
                          and measured["lusin"]):
        mismatches.append("equivalence: ac verdict disagrees with "
                          "continuity+bv+lusin")
    if entry.expected_variation is not None and variation is not None:
        if model.exact:
            ok = variation == entry.expected_variation
        else:
            ok = math.isclose(float(variation), float(entry.expected_variation),
                              rel_tol=1e-9, abs_tol=1e-9)
        if not ok:
            mismatches.append(f"variation: measured {variation}, "
                              f"expected {entry.expected_variation}")

    return EquivalenceRow(
        name=entry.name, truth=dict(entry.truth), measured=measured,
        variation=variation, expected_variation=entry.expected_variation,
        reconstruction_error=recon, mismatches=mismatches,
        lusin=lusin, modulus=modulus, entry=entry, density=density,
    )


def run_corpus(entries=None, config: CorpusConfig | None = None,
               outdir=None) -> EquivalenceTable:
    """Measure every entry, assemble the name-sorted equivalence table and,
    when an output directory is given, write report.json plus plots.

    Entry failures are isolated: a crashing entry yields a non-agreeing
    row carrying the error instead of aborting the run.
    """
    if entries is None:
        entries = default_corpus()
    if config is None:
        config = CorpusConfig()
    rows = []
    for entry in sorted(entries, key=lambda e: e.name):
        try:
            rows.append(run_entry(entry, config))
        except BVKitError as exc:
            rows.append(EquivalenceRow(
                name=entry.name, truth=dict(entry.truth), measured={},
                variation=None, expected_variation=entry.expected_variation,
                reconstruction_error=None, mismatches=["run failed"],
                entry=entry, error=str(exc)))
    table = EquivalenceTable(rows, config)
    if outdir is not None:
        from .plots import write_report
        write_report(table, outdir)
    return table
