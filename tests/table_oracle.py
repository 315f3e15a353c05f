"""The construction of rational models before they lived on their
tables, kept as the oracle for the table builders.

``OldModel`` is the old constructor: it checks and expands its pieces and
derives the pair table from them (``_pair_table``), and it keeps the old
segmentation, knots, verification grid and ``F + x``.  Beside it are the
old Cantor expansion, spec reader, ``piecewise_linear`` and
``build_cantor_iterate``, the Jordan walk over ``make_transformed``-style
pieces, and the greedy modulus that walks its items once per delta.  The
code is as it was, but for the names of the oracles it calls.
"""

import math
from fractions import Fraction

from bvkit._num import DEFAULT_FLOAT_TOL, FLOAT, RATIONAL, as_number, cantor_starts, frac, uniform_grid
from bvkit.errors import PreconditionError, SpecFormatError
from bvkit.intervals import Interval, IntervalSet
from bvkit.density import (
    _NONLINEAR_SLICES,
    AC_AT_RESOLUTION,
    MODULUS_INCONCLUSIVE,
    NOT_AC,
    NOT_AC_THRESHOLD,
    ModulusReport,
)
from bvkit.model import (
    _EXACT,
    CONSTANT,
    DECREASING,
    INCREASING,
    CantorPiece,
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    MonotoneSegmentation,
    PolynomialPiece,
    Segment,
    XSinPiece,
    _read_exactly,
    _sorted_unique,
    _untabled,
    make_transformed,
)
from bvkit.specio import _MALFORMED, _PIECE_KINDS
from bvkit.variation import _SIGN, VariationFunction

F = Fraction


# ---------------------------------------------------------------------------
# the Cantor expansion
# ---------------------------------------------------------------------------


def _cantor_pieces(level: int) -> list:
    """Piecewise-linear expansion of c_level on [0, 1], in order, from
    integer knots over 3^level and values over 2^level.

    Rise k starts at X_k / 3^level, where X_k reads the binary digits of k
    as the ternary digits 0 and 2, and climbs from k / 2^level to
    (k + 1) / 2^level over one 1 / 3^level; the plateau after it holds
    (k + 1) / 2^level until rise k + 1 starts.  Every knot, slope,
    intercept and constant is one Fraction."""
    width, height = 3 ** level, 2 ** level
    slope = Fraction(width, height)
    pieces = []
    lo = Fraction(0)
    for k, x in enumerate(cantor_starts(level)):
        if k:
            rise = Fraction(x, width)
            pieces.append(ConstantPiece(lo, rise, Fraction(k, height)))
            lo = rise
        hi = Fraction(x + 1, width)
        # k / 2^level - slope * x / 3^level
        pieces.append(LinearPiece(lo, hi, slope, Fraction(k - x, height)))
        lo = hi
    return pieces


def old_expand(self) -> list:
    pieces = _cantor_pieces(self.level)
    if self.lo == 0 and self.hi == 1:
        # restricting to [0, 1] would rebuild every piece as it is
        return pieces
    return [p.restrict(max(p.lo, self.lo), min(p.hi, self.hi))
            for p in pieces if p.lo < self.hi and p.hi > self.lo]


# ---------------------------------------------------------------------------
# the constructor
# ---------------------------------------------------------------------------


class OldModel(FunctionModel):
    """The old constructor and the methods that read what it built."""

    # plain attributes, set by the constructor as they were
    pieces = None
    _expanded = None

    def __init__(self, pieces, arithmetic=None, tol=DEFAULT_FLOAT_TOL, name=None):
        pieces = tuple(pieces)
        if not pieces:
            raise SpecFormatError("a model needs at least one piece")
        for left, right in zip(pieces, pieces[1:]):
            if left.hi != right.lo:
                raise SpecFormatError(
                    f"pieces must tile the domain; gap or overlap at {left.hi} vs {right.lo}"
                )
        if arithmetic is None:
            arithmetic = RATIONAL if all(p.exact for p in pieces) else FLOAT
        if arithmetic not in (RATIONAL, FLOAT):
            raise SpecFormatError(f"unknown arithmetic mode {arithmetic!r}")
        self.pieces = pieces
        self.arithmetic = arithmetic
        self.tol = tol
        # the mode's zero, and how far a float comparison may miss (bisected
        # segment boundaries and re-summed swings leave ulp-scale slivers)
        self.zero = Fraction(0) if arithmetic == RATIONAL else 0.0
        self.grace = 0 if arithmetic == RATIONAL else 10 * tol
        self.name = name
        self.a = pieces[0].lo
        self.b = pieces[-1].hi
        self._cache: dict = {}
        self._expanded = self._expand_pieces()
        self._starts = [p.lo for p in self._expanded]
        self._table = self._pair_table() if arithmetic == RATIONAL else None
        self._float_table = None if arithmetic == RATIONAL else self._build_float_table()
        self.continuity_flag = self._verify_continuity()

    def _expand_pieces(self):
        """The pieces with each Cantor piece expanded."""
        out = []
        for p in self.pieces:
            if isinstance(p, CantorPiece):
                out.extend(old_expand(p))
            else:
                out.append(p)
        return tuple(out)

    def _pair_table(self):
        """The integer-pair table behind :meth:`_pair_many`: piece starts
        as (numerator, denominator), ``slope*x + intercept`` at ``x = n/d``
        as ``(A*n + C*d) / (B*d)`` with integers A, C, B, and each constant
        piece's ``const`` as is.  A piece that is not linear or constant,
        or whose ends, coefficients or constant are not ints or Fractions,
        raises :class:`SpecFormatError` naming its class and domain."""
        start_num, start_den, coeffs, consts = [], [], [], []
        for p in self._expanded:
            if type(p.lo) not in _EXACT:
                raise _untabled(p)
            start_num.append(p.lo.numerator)
            start_den.append(p.lo.denominator)
            if type(p) is ConstantPiece and type(p.const) in _EXACT:
                coeffs.append(None)
                consts.append(p.const)
            elif (type(p) is LinearPiece and type(p.slope) in _EXACT
                  and type(p.intercept) in _EXACT):
                a, b = p.slope.numerator, p.slope.denominator
                c, e = p.intercept.numerator, p.intercept.denominator
                coeffs.append((a * e, c * b, b * e,
                               type(p.slope) is int and type(p.intercept) is int))
                consts.append(None)
            else:
                raise _untabled(p)
        if type(self.b) not in _EXACT:
            raise _untabled(self._expanded[-1])
        return start_num, start_den, coeffs, consts, (self.b.numerator, self.b.denominator)

    def knots(self) -> list:
        return [self._expanded[0].lo] + [p.hi for p in self._expanded]

    def _build_segments(self) -> MonotoneSegmentation:
        breakpoints = []
        for p in self._expanded:
            breakpoints.append(p.lo)
            breakpoints.extend(p.interior_criticals())
        breakpoints.append(self.b)
        pts = _sorted_unique(breakpoints)
        values = self.evaluate_many(pts)
        runs = []
        for lo, hi, flo, fhi in zip(pts, pts[1:], values, values[1:]):
            if flo == fhi:
                direction = CONSTANT
            elif fhi > flo:
                direction = INCREASING
            else:
                direction = DECREASING
            if runs and runs[-1][2] == direction:
                runs[-1] = (runs[-1][0], hi, direction, fhi)
            else:
                runs.append((lo, hi, direction, fhi))
        segments = tuple(Segment(lo, hi, d) for lo, hi, d, _ in runs)
        # one common denominator for every breakpoint, the piece starts among them
        scale = math.lcm(*[x.as_integer_ratio()[1] for x in pts])
        starts = tuple([2 * n * (scale // d)
                        for n, d in (x.as_integer_ratio() for x in self._starts)])
        return MonotoneSegmentation(segments, (values[0],) + tuple(r[3] for r in runs),
                                    scale, starts)

    def _build_shift(self) -> "FunctionModel":
        if self.exact:
            # make_transformed(p, 1, 1, 0) on a tabled piece: slope + 1 with
            # the same intercept, or slope 1 with the constant as intercept
            pieces = [LinearPiece(p.lo, p.hi, 1, p.const) if co is None
                      else LinearPiece(p.lo, p.hi, p.slope + 1, p.intercept)
                      for p, co in zip(self._expanded, self._table[2])]
        else:
            pieces = [make_transformed(p, 1, 1, 0) for p in self._expanded]
        shifted = OldModel(pieces, arithmetic=self.arithmetic, tol=self.tol,
                                name=None if self.name is None else f"{self.name}+x")
        if self.is_nondecreasing():
            if not shifted.continuity_flag:
                raise PreconditionError("shift of a continuous model lost continuity")
            # strict increase across every resolvable gap of the segmentation
            grace = self.grace
            segmentation = shifted.monotone_segments()
            knots, values = segmentation.knots(), segmentation.values
            for k0, k1, v0, v1 in zip(knots, knots[1:], values, values[1:]):
                if k1 - k0 > grace and not v1 > v0:
                    raise PreconditionError("shift of a non-decreasing model is "
                                            "not strictly increasing")
        return shifted

    def verification_grid(self, n: int = 4096) -> list:
        """n uniform points plus every knot: the declared finite surrogate
        for the universally quantified invariants."""
        pts = uniform_grid(self.a, self.b, n, self.exact)
        pts.extend(self.knots())
        if not self.exact:
            pts = [float(x) for x in pts]
        return _sorted_unique(pts)

    def __repr__(self):
        label = self.name or f"{len(self.pieces)} pieces"
        return f"FunctionModel({label} on [{self.a}, {self.b}], {self.arithmetic})"


def old_build_cantor_iterate(level: int) -> FunctionModel:
    """Piecewise-linear Cantor iterate c_level on [0, 1] with exact knots.

    c_0 is the identity; c_level has 2^level rising pieces of slope
    (3/2)^level over intervals of length 3^-level, interleaved with
    2^level - 1 plateaus.
    """
    if level < 0:
        raise SpecFormatError("level must be >= 0")
    return OldModel(_cantor_pieces(level), arithmetic=RATIONAL,
                         name=f"cantor_{level}")


def old_piecewise_linear(points, name=None) -> FunctionModel:
    """Model through knots [(x0, y0), ..., (xn, yn)], exact rational."""
    pts = [(frac(x), frac(y)) for x, y in points]
    if len(pts) < 2:
        raise SpecFormatError("need at least two knots")
    pieces = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if not x0 < x1:
            raise SpecFormatError("knot abscissae must increase strictly")
        if y0 == y1:
            pieces.append(ConstantPiece(x0, x1, y0))
        else:
            slope = (y1 - y0) / (x1 - x0)
            pieces.append(LinearPiece(x0, x1, slope, y0 - slope * x0))
    return OldModel(pieces, arithmetic=RATIONAL, name=name)


# ---------------------------------------------------------------------------
# the spec reader
# ---------------------------------------------------------------------------


def old_model_from_dict(doc: dict) -> FunctionModel:
    """Build a model from a spec document; a document whose fields cannot
    be read, whose optional ``domain`` is not the span of its pieces, or
    (in float mode) whose ``tol`` is NaN, infinite or negative, raises
    :class:`SpecFormatError`."""
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
        fields = [old_piece_fields(entry, arithmetic) for entry in raw_pieces]
    except _MALFORMED as exc:
        raise SpecFormatError(f"malformed piece: {exc!r}") from exc
    try:
        domain = (None if raw_domain is None
                  else [as_number(v, arithmetic) for v in raw_domain])
    except _MALFORMED as exc:
        raise SpecFormatError(f"malformed spec domain: {exc!r}") from exc
    model = OldModel([cls(*args) for cls, args in fields],
                          arithmetic=arithmetic, tol=tol, name=name)
    if domain is not None and domain != [model.a, model.b]:
        raise SpecFormatError(f"spec domain {raw_domain} is not the pieces' "
                              f"span [{model.a}, {model.b}]")
    return model


def old_piece_fields(entry: dict, arithmetic: str) -> tuple:
    """The piece class and its constructor arguments, read from one entry."""
    kind = entry.get("kind")
    if kind not in _PIECE_KINDS:
        raise SpecFormatError(f"unknown piece kind {kind!r}")
    lo, hi = (as_number(v, arithmetic) for v in entry["domain"])
    params = entry.get("params", {})
    if kind == "linear":
        return LinearPiece, (lo, hi, as_number(params["slope"], arithmetic),
                             as_number(params["intercept"], arithmetic))
    if kind == "constant":
        return ConstantPiece, (lo, hi, as_number(params["value"], arithmetic))
    if kind == "polynomial":
        return PolynomialPiece, (lo, hi, [as_number(c, arithmetic)
                                          for c in params["coefficients"]])
    if kind == "cantor_iterate":
        return CantorPiece, (lo, hi, _json_number(params["level"], int))
    return XSinPiece, (lo, hi, _json_number(params["exponent"], float))


def _json_number(value, parse):
    """A JSON number (a bool too) as it is, for the piece's rules; else ``parse(value)``."""
    return value if isinstance(value, (int, float)) else parse(value)


# ---------------------------------------------------------------------------
# the Jordan walk
# ---------------------------------------------------------------------------


def old_monotone_envelope_models(pf: VariationFunction) -> tuple:
    """Assemble p and n = p - F as models.

    Within a segment of direction sign s, p(x) = c + s*F(x) with
    c = prefix - s*F(segment start); n replaces s by s - 1.
    """
    model = pf.model
    segmentation = model.monotone_segments()
    starts, keys = segmentation.starts, segmentation.keys
    # piece i ends where piece i + 1 starts, the last one at b
    ends = (*starts[1:], keys[-1])
    expanded = model._expanded
    transformed = _pair_transformed if model.exact else _float_transformed
    p_pieces, n_pieces = [], []
    i = 0
    for idx, (seg, prefix, value) in enumerate(zip(segmentation, pf.prefix, pf.values)):
        s = _SIGN[seg.direction]
        k_lo, k_hi = keys[idx], keys[idx + 1]
        c = _pair_offset(prefix, value, s) if model.exact else prefix - s * value
        # both tile [a, b] in order, so i only moves forward: it skips the
        # pieces that end by the segment's start, and the walk stops at the
        # first piece that ends at or past the segment's end
        while ends[i] <= k_lo:
            i += 1
        while True:
            piece, end = expanded[i], ends[i]
            # the part is [max(piece.lo, seg.lo), min(piece.hi, seg.hi)],
            # keeping the piece's own end on a tie, as max and min do
            lo = piece.lo if starts[i] >= k_lo else seg.lo
            hi = piece.hi if end <= k_hi else seg.hi
            p_pieces.append(transformed(piece, s, c, lo, hi))
            n_pieces.append(transformed(piece, s - 1, c, lo, hi))
            if end >= k_hi:
                break
            i += 1
    base = model.name or "F"
    return tuple(OldModel(pieces, arithmetic=model.arithmetic, tol=model.tol,
                               name=f"{suffix}[{base}]")
                 for suffix, pieces in (("p", p_pieces), ("n", n_pieces)))


def _float_transformed(piece, scale, c, lo, hi):
    return make_transformed(piece, scale, 0, c, lo, hi)


def _pair_offset(prefix, value, s) -> tuple:
    """c = prefix - s * value as an integer pair ``(c_num, c_den)``, and as
    a Fraction where the part whose scale is 0 needs it (s >= 0)."""
    r_num, r_den = prefix.as_integer_ratio()
    v_num, v_den = value.as_integer_ratio()
    c_num, c_den = r_num * v_den - s * v_num * r_den, r_den * v_den
    return c_num, c_den, Fraction(c_num, c_den) if s >= 0 else None


def _pair_transformed(piece, scale, c, lo, hi):
    """``make_transformed(piece, scale, 0, c_frac, lo, hi)`` for a linear or
    constant piece of a rational model, where ``c = (c_num, c_den, c_frac)``
    (:func:`_pair_offset`): c_frac itself at scale 0, else one Fraction
    from integers for the new intercept or constant."""
    c_num, c_den, c_frac = c
    if scale == 0:
        return ConstantPiece(lo, hi, c_frac)
    if type(piece) is ConstantPiece:
        k_num, k_den = piece.const.as_integer_ratio()
        return ConstantPiece(lo, hi, Fraction(c_num * k_den + scale * k_num * c_den,
                                              c_den * k_den))
    # slope' = scale * slope; intercept' = c + scale * intercept
    i_num, i_den = piece.intercept.as_integer_ratio()
    return LinearPiece(lo, hi, piece.slope if scale == 1 else scale * piece.slope,
                       Fraction(c_num * i_den + scale * i_num * c_den, c_den * i_den))


# ---------------------------------------------------------------------------
# the modulus
# ---------------------------------------------------------------------------


def old_greedy_items(model: FunctionModel):
    """(gain density, capacity, lo, hi, linear slope or None) per slice."""
    items = []
    for piece in model._expanded:
        if isinstance(piece, ConstantPiece):
            continue
        if isinstance(piece, LinearPiece):
            if piece.slope == 0:
                continue
            items.append((abs(piece.slope), piece.hi - piece.lo,
                          piece.lo, piece.hi, abs(piece.slope)))
            continue
        cuts = [piece.lo + (piece.hi - piece.lo) * k / _NONLINEAR_SLICES
                for k in range(_NONLINEAR_SLICES + 1)]
        values = model.evaluate_many(cuts)
        for lo, hi, f_lo, f_hi in zip(cuts, cuts[1:], values, values[1:]):
            gain = abs(f_hi - f_lo)
            width = hi - lo
            if gain > 0:
                items.append((gain / width, width, lo, hi, None))
    # fill best mean slope first; position breaks ties for determinism
    items.sort(key=lambda item: (item[0], item[2]), reverse=True)
    return items


def old_ac_modulus(model: FunctionModel, deltas) -> ModulusReport:
    """Worst-case image swing over disjoint collections of length <= delta.

    Exact for piecewise-linear models (the greedy fill over slope-sorted
    pieces solves the fractional allocation); for curved pieces the greedy
    runs on a sliced profile and the result is a stated lower bound (the
    reported collections are always feasible).
    """
    if not model.continuity_flag:
        raise PreconditionError("the modulus requires a continuous model")
    schedule = list(deltas)
    if not schedule or not all(0 < d < math.inf for d in schedule):
        raise SpecFormatError("need one or more deltas, each positive and finite")
    if model.exact:  # float deltas are read exactly, as epsilon is
        schedule = [_read_exactly(model, d) for d in schedule]
    schedule.sort()
    items = old_greedy_items(model)
    zero = model.zero
    samples = []
    for delta in schedule:
        remaining = delta
        omega = zero
        chosen = []
        for density, width, lo, hi, slope in items:
            if not remaining > 0:
                break
            if width <= remaining:
                take_hi = hi
                gain = density * width
                remaining -= width
            else:
                take_hi = lo + remaining
                # evaluate the clipped swing honestly: for a curved slice
                # the uniform-density estimate may not be attainable
                if slope is None:
                    gain = abs(model.evaluate(take_hi) - model.evaluate(lo))
                else:
                    gain = slope * remaining
                remaining = zero
            omega += gain
            chosen.append(Interval(lo, take_hi))
        samples.append((delta, omega, IntervalSet(chosen)))
    for (d0, w0, _), (d1, w1, _) in zip(samples, samples[1:]):
        if w1 < w0:
            raise PreconditionError(f"omega decreased from {w0} to {w1}")
    omega_small = samples[0][1]
    omega_large = samples[-1][1]
    if omega_small >= NOT_AC_THRESHOLD:
        verdict = NOT_AC
    elif omega_large == 0 or 2 * omega_small <= omega_large:
        verdict = AC_AT_RESOLUTION
    else:
        verdict = MODULUS_INCONCLUSIVE
    return ModulusReport(tuple(samples), verdict)
