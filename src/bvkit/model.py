"""Exact piecewise-analytic function models on a closed interval.

A :class:`FunctionModel` is an ordered, contiguous list of pieces covering
``[a, b]``.  Linear, constant and Cantor-iterate pieces are exact over the
rationals; polynomial and oscillating ``x^p*sin(1/x)`` pieces evaluate in
binary floating point to a stated tolerance.  Evaluation follows the type
of its argument, so rational-mode models stay rational end to end.

Evaluation has one path per arithmetic mode, and ``evaluate`` is a batch
of one.  A rational model evaluates on integer numerator/denominator
pairs: its linear and constant pieces are tabulated at construction, and
the order, domain and piece tests are integer cross-multiplications.  A
float model walks its pieces and lets each evaluate the point; so does a
rational model built by hand from pieces the table cannot hold.

The monotone segmentation (maximal alternating runs of increasing /
decreasing / constant behaviour) is the workhorse every downstream module
consumes: it makes variation, image measures and preimages exact for the
finite-segmentation class.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._num import DEFAULT_FLOAT_TOL, FLOAT, RATIONAL, bisect_solve, frac, uniform_grid
from .errors import (
    InfiniteSegmentationError,
    OutOfDomainError,
    PreconditionError,
    SpecFormatError,
)
from .intervals import Interval, IntervalSet

INCREASING = "increasing"
DECREASING = "decreasing"
CONSTANT = "constant"

_ONE_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)
_HALF = Fraction(1, 2)
_EXACT = (int, Fraction)  # the types a pair table holds


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------


class Piece:
    """Common surface for all piece kinds.

    Subclasses provide ``value``/``derivative`` plus enough structure for
    critical-point isolation and monotone inversion.  Pieces are immutable.
    """

    kind = "abstract"
    exact = False

    def __init__(self, lo, hi):
        if not lo < hi:
            raise SpecFormatError(f"piece domain must satisfy lo < hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def value(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError

    def interior_criticals(self) -> list:
        """Interior points where the derivative may change sign, sorted."""
        raise NotImplementedError

    def restrict(self, lo, hi) -> "Piece":
        raise NotImplementedError

    def reflected(self, csum) -> "Piece":
        """Piece representing x -> self(csum - x) on [csum-hi, csum-lo]."""
        raise NotImplementedError

    def solve(self, y, lo, hi):
        """Solve value(x) = y on [lo, hi] where the piece is monotone there."""
        return bisect_solve(self.value, y, lo, hi)

    def params_dict(self) -> dict:
        raise NotImplementedError

    def _sample_grid(self, lo, hi) -> list:
        """Abscissae dense enough to catch every derivative sign change."""
        return [lo + (hi - lo) * i / 64 for i in range(65)]


class LinearPiece(Piece):
    kind = "linear"
    exact = True

    def __init__(self, lo, hi, slope, intercept):
        super().__init__(lo, hi)
        self.slope = slope
        self.intercept = intercept

    def value(self, x):
        return self.slope * x + self.intercept

    def derivative(self, x):
        return self.slope

    def interior_criticals(self):
        return []

    def restrict(self, lo, hi):
        return LinearPiece(lo, hi, self.slope, self.intercept)

    def reflected(self, csum):
        # F(csum - x) = -slope*x + (slope*csum + intercept)
        return LinearPiece(
            csum - self.hi, csum - self.lo, -self.slope, self.slope * csum + self.intercept
        )

    def solve(self, y, lo, hi):
        if self.slope == 0:
            raise ValueError("cannot invert a flat linear piece")
        return (y - self.intercept) / self.slope

    def params_dict(self):
        return {"slope": self.slope, "intercept": self.intercept}


class ConstantPiece(Piece):
    kind = "constant"
    exact = True

    def __init__(self, lo, hi, const):
        super().__init__(lo, hi)
        self.const = const

    def value(self, x):
        return self.const

    def derivative(self, x):
        return 0

    def interior_criticals(self):
        return []

    def restrict(self, lo, hi):
        return ConstantPiece(lo, hi, self.const)

    def reflected(self, csum):
        return ConstantPiece(csum - self.hi, csum - self.lo, self.const)

    def solve(self, y, lo, hi):
        raise ValueError("cannot invert a constant piece")

    def params_dict(self):
        return {"value": self.const}


class PolynomialPiece(Piece):
    """Polynomial with rational coefficients, ascending powers."""

    kind = "polynomial"
    exact = False

    def __init__(self, lo, hi, coefficients):
        super().__init__(lo, hi)
        coeffs = tuple(c if isinstance(c, float) else frac(c)
                       for c in coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coefficients = coeffs

    def value(self, x):
        acc = self.coefficients[-1] + x * 0  # promote to the argument's type
        for c in reversed(self.coefficients[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self, x):
        dcoeffs = [k * c for k, c in enumerate(self.coefficients)][1:]
        if not dcoeffs:
            return 0
        acc = dcoeffs[-1] + x * 0
        for c in reversed(dcoeffs[:-1]):
            acc = acc * x + c
        return acc

    def interior_criticals(self):
        dcoeffs = [k * c for k, c in enumerate(self.coefficients)][1:]
        if len(dcoeffs) <= 1:
            return []
        # numpy wants descending float coefficients
        desc = [float(c) for c in reversed(dcoeffs)]
        roots = np.roots(desc)
        lo, hi = float(self.lo), float(self.hi)
        width = hi - lo
        found = []
        for r in roots:
            if abs(r.imag) > 1e-9:
                continue
            x = float(r.real)
            if lo + 1e-12 * max(1.0, width) < x < hi - 1e-12 * max(1.0, width):
                found.append(x)
        found.sort()
        out = []
        for x in found:
            if not out or x - out[-1] > 1e-12 * max(1.0, width):
                out.append(x)
        return out

    def restrict(self, lo, hi):
        return PolynomialPiece(lo, hi, self.coefficients)

    def reflected(self, csum):
        # expand sum_k a_k (csum - x)^k exactly
        c = frac(csum) if not isinstance(csum, float) else csum
        n = len(self.coefficients)
        out = [Fraction(0)] * n if not isinstance(c, float) else [0.0] * n
        pow_coeffs = [1]  # coefficients of (csum - x)^k, ascending in x
        for k, a_k in enumerate(self.coefficients):
            if k > 0:
                new = [0] * (k + 1)
                for i, pc in enumerate(pow_coeffs):
                    new[i] += pc * c
                    new[i + 1] -= pc
                pow_coeffs = new
            for i, pc in enumerate(pow_coeffs):
                out[i] += a_k * pc
        return PolynomialPiece(csum - self.hi, csum - self.lo, out)

    def params_dict(self):
        return {"coefficients": list(self.coefficients)}


def _cantor_value(level: int, x):
    if level == 0:
        return x
    if x <= _ONE_THIRD:
        return _cantor_value(level - 1, 3 * x) / 2
    if x < _TWO_THIRDS:
        return _HALF
    return (1 + _cantor_value(level - 1, 3 * x - 2)) / 2


class CantorPiece(Piece):
    """The level-k Cantor iterate c_k restricted to a sub-range of [0, 1].

    c_0 is the identity; each level replaces every rising stretch by
    rise / plateau / rise.  All knots and values are rational, so the
    piece is exact.  Numeric work routes through the piecewise-linear
    expansion (see :meth:`expand`).
    """

    kind = "cantor_iterate"
    exact = True

    def __init__(self, lo, hi, level: int):
        super().__init__(lo, hi)
        if level < 0:
            raise SpecFormatError("cantor_iterate level must be >= 0")
        if lo < 0 or hi > 1:
            raise SpecFormatError("cantor_iterate pieces live inside [0, 1]")
        self.level = int(level)

    def value(self, x):
        return _cantor_value(self.level, x)

    def expand(self) -> list:
        pieces = [p.restrict(max(p.lo, self.lo), min(p.hi, self.hi))
                  for p in _cantor_pieces(self.level)
                  if p.lo < self.hi and p.hi > self.lo]
        return pieces

    def derivative(self, x):
        raise NotImplementedError("cantor pieces are handled via expand()")

    def interior_criticals(self):
        raise NotImplementedError("cantor pieces are handled via expand()")

    def restrict(self, lo, hi):
        return CantorPiece(lo, hi, self.level)

    def reflected(self, csum):
        raise NotImplementedError("cantor pieces are reflected via expand()")

    def params_dict(self):
        return {"level": self.level}


def _cantor_pieces(level: int) -> list:
    """Piecewise-linear expansion of c_level on [0, 1], exact knots."""
    rising = [(Fraction(0), Fraction(0), Fraction(1), Fraction(1))]
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


class XSinPiece(Piece):
    """x^p * sin(1/x) with exponent p >= 0; the oscillation accumulates at 0.

    Pieces touching 0 evaluate fine (the limit value 0 is used for p > 0)
    but refuse segmentation: the critical points pile up at the origin.
    """

    kind = "x_sin_family"
    exact = False

    def __init__(self, lo, hi, exponent):
        super().__init__(lo, hi)
        p = float(exponent)
        if p < 0:
            raise SpecFormatError("x_sin_family exponent must be >= 0")
        if lo < 0:
            raise SpecFormatError("x_sin_family pieces need lo >= 0")
        if p == 0 and lo <= 0:
            raise SpecFormatError("sin(1/x) has no value at 0; need lo > 0")
        self.exponent = p

    def value(self, x):
        x = float(x)
        if x == 0.0:
            return 0.0
        return x ** self.exponent * math.sin(1.0 / x)

    def derivative(self, x):
        x = float(x)
        p = self.exponent
        s, c = math.sin(1.0 / x), math.cos(1.0 / x)
        return p * x ** (p - 1) * s - x ** (p - 2) * c

    def interior_criticals(self):
        if self.lo <= 0:
            raise InfiniteSegmentationError(
                "x^p*sin(1/x) oscillates without bound as x -> 0; "
                "segmentation does not terminate",
                hint="restrict the piece to [x_min, hi] with x_min > 0 "
                "(default truncation 1e-4)",
            )
        return _sign_change_roots(self.derivative, self._sample_grid(self.lo, self.hi),
                                  self.lo, self.hi)

    def _sample_grid(self, lo, hi):
        # uniform in t = 1/x with step pi/8: consecutive derivative roots are
        # separated by about pi in t, so every sign change is bracketed
        t_lo, t_hi = 1.0 / float(hi), 1.0 / float(lo)
        n = max(int(math.ceil((t_hi - t_lo) / (math.pi / 8))), 8)
        ts = [t_lo + (t_hi - t_lo) * i / n for i in range(n + 1)]
        xs = sorted(1.0 / t for t in ts)
        xs[0], xs[-1] = float(lo), float(hi)
        return xs

    def restrict(self, lo, hi):
        return XSinPiece(lo, hi, self.exponent)

    def reflected(self, csum):
        return ReflectedPiece(self, csum)

    def params_dict(self):
        return {"exponent": self.exponent}


class ReflectedPiece(Piece):
    """Wrapper representing x -> base(csum - x)."""

    kind = "reflected"

    def __init__(self, base: Piece, csum):
        super().__init__(csum - base.hi, csum - base.lo)
        self.base = base
        self.csum = csum

    @property
    def exact(self):
        return self.base.exact

    def value(self, x):
        return self.base.value(self.csum - x)

    def derivative(self, x):
        return -self.base.derivative(self.csum - x)

    def interior_criticals(self):
        mirrored = self.base.interior_criticals()
        return sorted(self.csum - r for r in mirrored)

    def _sample_grid(self, lo, hi):
        base_grid = self.base._sample_grid(self.csum - hi, self.csum - lo)
        return sorted(self.csum - t for t in base_grid)

    def restrict(self, lo, hi):
        return ReflectedPiece(self.base.restrict(self.csum - hi, self.csum - lo), self.csum)

    def reflected(self, csum):
        if csum == self.csum:
            return self.base
        return ReflectedPiece(self, csum)

    def params_dict(self):
        return {"csum": self.csum, "base": {"kind": self.base.kind,
                                            "domain": [self.base.lo, self.base.hi],
                                            "params": self.base.params_dict()}}


class TransformedPiece(Piece):
    """offset + linear*x + scale*base(x); only built over non-simplifiable bases."""

    kind = "transformed"

    def __init__(self, base: Piece, scale, linear, offset, lo=None, hi=None):
        super().__init__(base.lo if lo is None else lo, base.hi if hi is None else hi)
        self.base = base
        self.scale = scale
        self.linear = linear
        self.offset = offset

    @property
    def exact(self):
        return self.base.exact

    def value(self, x):
        return self.offset + self.linear * x + self.scale * self.base.value(x)

    def derivative(self, x):
        return self.linear + self.scale * self.base.derivative(x)

    def interior_criticals(self):
        if self.linear == 0:
            return [r for r in self.base.interior_criticals() if self.lo < r < self.hi]
        return _sign_change_roots(self.derivative,
                                  self.base._sample_grid(self.lo, self.hi),
                                  self.lo, self.hi)

    def _sample_grid(self, lo, hi):
        return self.base._sample_grid(lo, hi)

    def restrict(self, lo, hi):
        return TransformedPiece(self.base.restrict(lo, hi), self.scale, self.linear,
                                self.offset)

    def reflected(self, csum):
        rbase = self.base.reflected(csum)
        # offset + linear*(csum - x) + scale*base(csum - x)
        return TransformedPiece(rbase, self.scale, -self.linear,
                                self.offset + self.linear * csum)

    def params_dict(self):
        return {"scale": self.scale, "linear": self.linear, "offset": self.offset,
                "base": {"kind": self.base.kind,
                         "domain": [self.base.lo, self.base.hi],
                         "params": self.base.params_dict()}}


def make_transformed(base: Piece, scale, linear, offset, lo=None, hi=None) -> Piece:
    """Build offset + linear*x + scale*base(x), simplifying where exact."""
    lo = base.lo if lo is None else lo
    hi = base.hi if hi is None else hi
    base = base.restrict(lo, hi)
    if scale == 0:
        if linear == 0:
            return ConstantPiece(lo, hi, offset)
        return LinearPiece(lo, hi, linear, offset)
    if isinstance(base, ConstantPiece):
        value = offset + scale * base.const
        if linear == 0:
            return ConstantPiece(lo, hi, value)
        return LinearPiece(lo, hi, linear, value)
    if isinstance(base, LinearPiece):
        return LinearPiece(lo, hi, linear + scale * base.slope,
                           offset + scale * base.intercept)
    if isinstance(base, PolynomialPiece):
        coeffs = [scale * c for c in base.coefficients]
        while len(coeffs) < 2:
            coeffs.append(Fraction(0))
        coeffs[0] += frac(offset) if not isinstance(offset, float) else offset
        coeffs[1] += frac(linear) if not isinstance(linear, float) else linear
        return PolynomialPiece(lo, hi, coeffs)
    if isinstance(base, CantorPiece):
        raise SpecFormatError("transform cantor pieces via their expansion")
    if isinstance(base, TransformedPiece):
        return make_transformed(base.base, scale * base.scale,
                                linear + scale * base.linear,
                                offset + scale * base.offset, lo, hi)
    return TransformedPiece(base, scale, linear, offset, lo, hi)


def _sign_change_roots(deriv, grid, lo, hi) -> list:
    """Bisect derivative sign changes between consecutive sample points."""
    roots = []
    width = float(hi) - float(lo)
    vals = [deriv(x) for x in grid]
    for (x0, d0), (x1, d1) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
        if d0 == 0:
            continue
        if d1 == 0 or (d0 > 0) != (d1 > 0):
            root = bisect_solve(deriv, 0, x0, x1)
            if float(lo) + 1e-11 * max(1.0, width) < root < float(hi) - 1e-11 * max(1.0, width):
                roots.append(root)
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-11 * max(1.0, width):
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    lo: object
    hi: object
    direction: str


@dataclass(frozen=True)
class MonotoneSegmentation:
    """Maximal alternating monotone runs partitioning [a, b], with the
    model's values at their knots: ``values[k]`` is F at ``knots()[k]``."""

    segments: tuple
    values: tuple
    bounds: tuple = field(init=False, repr=False, compare=False)  # the knots

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple(
            [self.segments[0].lo] + [s.hi for s in self.segments]))

    def knots(self) -> list:
        return list(self.bounds)

    def window(self, lo, hi) -> range:
        """Indices of the segments meeting ``[lo, hi]``, touching ones
        included: segment ``i`` spans ``bounds[i]`` to ``bounds[i + 1]``.
        A bisection finds the first; the last is walked to, because the
        caller walks the window anyway and most windows are short."""
        bounds, count = self.bounds, len(self.segments)
        first = last = max(bisect_left(bounds, lo) - 1, 0)
        while last < count and bounds[last] <= hi:
            last += 1
        return range(first, last)

    def __iter__(self):
        return iter(self.segments)

    def __len__(self):
        return len(self.segments)


class FunctionModel:
    """Contiguous piecewise model of a continuous-by-default function.

    Immutable after construction; every operation is pure, so instances can
    be shared freely across threads.  ``continuity_flag`` records whether
    all junction values match (exactly in rational mode, within ``tol``
    otherwise).
    """

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
        if arithmetic == RATIONAL and not all(p.exact for p in pieces):
            raise SpecFormatError(
                "rational arithmetic requires exact pieces only "
                "(linear / constant / cantor_iterate)"
            )
        if arithmetic not in (RATIONAL, FLOAT):
            raise SpecFormatError(f"unknown arithmetic mode {arithmetic!r}")
        self.pieces = pieces
        self.arithmetic = arithmetic
        self.tol = tol
        self.name = name
        self.a = pieces[0].lo
        self.b = pieces[-1].hi
        self._lock = threading.RLock()  # cached builders may nest
        self._cache: dict = {}
        self._expanded = self._expand_pieces()
        self._starts = [p.lo for p in self._expanded]
        self._table = self._pair_table() if arithmetic == RATIONAL else None
        self.continuity_flag = self._verify_continuity()

    # -- construction helpers ---------------------------------------------

    def _expand_pieces(self):
        out = []
        for p in self.pieces:
            if isinstance(p, CantorPiece):
                out.extend(p.expand())
            else:
                out.append(p)
        return tuple(out)

    def _pair_table(self):
        """The integer-pair table behind :meth:`_pair_many`: piece starts
        as (numerator, denominator), ``slope*x + intercept`` at ``x = n/d``
        as ``(A*n + C*d) / (B*d)`` with integers A, C, B, and each constant
        piece's ``const`` as is.  None when a piece is not linear or
        constant, or a start or coefficient is not an int or Fraction."""
        start_num, start_den, coeffs, consts = [], [], [], []
        for p in self._expanded:
            if type(p.lo) not in _EXACT:
                return None
            start_num.append(p.lo.numerator)
            start_den.append(p.lo.denominator)
            if type(p) is ConstantPiece:
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
                return None
        if type(self.b) not in _EXACT:
            return None
        return start_num, start_den, coeffs, consts, (self.b.numerator, self.b.denominator)

    def _verify_continuity(self) -> bool:
        for left, right in zip(self._expanded, self._expanded[1:]):
            lv = left.value(left.hi)
            rv = right.value(right.lo)
            if self.arithmetic == RATIONAL:
                if lv != rv:
                    return False
            elif not abs(float(lv) - float(rv)) <= self.tol:
                return False
        return True

    @property
    def exact(self) -> bool:
        return self.arithmetic == RATIONAL

    def cached(self, key, build):
        """Internally synchronized memo for derived immutable structures."""
        with self._lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    # -- evaluation ---------------------------------------------------------

    def _coerce(self, x):
        """Domain check, then the model's arithmetic rather than the
        caller's: floats convert exactly into rationals, rationals round
        once into floats (a monotone map, so sorted input stays sorted).
        NaN is in no domain."""
        if not self.a <= x <= self.b:
            raise self._outside(x)
        if self.arithmetic == FLOAT:
            if not isinstance(x, float):
                x = float(x)
        elif isinstance(x, float):
            x = Fraction(x)
        return x

    def _outside(self, x) -> OutOfDomainError:
        return OutOfDomainError(f"{x} outside [{self.a}, {self.b}]")

    def evaluate(self, x):
        return self.evaluate_many((x,))[0]

    def evaluate_many(self, xs) -> list:
        """``F`` at each of the non-decreasing points ``xs``.

        Rational models of linear and constant pieces run on their pair
        table (:meth:`_pair_many`); every other model runs this loop: one
        bisection for the first point, then one merge walk over the piece
        starts."""
        if self._table is not None:
            return self._pair_many(xs)
        starts, pieces = self._starts, self._expanded
        last = len(starts) - 1
        prev = None
        out = []
        for raw in xs:
            if prev is not None and raw < prev:
                raise _unsorted(raw, prev)
            x = self._coerce(raw)
            if prev is None:
                i = max(bisect_right(starts, x) - 1, 0)
            prev = raw
            while i < last and starts[i + 1] <= x:
                i += 1
            out.append(pieces[i].value(x))
        return out

    def _pair_many(self, xs) -> list:
        """The rational kernel: each point becomes an integer pair ``n/d``
        (a float exactly, through ``as_integer_ratio``, as ``Fraction(x)``
        does), so the order, domain and piece tests are integer
        cross-multiplications over positive denominators, and a linear
        value is one Fraction built from integers.  Values and types are
        those of ``piece.value``: an ``int`` point on a piece with ``int``
        slope and intercept gives an ``int``."""
        start_num, start_den, coeffs, consts, (b_num, b_den) = self._table
        a_num, a_den = start_num[0], start_den[0]
        last = len(start_num) - 1
        prev = p_num = p_den = None
        i = 0
        out = []
        for x in xs:
            if type(x) is Fraction:
                (n, d), whole = x.as_integer_ratio(), False
            elif isinstance(x, float):
                if not math.isfinite(x):
                    # NaN and the infinities are out of domain, but -inf
                    # after a point is out of order first
                    if prev is not None and x < prev:
                        raise _unsorted(x, prev)
                    raise self._outside(x)
                (n, d), whole = x.as_integer_ratio(), False
            else:
                n, d, whole = x.numerator, x.denominator, isinstance(x, int)
            if prev is not None and n * p_den < p_num * d:
                raise _unsorted(x, prev)
            if n * a_den < a_num * d or n * b_den > b_num * d:
                raise self._outside(x)
            if prev is None:
                i = _pair_bisect_right(start_num, start_den, n, d) - 1
            prev, p_num, p_den = x, n, d
            while i < last and start_num[i + 1] * d <= n * start_den[i + 1]:
                i += 1
            co = coeffs[i]
            if co is None:
                out.append(consts[i])
            else:
                slope_num, icpt_num, den, whole_co = co
                num = slope_num * n + icpt_num * d
                out.append(num if whole and whole_co else Fraction(num, den * d))
        return out

    def __call__(self, x):
        return self.evaluate(x)

    def knots(self) -> list:
        return [self._expanded[0].lo] + [p.hi for p in self._expanded]

    # -- segmentation ---------------------------------------------------------

    def monotone_segments(self) -> MonotoneSegmentation:
        """Maximal alternating segmentation; exact knots where pieces permit."""
        return self.cached("segments", self._build_segments)

    def _build_segments(self) -> MonotoneSegmentation:
        breakpoints = []
        for p in self._expanded:
            breakpoints.append(p.lo)
            if not isinstance(p, (LinearPiece, ConstantPiece)):
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
        return MonotoneSegmentation(segments, (values[0],) + tuple(r[3] for r in runs))

    def is_nondecreasing(self) -> bool:
        """True when no segment genuinely falls; float models forgive drops
        within 10*tol (bisected segment boundaries leave ulp-scale slivers)."""
        grace = 0 if self.exact else 10 * self.tol
        segmentation = self.monotone_segments()
        values = segmentation.values
        return all(s.direction != DECREASING or v_lo - v_hi <= grace
                   for s, v_lo, v_hi in zip(segmentation, values, values[1:]))

    # -- derived models ---------------------------------------------------------

    def shift_add_identity(self) -> "FunctionModel":
        """The strictly-increasing companion G(x) = F(x) + x.

        For a non-decreasing continuous model the result is strictly
        increasing and continuous; both facts are checked, not assumed.
        """
        pieces = [make_transformed(p, 1, 1, 0) for p in self._expanded]
        shifted = FunctionModel(pieces, arithmetic=self.arithmetic, tol=self.tol,
                                name=None if self.name is None else f"{self.name}+x")
        if self.is_nondecreasing():
            if not shifted.continuity_flag:
                raise PreconditionError("shift of a continuous model lost continuity")
            # strict increase across every resolvable gap of the segmentation
            grace = 0 if self.exact else 10 * self.tol
            segmentation = shifted.monotone_segments()
            knots, values = segmentation.knots(), segmentation.values
            for k0, k1, v0, v1 in zip(knots, knots[1:], values, values[1:]):
                if k1 - k0 > grace and not v1 > v0:
                    raise PreconditionError("shift of a non-decreasing model is "
                                            "not strictly increasing")
        return shifted

    def reflect(self) -> "FunctionModel":
        """The mirrored model x -> F(a + b - x) on the same domain."""
        csum = self.a + self.b
        pieces = [p.reflected(csum) for p in self._expanded]
        pieces.sort(key=lambda p: p.lo)
        return FunctionModel(pieces, arithmetic=self.arithmetic, tol=self.tol,
                             name=None if self.name is None else f"{self.name}~")

    # -- preimages ---------------------------------------------------------

    def preimage(self, c, d, lo=None, hi=None) -> IntervalSet:
        """Maximal relatively-open components of F^{-1}((c, d)) in [a, b],
        intersected with the window ``[lo, hi]`` (default: the whole domain).

        Open targets only: endpoint values c and d are excluded, so interior
        peaks at the target boundary split components.  Exact knots for
        piecewise-linear models, certified bisection otherwise.  Only the
        segments meeting the window are visited.
        """
        if not self.continuity_flag:
            raise PreconditionError("preimage requires a continuous model")
        if not c < d:
            raise SpecFormatError("target interval must satisfy c < d")
        lo = self.a if lo is None else lo
        hi = self.b if hi is None else hi
        segmentation = self.monotone_segments()
        segments, values = segmentation.segments, segmentation.values
        parts = []
        for i in segmentation.window(lo, hi):
            seg = segments[i]
            if seg.hi == lo or seg.lo == hi:
                # the window meets this segment at one knot, which is in
                # the preimage exactly when its stored value is in (c, d);
                # the whole segment then stands in for its part, so the
                # merged component still runs past the window's end and the
                # clip keeps the caller's lo or hi there, with no solve
                if c < values[i + 1 if seg.hi == lo else i] < d:
                    parts.append(Interval(seg.lo, seg.hi))
                continue
            parts.extend(self._segment_preimage(seg, values[i], values[i + 1], c, d))
        return IntervalSet(parts).clip(lo, hi)

    def _segment_preimage(self, seg: Segment, flo, fhi, c, d):
        """Preimage of (c, d) on one segment, given F at its ends."""
        if seg.direction == CONSTANT:
            if c < flo < d:
                yield Interval(seg.lo, seg.hi)
            return
        lo_val, hi_val = (flo, fhi) if seg.direction == INCREASING else (fhi, flo)
        if hi_val <= c or lo_val >= d:
            return
        if seg.direction == INCREASING:
            if flo > c:
                x_lo, lo_open = seg.lo, False
            else:
                x_lo, lo_open = self._solve_in_segment(seg, c), True
            if fhi < d:
                x_hi, hi_open = seg.hi, False
            else:
                x_hi, hi_open = self._solve_in_segment(seg, d), True
        else:
            if flo < d:
                x_lo, lo_open = seg.lo, False
            else:
                x_lo, lo_open = self._solve_in_segment(seg, d), True
            if fhi > c:
                x_hi, hi_open = seg.hi, False
            else:
                x_hi, hi_open = self._solve_in_segment(seg, c), True
        yield Interval(x_lo, x_hi, lo_open, hi_open)

    def _solve_in_segment(self, seg: Segment, y):
        """Unique x in the strictly monotone segment with F(x) = y."""
        lo_i = bisect_right(self._starts, seg.lo) - 1
        hi_i = bisect_right(self._starts, seg.hi) - 1
        if hi_i >= len(self._expanded) or self._expanded[hi_i].lo == seg.hi:
            hi_i -= 1
        increasing = seg.direction == INCREASING
        for i in range(max(lo_i, 0), hi_i + 1):
            p = self._expanded[i]
            plo, phi = max(p.lo, seg.lo), min(p.hi, seg.hi)
            v_lo, v_hi = p.value(plo), p.value(phi)
            lo_v, hi_v = (v_lo, v_hi) if increasing else (v_hi, v_lo)
            if lo_v <= y <= hi_v:
                if v_lo == y:
                    return plo
                if v_hi == y:
                    return phi
                return p.solve(y, plo, phi)
        if not self.exact:
            # pieces may round a shared knot apart, so y can miss every
            # range by an ulp: a y inside the gap two pieces leave at their
            # junction is attained there; otherwise snap to an endpoint
            # within 10*tol
            pieces = self._expanded[max(lo_i, 0):hi_i + 1]
            for left, right in zip(pieces, pieces[1:]):
                u, v = sorted((left.value(right.lo), right.value(right.lo)))
                if u <= y <= v and v - u <= 10 * self.tol:
                    return right.lo
            gap, x = min((abs(self.evaluate(x) - y), x) for x in (seg.lo, seg.hi))
            if gap <= 10 * self.tol:
                return x
        raise PreconditionError(
            f"value {y} not attained on segment [{seg.lo}, {seg.hi}]")

    def level_points(self, y, lo, hi) -> list:
        """All solutions of F(x) = y inside [lo, hi], one per crossing.

        Only the segments meeting ``[lo, hi]`` are visited.  A clipped end
        that lands on one of the segment's knots reads the value stored
        there; only an end strictly inside a segment is evaluated."""
        segmentation = self.monotone_segments()
        segments, values = segmentation.segments, segmentation.values
        points = []
        for i in segmentation.window(lo, hi):
            seg = segments[i]
            s_lo, s_hi = max(seg.lo, lo), min(seg.hi, hi)
            if not s_lo <= s_hi:
                continue
            flo = (values[i] if s_lo == seg.lo else values[i + 1] if s_lo == seg.hi
                   else self.evaluate(s_lo))
            fhi = (values[i + 1] if s_hi == seg.hi else values[i] if s_hi == seg.lo
                   else self.evaluate(s_hi))
            if seg.direction == CONSTANT:
                if flo == y:
                    points.extend([s_lo, s_hi])
                continue
            lo_v, hi_v = (flo, fhi) if flo <= fhi else (fhi, flo)
            if lo_v <= y <= hi_v:
                if flo == y:
                    points.append(s_lo)
                elif fhi == y:
                    points.append(s_hi)
                else:
                    points.append(self._solve_in_segment(
                        Segment(s_lo, s_hi, seg.direction), y))
        return _sorted_unique(points)

    # -- grids ---------------------------------------------------------

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


def _unsorted(x, prev) -> PreconditionError:
    return PreconditionError(
        f"evaluate_many needs non-decreasing points; {x} follows {prev}")


def _pair_bisect_right(num, den, n, d) -> int:
    """``bisect_right`` of ``n/d`` in the sorted fractions ``num[k]/den[k]``."""
    lo, hi = 0, len(num)
    while lo < hi:
        mid = (lo + hi) // 2
        if n * den[mid] < num[mid] * d:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _sorted_unique(values) -> list:
    out = []
    for v in sorted(values):
        if not out or v != out[-1]:
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_cantor_iterate(level: int) -> FunctionModel:
    """Piecewise-linear Cantor iterate c_level on [0, 1] with exact knots.

    c_0 is the identity; c_level has 2^level rising pieces of slope
    (3/2)^level over intervals of length 3^-level, interleaved with
    2^level - 1 plateaus.
    """
    if level < 0:
        raise SpecFormatError("level must be >= 0")
    return FunctionModel(_cantor_pieces(level), arithmetic=RATIONAL,
                         name=f"cantor_{level}")


def piecewise_linear(points, name=None) -> FunctionModel:
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
    return FunctionModel(pieces, arithmetic=RATIONAL, name=name)


def build_zigzag() -> FunctionModel:
    """Sawtooth through (0,0), (1/4,1), (1/2,0), (3/4,1), (1,0); |slope| = 4."""
    return piecewise_linear(
        [(0, 0), (Fraction(1, 4), 1), (Fraction(1, 2), 0),
         (Fraction(3, 4), 1), (1, 0)],
        name="zigzag",
    )


def build_identity(a=0, b=1) -> FunctionModel:
    return piecewise_linear([(a, a), (b, b)], name="identity")
