"""Exact piecewise-analytic function models on a closed interval.

A :class:`FunctionModel` is an ordered, contiguous list of pieces covering
``[a, b]``.  Linear, constant and Cantor-iterate pieces are exact over the
rationals; polynomial and oscillating ``x^p*sin(1/x)`` pieces evaluate in
binary floating point to a stated tolerance.  Evaluation follows the type
of its argument, so rational-mode models stay rational end to end.

Evaluation has one path per arithmetic mode, and ``evaluate`` is a batch
of one.  A rational model evaluates on integer numerator/denominator
pairs: its pieces are tabulated at construction, and the order, domain
and piece tests are integer cross-multiplications.  The table holds
linear and constant pieces with int or Fraction knots and parameters
(Cantor pieces expand into those), and a rational model refuses any other
piece.  A float model evaluates on a float table built at construction:
each piece start as the least float at or above it, so a float point is
placed among int or Fraction knots without exact comparisons, and each
linear piece as float slope and intercept.  Its other pieces evaluate the
point themselves, and a constant piece gives its constant as it is.  A
polynomial piece runs Horner's rule at a float point on its coefficients
rounded once to floats, bit for bit its rule on the exact coefficients.
An x^p*sin(1/x) piece carries its own mirrors and affine part, so a mirror
or a Jordan part maps it to another such piece: no piece wraps another.

Rational construction runs on integers as well.  The level-L Cantor
iterate is generated from integer knots over 3^L and values over 2^L, a
rational model checks continuity by cross-multiplying the two values at
each junction, and the companion F + x maps each tabled piece directly,
as :func:`make_transformed` would.  Float models keep the loops over
their pieces.

The monotone segmentation (maximal alternating runs of increasing /
decreasing / constant behaviour) is the workhorse every downstream module
consumes: it makes variation, image measures and preimages exact for the
finite-segmentation class.  Its knots on a polynomial piece are the sign
changes of the derivative, bisected on exact signs (the coefficients are
rationals) to the float nearest each root.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from ._num import (
    DEFAULT_FLOAT_TOL,
    FLOAT,
    RATIONAL,
    bisect_solve,
    cantor_starts,
    frac,
    fraction_quotient,
    uniform_grid,
)
from .errors import (
    InfiniteSegmentationError,
    OutOfDomainError,
    PreconditionError,
    SpecFormatError,
)
from .intervals import Interval, IntervalSet, positions

INCREASING = "increasing"
DECREASING = "decreasing"
CONSTANT = "constant"

# the deepest cantor_iterate level a piece may have: its expansion holds
# 2^(level + 1) - 1 pieces, and a spec takes twice as long to load per
# level (131,071 pieces at 16, loaded in 0.7 to 1.6 s on a 2-vCPU VM)
CANTOR_LEVEL_LIMIT = 16

_ONE_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)
_HALF = Fraction(1, 2)
_EXACT = (int, Fraction)  # the types a pair table holds
_REAL = (int, Fraction, float)  # the linear coefficients a float table rounds


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------


class Piece:
    """Common surface for all piece kinds.

    Subclasses provide ``value`` plus enough structure for critical-point
    isolation and monotone inversion.  ``derivative`` and ``_sample_grid``
    are on :class:`XSinPiece` alone, which carries its own mirrors and
    affine part: no piece wraps another.  Pieces are immutable.
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


class LinearPiece(Piece):
    kind = "linear"
    exact = True

    def __init__(self, lo, hi, slope, intercept):
        super().__init__(lo, hi)
        self.slope = slope
        self.intercept = intercept

    def value(self, x):
        return self.slope * x + self.intercept

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
        return fraction_quotient(y - self.intercept, self.slope)


class ConstantPiece(Piece):
    kind = "constant"
    exact = True

    def __init__(self, lo, hi, const):
        super().__init__(lo, hi)
        self.const = const

    def value(self, x):
        return self.const

    def interior_criticals(self):
        return []

    def restrict(self, lo, hi):
        return ConstantPiece(lo, hi, self.const)

    def reflected(self, csum):
        return ConstantPiece(csum - self.hi, csum - self.lo, self.const)

    def solve(self, y, lo, hi):
        raise ValueError("cannot invert a constant piece")


class PolynomialPiece(Piece):
    """Polynomial with rational coefficients, ascending powers.

    A float point runs Horner's rule on the coefficients rounded once to
    floats, highest power first.  That is bit for bit the rule on the
    coefficients themselves, since ``Fraction ⊕ float`` rounds the Fraction
    first.  A coefficient past the float range leaves the float rule out,
    so the exact rule raises its ``OverflowError`` at each float point."""

    kind = "polynomial"
    exact = False

    def __init__(self, lo, hi, coefficients):
        super().__init__(lo, hi)
        coeffs = tuple(c if isinstance(c, float) else frac(c)
                       for c in coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coefficients = coeffs
        try:
            floats = [float(c) for c in reversed(coeffs)]
            self._horner = floats[0], tuple(floats[1:])
        except OverflowError:
            self._horner = None

    def value(self, x):
        if type(x) is float and self._horner is not None:
            acc, rest = self._horner
            acc += x * 0  # an infinite or NaN x gives NaN, as below
            for c in rest:
                acc = acc * x + c
            return acc
        acc = self.coefficients[-1] + x * 0  # promote to the argument's type
        for c in reversed(self.coefficients[:-1]):
            acc = acc * x + c
        return acc

    def interior_criticals(self):
        """The points where the derivative changes sign, each the float
        nearest its exact root (:func:`_sign_change_floats`), sorted.

        A root of even multiplicity changes no sign and is left out.  So is
        a root within ``1e-12 * max(1, width)`` of either end, and a root
        that close to the previous one, so no sliver segment appears."""
        lo, hi = float(self.lo), float(self.hi)
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise SpecFormatError(
                f"a polynomial piece segments on finite ends only; got [{self.lo}, {self.hi}]")
        margin = 1e-12 * max(1.0, hi - lo)
        exact = [Fraction(c) for c in self.coefficients]
        den = math.lcm(*(c.denominator for c in exact))
        # the derivative times the common denominator: integers, same signs
        ints = [k * c.numerator * (den // c.denominator) for k, c in enumerate(exact)][1:]
        out = []
        for x in _sign_change_floats(ints, lo, hi):
            if lo + margin < x < hi - margin and (not out or x - out[-1] > margin):
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
        # int() would truncate a fractional level, read a bool as 0 or 1 and
        # parse a str
        if isinstance(level, bool) or not isinstance(level, numbers.Real) or level % 1:
            raise SpecFormatError(f"cantor_iterate level must be an int; got {level!r}")
        if level < 0:
            raise SpecFormatError("cantor_iterate level must be >= 0")
        if level > CANTOR_LEVEL_LIMIT:
            raise SpecFormatError(f"cantor_iterate level must be at most "
                                  f"{CANTOR_LEVEL_LIMIT}; got {level}")
        if lo < 0 or hi > 1:
            raise SpecFormatError("cantor_iterate pieces live inside [0, 1]")
        self.level = int(level)

    def value(self, x):
        return _cantor_value(self.level, x)

    def expand(self) -> list:
        pieces = _cantor_pieces(self.level)
        if self.lo == 0 and self.hi == 1:
            # restricting to [0, 1] would rebuild every piece as it is
            return pieces
        return [p.restrict(max(p.lo, self.lo), min(p.hi, self.hi))
                for p in pieces if p.lo < self.hi and p.hi > self.lo]


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


class XSinPiece(Piece):
    """x^p * sin(1/x) with exponent p >= 0; the oscillation accumulates at 0.

    Pieces touching 0 evaluate fine (the limit value 0 is used for p > 0)
    but refuse segmentation: the critical points pile up at the origin.

    The piece carries its own mirrors and affine part, the maps a model's
    mirror and Jordan parts put on it.  ``mirrors`` holds ``(csum, lo,
    hi)`` per mirror x -> csum - x, innermost first, with ``[lo, hi]`` the
    domain of what it mirrors, kept as built: ``csum - (csum - x)`` need
    not be x in floats.  The outermost mirror applies first: mirrors about
    c1, then c2 compute ``c1 - (c2 - x)``.  ``affine``, None or ``(scale,
    linear, offset)``, applies last, as ``offset + linear*x + scale*v``.
    """

    kind = "x_sin_family"
    exact = False

    def __init__(self, lo, hi, exponent, mirrors=(), affine=None):
        super().__init__(lo, hi)
        if isinstance(exponent, bool) or not isinstance(exponent, numbers.Real):
            raise SpecFormatError(f"x_sin_family exponent must be a number; got {exponent!r}")
        try:
            p = float(exponent)
        except OverflowError:  # an int past the float range
            p = math.inf if exponent > 0 else -math.inf
        if not 0 <= p < math.inf:
            raise SpecFormatError(f"x_sin_family exponent must be finite and >= 0; got {p}")
        base_lo = mirrors[0][1] if mirrors else lo
        if base_lo < 0:
            raise SpecFormatError("x_sin_family pieces need lo >= 0")
        if p == 0 and base_lo <= 0:
            raise SpecFormatError("sin(1/x) has no value at 0; need lo > 0")
        self.exponent = p
        self.mirrors = mirrors
        self.affine = affine

    def _unmirrored(self, x) -> float:
        for csum, _, _ in reversed(self.mirrors):
            x = csum - x
        return float(x)

    def value(self, x):
        t = self._unmirrored(x) if self.mirrors else float(x)
        v = 0.0 if t == 0.0 else t ** self.exponent * math.sin(1.0 / t)
        if self.affine is None:
            return v
        scale, linear, offset = self.affine
        return offset + linear * x + scale * v

    def derivative(self, x):
        t = self._unmirrored(x) if self.mirrors else float(x)
        p = self.exponent
        s, c = math.sin(1.0 / t), math.cos(1.0 / t)
        d = p * t ** (p - 1) * s - t ** (p - 2) * c
        if len(self.mirrors) % 2:
            d = -d
        if self.affine is None:
            return d
        scale, linear, _ = self.affine
        return linear + scale * d

    def interior_criticals(self):
        base_lo, base_hi = self.mirrors[0][1:] if self.mirrors else (self.lo, self.hi)
        if base_lo <= 0:
            raise InfiniteSegmentationError(
                "x^p*sin(1/x) oscillates without bound as x -> 0; "
                "segmentation does not terminate",
                hint="restrict the piece to [x_min, hi] with x_min > 0 "
                "(default truncation 1e-4)",
            )
        # the bare piece bisects its derivative, as does a piece whose linear
        # part moves the roots; any other mirrors out the bare piece's roots
        if (self.affine[1] != 0) if self.affine else not self.mirrors:
            return _sign_change_roots(self.derivative, self._sample_grid(self.lo, self.hi),
                                      self.lo, self.hi)
        roots = XSinPiece(base_lo, base_hi, self.exponent).interior_criticals()
        for csum, _, _ in self.mirrors:
            roots = sorted(csum - r for r in roots)
        return roots if self.affine is None else [r for r in roots if self.lo < r < self.hi]

    def _sample_grid(self, lo, hi):
        for csum, _, _ in reversed(self.mirrors):
            lo, hi = csum - hi, csum - lo
        # uniform in t = 1/x with step pi/8: consecutive derivative roots are
        # separated by about pi in t, so every sign change is bracketed
        t_lo, t_hi = 1.0 / float(hi), 1.0 / float(lo)
        n = max(int(math.ceil((t_hi - t_lo) / (math.pi / 8))), 8)
        ts = [t_lo + (t_hi - t_lo) * i / n for i in range(n + 1)]
        xs = sorted(1.0 / t for t in ts)
        xs[0], xs[-1] = float(lo), float(hi)
        for csum, _, _ in self.mirrors:
            xs = sorted(csum - t for t in xs)
        return xs

    def restrict(self, lo, hi):
        mirrors, m_lo, m_hi = [], lo, hi
        for csum, _, _ in reversed(self.mirrors):
            m_lo, m_hi = csum - m_hi, csum - m_lo
            mirrors.insert(0, (csum, m_lo, m_hi))
        return XSinPiece(lo, hi, self.exponent, tuple(mirrors), self.affine)

    def reflected(self, csum):
        affine = self.affine
        if affine is not None:  # offset + linear*(csum - x) + scale*v
            scale, linear, offset = affine
            affine = (scale, -linear, offset + linear * csum)
        if self.mirrors and csum == self.mirrors[-1][0]:
            # a mirror about the last one's center undoes it
            *mirrors, (_, lo, hi) = self.mirrors
            return XSinPiece(lo, hi, self.exponent, tuple(mirrors), affine)
        return XSinPiece(csum - self.hi, csum - self.lo, self.exponent,
                         self.mirrors + ((csum, self.lo, self.hi),), affine)


def make_transformed(base: Piece, scale, linear, offset, lo=None, hi=None) -> Piece:
    """Build offset + linear*x + scale*base(x) on ``[lo, hi]`` (the base's
    domain by default) as one piece: linear, constant and polynomial bases
    fold exactly, and an x^p*sin(1/x) base takes the map as its affine
    part, composed with any it has.  Any other base, a Cantor piece among
    them, is refused: a model transforms the pieces of its expansion."""
    if not isinstance(base, (ConstantPiece, LinearPiece, PolynomialPiece, XSinPiece)):
        raise SpecFormatError(f"cannot transform a {type(base).__name__} on "
                              f"[{base.lo}, {base.hi}]; transform its expansion")
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
    if base.affine is not None:
        b_scale, b_linear, b_offset = base.affine
        return make_transformed(XSinPiece(lo, hi, base.exponent, base.mirrors),
                                scale * b_scale, linear + scale * b_linear,
                                offset + scale * b_offset, lo, hi)
    return XSinPiece(lo, hi, base.exponent, base.mirrors, (scale, linear, offset))


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


def _sign_at(ints, x) -> int:
    """The exact sign of the polynomial with integer coefficients ``ints``
    (ascending) at a float or Fraction x = n/d: the sign of
    sum c_k n^k d^(deg - k), as d > 0."""
    n, d = x.as_integer_ratio()
    acc, dk = ints[-1], 1
    for c in reversed(ints[:-1]):
        dk *= d
        acc = acc * n + c * dk
    return (acc > 0) - (acc < 0)


def _sign_change_floats(ints, lo, hi) -> list:
    """The floats nearest the points of [lo, hi] (floats) where the
    polynomial with integer coefficients ``ints`` changes sign, in order.

    The polynomial is monotone between the sign changes of its derivative,
    found by recursion, so each such cell holds one sign change at most.
    An end where it is exactly zero is dropped: it changes sign there
    exactly when the ends beside it differ in sign."""
    if len(ints) < 2:
        return []
    ends = [lo, *_sign_change_floats([k * c for k, c in enumerate(ints)][1:], lo, hi), hi]
    signed = [(x, s) for x in ends if (s := _sign_at(ints, x))]
    return [_nearest_root(ints, a, b, sa)
            for (a, sa), (b, sb) in zip(signed, signed[1:]) if sa != sb]


def _nearest_root(ints, a, b, sa) -> float:
    """The float nearest the sign change between the floats a < b, where
    the sign is ``sa`` at a and ``-sa`` at b, by bisection on exact signs.
    It probes 0 first, which halving reaches only through the subnormals,
    and stops at once on an exact zero.  At adjacent floats the sign at
    their exact midpoint picks the nearer one; a zero there is a tie,
    which ``float`` rounds to even."""
    while True:
        m = 0.0 if a < 0 < b else a + (b - a) / 2  # a, b of one sign: no overflow
        adjacent = m == a or m == b
        if adjacent:
            m = (Fraction(a) + Fraction(b)) / 2
        s = _sign_at(ints, m)
        if not s:
            return float(m)
        if adjacent:
            return b if s == sa else a
        a, b = (m, b) if s == sa else (a, m)


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
    model's values at their knots: ``values[k]`` is F at ``knots()[k]``.

    Segments are found on integer keys, in both arithmetic modes.  Each
    knot and piece start is a rational ``n/d`` (floats exactly), ``scale``
    is a common denominator D of them all, and ``n/d`` has the key
    ``2 * n * (D // d)``: ``keys`` for the knots, ``starts`` for the
    model's piece starts.  Against a point's :meth:`key`, a knot's is one
    int comparison."""

    segments: tuple
    values: tuple
    scale: int = field(repr=False, compare=False)
    starts: tuple = field(repr=False, compare=False)
    bounds: tuple = field(init=False, repr=False, compare=False)  # the knots
    keys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bounds = tuple([self.segments[0].lo] + [s.hi for s in self.segments])
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "keys", tuple(map(self.key, bounds)))

    def key(self, x):
        """The key of a point ``x = n/d`` (a float exactly):
        ``2 * floor(n * D / d)``, plus one when ``d`` does not divide
        ``n * D``, so a knot's key is below, or at most, x's exactly when the
        knot is.  An infinite x is its own key, and a NaN x is refused with
        :class:`SpecFormatError`."""
        try:
            n, d = x.as_integer_ratio()
        except AttributeError:  # a number without it, such as a numpy integer
            n, d = int(x.numerator), int(x.denominator)
        except OverflowError:
            return x
        except ValueError:
            raise SpecFormatError(f"a point must be a number to place among "
                                  f"the segments; got {x}") from None
        q, r = divmod(n * self.scale, d)
        return 2 * q + (r != 0)

    def knots(self) -> list:
        return list(self.bounds)

    def window(self, lo, hi) -> range:
        """Indices of the segments meeting ``[lo, hi]``, touching ones
        included: segment ``i`` spans ``bounds[i]`` to ``bounds[i + 1]``.
        A bisection of the keys finds the first; the last is walked to,
        because the caller walks the window anyway and most windows are
        short."""
        keys, count = self.keys, len(self.segments)
        first = last = max(bisect_left(keys, self.key(lo)) - 1, 0)
        k_hi = self.key(hi)
        while last < count and keys[last] <= k_hi:
            last += 1
        return range(first, last)

    def __iter__(self):
        return iter(self.segments)

    def __len__(self):
        return len(self.segments)


class FunctionModel:
    """Contiguous piecewise model of a continuous-by-default function.

    Immutable after construction; every operation is pure.
    ``continuity_flag`` records whether all junction values match (exactly
    in rational mode, within ``tol`` otherwise).
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

    # -- construction helpers ---------------------------------------------

    def _expand_pieces(self):
        """The pieces with each Cantor piece expanded."""
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

    def _build_float_table(self):
        """The table behind the float loop of :meth:`evaluate_many`: each
        piece start as the smallest float at or above it (so for a float x,
        ``start <= x`` exactly when ``key <= x``), the domain as the floats
        just inside ``[a, b]``, and per piece either ``(slope, intercept)``
        as floats, for a linear piece, or the piece's ``value``."""
        keys = [_float_key(s, math.inf) for s in self._starts]
        return (keys, _float_key(self.a, math.inf), _float_key(self.b, -math.inf),
                [_float_rule(p) for p in self._expanded])

    def _verify_continuity(self) -> bool:
        if self.exact:
            return _pair_continuous(self._table)
        for left, right in zip(self._expanded, self._expanded[1:]):
            if not abs(float(left.value(left.hi)) - float(right.value(right.lo))) <= self.tol:
                return False
        return True

    @property
    def exact(self) -> bool:
        return self.arithmetic == RATIONAL

    @property
    def fraction_valued(self) -> bool:
        """True when F(x) is a Fraction at every point: the model is
        rational, with no linear piece with int slope and intercept (an int
        point there gives an int) and no constant piece holding an int."""
        if not self.exact:
            return False
        _, _, coeffs, consts, _ = self._table
        return (all(co is None or not co[3] for co in coeffs)
                and all(c is None or type(c) is Fraction for c in consts))

    def cached(self, key, build):
        """Memo for derived immutable structures; builders may nest."""
        cache = self._cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    # -- evaluation ---------------------------------------------------------

    def _outside(self, x) -> OutOfDomainError:
        return OutOfDomainError(f"{x} outside [{self.a}, {self.b}]")

    def evaluate(self, x):
        return self.evaluate_many((x,))[0]

    def evaluate_many(self, xs) -> list:
        """``F`` at each of the non-decreasing points ``xs``.

        Rational models run on their pair table (:meth:`_pair_many`).  A
        float model rounds each point once into a float, the model's
        arithmetic rather than the caller's, and runs on its float table
        (:meth:`_build_float_table`): one bisection of the piece keys for
        the first point, then one merge walk.  Rounding is monotone, so the
        rounded points settle the order and domain tests, except on a tie
        with the previous point or at the domain's ends, where the points
        as given are compared.  NaN is in no domain."""
        if self.exact:
            return self._pair_many(xs)
        keys, a_key, b_key, rules = self._float_table
        a, b = self.a, self.b
        last = len(keys) - 1
        prev = px = None
        i = -1
        out = []
        for raw in xs:
            kind = type(raw)
            if kind is float:
                x = raw
            elif kind is Fraction or kind is int:
                try:
                    x = float(raw)
                except OverflowError:
                    x = math.nan
            else:
                x = math.nan
            # NaN passes no float test below, so a point of another type, or
            # past the float range, is compared as given, as a NaN point is
            if prev is not None and not x > px and (x < px or raw < prev):
                raise _unsorted(raw, prev)
            if not a_key < x < b_key and not a <= raw <= b:
                raise self._outside(raw)
            prev, px = raw, x
            if x != x:
                x = float(raw)
            if i < 0:
                i = max(bisect_right(keys, x) - 1, 0)
            while i < last and keys[i + 1] <= x:
                i += 1
            rule = rules[i]
            out.append(rule(x) if type(rule) is not tuple else rule[0] * x + rule[1])
        return out

    def _pair_many(self, xs, pairs=False) -> list:
        """The rational kernel: each point becomes an integer pair ``n/d``
        (a float exactly, through ``as_integer_ratio``, as ``Fraction(x)``
        does), so the order, domain and piece tests are integer
        cross-multiplications over positive denominators, and a linear
        value is one Fraction built from integers.  Values and types are
        those of ``piece.value``: an ``int`` point on a piece with ``int``
        slope and intercept gives an ``int``.

        With ``pairs`` set, for callers that do their own arithmetic on
        integers, each value comes back as an unreduced pair ``(num, den)``
        with ``den > 0``, and a point may be given as such a pair; the
        checks and their messages are the same."""
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
            elif type(x) is tuple:
                (n, d), whole = x, False
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
                out.append(consts[i].as_integer_ratio() if pairs else consts[i])
            else:
                slope_num, icpt_num, den, whole_co = co
                num = slope_num * n + icpt_num * d
                if pairs:
                    out.append((num, den * d))
                else:
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

    def is_nondecreasing(self) -> bool:
        """True when no segment genuinely falls; float models forgive drops
        within ``grace`` (bisected segment boundaries leave ulp-scale slivers)."""
        grace = self.grace
        segmentation = self.monotone_segments()
        values = segmentation.values
        return all(s.direction != DECREASING or v_lo - v_hi <= grace
                   for s, v_lo, v_hi in zip(segmentation, values, values[1:]))

    # -- derived models ---------------------------------------------------------

    def shift_add_identity(self) -> "FunctionModel":
        """The strictly-increasing companion G(x) = F(x) + x, built once per
        model, under the model's cache.

        For a non-decreasing continuous model the result is strictly
        increasing and continuous; both facts are checked, not assumed.
        """
        return self.cached("shift", self._build_shift)

    def _build_shift(self) -> "FunctionModel":
        if self.exact:
            # make_transformed(p, 1, 1, 0) on a tabled piece: slope + 1 with
            # the same intercept, or slope 1 with the constant as intercept
            pieces = [LinearPiece(p.lo, p.hi, 1, p.const) if co is None
                      else LinearPiece(p.lo, p.hi, p.slope + 1, p.intercept)
                      for p, co in zip(self._expanded, self._table[2])]
        else:
            pieces = [make_transformed(p, 1, 1, 0) for p in self._expanded]
        shifted = FunctionModel(pieces, arithmetic=self.arithmetic, tol=self.tol,
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

    def reflect(self) -> "FunctionModel":
        """The mirrored model x -> F(a + b - x) on the same domain, to which
        a float mirror is restricted: ``0.1 + 1.0 - 1.0`` is not 0.1."""
        csum = self.a + self.b
        pieces = [p.reflected(csum) for p in reversed(self._expanded)]
        if not self.exact:
            pieces[0] = pieces[0].restrict(self.a, pieces[0].hi)
            # an undone mirror restores stored ends that c - (c - x) may miss
            for i in range(1, len(pieces)):
                if pieces[i].lo != pieces[i - 1].hi:
                    pieces[i] = pieces[i].restrict(pieces[i - 1].hi, pieces[i].hi)
            pieces[-1] = pieces[-1].restrict(pieces[-1].lo, self.b)
        return FunctionModel(pieces, arithmetic=self.arithmetic, tol=self.tol,
                             name=None if self.name is None else f"{self.name}~")

    # -- preimages ---------------------------------------------------------

    def preimage(self, c, d, lo=None, hi=None) -> IntervalSet:
        """Maximal relatively-open components of F^{-1}((c, d)) in [a, b],
        intersected with the window ``[lo, hi]`` (default: the whole domain).

        Open targets only: endpoint values c and d are excluded, so interior
        peaks at the target boundary split components.  Exact knots for
        piecewise-linear models, certified bisection otherwise.  Only the
        segments meeting the window are visited, and whether the window
        meets one at a single knot is decided on the segmentation's keys.
        """
        if not self.continuity_flag:
            raise PreconditionError("preimage requires a continuous model")
        if not c < d:
            raise SpecFormatError("target interval must satisfy c < d")
        lo = self.a if lo is None else lo
        hi = self.b if hi is None else hi
        segmentation = self.monotone_segments()
        segments, values, keys = segmentation.segments, segmentation.values, segmentation.keys
        k_lo, k_hi = segmentation.key(lo), segmentation.key(hi)
        parts = []
        for i in segmentation.window(lo, hi):
            seg = segments[i]
            if keys[i + 1] == k_lo or keys[i] == k_hi:
                # the window meets this segment at one knot, which is in
                # the preimage exactly when its stored value is in (c, d);
                # the whole segment then stands in for its part, so the
                # merged component still runs past the window's end and the
                # clip keeps the caller's lo or hi there, with no solve
                if c < values[i + 1 if keys[i + 1] == k_lo else i] < d:
                    parts.append(Interval(seg.lo, seg.hi))
                continue
            parts.extend(self._segment_preimage(seg, values[i], values[i + 1], c, d))
        return IntervalSet(parts).clip(lo, hi)

    def _segment_preimage(self, seg: Segment, flo, fhi, c, d, rows=None):
        """Preimage of (c, d) on one segment, given F at its ends.  An end
        whose value lies in (c, d) is kept, closed; any other end gives way
        to the open solution at the target it lies beyond.  A segment whose
        values miss (c, d) has none: a constant one is whole or absent.
        ``rows`` are the segment's :meth:`_segment_rows`, for a caller that
        pulls several targets back on one segment."""
        if max(flo, fhi) <= c or min(flo, fhi) >= d:
            return

        def end(x, fx):
            if c < fx < d:
                return x, False
            return self._solve_in_segment(seg, c if fx <= c else d, rows), True

        (x_lo, lo_open), (x_hi, hi_open) = end(seg.lo, flo), end(seg.hi, fhi)
        yield Interval(x_lo, x_hi, lo_open, hi_open)

    def _segment_rows(self, seg: Segment):
        """``(piece, lo, hi, value at lo, value at hi)`` for each piece
        meeting the segment, with ``[lo, hi]`` its part of the segment, in
        order and as they are read.  The pieces, from the last to start at
        or before seg.lo to the last before seg.hi, are found by bisecting
        the keys of the piece starts."""
        segmentation = self.monotone_segments()
        starts, key = segmentation.starts, segmentation.key
        lo_i = bisect_right(starts, key(seg.lo)) - 1
        hi_i = bisect_left(starts, key(seg.hi)) - 1
        for p in self._expanded[max(lo_i, 0):hi_i + 1]:
            plo, phi = max(p.lo, seg.lo), min(p.hi, seg.hi)
            yield p, plo, phi, p.value(plo), p.value(phi)

    def _solve_in_segment(self, seg: Segment, y, rows=None):
        """Unique x in the strictly monotone segment with F(x) = y, which may
        be a part of a segment of the segmentation, on its
        :meth:`_segment_rows` (``rows``, if the caller has them)."""
        increasing = seg.direction == INCREASING
        for p, plo, phi, v_lo, v_hi in self._segment_rows(seg) if rows is None else rows:
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
            # within the grace
            grace = self.grace
            pieces = [row[0] for row in self._segment_rows(seg)]
            for left, right in zip(pieces, pieces[1:]):
                u, v = sorted((left.value(right.lo), right.value(right.lo)))
                if u <= y <= v and v - u <= grace:
                    return right.lo
            gap, x = min((abs(self.evaluate(x) - y), x) for x in (seg.lo, seg.hi))
            if gap <= grace:
                return x
        raise PreconditionError(
            f"value {y} not attained on segment [{seg.lo}, {seg.hi}]")

    def level_points(self, y, lo, hi) -> list:
        """All solutions of F(x) = y inside [lo, hi], one per crossing.

        Only the segments meeting ``[lo, hi]`` are visited, each clipped to
        the window on the segmentation's keys: the clipped ends are
        ``max(seg.lo, lo)`` and ``min(seg.hi, hi)``, the knot kept on a tie.
        A clipped end that lands on one of the segment's knots reads the
        value stored there; only an end strictly inside a segment is
        evaluated."""
        segmentation = self.monotone_segments()
        segments, values, keys = segmentation.segments, segmentation.values, segmentation.keys
        k_lo, k_hi = segmentation.key(lo), segmentation.key(hi)
        if not lo <= hi:
            return []
        points = []
        for i in segmentation.window(lo, hi):
            seg = segments[i]
            s_lo, flo = (seg.lo, values[i]) if k_lo <= keys[i] else (
                lo, values[i + 1] if k_lo == keys[i + 1] else self.evaluate(lo))
            s_hi, fhi = (seg.hi, values[i + 1]) if k_hi >= keys[i + 1] else (
                hi, values[i] if k_hi == keys[i] else self.evaluate(hi))
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


def _untabled(piece) -> SpecFormatError:
    return SpecFormatError(
        "rational arithmetic holds linear, constant and cantor_iterate pieces "
        "with int or Fraction knots and parameters only; got "
        f"{type(piece).__name__} on [{piece.lo}, {piece.hi}]")


def _read_exactly(model: FunctionModel, x):
    """A float as ``Fraction(x)``, its exact value, and any other number as
    it is; a NaN or infinite float has none and lies outside the domain.
    Rational models read their float inputs through this."""
    if not isinstance(x, float):
        return x
    if not math.isfinite(x):
        raise model._outside(x)
    return Fraction(x)


def _checked_epsilon(model: FunctionModel, epsilon):
    """epsilon, which must be positive and finite, read exactly on a
    rational model (:func:`_read_exactly`): its ledgers and bounds sum
    exact values, and a float beside them would be a value no step
    computed."""
    if not 0 < epsilon < math.inf:
        raise SpecFormatError("epsilon must be positive and finite")
    return _read_exactly(model, epsilon) if model.exact else epsilon


def _float_key(q, toward) -> float:
    """The float nearest q on the side of ``toward`` (``inf`` or ``-inf``),
    q itself when it is a float: the least float >= q or the greatest
    float <= q, so a float x compares with the key as with q.  The
    rounding is ``n / d``, as ``float(q)`` rounds, and it is compared with
    q on integers, which is cheaper than a float against a Fraction."""
    if isinstance(q, float):
        return q
    n, d = q.as_integer_ratio()
    try:
        f = n / d
    except OverflowError:
        # past the largest float: one step in from the infinity on q's side
        f = math.inf if n > 0 else -math.inf
        return f if (f > 0) == (toward > 0) else math.nextafter(f, toward)
    fn, fd = f.as_integer_ratio()
    if (fn * d < n * fd) if toward > 0 else (fn * d > n * fd):
        f = math.nextafter(f, toward)
    return f


def _float_rule(piece):
    """How the float loop evaluates a piece at a float x: a linear piece
    as its ``(slope, intercept)`` in floats, for ``slope * x + intercept``,
    which is bit for bit its ``value`` (``Fraction * float`` and
    ``float + Fraction`` round the Fraction first, as ``int`` operands
    are); any other piece by its ``value``, which for a polynomial piece
    runs on its float coefficients."""
    if (type(piece) is LinearPiece and type(piece.slope) in _REAL
            and type(piece.intercept) in _REAL):
        try:
            return float(piece.slope), float(piece.intercept)
        except OverflowError:
            pass  # the piece's own arithmetic raises at each point instead
    return piece.value


def _unsorted(x, prev) -> PreconditionError:
    return PreconditionError(
        f"evaluate_many needs non-decreasing points; {x} follows {prev}")


def _pair_continuous(table) -> bool:
    """True when every piece of a pair table meets the one before it: the
    two values at its start ``n/d``, ``(A*n + C*d) / (B*d)`` or the
    constant, agree by cross-multiplication."""
    start_num, start_den, coeffs, consts, _ = table
    for i in range(1, len(start_num)):
        n, d = start_num[i], start_den[i]
        l_num, l_den = _pair_value(coeffs[i - 1], consts[i - 1], n, d)
        r_num, r_den = _pair_value(coeffs[i], consts[i], n, d)
        if l_num * r_den != r_num * l_den:
            return False
    return True


def _pair_value(co, const, n, d) -> tuple:
    """A tabled piece's value at ``n/d`` as an unreduced pair, ``den > 0``."""
    if co is None:
        return const.as_integer_ratio()
    slope_num, icpt_num, den, _ = co
    return slope_num * n + icpt_num * d, den * d


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
    """The values in order, keeping the first of equal values; ints and
    Fractions sort on their integer positions (see :func:`positions`)."""
    values = list(values)
    spots = positions(values)
    at = spots[1] if spots else values
    out = []
    # a stable sort keeps equal values in their input order
    for i in sorted(range(len(at)), key=at.__getitem__):
        if not out or at[i] != last:
            last = at[i]
            out.append(values[i])
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
