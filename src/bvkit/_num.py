"""Small numeric helpers: rational parsing, formatting, grids, bisection."""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from .errors import PreconditionError, SpecFormatError

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_FLOAT_TOL = 1e-12

# the largest exponent a spec number may spell, the digit count int()
# reads by default: Fraction(str) builds 10**exp in full, which took 0.4 s
# at exp = 10**6 and 18 s at 10**7 on a 2-vCPU VM
EXPONENT_LIMIT = 4300


def frac(value) -> Fraction:
    """Parse a rational from an int, Fraction or string like ``"3/4"``.

    Decimal strings ("0.25") are accepted and converted exactly, with an
    exponent of at most ``EXPONENT_LIMIT`` in magnitude.  Binary floats
    are rejected: a float almost never means the literal binary value, and
    silently exactifying it would poison rational models.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise SpecFormatError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            # "-n/d" in ASCII digits is two int parses; Fraction(str) takes
            # every other spelling it accepts (signs, "_", decimals, exponents)
            ints = _digit_ratio(text)
            if ints is not None:
                return Fraction(*ints)
            # an exponent Fraction reads is all the text after the one "e";
            # where that text is no int, Fraction refuses the number too
            _, e, exponent = text.lower().rpartition("e")
            if e and abs(int(exponent)) > EXPONENT_LIMIT:
                raise SpecFormatError(f"cannot parse rational {value!r}: "
                                      f"its exponent is past {EXPONENT_LIMIT}")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"cannot parse rational {value!r}") from exc
    raise SpecFormatError(f"not a rational value: {value!r}")


def _digit_ratio(text: str):
    """``(int(n), int(d))`` for text spelled ``n``, ``-n``, ``n/d`` or
    ``-n/d`` in ASCII digits, ``d`` 1 for a whole number; None otherwise."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if (digits.isascii() and digits.isdigit()
            and (not slash or (den.isascii() and den.isdigit()))):
        return int(num), int(den) if slash else 1
    return None


def frac_pair(value) -> tuple:
    """:func:`frac`'s value as its reduced integer pair ``(n, d)``, ``d > 0``,
    with its refusals.  Text in ASCII digits is two int parses and one gcd,
    with no Fraction built."""
    if type(value) is str:
        ints = _digit_ratio(value.strip())
        if ints is not None and ints[1]:
            g = math.gcd(*ints)
            return ints[0] // g, ints[1] // g
    return frac(value).as_integer_ratio()


def fraction_quotient(d, w):
    """d / w, exact for ints: int / int would round to a float, so it is a
    Fraction; any other operands divide as they are."""
    return Fraction(d, w) if type(d) is int and type(w) is int else d / w


def as_number(value, arithmetic: str):
    """Coerce a parsed JSON value into the model's arithmetic.

    In float mode a bool, a value past the float range (``"1e400"``), or
    one JSON reads as infinite or NaN, raises :class:`SpecFormatError`, as
    rational mode refuses a bool."""
    if arithmetic == RATIONAL or isinstance(value, bool):
        return frac(value)
    try:
        x = float(frac(value)) if isinstance(value, str) else float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SpecFormatError(f"not a finite float: {value!r}")
    return x


def fmt_number(value):
    """JSON-friendly rendering: Fractions as ``"p/q"``, floats as floats."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value
    return float(value)


SIG15 = "%.15g"


def sig15(value) -> str:
    """Decimalize at 15 significant digits (CSV output contract)."""
    return SIG15 % float(value)


def sig15_row(width: int) -> str:
    """The ``%`` format of a CSV row of ``width`` values, each written as
    :func:`sig15` writes it (``%g`` takes an int or a Fraction through
    ``float``, as sig15 does), so a row is one ``%`` operation."""
    return ",".join([SIG15] * width)


def locate_cell(points, x) -> int:
    """Index i with points[i] <= x <= points[i+1]; shared by p and u_eps.

    The left cell wins at shared interior points only through the clamp at
    the final point; interior knots resolve to the right cell, which both
    evaluators use identically.
    """
    i = bisect_right(points, x) - 1
    if i >= len(points) - 1:
        i = len(points) - 2
    return max(i, 0)


def bisect_solve(fn, target, lo, hi, tol: float = 1e-12, max_iter: int = 200):
    """Certified-bracket bisection for fn(x) = target on [lo, hi].

    fn must be monotone on the bracket.  Returns a float root; exact hits
    at the bracket endpoints are returned unchanged.  A bracket still wider
    than the tolerance after ``max_iter`` halvings raises
    :class:`PreconditionError` instead of returning an uncertified midpoint.
    """
    flo = fn(lo) - target
    fhi = fn(hi) - target
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(
            f"no sign change on bracket [{lo}, {hi}] for target {target}"
        )
    a, b = float(lo), float(hi)
    fa = float(flo)
    eps = tol * max(1.0, abs(a), abs(b))
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if b - a <= eps or mid == a or mid == b:
            return mid
        fm = fn(mid) - target
        if fm == 0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    raise PreconditionError(
        f"bisection for target {target} on [{lo}, {hi}] did not converge in "
        f"{max_iter} iterations; last bracket [{a}, {b}]")


def exact_steps(a, b, m: int, ks) -> list:
    """``a + k * (b - a) / m`` for each int k of ``ks``, exactly.  With
    ``a = p/q`` and ``b = r/s`` each point is one ``Fraction(start + k * rise,
    q * s * m)`` built from integers, where ``start = p * s * m`` and
    ``rise = r * q - p * s``."""
    p, q = a.as_integer_ratio()
    r, s = b.as_integer_ratio()
    start, rise, den = p * s * m, r * q - p * s, q * s * m
    return [Fraction(start + k * rise, den) for k in ks]


def cantor_starts(level: int) -> list:
    """The left ends s of the 2^level middle-third intervals ``[s, s + 1]``
    over ``3^level``, in order: the children of s are 3s and 3s + 2."""
    starts = [0]
    for _ in range(level):
        starts = [c for s in starts for c in (3 * s, 3 * s + 2)]
    return starts


def uniform_grid(a, b, n: int, exact: bool):
    """n evenly spaced points from a to b inclusive, in the given
    arithmetic; exact points are :func:`exact_steps` with ``m = n - 1``."""
    if n < 2:
        raise SpecFormatError("grid needs at least two points")
    if exact:
        return exact_steps(Fraction(a), Fraction(b), n - 1, range(n))
    a, b = float(a), float(b)
    step = (b - a) / (n - 1)
    pts = [a + i * step for i in range(n)]
    pts[-1] = b
    return pts
