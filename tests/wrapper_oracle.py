"""The x^p*sin(1/x) piece as it was before it carried its own mirrors and
affine part, kept as a test oracle: the bare piece, the two wrappers that
mirrored and transformed it, and ``make_transformed`` over them, their
code unchanged.  ``XSinPiece.reflected`` here returns a
:class:`ReflectedPiece`, so a tree built from this module's pieces never
reaches :class:`bvkit.model.XSinPiece`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from bvkit._num import frac
from bvkit.errors import InfiniteSegmentationError, SpecFormatError
from bvkit.model import (
    CantorPiece,
    ConstantPiece,
    LinearPiece,
    Piece,
    PolynomialPiece,
    _sign_change_roots,
)


class XSinPiece(Piece):
    """x^p * sin(1/x) with exponent p >= 0; the oscillation accumulates at 0.

    Pieces touching 0 evaluate fine (the limit value 0 is used for p > 0)
    but refuse segmentation: the critical points pile up at the origin.
    """

    kind = "x_sin_family"
    exact = False

    def __init__(self, lo, hi, exponent):
        super().__init__(lo, hi)
        if isinstance(exponent, bool):
            raise SpecFormatError(f"x_sin_family exponent must be a number; got {exponent!r}")
        p = float(exponent)
        if not 0 <= p < math.inf:
            raise SpecFormatError(f"x_sin_family exponent must be finite and >= 0; got {p}")
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


class ReflectedPiece(Piece):
    """Wrapper representing x -> base(csum - x), on ``[lo, hi]`` if given."""

    kind = "reflected"

    def __init__(self, base: Piece, csum, lo=None, hi=None):
        super().__init__(csum - base.hi if lo is None else lo,
                         csum - base.lo if hi is None else hi)
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
        return ReflectedPiece(self.base.restrict(self.csum - hi, self.csum - lo), self.csum,
                              lo, hi)

    def reflected(self, csum):
        if csum == self.csum:
            return self.base
        return ReflectedPiece(self, csum)


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

    def restrict(self, lo, hi):
        return TransformedPiece(self.base.restrict(lo, hi), self.scale, self.linear,
                                self.offset)

    def reflected(self, csum):
        rbase = self.base.reflected(csum)
        # offset + linear*(csum - x) + scale*base(csum - x)
        return TransformedPiece(rbase, self.scale, -self.linear,
                                self.offset + self.linear * csum)


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

