"""Density recovery and the absolute-continuity modulus.

The recovered density is a finite-resolution surrogate: at each grid
point it is the forward difference quotient of the induced length measure
over a window of width h, clipped at the right edge of the domain; at b
itself the window [max(b - h, a), b] looks left, over its own width.  All
reconstruction claims are h-dependent bounds, checked against the model
by re-integration.

No image set is built: for a continuous non-decreasing G the image of
[u, v] is [G(u), G(v)], so lambda(G([u, v])) = G(v) - G(u).  Recovery
relies on ``_require_nondecreasing`` to make this theorem apply.

The arithmetic mode alone picks the route.  A rational model reads a
float window or point exactly, as ``Fraction(x)``, and divides on the
integer pairs of its pair walk, so every value is a Fraction.  Its BV
density, p's quotient less n's for the Jordan decomposition F = p - n, is
F's own quotient: one sweep of F gives every value, after the shift
route's checks are made once on the tables at p's knots.  A float model
recovers each part through its strictly increasing shift, checked against
its direct quotient at every grid point, four monotone passes in all;
float twins of the two routes differ by up to about 1e-11, so float mode
keeps this one.

Re-integration follows the grid's arithmetic.  When every density value is
a Fraction and every grid point an int or Fraction, the trapezoid sum is
carried as one reduced integer pair, and ``reconstruction_error`` on a
rational model compares its errors by cross-multiplication; each stored
sum, and the sup, is one Fraction.  Other grids keep the loops over
their own arithmetic, which give the same values and types.

The modulus omega(delta) is the worst total image swing over disjoint
interval collections of total length at most delta; it is computed by an
exact greedy fill for piecewise-linear models and by a discretized greedy
(a certified lower bound) otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from ._num import fraction_quotient
from .errors import PreconditionError, SpecFormatError
from .intervals import Interval, IntervalSet
from .model import (
    _EXACT,
    ConstantPiece,
    FunctionModel,
    LinearPiece,
    _read_exactly,
    _sorted_unique,
)
from .variation import jordan_decomposition

MONOTONE = "monotone_density"
SHIFTED = "shifted_monotone"
BV_DIFFERENCE = "bv_difference"


def density_grid(model: FunctionModel, n: int = 4096, h=None):
    """Default recovery grid: ``model.verification_grid(n)`` (n uniform
    points and every knot) plus each point one window before a knot (so
    windowed quotients stay piecewise smooth between grid points).  The
    default window is a quarter of the uniform spacing, divided exactly
    (int bounds give a Fraction), then rounded once in float mode."""
    pts = model.verification_grid(n)  # raises on n < 2 before h divides
    if h is None:
        h = fraction_quotient(model.b - model.a, n - 1) / 4
    if not model.exact:
        h = float(h)
    # a float h makes every k - h a float, whatever the knot's type
    before = [k - h for k in model.knots() if k - h > model.a]
    grid = [x for x in _sorted_unique(pts + before) if model.a <= x <= model.b]
    return grid, h


@dataclass
class DensityGrid:
    """Recovered density samples over a sorted grid."""

    grid: tuple
    values: tuple
    window: object
    method: str

    def __post_init__(self):
        self._cumulative = None

    def cumulative(self) -> tuple:
        """Trapezoid antiderivative at the grid points (starts at 0).

        When every value is a Fraction and every grid point an int or
        Fraction, the sum runs on integer pairs: each step adds
        (f0 + f1)(x1 - x0)/2 by cross-multiplication and builds the stored
        Fraction, whose one gcd reduces the pair for the next step.  Other
        grids keep the loop over their own arithmetic."""
        if self._cumulative is None:
            if (all(type(v) is Fraction for v in self.values)
                    and all(type(x) in _EXACT for x in self.grid)):
                self._cumulative = _pair_cumulative(self.grid, self.values)
            else:
                acc = [self.values[0] * 0]
                for (x0, f0), (x1, f1) in zip(zip(self.grid, self.values),
                                              zip(self.grid[1:], self.values[1:])):
                    acc.append(acc[-1] + (f0 + f1) * (x1 - x0) / 2)
                self._cumulative = tuple(acc)
        return self._cumulative


def _pair_cumulative(grid, values) -> tuple:
    """The trapezoid sum of Fraction values over int or Fraction points, one
    Fraction per point: the same values, of the same type, as the loop."""
    acc = values[0] * 0
    out = [acc]
    acc_n, acc_d = 0, 1
    x0_n, x0_d = grid[0].as_integer_ratio()
    f0_n, f0_d = values[0].as_integer_ratio()
    for x1, f1 in zip(grid[1:], values[1:]):
        x1_n, x1_d = x1.as_integer_ratio()
        f1_n, f1_d = f1.as_integer_ratio()
        # (f0 + f1) * (x1 - x0) / 2 as step_n / step_d
        step_n = (f0_n * f1_d + f1_n * f0_d) * (x1_n * x0_d - x0_n * x1_d)
        step_d = 2 * f0_d * f1_d * x0_d * x1_d
        acc = Fraction(acc_n * step_d + step_n * acc_d, acc_d * step_d)
        out.append(acc)
        acc_n, acc_d = acc.as_integer_ratio()
        x0_n, x0_d, f0_n, f0_d = x1_n, x1_d, f1_n, f1_d
    return tuple(out)


def _require_nondecreasing(model: FunctionModel, who: str):
    if not model.continuity_flag:
        raise PreconditionError(f"{who} requires a continuous model")
    if not model.is_nondecreasing():
        raise PreconditionError(f"{who} requires a non-decreasing model")


def _recovery_grid(model: FunctionModel, grid, h):
    """The grid, as a tuple, and window of a recovery: ``density_grid``'s
    when no grid is given.  h must be given with a grid, positive and
    finite, and the grid non-empty.  A float model takes h as a float; a
    rational model reads each float exactly (:func:`_read_exactly`)."""
    if grid is None:
        grid, h = density_grid(model, h=h)
    elif h is None:
        raise SpecFormatError("an explicit grid needs an explicit window h")
    if not 0 < h < math.inf:
        raise SpecFormatError("window h must be positive and finite")
    if len(grid) == 0:
        raise SpecFormatError("the density grid is empty")
    if not model.exact:
        return tuple(grid), float(h)
    return tuple(_read_exactly(model, x) for x in grid), _read_exactly(model, h)


def monotone_density(model: FunctionModel, grid=None, h=None) -> DensityGrid:
    """Difference quotient of the induced measure: at x the value is
    nu([x, x+h]) / h with nu(E) = lambda(F(E)) = F(x+h) - F(x), as the
    model is checked continuous and non-decreasing; the window clips at b
    and the last point looks left.  A rational model gives Fractions
    (:func:`_pair_window_quotients`).  A float model may fall by up to its
    ``grace`` (as ``is_nondecreasing`` allows), so a value may dip below 0
    by that."""
    _require_nondecreasing(model, "monotone density recovery")
    grid, h = _recovery_grid(model, grid, h)
    quotients = _pair_window_quotients if model.exact else _window_quotients
    return DensityGrid(grid, quotients(model, grid, h), h, MONOTONE)


def _quotient_at_b(model: FunctionModel, h):
    """F's quotient over the left window [max(b - h, a), b]: over h, which
    is that window's width whenever h <= b - a, and over b - a past it."""
    b = model.b
    left = max(b - h, model.a)
    width = h if h <= b - model.a else b - left
    return fraction_quotient(model.evaluate(b) - model.evaluate(left), width)


def _window_quotients(model: FunctionModel, grid, h) -> tuple:
    """The float kernel: ``(F(hi) - F(lo)) / (hi - lo)`` over the forward
    window [x, min(x + h, b)] of each grid point x, and
    :func:`_quotient_at_b` at b itself."""
    # in sorted order both ends of the forward windows run left to right, so
    # each end takes one sweep; points at b come last and keep the left window
    order = sorted(range(len(grid)), key=grid.__getitem__)
    los = [grid[i] for i in order if grid[i] != model.b]
    his = [min(x + h, model.b) for x in los]
    values = [_quotient_at_b(model, h)] * len(grid)
    for i, lo, hi, f_lo, f_hi in zip(order, los, his, model.evaluate_many(los),
                                     model.evaluate_many(his)):
        values[i] = (f_hi - f_lo) / (hi - lo)
    return tuple(values)


def _pair_window_quotients(model: FunctionModel, grid, h) -> tuple:
    """The rational kernel: :func:`_window_quotients` divided exactly.  The
    window ends, their widths and F's values there (from the model's pair
    walk) are integer pairs, and each value is one Fraction."""
    b = model.b
    b_n, b_d = b.as_integer_ratio()
    h_n, h_d = h.as_integer_ratio()
    order = sorted(range(len(grid)), key=grid.__getitem__)
    los = [grid[i] for i in order if grid[i] != b]
    his, widths = [], []
    for x in los:
        x_n, x_d = x.as_integer_ratio()
        # x + h = end_n / end_d; past b the window clips to b - x
        end_n, end_d = x_n * h_d + h_n * x_d, x_d * h_d
        if end_n * b_d < b_n * end_d:
            his.append((end_n, end_d))
            widths.append((h_n, h_d))
        else:
            his.append((b_n, b_d))
            widths.append((b_n * x_d - x_n * b_d, b_d * x_d))
    values = [_quotient_at_b(model, h)] * len(grid)
    for i, (w_n, w_d), (lo_n, lo_d), (hi_n, hi_d) in zip(
            order, widths, model._pair_many(los, pairs=True),
            model._pair_many(his, pairs=True)):
        # (F(hi) - F(lo)) / width
        values[i] = Fraction((hi_n * lo_d - lo_n * hi_d) * w_d, hi_d * lo_d * w_n)
    return tuple(values)


def shifted_monotone_density(model: FunctionModel, grid=None, h=None) -> DensityGrid:
    """Recover through the strictly-increasing companion G = F + x and
    subtract the unit density afterwards; agrees with the direct monotone
    quotient up to the window bias, which is asserted."""
    _require_nondecreasing(model, "shifted density recovery")
    grid, h = _recovery_grid(model, grid, h)
    base = monotone_density(model.shift_add_identity(), grid, h)
    values = tuple(v - 1 for v in base.values)
    direct = monotone_density(model, grid, h)
    scale = max(abs(v) for v in direct.values) + 1
    tolerance = 0 if model.exact else 2 * h * scale + 1e-9
    for got, want in zip(values, direct.values):
        if abs(got - want) > tolerance:
            raise PreconditionError(
                f"shifted quotient {got} strays from direct quotient {want}")
    return DensityGrid(grid, values, h, SHIFTED)


def bv_density(model: FunctionModel, grid=None, h=None) -> DensityGrid:
    """Density of a continuous BV model as the difference of the recovered
    densities of p and n from its Jordan decomposition.

    On a rational model p's quotient less n's is F's own, so the values
    come from one sweep of F (:func:`_pair_window_quotients`), after
    :func:`_check_parts` has made the shift route's checks on the tables.
    On a float model each part goes through
    :func:`shifted_monotone_density`."""
    if not model.continuity_flag:
        raise PreconditionError("density recovery requires a continuous model")
    decomposition = jordan_decomposition(model)
    grid, h = _recovery_grid(model, grid, h)
    if model.exact:
        _check_parts(model, decomposition)
        values = _pair_window_quotients(model, grid, h)
    else:
        rising = shifted_monotone_density(decomposition.p, grid, h)
        falling = shifted_monotone_density(decomposition.n, grid, h)
        values = tuple(g - r for g, r in zip(rising.values, falling.values))
    return DensityGrid(grid, values, h, BV_DIFFERENCE)


def _check_parts(model: FunctionModel, decomposition) -> None:
    """The shift route's checks, made on the tables: each part is
    non-decreasing and has a shift G = part + x (whose build checks G
    continuous and strictly increasing), G(k) - k == part(k) and
    p(k) - n(k) == F(k) at every knot k of p.  n and both shifts have p's
    pieces, and every piece of a rational model is linear or constant, so
    all five are affine between consecutive knots and equality at the
    knots is equality at every x:
    each shifted quotient less 1 is the direct one, and p's direct quotient
    less n's is F's."""
    knots = decomposition.p.knots()
    at_knots = []
    for part in (decomposition.p, decomposition.n):
        _require_nondecreasing(part, "shifted density recovery")
        shifted = part.shift_add_identity()
        values = part.evaluate_many(knots)
        for k, g, v in zip(knots, shifted.evaluate_many(knots), values):
            if g - k != v:
                raise PreconditionError(f"shift {g} at {k} is not {v} + {k}")
        at_knots.append(values)
    for k, p, n, f in zip(knots, *at_knots, model.evaluate_many(knots)):
        if p - n != f:
            raise PreconditionError(f"p - n = {p - n} at {k}, not F = {f}")


def integrate(density: DensityGrid, x):
    """Trapezoid integral of the density from the grid start to x, with a
    linearly interpolated partial last cell; exact for grid-aligned
    piecewise-linear densities."""
    grid = density.grid
    if not grid[0] <= x <= grid[-1]:  # NaN is in no span
        raise SpecFormatError(f"{x} outside the density grid span")
    cum = density.cumulative()
    i = bisect_right(grid, x) - 1
    if i >= len(grid) - 1:
        return cum[-1]
    x0, x1 = grid[i], grid[i + 1]
    if x == x0:
        return cum[i]
    f0, f1 = density.values[i], density.values[i + 1]
    f_at = f0 + (f1 - f0) * (x - x0) / (x1 - x0)
    return cum[i] + (f0 + f_at) * (x - x0) / 2


@dataclass(frozen=True)
class ReconstructionReport:
    sup_error: object
    argmax: object
    grid_points: int
    window: object


def reconstruction_error(model: FunctionModel, density: DensityGrid) -> ReconstructionReport:
    """Sup over the recovery grid of |F(x) - F(a) - integral of the density|,
    at the first grid point that attains it.

    When the model is rational and every cumulative value is a Fraction
    (:meth:`DensityGrid.cumulative`'s pair route), each error is an integer
    pair from F's pair walk, errors compare by cross-multiplication and the
    sup is one Fraction.  Other inputs keep the loop over their own
    arithmetic."""
    f_a = model.evaluate(model.a)
    cum = density.cumulative()
    arg = density.grid[0]
    if model.exact and all(type(c) is Fraction for c in cum):
        a_n, a_d = f_a.as_integer_ratio()
        worst_n, worst_d = -1, 1
        for x, (f_n, f_d), acc in zip(density.grid,
                                      model._pair_many(density.grid, pairs=True), cum):
            c_n, c_d = acc.as_integer_ratio()
            # F(x) - F(a) - acc over f_d * a_d * c_d
            err_n = abs((f_n * a_d - a_n * f_d) * c_d - c_n * f_d * a_d)
            err_d = f_d * a_d * c_d
            if err_n * worst_d > worst_n * err_d:
                worst_n, worst_d, arg = err_n, err_d, x
        worst = Fraction(worst_n, worst_d)
    else:
        worst = None
        for x, fx, acc in zip(density.grid, model.evaluate_many(density.grid), cum):
            err = abs(fx - f_a - acc)
            if worst is None or err > worst:
                worst, arg = err, x
    return ReconstructionReport(worst, arg, len(density.grid), density.window)


# ---------------------------------------------------------------------------
# absolute-continuity modulus
# ---------------------------------------------------------------------------

AC_AT_RESOLUTION = "ac_at_resolution"
NOT_AC = "not_ac"
MODULUS_INCONCLUSIVE = "inconclusive"

NOT_AC_THRESHOLD = Fraction(1, 2)
_NONLINEAR_SLICES = 64


@dataclass(frozen=True)
class ModulusReport:
    """(delta, omega(delta), achieving collection) rows plus a verdict.

    omega never decreases in delta.  The verdict is ``not_ac`` when the
    modulus stays at or above 1/2 down the small end of the schedule, and
    ``ac_at_resolution`` when the modulus both clears that bar and has
    visibly decayed across the schedule span.
    """

    samples: tuple
    verdict: str

    def omega(self, delta):
        for d, w, _ in self.samples:
            if d == delta:
                return w
        raise KeyError(delta)


def _greedy_items(model: FunctionModel):
    """(gain density, capacity, lo, hi, linear slope or None) per slice of
    a float model's pieces."""
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


def _pair_samples(model: FunctionModel, schedule) -> list:
    """The greedy fill of a rational model, on its table.

    The rising and falling pieces are the items, sorted steepest first,
    then rightmost first, on integer keys: each start and end ``n/d`` as
    ``n * (D // d)`` over the common denominator D of the knots, and each
    ``|slope| = |A|/B`` as ``|A| * (S // B)`` over the common denominator S
    of the slopes.  Widths and gains (|slope| times width, over S * D)
    are summed once along that order; each delta then takes, by one
    bisection of the width sums, every item that fits whole, and the next
    one clipped to what is left.  The values and types are the walk's: a
    Fraction omega, and a clipped end ``lo + remaining`` whose remaining
    is an int only when delta and every width before it are."""
    start_num, start_den, coeffs, _, (b_num, b_den) = model._table
    starts, knots, forms = model._starts, model._knots, model._source.forms
    scale = math.lcm(*start_den, b_den)
    pos = [n * (scale // d) for n, d in zip(start_num, start_den)]
    pos.append(b_num * (scale // b_den))
    rows = [i for i, co in enumerate(coeffs) if co is not None and co[0]]
    slope_scale = math.lcm(*[coeffs[i][2] for i in rows])
    steep = {i: abs(coeffs[i][0]) * (slope_scale // coeffs[i][2]) for i in rows}
    rows.sort(key=lambda i: (steep[i], pos[i]), reverse=True)
    widths, gains, whole = [0], [0], [True]
    for i in rows:
        w = pos[i + 1] - pos[i]
        widths.append(widths[-1] + w)
        gains.append(gains[-1] + steep[i] * w)
        whole.append(whole[-1] and type(starts[i]) is int and type(knots[i + 1]) is int)
    gain_den = slope_scale * scale
    samples = []
    for delta in schedule:
        d_num, d_den = delta.as_integer_ratio()
        k = bisect_right(widths, d_num * scale // d_den) - 1
        ends = {i: knots[i + 1] for i in rows[:k]}
        omega = Fraction(gains[k], gain_den)
        if k < len(rows) and widths[k] * d_den != d_num * scale:
            i = rows[k]
            if isinstance(delta, int) and whole[k]:
                remaining = delta - widths[k] // scale
            else:
                remaining = Fraction(d_num * scale - widths[k] * d_den, d_den * scale)
            slope_num, _, den, _ = coeffs[i]
            slope = (abs(slope_num) // den if forms[i][0] is int
                     else Fraction(abs(slope_num), den))
            omega += slope * remaining
            ends[i] = starts[i] + remaining
        chosen = IntervalSet.ordered(Interval(starts[i], ends[i]) for i in sorted(ends))
        samples.append((delta, omega, chosen))
    return samples


def ac_modulus(model: FunctionModel, deltas) -> ModulusReport:
    """Worst-case image swing over disjoint collections of length <= delta.

    Exact for piecewise-linear models (the greedy fill over slope-sorted
    pieces solves the fractional allocation); for curved pieces the greedy
    runs on a sliced profile and the result is a stated lower bound (the
    reported collections are always feasible).  A rational model fills on
    its table, with one prefix sweep for the whole schedule
    (:func:`_pair_samples`); a float model walks its items once per delta.
    """
    if not model.continuity_flag:
        raise PreconditionError("the modulus requires a continuous model")
    schedule = list(deltas)
    if not schedule or not all(0 < d < math.inf for d in schedule):
        raise SpecFormatError("need one or more deltas, each positive and finite")
    if model.exact:  # float deltas are read exactly, as epsilon is
        samples = _pair_samples(model, sorted(_read_exactly(model, d) for d in schedule))
    else:
        # one walk of the items per delta: the sequential remaining -= width
        # sets the last bits
        samples = []
        items = _greedy_items(model)
        zero = model.zero
        for delta in sorted(schedule):
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
