"""Variation machinery: V_a^x(F), the variation function p, the Jordan
decomposition F = p - n, and the cellwise uniform approximant of p.

For models with a finite monotone segmentation the variation is exact: the
segment knots achieve the supremum over partitions, so lower and upper
bracket coincide.  Oscillating models fall back to dyadic refinement with
a declared stagnation tolerance and a hard cap.

p and n are assembled in O(segments + pieces): segments and expanded
pieces both tile [a, b] in order, so one two-pointer walk visits exactly
the pieces with ``piece.hi > seg.lo`` and ``piece.lo < seg.hi``.  Those are
the pairs whose clip ``[max(lo), min(hi)]`` is non-empty, so the walk emits
the same pieces, in the same order, as clipping every piece against every
segment would.  The walk runs in both arithmetic modes on the
segmentation's integer keys, the piece starts' against the knots'.

Only the map of each part depends on the mode.  A float model maps it
with :func:`make_transformed`.  A rational model maps each part's table
row on integers, with c as an integer pair, and p and n are tables that
share the parts' knots: the same classes, values and types, in their
views, as :func:`make_transformed` gives.  Both parts then check their
monotonicity, a rational model's on integer pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._num import locate_cell
from .errors import (
    InfiniteSegmentationError,
    NotBVError,
    PreconditionError,
    SpecFormatError,
    UnresolvedOscillationError,
)
from .model import (
    CONSTANT,
    DECREASING,
    INCREASING,
    FunctionModel,
    _checked_epsilon,
    _reduced,
    _Table,
    make_transformed,
)

DEFAULT_TOL = 1e-9
REFINEMENT_CAP = 1 << 20
JORDAN_VERIFY_POINTS = 256


def validate_partition(model: FunctionModel, points) -> tuple:
    pts = tuple(points)
    if len(pts) < 2:
        raise SpecFormatError("a partition needs at least two points")
    for x0, x1 in zip(pts, pts[1:]):
        if not x0 < x1:
            raise SpecFormatError("partition points must increase strictly")
    if pts[0] < model.a or pts[-1] > model.b:
        raise SpecFormatError("partition outside the model domain")
    return pts


def spanning_partition(model: FunctionModel, points) -> tuple:
    """A valid partition whose ends are a and b, as a base partition is."""
    pts = validate_partition(model, points)
    if pts[0] != model.a or pts[-1] != model.b:
        raise SpecFormatError("base partition must span [a, b]")
    return pts


def _swing_prefix(model: FunctionModel, values) -> list:
    """Running sums of |F(x_k) - F(x_{k-1})| over the values F(x_k),
    starting at zero."""
    prefix = [model.zero]
    for v0, v1 in zip(values, values[1:]):
        prefix.append(prefix[-1] + abs(v1 - v0))
    return prefix


def _cell_value(knots, prefix, values, x, fx):
    """prefix[i] + |F(x) - F(x_i)| on the cell holding x, given fx = F(x);
    the value of p and of u alike."""
    i = locate_cell(knots, x)
    return prefix[i] + abs(fx - values[i])


def partition_sum(model: FunctionModel, points):
    """Sum of |F(x_k) - F(x_{k-1})| over the partition; exact in rational mode."""
    points = validate_partition(model, points)
    return _swing_prefix(model, model.evaluate_many(points))[-1]


@dataclass(frozen=True)
class VariationEstimate:
    """Certified bracket for V_a^x(F) with the partition achieving ``lower``."""

    lower: object
    upper: object
    achieving_partition: tuple
    converged: bool
    refinement_trace: tuple


def total_variation(model: FunctionModel, x=None, tol=DEFAULT_TOL,
                    max_points: int = REFINEMENT_CAP) -> VariationEstimate:
    """Variation of the model from a to x (default b).

    Finite segmentation: exact, read from p's tables as ``p(x)`` with one
    evaluation of F at x; the achieving partition is ``a``, the segment
    knots below x, and x.  Otherwise: dyadic refinement until a full round
    gains at most ``tol``; past ``max_points`` an
    :class:`UnresolvedOscillationError` carries the partial lower bound.
    ``tol`` tunes only that refinement.
    """
    if x is None:
        x = model.b
    fx = model.evaluate(x)  # refuses a point outside [a, b]
    if x == model.a:
        zero = model.zero
        return VariationEstimate(zero, zero, (model.a,), True, ((1, zero),))
    try:
        pf = variation_function(model)
    except InfiniteSegmentationError as err:
        return _refine_variation(model, x, tol, err, max_points)
    pts = (model.a, *(k for k in pf.knots[1:] if k < x), x)
    value = pf.at(x, fx)
    return VariationEstimate(value, value, pts, True, ((len(pts), value),))


_MIN_REFINE_ROUNDS = 5


def _refine_variation(model, x, tol, cause, max_points) -> VariationEstimate:
    points = [model.a, x]
    value = partition_sum(model, points)
    trace = [(len(points), value)]
    stagnant = 0
    rounds = 0
    while True:
        refined = []
        for p0, p1 in zip(points, points[1:]):
            refined.append(p0)
            refined.append(p0 + (p1 - p0) / 2)
        refined.append(points[-1])
        points = refined
        rounds += 1
        new_value = partition_sum(model, points)
        trace.append((len(points), new_value))
        gain = new_value - value
        value = new_value
        # one flat round proves nothing (the first bisection of an
        # oscillation can gain exactly zero); demand confirmed stagnation
        stagnant = stagnant + 1 if gain <= tol else 0
        if stagnant >= 2 and rounds >= _MIN_REFINE_ROUNDS:
            return VariationEstimate(value, value + tol, tuple(points), True,
                                     tuple(trace))
        if len(points) > max_points:
            estimate = VariationEstimate(value, None, tuple(points), False,
                                         tuple(trace))
            raise UnresolvedOscillationError(
                f"variation refinement passed {max_points} points without "
                f"stagnating (last round gained {gain}); {cause}",
                lower_bound=value,
                estimate=estimate,
            )


class VariationFunction:
    """p(x) = V_a^x(F), memoized at segment knots; evaluation is
    O(log #segments) and exact whenever the model is.

    Its tables (knots, F at the knots, running swing sums) are immutable;
    one instance per model lives in the model's cache.  p and n as models
    are the :func:`jordan_decomposition`'s."""

    def __init__(self, model: FunctionModel):
        self.model = model
        segmentation = model.monotone_segments()  # raises if infinite
        self.knots = segmentation.knots()
        self.values = segmentation.values
        self.prefix = _swing_prefix(model, self.values)

    def __call__(self, x):
        return self.at(x, self.model.evaluate(x))

    def at(self, x, fx):
        """p(x) given fx = F(x), for callers that evaluated F in a batch."""
        return _cell_value(self.knots, self.prefix, self.values, x, fx)

    @property
    def total(self):
        return self.prefix[-1]

    @property
    def achieving_partition(self) -> tuple:
        """The segment knots, which achieve V_a^b: the partition
        ``total_variation(model).achieving_partition`` returns, led by the
        model's own ``a`` as that one is (a float Cantor twin's first knot
        is its expansion's ``Fraction(0)``, its ``a`` the float ``0.0``)."""
        return (self.model.a, *self.knots[1:])


_SIGN = {INCREASING: 1, DECREASING: -1, CONSTANT: 0}


def _monotone_envelope_models(pf: VariationFunction) -> tuple:
    """Assemble p and n = p - F as models.

    Within a segment of direction sign s, p(x) = c + s*F(x) with
    c = prefix - s*F(segment start); n replaces s by s - 1.
    """
    model = pf.model
    segmentation = model.monotone_segments()
    signs = [_SIGN[seg.direction] for seg in segmentation]
    parts = _envelope_parts(model, segmentation)
    if model.exact:
        offsets = [_pair_offset(prefix, value, s)
                   for prefix, value, s in zip(pf.prefix, pf.values, signs)]
        built = _pair_envelope_tables(model, parts, signs, offsets)
    else:
        expanded = model._expanded
        offsets = [prefix - s * value for prefix, value, s in zip(pf.prefix, pf.values, signs)]
        built = ([make_transformed(expanded[i], signs[k] - shift, 0, offsets[k], lo, hi)
                  for i, lo, hi, k in zip(*parts)] for shift in (0, 1))
    base = model.name or "F"
    return tuple(FunctionModel(pieces, arithmetic=model.arithmetic, tol=model.tol,
                               name=f"{suffix}[{base}]")
                 for suffix, pieces in zip(("p", "n"), built))


def _envelope_parts(model: FunctionModel, segmentation) -> tuple:
    """The walk over segments and pieces: for each part, in order, the
    piece's index, the part's ends and its segment's index, as four lists.
    A part is ``[max(piece.lo, seg.lo), min(piece.hi, seg.hi)]``, keeping
    the piece's own end on a tie, as max and min do."""
    starts, keys = segmentation.starts, segmentation.keys
    # piece i ends where piece i + 1 starts, the last one at b
    ends = (*starts[1:], keys[-1])
    piece_los, piece_his = model._starts, model._knots
    index, los, his, segs = [], [], [], []
    i = 0
    for k, seg in enumerate(segmentation):
        k_lo, k_hi = keys[k], keys[k + 1]
        # both tile [a, b] in order, so i only moves forward: it skips the
        # pieces that end by the segment's start, and the walk stops at the
        # first piece that ends at or past the segment's end
        while ends[i] <= k_lo:
            i += 1
        while True:
            end = ends[i]
            index.append(i)
            los.append(piece_los[i] if starts[i] >= k_lo else seg.lo)
            his.append(piece_his[i + 1] if end <= k_hi else seg.hi)
            segs.append(k)
            if end >= k_hi:
                break
            i += 1
    return index, los, his, segs


def _pair_offset(prefix, value, s) -> tuple:
    """c = prefix - s * value as an integer pair ``(c_num, c_den)``, and as
    a Fraction where the part whose scale is 0 needs it (s >= 0)."""
    r_num, r_den = prefix.as_integer_ratio()
    v_num, v_den = value.as_integer_ratio()
    c_num, c_den = r_num * v_den - s * v_num * r_den, r_den * v_den
    return c_num, c_den, Fraction(c_num, c_den) if s >= 0 else None


def _pair_envelope_tables(model: FunctionModel, parts, signs, offsets) -> tuple:
    """p's and n's tables, which share the parts' ends: each part maps its
    piece's row as ``make_transformed(piece, scale, 0, c, lo, hi)`` would,
    with scale s for p and s - 1 for n (:func:`_pair_row`)."""
    index, los, his, segs = parts
    source = model._source
    coeffs, consts, forms = source.coeffs, source.consts, source.forms
    pairs = [lo.as_integer_ratio() for lo in los]
    num, den = [n for n, _ in pairs], [d for _, d in pairs]
    knots = [los[0], *his]
    b = his[-1].as_integer_ratio()
    tables = []
    for shift in (0, 1):
        rows = zip(*[_pair_row(coeffs[i], consts[i], forms[i], signs[k] - shift, offsets[k])
                     for i, k in zip(index, segs)])
        tables.append(_Table(los, knots, num, den, b, *map(list, rows)))
    return tables


def _pair_row(co, const, form, scale, c) -> tuple:
    """``(coeffs, const, form)`` of ``make_transformed(piece, scale, 0,
    c_frac)`` for a table's row ``co``/``const``, where ``c = (c_num,
    c_den, c_frac)`` (:func:`_pair_offset`): c_frac itself at scale 0, a
    constant as one Fraction from integers, and a linear row's slope
    ``scale * A/B`` and intercept ``c + scale * C/B``, each reduced, of
    the types the transform gives."""
    c_num, c_den, c_frac = c
    if scale == 0:
        return None, c_frac, None
    if co is None:
        k_num, k_den = const.as_integer_ratio()
        return None, Fraction(c_num * k_den + scale * k_num * c_den, c_den * k_den), None
    slope_num, icpt_num, den, _ = co
    a, d = _reduced(scale * slope_num, den)
    c0, e = _reduced(c_num * den + scale * icpt_num * c_den, c_den * den)
    return (a * e, c0 * d, d * e, False), None, (form[0], Fraction)


def variation_function(model: FunctionModel) -> VariationFunction:
    return model.cached("variation_function", lambda: VariationFunction(model))


@dataclass(frozen=True)
class Decomposition:
    """Jordan decomposition F = p - n with p(a) = 0 and p, n non-decreasing."""

    p: FunctionModel
    n: FunctionModel
    source: FunctionModel
    p_function: VariationFunction


def jordan_decomposition(model: FunctionModel) -> Decomposition:
    """Build p = V_a^x(F) and n = p - F as models and verify both are
    non-decreasing on ``model.verification_grid(JORDAN_VERIFY_POINTS)``.

    The pair is built once per model, under the model's cache; its
    ``p_function`` is the cached :func:`variation_function`.  Raises
    :class:`NotBVError` when the variation does not resolve and
    :class:`PreconditionError` on a discontinuous model.
    """
    if not model.continuity_flag:
        raise PreconditionError("Jordan decomposition requires a continuous model")

    def build() -> Decomposition:
        try:
            pf = variation_function(model)
        except (InfiniteSegmentationError, UnresolvedOscillationError) as err:
            raise NotBVError(f"model is not of resolvable bounded variation: {err}") \
                from err
        p_model, n_model = _monotone_envelope_models(pf)
        grid = model.verification_grid(JORDAN_VERIFY_POINTS)
        if model.exact:
            # grace is 0: a fall is v1 < v0 on integer pairs
            p_values = p_model._pair_many(grid, pairs=True)
            n_values = n_model._pair_many(grid, pairs=True)

            def falls(v0, v1):
                return v1[0] * v0[1] < v0[0] * v1[1]
        else:
            p_values = p_model.evaluate_many(grid)
            n_values = n_model.evaluate_many(grid)
            grace = model.grace

            def falls(v0, v1):
                return v1 - v0 < -grace
        for g0, g1, p0, p1, n0, n1 in zip(grid, grid[1:], p_values, p_values[1:],
                                          n_values, n_values[1:]):
            if falls(p0, p1):
                raise NotBVError(f"p not non-decreasing between {g0} and {g1}")
            if falls(n0, n1):
                raise NotBVError(f"n not non-decreasing between {g0} and {g1}")
        return Decomposition(p_model, n_model, model, pf)

    return model.cached("jordan", build)


class UniformApprox:
    """Cellwise approximant u of p built from a near-achieving partition.

    On the cell [x_{i-1}, x_i] the value is the partition sum of the points
    up to x_{i-1} plus |F(x) - F(x_{i-1})|; the cells paste continuously
    (shared knots are evaluated via the left cell and agree by
    construction).  The defect p - u lies in [0, epsilon) whenever the base
    partition is epsilon-achieving; on the segment-knot partition it is 0.
    """

    def __init__(self, model: FunctionModel, epsilon, base_partition,
                 prefix, base_values, p_function: VariationFunction):
        self.model = model
        self.epsilon = epsilon
        self.base_partition = base_partition
        self.prefix = prefix
        self.base_values = base_values
        self.p_function = p_function

    def evaluate(self, x):
        return _cell_value(self.base_partition, self.prefix, self.base_values, x,
                           self.model.evaluate(x))

    __call__ = evaluate

    def gap(self, x):
        """p(x) - u(x); non-negative and below epsilon by construction."""
        return self.p_function(x) - self.evaluate(x)


def uniform_approx(model: FunctionModel, epsilon, base_partition=None,
                   verify_points: int = 1024) -> UniformApprox:
    """Approximant u on a partition P with V_a^b(F) - |F(P)| < epsilon.

    Default P is the segment-knot partition, which achieves the supremum
    exactly for finite segmentations (one P serves every epsilon).  Then u
    is p itself: its partition, values and running sums are p's own tables,
    so p - u vanishes at every x; verification checks that the tables
    agree.  A custom epsilon-achieving partition may be supplied; validity
    is checked, and the bracket 0 <= p - u < epsilon is asserted on the
    verification grid.  ``verify_points=0`` skips verification.
    """
    epsilon = _checked_epsilon(model, epsilon)
    if not model.continuity_flag:
        raise PreconditionError("uniform approximation requires continuity")
    pf = variation_function(model)
    if base_partition is None:
        # copies, so a caller editing u's tables cannot reach the cached p
        base = pf.achieving_partition
        base_values = list(pf.values)
        prefix = list(pf.prefix)
    else:
        base = spanning_partition(model, base_partition)
        base_values = model.evaluate_many(base)
        prefix = _swing_prefix(model, base_values)
    defect = pf.total - prefix[-1]
    if not defect < epsilon:
        raise PreconditionError(
            f"partition misses the variation by {defect}, not below {epsilon}")
    approx = UniformApprox(model, epsilon, base, prefix, base_values, pf)
    if not verify_points:
        return approx
    if base_partition is None:
        # p and u both evaluate _cell_value, so equal tables give p - u = 0
        # at every x, not only on a grid
        if not (list(base) == pf.knots and base_values == list(pf.values)
                and prefix == pf.prefix):
            raise PreconditionError("approximant tables differ from p's")
        return approx
    grid = model.verification_grid(verify_points)
    grace = model.grace
    for x, fx in zip(grid, model.evaluate_many(grid)):
        # approx.gap(x), with F evaluated once over the sorted grid
        g = pf.at(x, fx) - _cell_value(base, prefix, base_values, x, fx)
        if g < -grace or not g < epsilon:
            raise PreconditionError(
                f"approximant defect {g} at {x} escapes [0, {epsilon})")
    return approx
