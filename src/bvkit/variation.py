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
segment would.
"""

from __future__ import annotations

import threading
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
    make_transformed,
    _sorted_unique,
)

DEFAULT_TOL = 1e-9
REFINEMENT_CAP = 1 << 20


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


def _swing_prefix(model: FunctionModel, values) -> list:
    """Running sums of |F(x_k) - F(x_{k-1})| over the values F(x_k),
    starting at zero."""
    prefix = [Fraction(0) if model.exact else 0.0]
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

    Finite segmentation: exact, with the achieving partition being the
    segment knots clipped to [a, x].  Otherwise: dyadic refinement until a
    full round gains at most ``tol``; past ``max_points`` an
    :class:`UnresolvedOscillationError` carries the partial lower bound.
    """
    if x is None:
        x = model.b
    if x < model.a or x > model.b:
        raise SpecFormatError(f"{x} outside [{model.a}, {model.b}]")
    if x == model.a:
        zero = Fraction(0) if model.exact else 0.0
        return VariationEstimate(zero, zero, (model.a,), True, ((1, zero),))
    try:
        segmentation = model.monotone_segments()
    except InfiniteSegmentationError as err:
        return _refine_variation(model, x, tol, err, max_points)
    knots = [model.a]
    for seg in segmentation:
        if seg.hi < x:
            knots.append(seg.hi)
    knots.append(x)
    pts = tuple(_sorted_unique(knots))
    value = partition_sum(model, pts) if len(pts) >= 2 else (
        Fraction(0) if model.exact else 0.0)
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
    O(log #segments) and exact whenever the model is."""

    def __init__(self, model: FunctionModel, tol=DEFAULT_TOL):
        self.model = model
        self.tol = tol
        segmentation = model.monotone_segments()  # raises if infinite
        self.knots = segmentation.knots()
        self.values = segmentation.values
        self.prefix = _swing_prefix(model, self.values)
        self._lock = threading.Lock()
        self._models = None

    def __call__(self, x):
        if x < self.model.a or x > self.model.b:
            raise SpecFormatError(f"{x} outside [{self.model.a}, {self.model.b}]")
        return self.at(x, self.model.evaluate(x))

    def at(self, x, fx):
        """p(x) given fx = F(x), for callers that evaluated F in a batch."""
        return _cell_value(self.knots, self.prefix, self.values, x, fx)

    @property
    def total(self):
        return self.prefix[-1]

    def as_model(self) -> FunctionModel:
        """p as a first-class model (non-decreasing by construction)."""
        return self.envelope_models()[0]

    def envelope_models(self) -> tuple:
        """(p, n) as models, built together on first use."""
        with self._lock:
            if self._models is None:
                self._models = _monotone_envelope_models(self)
            return self._models


_SIGN = {INCREASING: 1, DECREASING: -1, CONSTANT: 0}


def _monotone_envelope_models(pf: VariationFunction) -> tuple:
    """Assemble p and n = p - F as models.

    Within a segment of direction sign s, p(x) = c + s*F(x) with
    c = prefix - s*F(segment start); n replaces s by s - 1.
    """
    model = pf.model
    expanded = model._expanded
    p_pieces, n_pieces = [], []
    j = 0
    for idx, seg in enumerate(model.monotone_segments()):
        s = _SIGN[seg.direction]
        c = pf.prefix[idx] - s * pf.values[idx]
        # both tile [a, b] in order, so j only moves forward
        while expanded[j].hi <= seg.lo:
            j += 1
        k = j
        while k < len(expanded) and expanded[k].lo < seg.hi:
            piece = expanded[k]
            lo, hi = max(piece.lo, seg.lo), min(piece.hi, seg.hi)
            p_pieces.append(make_transformed(piece, s, 0, c, lo, hi))
            n_pieces.append(make_transformed(piece, s - 1, 0, c, lo, hi))
            k += 1
    base = model.name or "F"
    return tuple(FunctionModel(pieces, arithmetic=model.arithmetic, tol=model.tol,
                               name=f"{suffix}[{base}]")
                 for suffix, pieces in (("p", p_pieces), ("n", n_pieces)))


def variation_function(model: FunctionModel, tol=DEFAULT_TOL) -> VariationFunction:
    return model.cached(("variation_function", tol),
                        lambda: VariationFunction(model, tol))


@dataclass(frozen=True)
class Decomposition:
    """Jordan decomposition F = p - n with p(a) = 0 and p, n non-decreasing."""

    p: FunctionModel
    n: FunctionModel
    source: FunctionModel
    p_function: VariationFunction


def jordan_decomposition(model: FunctionModel, tol=DEFAULT_TOL,
                         verify_points: int = 256) -> Decomposition:
    """Build p = V_a^x(F) and n = p - F and verify both are non-decreasing.

    Raises :class:`NotBVError` when the variation does not resolve and
    :class:`PreconditionError` on a discontinuous model.
    """
    if not model.continuity_flag:
        raise PreconditionError("Jordan decomposition requires a continuous model")

    def build() -> Decomposition:
        try:
            pf = variation_function(model, tol)
        except (InfiniteSegmentationError, UnresolvedOscillationError) as err:
            raise NotBVError(f"model is not of resolvable bounded variation: {err}") \
                from err
        p_model, n_model = pf.envelope_models()
        grid = model.verification_grid(verify_points)
        p_values = p_model.evaluate_many(grid)
        n_values = n_model.evaluate_many(grid)
        grace = 0 if model.exact else 10 * model.tol
        for g0, g1, p0, p1, n0, n1 in zip(grid, grid[1:], p_values, p_values[1:],
                                          n_values, n_values[1:]):
            if p1 - p0 < -grace:
                raise NotBVError(f"p not non-decreasing between {g0} and {g1}")
            if n1 - n0 < -grace:
                raise NotBVError(f"n not non-decreasing between {g0} and {g1}")
        return Decomposition(p_model, n_model, model, pf)

    return model.cached(("jordan", tol), build)


class UniformApprox:
    """Cellwise approximant u of p built from a near-achieving partition.

    On the cell [x_{i-1}, x_i] the value is the partition sum of the points
    up to x_{i-1} plus |F(x) - F(x_{i-1})|; the cells paste continuously
    (shared knots are evaluated via the left cell and agree by
    construction).  The defect p - u lies in [0, epsilon) on the
    verification grid whenever the base partition is epsilon-achieving.
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
        if x < self.model.a or x > self.model.b:
            raise SpecFormatError(f"{x} outside [{self.model.a}, {self.model.b}]")
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
    exactly for finite segmentations (one P serves every epsilon).  A
    custom epsilon-achieving partition may be supplied; validity is
    checked.  The bracket 0 <= p - u < epsilon is asserted on the
    verification grid before returning.
    """
    if epsilon <= 0:
        raise SpecFormatError("epsilon must be positive")
    if not model.continuity_flag:
        raise PreconditionError("uniform approximation requires continuity")
    pf = variation_function(model)
    if base_partition is None:
        estimate = total_variation(model, model.b)
        base = estimate.achieving_partition
    else:
        base = validate_partition(model, base_partition)
        if base[0] != model.a or base[-1] != model.b:
            raise SpecFormatError("base partition must span [a, b]")
    base_values = model.evaluate_many(base)
    prefix = _swing_prefix(model, base_values)
    defect = pf.total - prefix[-1]
    if not defect < epsilon:
        raise PreconditionError(
            f"partition misses the variation by {defect}, not below {epsilon}")
    approx = UniformApprox(model, epsilon, base, prefix, base_values, pf)
    if verify_points:
        grid = model.verification_grid(verify_points)
        grace = 0 if model.exact else 10 * model.tol
        for x, fx in zip(grid, model.evaluate_many(grid)):
            # approx.gap(x), with F evaluated once over the sorted grid
            g = pf.at(x, fx) - _cell_value(base, prefix, base_values, x, fx)
            if g < -grace or not g < epsilon:
                raise PreconditionError(
                    f"approximant defect {g} at {x} escapes [0, {epsilon})")
    return approx
