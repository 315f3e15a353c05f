"""Image measures, open covers with slack budgets, and Lusin probes.

Everything here is exact for finite-segmentation models: the image of an
interval set is assembled monotone segment by monotone segment, so its
measure carries no quadrature error.  On a continuous monotone rational
model the image measure needs no image set: it is a sum of endpoint
differences, one per component.  Null sets are represented by
shrinking families (measure -> 0), and Lusin verdicts are one-sided by
construction: failure is conclusive, passage holds "at resolution".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._num import cantor_starts, exact_steps, frac
from .errors import PreconditionError, SpecFormatError
from .intervals import Interval, IntervalSet
from .model import CONSTANT, DECREASING, INCREASING, FunctionModel


def measure(E: IntervalSet):
    """Total length of the interval set (the Lebesgue measure)."""
    return E.measure


def image_set(model: FunctionModel, E: IntervalSet) -> IntervalSet:
    """F(E) as an interval set, exact per monotone segment.

    Each component of E is clipped to the monotone segments it meets; a
    monotone segment maps a clipped component to one interval whose
    endpoint flags mirror the component's (strict monotonicity inside a
    non-constant segment keeps openness), and constant segments map to
    single points.  The parts are found by :func:`_segment_parts`.
    """
    if not model.continuity_flag:
        raise PreconditionError("image computation requires a continuous model")
    parts = _segment_parts(model.monotone_segments(), E.clip(model.a, model.b).components)
    # the parts run left to right, so their ends take one sorted sweep
    ends = model.evaluate_many([e for part, _ in parts for e in (part.lo, part.hi)])
    return part_images(parts, ends)


def part_images(parts, ends) -> IntervalSet:
    """The union of the images of ``(part, direction)`` pairs, given F at
    each part's two ends in ``ends``.  Parts that all rise map in order,
    and parts that all fall in reverse order: when the images then come
    out separated, the set takes them with no sort or merge."""
    pieces = []
    falling = True
    for (part, direction), flo, fhi in zip(parts, ends[::2], ends[1::2]):
        if direction == CONSTANT:
            pieces.append(Interval(flo, flo))
            falling = False
        elif direction == INCREASING:
            pieces.append(Interval(flo, fhi, part.lo_open, part.hi_open))
            falling = False
        else:
            pieces.append(Interval(fhi, flo, part.hi_open, part.lo_open))
    if falling:
        pieces.reverse()
    return IntervalSet.ordered(pieces)


def _segment_parts(segmentation, comps) -> list:
    """``(part, direction)`` for each component against each segment it
    meets: the part is ``comp.intersect(Interval(seg.lo, seg.hi))``, its
    endpoint objects and flags kept.  The sorted, disjoint components move
    one segment pointer forward only, comparing the segmentation's keys
    (see :meth:`MonotoneSegmentation.key`)."""
    keys, key = segmentation.keys, segmentation.key
    segments = segmentation.segments
    count = len(segments)
    parts = []
    i = 0
    for comp in comps:
        lo, hi = comp.lo, comp.hi
        k_lo, k_hi = key(lo), key(hi)
        # the first segment is the last one to start before lo, as window's is
        while i + 1 < count and keys[i + 1] < k_lo:
            i += 1
        point = lo == hi
        k = i
        while k < count and keys[k] <= k_hi:
            # on a tie the component's end object and flag stay
            seg = segments[k]
            if keys[k] > k_lo:
                p_lo, lo_open = seg.lo, False
            else:
                p_lo, lo_open = lo, comp.lo_open
            if keys[k + 1] < k_hi:
                p_hi, hi_open = seg.hi, False
            else:
                p_hi, hi_open = hi, comp.hi_open
            # a segment that only touches a longer component adds the image
            # of one end, which the neighbouring part's image holds
            if point or not (keys[k] == k_hi or keys[k + 1] == k_lo):
                parts.append((Interval(p_lo, p_hi, lo_open, hi_open), seg.direction))
            k += 1
    return parts


def _sums_endpoints(model: FunctionModel) -> bool:
    """Whether lambda(F(E)) may be taken as a sum of |F(hi) - F(lo)|.

    That holds for a continuous monotone F: the images of disjoint
    components overlap in at most one point.  Rational models only, whose
    segment directions are exact (a float sum drifts from the merged image
    by ulps), and of those only the ones whose every value is a Fraction,
    so the sum has the type the merged image set's measure has.
    """
    def build():
        if not (model.continuity_flag and model.fraction_valued):
            return False
        directions = {seg.direction for seg in model.monotone_segments()}
        return not (INCREASING in directions and DECREASING in directions)

    return model.cached("image_endpoint_sums", build)


def image_measure(model: FunctionModel, E: IntervalSet):
    """lambda(F(E)): the image measure of E under the model.

    On a rational, continuous model with no decreasing segment (or no
    increasing one) the image of a component ``[lo, hi]`` is the interval
    between F(lo) and F(hi), so the measure is the sum of |F(hi) - F(lo)|
    over the components of E inside the domain, with F taken in one sorted
    sweep.  Every other model measures :func:`image_set`.
    """
    if not _sums_endpoints(model):
        return image_set(model, E).measure
    ends = [e for comp in E.clip(model.a, model.b) for e in (comp.lo, comp.hi)]
    values = model.evaluate_many(ends)
    return sum(abs(fhi - flo) for flo, fhi in zip(values[::2], values[1::2]))


def inflate(E: IntervalSet, slack) -> IntervalSet:
    """Disjoint open cover of E with measure < measure(E) + slack.

    The slack is distributed proportionally to component lengths with a
    floor of slack/(4m) per component (m components), so point components
    still receive open neighbourhoods; at most 3/4 of the slack is ever
    spent, keeping the budget strict.
    """
    if not slack > 0:
        raise SpecFormatError("slack must be positive")
    if E.is_empty:
        return IntervalSet.empty()
    m = len(E.components)
    total = E.measure
    floor = slack / (4 * m)
    spread = total > 0
    out = []
    for comp in E:
        # a component of a set is never empty: its length is hi - lo
        share = slack * (comp.hi - comp.lo) / total if spread else 0
        amount = max(share / 2, floor)
        half = amount / 2
        out.append(Interval(comp.lo - half, comp.hi + half, True, True))
    # E's components are in order, so the cover is too, unless two overlap
    return IntervalSet.ordered(out)


def cover_image(model: FunctionModel, E: IntervalSet, slack) -> IntervalSet:
    """Disjoint open intervals covering F(E) within the slack budget."""
    return inflate(image_set(model, E), slack)


def split_cover_at(cover: IntervalSet, values) -> IntervalSet:
    """Exclude the given points from the cover, splitting any interval that
    strictly contains one; total measure is unchanged.

    One walk over the sorted components: each point a component contains
    ends the part before it, open, and starts the part after it, open, as
    ``cover.difference`` of the points would; of equal points the first is
    the one kept."""
    points = []
    # stable, so the first of equal values leads; a NaN is no point
    for v in sorted(v for v in values if v == v):
        if not points or points[-1] != v:
            points.append(v)
    out = []
    for comp in cover:
        for v in points:
            if comp.contains(v):
                left = Interval(comp.lo, v, comp.lo_open, True)
                if not left.empty:
                    out.append(left)
                comp = Interval(v, comp.hi, True, comp.hi_open)
        if not comp.empty:
            out.append(comp)
    return IntervalSet._normal(out)


# ---------------------------------------------------------------------------
# shrinking null-set families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullSetFamily:
    """Finite stand-in for a null set: levels with measure strictly -> 0.

    kinds:
      * ``cantor_levels``: the 2^j middle-third intervals of length 3^-j,
        scaled affinely into the domain;
      * ``shrinking_uniform``: ``count`` equal slots, each holding a closed
        interval shrinking geometrically at ``rate`` (count=1 anchors the
        single interval at the left endpoint);
      * ``custom``: an explicit tuple of interval sets.
    """

    kind: str
    domain: tuple
    count: int = 1
    rate: Fraction = Fraction(1, 2)
    levels: tuple = ()

    def __post_init__(self):
        if self.kind not in ("cantor_levels", "shrinking_uniform", "custom"):
            raise SpecFormatError(f"unknown family kind {self.kind!r}")
        if self.kind == "shrinking_uniform":
            r = frac(self.rate)
            if not 0 < r < 1:
                raise SpecFormatError("rate must lie in (0, 1)")
            if type(self.count) is not int or self.count < 1:  # a bool is no count
                raise SpecFormatError(f"count must be an int >= 1; got {self.count!r}")

    def component_count(self, j: int) -> int:
        """Number of intervals at level j, without building them."""
        if self.kind == "cantor_levels":
            return 2 ** j
        if self.kind == "shrinking_uniform":
            return self.count
        return len(self.levels[j - 1]) if j <= len(self.levels) else 0

    def level(self, j: int) -> IntervalSet:
        """The interval set of level j (from 1).

        An exact domain (ints, Fractions or rational strings) gives
        Fraction ends from :func:`exact_steps`, each one ``Fraction(num,
        den)`` from integers: steps over ``3^j`` for the Cantor levels and
        over ``count * v^j`` for the shrinking slots at rate ``u/v``.  A
        float end makes the domain float, and the ends are float
        expressions in the domain."""
        if j < 1:
            raise SpecFormatError("family levels start at 1")
        a, b = self.domain
        exact = not (isinstance(a, float) or isinstance(b, float))
        if exact:
            a, b = frac(a), frac(b)
        if self.kind == "custom":
            if j > len(self.levels):
                raise SpecFormatError(f"custom family has only {len(self.levels)} levels")
            return self.levels[j - 1]
        if not exact:
            if self.kind == "cantor_levels":
                span, den = b - a, 3 ** j
                return IntervalSet(Interval(a + (s / den) * span, a + ((s + 1) / den) * span)
                                   for s in cantor_starts(j))
            w = (b - a) / self.count
            ratio = float(frac(self.rate) ** j)
            return IntervalSet(
                Interval(a + i * w, a + i * w + ratio * w) for i in range(self.count)
            )
        if self.kind == "cantor_levels":
            # [a + s*(b - a)/3^j, a + (s + 1)*(b - a)/3^j]
            m, ks = 3 ** j, [k for s in cantor_starts(j) for k in (s, s + 1)]
        else:
            # slot i is a + i*w to that plus ratio*w, with w = (b - a)/count
            # and ratio = (u/v)^j: steps i*v^j and i*v^j + u^j of count*v^j
            u, v = frac(self.rate).as_integer_ratio()
            u, v = u ** j, v ** j
            m, ks = self.count * v, [k for i in range(self.count) for k in (i * v, i * v + u)]
        ends = exact_steps(a, b, m, ks)
        return IntervalSet(Interval(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]))


def cantor_family(domain=(0, 1)) -> NullSetFamily:
    return NullSetFamily("cantor_levels", tuple(domain))


def shrinking_family(domain=(0, 1), count=1, rate=Fraction(1, 2)) -> NullSetFamily:
    return NullSetFamily("shrinking_uniform", tuple(domain), count=count, rate=rate)


# ---------------------------------------------------------------------------
# Lusin probe
# ---------------------------------------------------------------------------


PASSES = "passes_at_resolution"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LusinReport:
    """Tabulated (level, set measure, image measure) rows with a verdict.

    ``fails`` means every computed image measure stayed at or above the
    threshold while the set measures shrank: conclusive evidence against
    the null-to-null property at this resolution.  ``passes_at_resolution``
    requires the image measures to visibly decay; anything else is
    inconclusive (a legitimate outcome, not an error).
    """

    levels: tuple
    verdict: str
    threshold: object


def lusin_probe(model: FunctionModel, family: NullSetFamily, max_level: int,
                threshold=Fraction(1, 2)) -> LusinReport:
    if max_level < 1:
        raise SpecFormatError("max_level must be >= 1")
    if not threshold > 0:  # every image measure reaches it, so every model fails
        raise SpecFormatError(f"threshold must be positive; got {threshold}")
    rows = []
    prev = None
    for j in range(1, max_level + 1):
        nj = family.level(j)
        mu = nj.measure
        if prev is not None and not mu < prev:
            raise PreconditionError(
                f"family measures must decrease strictly (level {j}: {mu} vs {prev})")
        prev = mu
        rows.append((j, mu, image_measure(model, nj)))
    images = [row[2] for row in rows]
    if all(img >= threshold for img in images):
        verdict = FAILS
    elif images[-1] == 0 or (images[-1] < threshold
                             and 2 * images[-1] <= images[0]):
        verdict = PASSES
    else:
        verdict = INCONCLUSIVE
    return LusinReport(tuple(rows), verdict, threshold)
