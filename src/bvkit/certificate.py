"""Budgeted certificates: numeric replays of the two hard arguments behind
density recovery for continuous BV functions.

``shift_certificate`` certifies that the strictly-increasing companion
G = F + x maps a small set to a small set when F is non-decreasing: the
set is split across the plateaus of F (where G translates, preserving
measure) and the remainder is squeezed between an open cover of itself
and an open cover of its image, closing the ledger below 2*eps.

``variation_certificate`` certifies that a set with a small image under F
has a small image under the variation function p (and under n = p - F):
cell by cell over a near-achieving partition it builds a disjoint open
cover of the image, pulls every cover interval back to open components,
classifies the cover into the bands beyond / between the cell endpoint
values, and closes the inequality ledger with budget 5*eps for p and
9*eps for n.  Every recorded inequality is checked with exact arithmetic
in rational mode.

Both walk their inputs forward.  The cells come from one walk of the
partition, the segmentation and N's components on the segmentation's
integer keys, and a cell that is one monotone segment (every cell of the
default partition) works on that segment alone (see :func:`_cell_record`).
The shift certificate pulls each cover interval back only on the segments
that F's running extremes allow (see :func:`_cover_preimage`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from types import SimpleNamespace

from .errors import CertificateFailure, PreconditionError
from .intervals import Interval, IntervalSet
from .measure import (
    FAILS,
    NullSetFamily,
    _sums_endpoints,
    image_measure,
    image_set,
    inflate,
    lusin_probe,
    part_images,
    split_cover_at,
)
from .model import (
    CONSTANT,
    DECREASING,
    FunctionModel,
    _checked_epsilon,
    _read_exactly,
    _sorted_unique,
)
from .variation import jordan_decomposition, partition_sum, spanning_partition

PLUS = "plus"
MINUS = "minus"
MID = "mid"
FLAT_BAND = "flat"

FLAT_CELL = "equal_endpoint"
ORDERED_CELL = "ordered"


@dataclass(frozen=True)
class LedgerEntry:
    """One checked inequality: lhs < rhs (strict) or lhs <= rhs."""

    name: str
    lhs: object
    rhs: object
    strict: bool = True

    def holds(self, grace=0) -> bool:
        if self.strict:
            return self.lhs < self.rhs
        return self.lhs <= self.rhs + grace

    @property
    def margin(self):
        return self.rhs - self.lhs


def _clipped(model: FunctionModel, N: IntervalSet) -> IntervalSet:
    """N inside [a, b]; on a rational model each float end read exactly."""
    N = N.clip(model.a, model.b)
    if model.exact and any(isinstance(e, float) for iv in N for e in (iv.lo, iv.hi)):
        N = IntervalSet(Interval(_read_exactly(model, iv.lo), _read_exactly(model, iv.hi),
                                 iv.lo_open, iv.hi_open) for iv in N)
    return N


def _check(entries, grace, context) -> None:
    for entry in entries:
        if not entry.holds(grace if not entry.strict else 0):
            raise CertificateFailure(
                f"{context}: ledger entry {entry.name!r} failed: "
                f"{entry.lhs} vs {entry.rhs}",
                detail={"context": context, "entry": entry},
            )


# ---------------------------------------------------------------------------
# shift certificate (non-decreasing F, G = F + x)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftTrace:
    """Full record of the plateau-split shift argument."""

    epsilon: object
    plateaus: tuple            # (Interval, value) pairs
    n1: IntervalSet
    n2: IntervalSet
    image_cover: IntervalSet   # open cover of F(N2), measure < eps
    set_cover: IntervalSet     # open cover of N2, measure < eps
    open_core: IntervalSet     # set_cover ∩ F^{-1}(image_cover)
    trimmed: tuple             # components after plateau trimming
    images: tuple              # their image intervals, pairwise disjoint
    g_n1_measure: object
    g_n2_measure: object
    shift_bound: object        # sum of component + image lengths, < 2 eps
    ledger: tuple

    @property
    def ok(self) -> bool:
        return all(e.holds() or not e.strict for e in self.ledger)


def plateau_intervals(model: FunctionModel) -> list:
    """Maximal constancy intervals with their values, as closed intervals."""
    segmentation = model.monotone_segments()
    return [(Interval(seg.lo, seg.hi), value)
            for seg, value in zip(segmentation, segmentation.values)
            if seg.direction == CONSTANT]


def shift_certificate(model: FunctionModel, N: IntervalSet, epsilon,
                      family: NullSetFamily | None = None,
                      probe_levels: int = 6) -> ShiftTrace:
    """Certify that G = F + x keeps the image of N small.

    Preconditions: model continuous and non-decreasing with finite
    segmentation; measure(N) < epsilon; the image of the off-plateau part
    of N must leave room for an open cover inside the epsilon budget.  A
    family may be supplied to insist the model probes clean on it first
    (at ``probe_levels`` resolution).  A rational model reads a float
    epsilon and the float ends of N exactly.
    """
    epsilon = _checked_epsilon(model, epsilon)
    if not model.continuity_flag:
        raise PreconditionError("shift certificate requires a continuous model")
    if not model.is_nondecreasing():
        raise PreconditionError("shift certificate requires a non-decreasing model")
    if family is not None:
        if lusin_probe(model, family, probe_levels).verdict == FAILS:
            raise PreconditionError("model fails its null-family probe")
    N = _clipped(model, N)
    if not N.measure < epsilon:
        raise PreconditionError(
            f"measure(N) = {N.measure} is not below epsilon = {epsilon}")

    plateaus = plateau_intervals(model)
    plateau_set = IntervalSet(iv for iv, _ in plateaus)
    n1 = N.intersect(plateau_set)
    n2 = N.difference(n1)
    shifted = model.shift_add_identity()

    g_n1 = image_measure(shifted, n1)
    ledger = [LedgerEntry("plateau_translation", g_n1, n1.measure, strict=False)]

    if n2.is_empty:
        u = u_prime = core = IntervalSet.empty()
        trimmed: tuple = ()
        images: tuple = ()
        g_n2 = model.zero
        bound = g_n2
        ledger.append(LedgerEntry("shift_cover_budget", bound, 2 * epsilon))
    else:
        img = image_set(model, n2)
        if not img.measure < epsilon:
            raise PreconditionError(
                f"image measure {img.measure} leaves no cover slack below {epsilon}")
        u = inflate(img, epsilon - img.measure)
        u_prime = inflate(n2, epsilon - n2.measure)
        core = u_prime.intersect(_cover_preimage(model, u))

        # the plateaus are disjoint and in order: at most one holds each end
        plateau_ivs = [iv for iv, _ in plateaus]
        plateau_starts = [iv.lo for iv in plateau_ivs]
        trimmed_list = []
        for comp in core:
            held = set()
            for x in (comp.lo, comp.hi):
                i = bisect_right(plateau_starts, x) - 1
                if i >= 0 and plateau_ivs[i].contains(x):
                    held.add(i)
            if not held:
                trimmed_list.append(comp)
                continue
            # one component, and closed plateaus that never touch
            cut = [plateau_ivs[i] for i in sorted(held)]
            rest = IntervalSet._normal((comp,)).difference(IntervalSet._normal(cut))
            trimmed_list.extend(rest.components)
        trimmed = tuple(trimmed_list)

        residual = n2.difference(IntervalSet.ordered(trimmed))
        if not residual.is_empty:
            raise CertificateFailure(
                "trimmed open core does not contain the off-plateau set",
                detail={"residual": residual})

        images, g_comps = _trimmed_images(model, shifted, trimmed)
        for left, right in zip(images, images[1:]):
            if not left.intersect(right).is_empty:
                raise CertificateFailure(
                    "image intervals of trimmed components are not disjoint",
                    detail={"left": left, "right": right})

        comp_total = sum(c.hi - c.lo for c in trimmed)
        img_total = sum(j.measure for j in images)
        for k, (comp, jk, g_comp) in enumerate(zip(trimmed, images, g_comps)):
            ledger.append(LedgerEntry(f"shift_component_bound[{k}]", g_comp,
                                      comp.length + jk.measure, strict=False))
        g_n2 = image_measure(shifted, n2)
        bound = comp_total + img_total
        ledger.extend([
            LedgerEntry("image_cover_measure", u.measure, epsilon),
            LedgerEntry("set_cover_measure", u_prime.measure, epsilon),
            LedgerEntry("components_measure", comp_total, epsilon),
            LedgerEntry("images_measure", img_total, epsilon),
            LedgerEntry("shift_image_vs_components", g_n2, bound, strict=False),
            LedgerEntry("shift_cover_budget", bound, 2 * epsilon),
        ])

    trace = ShiftTrace(
        epsilon=epsilon, plateaus=tuple(plateaus), n1=n1, n2=n2,
        image_cover=u, set_cover=u_prime, open_core=core, trimmed=trimmed,
        images=images, g_n1_measure=g_n1, g_n2_measure=g_n2,
        shift_bound=bound, ledger=tuple(ledger),
    )
    _check(trace.ledger, model.grace, "shift certificate")
    return trace


def _cover_preimage(model: FunctionModel, cover: IntervalSet) -> IntervalSet:
    """F^{-1} of the sorted open cover, for a non-decreasing F: each cover
    interval (c, d) is pulled back on the segments between the last knot
    whose running maximum is at most c and the first whose running minimum
    is at least d, as no segment outside them has a value inside (c, d).
    Both knots move forward only, and a float model's slivers of decrease
    stay outside its window as well.  A part of one interval never merges
    with a part of another, as their values lie in disjoint open
    intervals, so one merge of them all is the union of each interval's
    ``model.preimage``."""
    segmentation = model.monotone_segments()
    segments, values = segmentation.segments, segmentation.values
    top = list(accumulate(values, max))
    bottom = list(accumulate(reversed(values), min))[::-1]
    last = len(values) - 1
    i = j = 0
    parts = []
    for piece in cover:
        c, d = piece.lo, piece.hi
        while i < last and top[i + 1] <= c:
            i += 1
        while j < last and bottom[j] < d:
            j += 1
        for m in range(i, j):
            parts.extend(model._segment_preimage(segments[m], values[m], values[m + 1], c, d))
    return IntervalSet(parts)


def _trimmed_images(model, shifted, trimmed) -> tuple:
    """F(comp) and lambda(G(comp)) for each trimmed component.

    F is checked non-decreasing, and a rational one is exactly so: the
    image of a component that misses every plateau's interior is the
    interval from F at its lo to F at its hi, with its flags, F taken in
    one sweep over all the ends.  G's image measure is |G(hi) - G(lo)|
    where :func:`image_measure` sums ends.  A float model, whose evaluated
    F may dip by an ulp where its segments say it rises, measures each
    component as before."""
    ends = [e for comp in trimmed for e in (comp.lo, comp.hi)]
    if model.exact:
        values = model.evaluate_many(ends)
        images = tuple(
            IntervalSet._normal((Interval(flo, fhi, comp.lo_open, comp.hi_open),))
            if flo < fhi else image_set(model, IntervalSet((comp,)))
            for comp, flo, fhi in zip(trimmed, values[::2], values[1::2]))
    else:
        images = tuple(image_set(model, IntervalSet((comp,))) for comp in trimmed)
    if _sums_endpoints(shifted):
        g = shifted.evaluate_many(ends)
        g_comps = [abs(ghi - glo) for glo, ghi in zip(g[::2], g[1::2])]
    else:
        g_comps = [image_measure(shifted, IntervalSet((comp,))) for comp in trimmed]
    return images, g_comps


# ---------------------------------------------------------------------------
# variation certificate (continuous BV F)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverPiece:
    """One open cover interval, its band, and its preimage components."""

    interval: Interval
    band: str
    components: tuple


@dataclass(frozen=True)
class AnchorRecord:
    """Level-set anchors for one middle-band cover interval."""

    c: object
    d: object
    alpha: object
    beta: object


@dataclass(frozen=True)
class FamilyTrace:
    """Auxiliary partitions backing one beyond-band family bound."""

    side: str
    anchor_level: object
    alpha: object
    beta: object
    r1: tuple
    r2: tuple
    refinement_gain: object


@dataclass(frozen=True)
class CellRecord:
    index: int
    lo: object
    hi: object
    f_lo: object
    f_hi: object
    case: str
    n_i: IntervalSet
    image: IntervalSet
    cover: tuple
    q_partition: tuple
    anchors: tuple
    s1: tuple
    s2: tuple
    family_traces: tuple
    p_image: object
    n_image: object
    p_sum: object
    n_sum: object
    f_sum: object
    plus_sum: object
    minus_sum: object
    mid_sum: object
    ledger: tuple


@dataclass(frozen=True)
class CertificateTrace:
    epsilon: object
    base_partition: tuple
    partition_defect: object
    cells: tuple
    max_p_sum: object
    max_n_sum: object

    @property
    def ok(self) -> bool:
        return all(e.holds() or not e.strict
                   for cell in self.cells for e in cell.ledger)


def variation_certificate(model: FunctionModel, N: IntervalSet, epsilon,
                          base_partition=None) -> CertificateTrace:
    """Certify the cover budget for p(N) (below 5*eps per cell) and for
    n(N) (below 9*eps per cell).

    The base partition must miss the total variation by less than epsilon;
    the default segment-knot partition achieves it exactly.  Per cell, the
    image of N inside the cell must leave positive cover slack within the
    epsilon budget, otherwise the operation refuses rather than fabricate
    a cover.  A rational model reads a float epsilon and the float ends of
    N exactly.
    """
    epsilon = _checked_epsilon(model, epsilon)
    if not model.continuity_flag:
        raise PreconditionError("variation certificate requires continuity")
    decomposition = jordan_decomposition(model)  # raises NotBVError if unbounded
    pf = decomposition.p_function

    if base_partition is None:
        # the segment knots achieve the variation: their partition sum is
        # p's own running total, with no second evaluation of F
        partition = pf.achieving_partition
        defect = pf.total - pf.prefix[-1]
    else:
        partition = spanning_partition(model, base_partition)
        defect = pf.total - partition_sum(model, partition)
    if not defect < epsilon:
        raise PreconditionError(
            f"partition defect {defect} is not below epsilon {epsilon}")

    N = _clipped(model, N)
    cells = [_cell_record(model, decomposition, i, cell, epsilon)
             for i, cell in enumerate(_cells(model, partition, N))]
    zero = model.zero
    trace = CertificateTrace(
        epsilon=epsilon,
        base_partition=partition,
        partition_defect=defect,
        cells=tuple(cells),
        max_p_sum=max((c.p_sum for c in cells), default=zero),
        max_n_sum=max((c.n_sum for c in cells), default=zero),
    )
    base_grace = model.grace
    for cell in trace.cells:
        # sums over many bisected endpoints accumulate one ulp-scale error
        # per term; scale the non-strict grace accordingly
        terms = sum(1 + len(cp.components) for cp in cell.cover)
        _check(cell.ledger, base_grace * max(1, terms),
               f"cell {cell.index} [{cell.lo}, {cell.hi}]")
    return trace


def _cells(model: FunctionModel, partition, N: IntervalSet):
    """``(xl, xr, F(xl), F(xr), n_i, k)`` for each cell [xl, xr] of the
    partition, from one forward walk of the partition, the segmentation
    and N's sorted components on the segmentation's integer keys (see
    :meth:`MonotoneSegmentation.key`).  ``k`` is the index of the segment
    the cell is, when its ends are that segment's knots, else None.  F at
    a knot is its stored value when the point has the knot's type (an int
    point may give an int where a Fraction knot gives a Fraction); other
    points are evaluated.  ``n_i`` is ``N.clip(xl, xr)``, found on keys in
    a segment cell, whose ends are knots."""
    segmentation = model.monotone_segments()
    keys, key, values, bounds = (segmentation.keys, segmentation.key,
                                 segmentation.values, segmentation.bounds)
    at, knot, f = [], [], []
    m = 0
    for x in partition:
        kx = key(x)
        while keys[m] < kx:
            m += 1
        at.append(kx)
        knot.append(m if keys[m] == kx else None)
        f.append(values[m] if keys[m] == kx and type(x) is type(bounds[m]) else None)
    missing = iter(model.evaluate_many([x for x, v in zip(partition, f) if v is None]))
    f = [next(missing) if v is None else v for v in f]

    comps = N.components
    comp_keys = [(key(comp.lo), key(comp.hi)) for comp in comps]
    j = 0
    for i, (xl, xr) in enumerate(zip(partition, partition[1:])):
        k_l, k_r = at[i], at[i + 1]
        # a component that ends before xl ends before every later cell
        while j < len(comps) and comp_keys[j][1] < k_l:
            j += 1
        k = knot[i]
        if k is None or knot[i + 1] != k + 1:
            yield xl, xr, f[i], f[i + 1], N.clip(xl, xr), None
            continue
        pieces = []
        for comp, (k_lo, k_hi) in zip(comps[j:], comp_keys[j:]):
            if k_lo > k_r or (k_lo == k_r and comp.lo_open):
                break
            if k_hi == k_l and comp.hi_open:
                continue
            if k_lo < k_l or k_hi > k_r:
                # Interval.intersect with [xl, xr]: a tie keeps comp's end
                lo, lo_open = (xl, False) if k_lo < k_l else (comp.lo, comp.lo_open)
                hi, hi_open = (xr, False) if k_hi > k_r else (comp.hi, comp.hi_open)
                comp = Interval(lo, hi, lo_open, hi_open)
            pieces.append(comp)
        yield xl, xr, f[i], f[i + 1], IntervalSet._normal(pieces), k


def _values_equal(model, u, v) -> bool:
    if model.exact:
        return u == v
    return abs(u - v) <= model.tol


def _cell_record(model, decomposition, index, cell, epsilon) -> CellRecord:
    """One cell's cover, bands, sums, anchors and ledger.

    A cell that is one monotone segment ``k`` maps its image in order,
    pulls each cover interval back by the segment's one solve and reads
    its middle-band anchors off those components' ends.  On a rational
    one F maps each component exactly onto its cover interval within the
    cell's values, so the swings and p's and n's moves are those lengths;
    a float one evaluates F, p and n at the ends, as any other cell does.
    Any other cell takes the model's windowed routes."""
    xl, xr, f_lo, f_hi, n_i, k = cell
    pf = decomposition.p_function
    flat = _values_equal(model, f_lo, f_hi)
    case = FLAT_CELL if flat else ORDERED_CELL
    zero = model.zero

    if n_i.is_empty:
        ledger = (LedgerEntry("p_cover_budget", zero, 5 * epsilon),
                  LedgerEntry("n_cover_budget", zero, 9 * epsilon))
        return CellRecord(index, xl, xr, f_lo, f_hi, case, n_i,
                          IntervalSet.empty(), (), (xl, xr), (), (), (), (),
                          zero, zero, zero, zero, zero, zero, zero, zero, ledger)

    if k is None:
        image = image_set(model, n_i)
    else:
        segments = model.monotone_segments().segments
        seg = segments[k]
        v_lo, v_hi = pf.values[k], pf.values[k + 1]
        rows = list(model._segment_rows(seg))
        n_values = model.evaluate_many([e for comp in n_i for e in (comp.lo, comp.hi)])
        parts = [(comp, seg.direction) for comp in n_i]
        point = n_i.components[0]
        if k and point.lo == point.hi == xl:
            # image_set meets a point at the left knot first on the segment
            # before, whose direction orders the point's two end values
            parts[0] = (point, segments[k - 1].direction)
        image = part_images(parts, n_values)
    if not image.measure < epsilon:
        raise PreconditionError(
            f"cell {index}: image measure {image.measure} leaves no cover "
            f"slack below {epsilon}")
    raw_cover = inflate(image, epsilon - image.measure)
    cover_set = split_cover_at(raw_cover, [f_lo, f_hi])
    _assert_covered(model, image, cover_set, (f_lo, f_hi), index)

    lo_val, hi_val = (f_lo, f_hi) if f_lo <= f_hi else (f_hi, f_lo)
    pieces = []
    for piece in cover_set:
        if flat:
            band = FLAT_BAND
        elif piece.lo >= hi_val:
            band = PLUS if f_hi > f_lo else MINUS
        elif piece.hi <= lo_val:
            band = MINUS if f_hi > f_lo else PLUS
        else:
            if not (piece.lo >= lo_val and piece.hi <= hi_val):
                raise CertificateFailure(
                    f"cell {index}: cover piece {piece} straddles a band "
                    "boundary after endpoint splitting")
            band = MID
        if k is None:
            comps = model.preimage(piece.lo, piece.hi, xl, xr)
        else:
            comps = IntervalSet._normal(
                [part for part in model._segment_preimage(seg, v_lo, v_hi, piece.lo,
                                                          piece.hi, rows)
                 if not part.empty])
        comps = comps.clip(xl, xr, True, True)
        pieces.append(CoverPiece(piece, band, comps.components))

    p_sum = n_sum = f_sum = zero
    band_sums = {PLUS: zero, MINUS: zero, MID: zero, FLAT_BAND: zero}
    q_points = [xl, xr]
    for cp in pieces:
        ends = [e for comp in cp.components for e in (comp.lo, comp.hi)]
        q_points.extend(ends)
        if k is not None and model.exact:
            # F maps the segment's component onto the cover interval within
            # the cell's values, exactly; there p moves by the same swing,
            # and n = p - F by none where F rises and twice it where it falls
            if cp.components:
                swing = min(cp.interval.hi, hi_val) - max(cp.interval.lo, lo_val)
                p_sum += swing
                if seg.direction == DECREASING:
                    n_sum += 2 * swing
                f_sum += swing
                band_sums[cp.band] += swing
            continue
        # a piece's components are disjoint and sorted: one sweep gives F
        # at every end, and p and n = p - F follow from the same values
        values = model.evaluate_many(ends)
        for lo, hi, f_lo_end, f_hi_end in zip(ends[::2], ends[1::2],
                                              values[::2], values[1::2]):
            p_lo, p_hi = pf.at(lo, f_lo_end), pf.at(hi, f_hi_end)
            swing = abs(f_hi_end - f_lo_end)
            p_sum += p_hi - p_lo
            n_sum += (p_hi - f_hi_end) - (p_lo - f_lo_end)
            f_sum += swing
            band_sums[cp.band] += swing
    q_partition = tuple(_sorted_unique(q_points))

    if k is None or not model.exact:
        p_image = image_measure(decomposition.p, n_i)
        n_image = image_measure(decomposition.n, n_i)
    else:
        # on a monotone segment p moves by |F(hi) - F(lo)| across each part
        # of N, and n = p - F by nothing where F rises and by twice that
        # where it falls; their values are Fractions, and so are the sums
        p_image = Fraction(image.measure)
        n_image = 2 * p_image if seg.direction == DECREASING else zero

    ledger = [
        LedgerEntry("p_image_vs_components", p_image, p_sum, strict=False),
        LedgerEntry("n_image_vs_components", n_image, n_sum, strict=False),
        LedgerEntry("components_vs_swings", p_sum, epsilon + f_sum),
    ]

    anchors: tuple = ()
    s1: tuple = ()
    s2: tuple = ()
    family_traces = []
    if flat:
        ledger.append(LedgerEntry("flat_swing_budget", f_sum, epsilon))
        ledger.append(LedgerEntry("flat_cell_budget", p_sum, 2 * epsilon))
    else:
        increasing = f_hi > f_lo
        for band in (PLUS, MINUS):
            members = [cp for cp in pieces if cp.band == band and cp.components]
            if members:
                side_high = (band == PLUS) == increasing
                family_traces.append(
                    _beyond_family_trace(model, xl, xr, members, band, side_high))
        mid_members = [cp for cp in pieces if cp.band == MID and cp.components]
        if mid_members:
            anchors, s1, s2, anchor_sum = _mid_anchors(
                model, xl, xr, mid_members, increasing, k)
            mid_cover = sum(cp.interval.length for cp in pieces if cp.band == MID)
            ledger.append(LedgerEntry("mid_vs_anchor_swings",
                                      band_sums[MID], epsilon + anchor_sum))
            ledger.append(LedgerEntry("anchor_swings_vs_mid_cover",
                                      anchor_sum, mid_cover, strict=False))
            ledger.append(LedgerEntry("mid_cover_measure", mid_cover, epsilon))
        for ft in family_traces:
            ledger.append(LedgerEntry(f"{ft.side}_refinement_gain",
                                      band_sums[ft.side], ft.refinement_gain,
                                      strict=False))
        ledger.append(LedgerEntry("plus_family_budget", band_sums[PLUS], epsilon))
        ledger.append(LedgerEntry("minus_family_budget", band_sums[MINUS], epsilon))
        ledger.append(LedgerEntry("mid_family_budget", band_sums[MID], 2 * epsilon))
        ledger.append(LedgerEntry("swing_total_budget", f_sum, 4 * epsilon))
    ledger.append(LedgerEntry("p_cover_budget", p_sum, 5 * epsilon))
    ledger.append(LedgerEntry("n_triangle", n_sum, p_sum + f_sum, strict=False))
    ledger.append(LedgerEntry("n_cover_budget", n_sum, 9 * epsilon))

    return CellRecord(index, xl, xr, f_lo, f_hi, case, n_i, image,
                      tuple(pieces), q_partition, anchors, s1, s2,
                      tuple(family_traces), p_image, n_image, p_sum, n_sum,
                      f_sum, band_sums[PLUS], band_sums[MINUS], band_sums[MID],
                      tuple(ledger))


def _assert_covered(model, image, cover_set, endpoint_values, index) -> None:
    """The split cover must contain the image up to the two excluded values."""
    residual = image.difference(cover_set)
    for comp in residual:
        if not comp.degenerate:
            raise CertificateFailure(
                f"cell {index}: cover misses image mass {comp}",
                detail={"component": comp})
        if not any(_values_equal(model, comp.lo, v) for v in endpoint_values):
            raise CertificateFailure(
                f"cell {index}: cover misses image point {comp.lo}",
                detail={"component": comp})


def _beyond_family_trace(model, xl, xr, members, side, side_high) -> FamilyTrace:
    """Anchor partitions for a family lying beyond the cell's value band.

    The bound mirrors between the two sides: the high side anchors at the
    lowest cover value above the band, the low side (the reflected code
    path) at the highest cover value below it.
    """
    if side_high:
        level = min(cp.interval.lo for cp in members)
    else:
        level = max(cp.interval.hi for cp in members)
    level_pts = model.level_points(level, xl, xr)
    if not level_pts:
        raise CertificateFailure(
            f"anchor level {level} not attained inside cell [{xl}, {xr}]")
    alpha, beta = level_pts[0], level_pts[-1]
    r1 = tuple(_sorted_unique([xl, alpha, beta, xr]))
    endpoints = [e for cp in members for c in cp.components for e in (c.lo, c.hi)]
    r2 = tuple(_sorted_unique(list(r1) + endpoints))
    gain = partition_sum(model, r2) - partition_sum(model, r1) \
        if len(r1) >= 2 else 0
    return FamilyTrace(side, level, alpha, beta, r1, r2, gain)


def _mid_anchors(model, xl, xr, mid_members, increasing, k=None):
    """Level-set anchors for the middle band, orientation-covariant.

    For an increasing cell each band interval (c, d) anchors at the first
    crossing of c and closes at the last crossing of d before the next
    anchor; a decreasing cell takes the last crossing of c and the first
    crossing of d after the next anchor, which lies to its left.  Returns
    the anchors, the coarse and refined auxiliary partitions, and the
    anchored swing total.

    On a cell that is the monotone segment ``k`` every level crosses once,
    where its member's one component ends (see :func:`_crossing`).  On a
    float cell a closing level whose window stops at the next anchor is
    still found on that window, whose bracket sets the solve's last bits;
    an exact solve is the same on any bracket that holds the crossing.
    """
    members = sorted(mid_members, key=lambda cp: cp.interval.lo)
    levels = [(cp.interval.lo, cp.interval.hi) for cp in members]
    first, last = (0, -1) if increasing else (-1, 0)
    if k is None:
        alphas = [model.level_points(c, xl, xr)[first] for c, _ in levels]
    else:
        # the c end of a rising component is its lo, of a falling one its hi
        alphas = [_crossing(model, k, xl, c, cp.components[0].lo if increasing
                            else cp.components[0].hi)
                  for (c, _), cp in zip(levels, members)]
    nexts = alphas[1:] + [xr if increasing else xl]
    anchors = []
    for j, ((c, d), alpha, nxt) in enumerate(zip(levels, alphas, nexts)):
        if k is not None and (model.exact or j == len(levels) - 1):
            comp = members[j].components[0]
            beta = _crossing(model, k, xl, d, comp.hi if increasing else comp.lo)
        else:
            window = (xl, nxt) if increasing else (nxt, xr)
            beta = model.level_points(d, *window)[last]
        anchors.append(AnchorRecord(c, d, alpha, beta))
    s1 = tuple(_sorted_unique(
        [xl, xr] + [a.alpha for a in anchors] + [a.beta for a in anchors]))
    endpoints = [e for cp in mid_members for comp in cp.components
                 for e in (comp.lo, comp.hi)]
    s2 = tuple(_sorted_unique(list(s1) + endpoints))
    ends = [e for a in anchors for e in (a.alpha, a.beta)]
    order = sorted(range(len(ends)), key=ends.__getitem__)
    values = [None] * len(ends)
    for k, value in zip(order, model.evaluate_many([ends[k] for k in order])):
        values[k] = value
    anchor_sum = sum(abs(f_beta - f_alpha)
                     for f_alpha, f_beta in zip(values[::2], values[1::2]))
    return tuple(anchors), s1, s2, anchor_sum


def _crossing(model, k, xl, y, solved):
    """``model.level_points(y, xl, xr)``'s one point on a cell [xl, xr]
    that is the monotone segment ``k``, for a level y inside the cell's
    values, given the segment's solve of y (a middle-band component's
    end).  A level at the left knot's value is xl, or the first knot on
    the first cell, where no segment lies to the left; at the right
    knot's value it is that knot."""
    segmentation = model.monotone_segments()
    if y == segmentation.values[k]:
        return xl if k else segmentation.bounds[0]
    if y == segmentation.values[k + 1]:
        return segmentation.bounds[k + 1]
    return solved


# ---------------------------------------------------------------------------
# propagation across a shrinking family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationRow:
    epsilon: object
    level: int | None
    set_measure: object
    image_measure: object
    max_p_sum: object
    max_n_sum: object
    feasible: bool
    ok: bool


@dataclass(frozen=True)
class PropagationReport:
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows if row.feasible)

    @property
    def any_feasible(self) -> bool:
        return any(row.feasible for row in self.rows)


def lusin_propagation_check(model: FunctionModel, family: NullSetFamily,
                            eps_schedule, max_level: int = 40,
                            probe_levels: int = 6,
                            max_components: int = 4096) -> PropagationReport:
    """Run the variation certificate across family levels and epsilons.

    For each epsilon the first family level whose image measure fits under
    epsilon/2 is certified; the row records the measured p- and n-cover
    sums against the 5*eps and 9*eps budgets.  Levels with more than
    ``max_components`` intervals are out of budget and reported as
    infeasible rather than ground through.

    Each level is built and measured once per call: the search starts
    from the probe's ``(j, measure, image measure)`` rows, a level measured
    for one epsilon is read again for the next, and every level set built,
    by the probe or the search, is kept for its certificate.
    """
    # the family as the probe reads it, keeping each level set it builds
    levels = SimpleNamespace(level=cache(family.level))
    probe = lusin_probe(model, levels, probe_levels)
    if probe.verdict == FAILS:
        raise PreconditionError("model fails its null-family probe; "
                                "propagation is vacuous")
    # level j -> (set measure, image measure)
    measured = {j: (mu, img) for j, mu, img in probe.levels}
    rows = []
    for eps in eps_schedule:
        chosen = None
        for j in range(1, max_level + 1):
            if family.component_count(j) > max_components:
                break
            if j not in measured:
                nj = levels.level(j)
                measured[j] = (nj.measure, image_measure(model, nj))
            mu, img = measured[j]
            if 2 * img < eps and 2 * mu < eps:
                chosen = j
                break
        if chosen is None:
            zero = model.zero
            rows.append(PropagationRow(eps, None, zero, zero, zero, zero,
                                       False, False))
            continue
        mu, img = measured[chosen]
        trace = variation_certificate(model, levels.level(chosen), eps)
        rows.append(PropagationRow(eps, chosen, mu, img,
                                   trace.max_p_sum, trace.max_n_sum,
                                   True, trace.ok))
    return PropagationReport(tuple(rows))
