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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

from .errors import CertificateFailure, PreconditionError
from .intervals import Interval, IntervalSet
from .measure import (
    FAILS,
    NullSetFamily,
    image_measure,
    image_set,
    inflate,
    lusin_probe,
    split_cover_at,
)
from .model import (
    CONSTANT,
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
        pre_u = IntervalSet(comp for piece in u
                            for comp in model.preimage(piece.lo, piece.hi))
        core = u_prime.intersect(pre_u)

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
            cut = [plateau_ivs[i] for i in sorted(held)]
            rest = IntervalSet((comp,)).difference(IntervalSet(cut))
            trimmed_list.extend(rest.components)
        trimmed = tuple(trimmed_list)

        residual = n2.difference(IntervalSet(trimmed))
        if not residual.is_empty:
            raise CertificateFailure(
                "trimmed open core does not contain the off-plateau set",
                detail={"residual": residual})

        images = tuple(image_set(model, IntervalSet((c,))) for c in trimmed)
        for left, right in zip(images, images[1:]):
            if not left.intersect(right).is_empty:
                raise CertificateFailure(
                    "image intervals of trimmed components are not disjoint",
                    detail={"left": left, "right": right})

        comp_total = sum(c.length for c in trimmed)
        img_total = sum(j.measure for j in images)
        for k, (comp, jk) in enumerate(zip(trimmed, images)):
            g_comp = image_measure(shifted, IntervalSet((comp,)))
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
    cells = []
    for i, (xl, xr) in enumerate(zip(partition, partition[1:])):
        cells.append(_cell_record(model, decomposition, i, xl, xr, N, epsilon))
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


def _values_equal(model, u, v) -> bool:
    if model.exact:
        return u == v
    return abs(u - v) <= model.tol


def _cell_record(model, decomposition, index, xl, xr, N, epsilon) -> CellRecord:
    pf = decomposition.p_function
    f_lo, f_hi = model.evaluate_many((xl, xr))
    flat = _values_equal(model, f_lo, f_hi)
    case = FLAT_CELL if flat else ORDERED_CELL
    zero = model.zero
    n_i = N.clip(xl, xr)

    if n_i.is_empty:
        ledger = (LedgerEntry("p_cover_budget", zero, 5 * epsilon),
                  LedgerEntry("n_cover_budget", zero, 9 * epsilon))
        return CellRecord(index, xl, xr, f_lo, f_hi, case, n_i,
                          IntervalSet.empty(), (), (xl, xr), (), (), (), (),
                          zero, zero, zero, zero, zero, zero, zero, zero, ledger)

    image = image_set(model, n_i)
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
        comps = model.preimage(piece.lo, piece.hi, xl, xr).clip(xl, xr, True, True)
        pieces.append(CoverPiece(piece, band, comps.components))

    p_sum = n_sum = f_sum = zero
    band_sums = {PLUS: zero, MINUS: zero, MID: zero, FLAT_BAND: zero}
    q_points = [xl, xr]
    for cp in pieces:
        # a piece's components are disjoint and sorted: one sweep gives F
        # at every end, and p and n = p - F follow from the same values
        ends = [e for comp in cp.components for e in (comp.lo, comp.hi)]
        q_points.extend(ends)
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

    p_image = image_measure(decomposition.p, n_i)
    n_image = image_measure(decomposition.n, n_i)

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
                model, xl, xr, mid_members, increasing)
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


def _mid_anchors(model, xl, xr, mid_members, increasing):
    """Level-set anchors for the middle band, orientation-covariant.

    For an increasing cell each band interval (c, d) anchors at the first
    crossing of c and closes at the last crossing of d before the next
    anchor; a decreasing cell takes the last crossing of c and the first
    crossing of d after the next anchor, which lies to its left.  Returns
    the anchors, the coarse and refined auxiliary partitions, and the
    anchored swing total.
    """
    members = sorted(mid_members, key=lambda cp: cp.interval.lo)
    levels = [(cp.interval.lo, cp.interval.hi) for cp in members]
    first, last = (0, -1) if increasing else (-1, 0)
    alphas = [model.level_points(c, xl, xr)[first] for c, _ in levels]
    nexts = alphas[1:] + [xr if increasing else xl]
    anchors = []
    for (c, d), alpha, nxt in zip(levels, alphas, nexts):
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
