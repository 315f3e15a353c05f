"""The certificate routes as they were before each cell walked its own
segment, kept as test oracles with their code unchanged.

``variation_certificate`` and ``shift_certificate`` here run the windowed
``preimage`` and ``level_points`` calls and full set builds of every cell,
on this module's copies of ``image_set``, ``inflate`` and
``split_cover_at`` as they were before they gained their paths for sorted
input; ``_solve_in_segment`` is the model's method as it was, called with
the model as ``self``.  Everything else is bvkit's own.
"""

from bisect import bisect_left, bisect_right

from bvkit.certificate import (
    FLAT_BAND,
    FLAT_CELL,
    MID,
    MINUS,
    ORDERED_CELL,
    PLUS,
    AnchorRecord,
    CellRecord,
    CertificateTrace,
    CoverPiece,
    LedgerEntry,
    ShiftTrace,
    _assert_covered,
    _beyond_family_trace,
    _check,
    _clipped,
    _values_equal,
    plateau_intervals,
)
from bvkit.errors import CertificateFailure, PreconditionError, SpecFormatError
from bvkit.intervals import Interval, IntervalSet
from bvkit.measure import FAILS, NullSetFamily, _segment_parts, image_measure, lusin_probe
from bvkit.model import (
    CONSTANT,
    INCREASING,
    FunctionModel,
    Segment,
    _checked_epsilon,
    _sorted_unique,
)
from bvkit.variation import jordan_decomposition, partition_sum, spanning_partition


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
    pieces = []
    for (part, direction), flo, fhi in zip(parts, ends[::2], ends[1::2]):
        if direction == CONSTANT:
            pieces.append(Interval(flo, flo))
        elif direction == INCREASING:
            pieces.append(Interval(flo, fhi, part.lo_open, part.hi_open))
        else:
            pieces.append(Interval(fhi, flo, part.hi_open, part.lo_open))
    return IntervalSet(pieces)


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
    out = []
    for comp in E:
        share = slack * comp.length / total if total > 0 else 0
        amount = max(share / 2, floor)
        half = amount / 2
        out.append(Interval(comp.lo - half, comp.hi + half, True, True))
    return IntervalSet(out)


def split_cover_at(cover: IntervalSet, values) -> IntervalSet:
    """Exclude the given points from the cover, splitting any interval that
    strictly contains one; total measure is unchanged."""
    points = IntervalSet(Interval(v, v) for v in values)
    return cover.difference(points)


def _solve_in_segment(self, seg: Segment, y):
    """Unique x in the strictly monotone segment with F(x) = y, which may
    be a part of a segment of the segmentation.  Its pieces are found
    by bisecting the keys of the piece starts."""
    segmentation = self.monotone_segments()
    starts, key = segmentation.starts, segmentation.key
    # the pieces from the last to start at or before seg.lo to the last before seg.hi
    lo_i = bisect_right(starts, key(seg.lo)) - 1
    hi_i = bisect_left(starts, key(seg.hi)) - 1
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
        # within the grace
        grace = self.grace
        pieces = self._expanded[max(lo_i, 0):hi_i + 1]
        for left, right in zip(pieces, pieces[1:]):
            u, v = sorted((left.value(right.lo), right.value(right.lo)))
            if u <= y <= v and v - u <= grace:
                return right.lo
        gap, x = min((abs(self.evaluate(x) - y), x) for x in (seg.lo, seg.hi))
        if gap <= grace:
            return x
    raise PreconditionError(
        f"value {y} not attained on segment [{seg.lo}, {seg.hi}]")


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
