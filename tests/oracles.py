"""Oracles that several test modules share: the routes the library's
window and image-set walks replaced, kept as they were.

``window_oracle`` scans every segment for the ones meeting ``[lo, hi]``;
``bisected_window_oracle`` bisects the knots for the first and walks to
the last, as a ``range``.  ``image_set_oracle`` is the old route, each
part's two ends evaluated on their own; ``windowed_image_set_oracle``
pulls each component through one bisected window and evaluates the ends
in one sweep.
"""

from bisect import bisect_left

from bvkit.intervals import Interval, IntervalSet
from bvkit.model import CONSTANT, INCREASING


def window_oracle(segmentation, lo, hi):
    return [i for i, seg in enumerate(segmentation) if seg.lo <= hi and seg.hi >= lo]


def bisected_window_oracle(segmentation, lo, hi):
    bounds, count = segmentation.bounds, len(segmentation.segments)
    first = last = max(bisect_left(bounds, lo) - 1, 0)
    while last < count and bounds[last] <= hi:
        last += 1
    return range(first, last)


def image_set_oracle(model, E):
    """The old route: the two ends of each part evaluated on their own."""
    pieces = []
    for comp in E.clip(model.a, model.b):
        for seg in model.monotone_segments():
            part = comp.intersect(Interval(seg.lo, seg.hi))
            if part.empty:
                continue
            flo, fhi = model.evaluate(part.lo), model.evaluate(part.hi)
            if seg.direction == CONSTANT:
                pieces.append(Interval(flo, flo))
            elif seg.direction == INCREASING:
                pieces.append(Interval(flo, fhi, part.lo_open, part.hi_open))
            else:
                pieces.append(Interval(fhi, flo, part.hi_open, part.lo_open))
    return IntervalSet(pieces)


def windowed_image_set_oracle(model, E):
    """``image_set`` with one bisecting window per component."""
    segmentation = model.monotone_segments()
    segments = segmentation.segments
    parts = []
    for comp in E.clip(model.a, model.b):
        point = comp.lo == comp.hi
        for i in bisected_window_oracle(segmentation, comp.lo, comp.hi):
            seg = segments[i]
            part = comp.intersect(Interval(seg.lo, seg.hi))
            if not part.empty and (point or part.lo != part.hi):
                parts.append((part, seg.direction))
    ends = model.evaluate_many([e for part, _ in parts for e in (part.lo, part.hi)])
    pieces = []
    for (part, direction), flo, fhi in zip(parts, ends[::2], ends[1::2]):
        if direction == CONSTANT:
            pieces.append(Interval(flo, flo))
        elif direction == "increasing":
            pieces.append(Interval(flo, fhi, part.lo_open, part.hi_open))
        else:
            pieces.append(Interval(fhi, flo, part.hi_open, part.lo_open))
    return IntervalSet(pieces)
