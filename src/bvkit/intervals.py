"""Finite unions of real intervals with exact endpoint bookkeeping.

Endpoints may be :class:`fractions.Fraction` (exact mode) or ``float``.
Each endpoint carries an open/closed flag.  Endpoints order by value, and
on a tie an open start lies just after a closed one and an open end just
before a closed one; the comparisons are written out, and look at the
flags only on a tie.  Degenerate intervals behave correctly: ``[x, x]`` is
the singleton {x} and any half-open ``[x, x)`` is empty.

The constructor sorts and merges on one kind of key, ``(at, eps)``, where
``eps`` is 0 for a closed end, +1 for an open start and -1 for an open end,
so the keys' lexicographic order is that endpoint order, and ``at`` is the
endpoint value itself or, when every endpoint is an int or a Fraction, an
integer: each value ``n/d`` becomes the position ``n * (D // d)`` over one
common denominator ``D`` per call, however many bits ``D`` takes.  The
components keep the original endpoint objects and flags either way, and on
positions the merged spans also sum to the measure on the same scale.
Floats and the infinite edges of a complement use the values.  The outputs
of intersect, complement and clip are sorted, non-empty and separated by
construction, so they skip the sort and the merge.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

_NEG_INF = float("-inf")
_POS_INF = float("inf")

_FOUR = itemgetter(0, 1, 2, 3)


def positions(values):
    """``(D, [n * (D // d) for each value n/d])``: every value on one
    integer scale over the common denominator ``D``, so the positions order
    as the values do, and equal values share a position.  None when a value
    is not an int or a Fraction."""
    den = 1
    ratios = []
    for v in values:
        if type(v) is not int and type(v) is not Fraction:
            return None
        n, d = v.as_integer_ratio()
        if den % d:
            den = math.lcm(den, d)
        ratios.append((n, d))
    return den, [n * (den // d) for n, d in ratios]


@dataclass(frozen=True)
class Interval:
    """One interval component; may be empty or a single point."""

    lo: object
    hi: object
    lo_open: bool = False
    hi_open: bool = False

    @property
    def empty(self) -> bool:
        # the endpoint order, with the flags looked at only when lo == hi
        lo, hi = self.lo, self.hi
        if lo < hi:
            return False
        return lo != hi or self.lo_open or self.hi_open

    @property
    def length(self):
        if self.empty:
            return 0
        return self.hi - self.lo

    @property
    def degenerate(self) -> bool:
        return not self.empty and self.lo == self.hi

    def contains(self, x) -> bool:
        lo, hi = self.lo, self.hi
        return ((lo < x or (not self.lo_open and lo == x))
                and (x < hi or (not self.hi_open and x == hi)))

    def intersect(self, other: "Interval") -> "Interval":
        """The later start and the earlier end: by value, then on a tie
        an open end is inside a closed one.
        On a full tie the ends of ``self`` are kept, as ``max`` and ``min``
        keep their first argument (``1`` and ``Fraction(1)`` tie)."""
        lo, lo_open = self.lo, self.lo_open
        if other.lo > lo or (other.lo_open and not lo_open and other.lo == lo):
            lo, lo_open = other.lo, other.lo_open
        hi, hi_open = self.hi, self.hi_open
        if other.hi < hi or (other.hi_open and not hi_open and other.hi == hi):
            hi, hi_open = other.hi, other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


def _merge(intervals, at, den=None):
    """The components of the union, sorted and merged on the keys
    ``(at[2i], eps)`` and ``(at[2i + 1], eps)`` of interval i's ends.
    ``at`` holds the ends themselves or, with ``den``, their integer
    positions over ``den`` (see :func:`positions`), and then also the total
    length of the components on that scale.  The stable sort keeps the
    order of equal keys, so the first of equal ends is the one kept."""
    rows = []
    for i, iv in enumerate(intervals):
        s, e = at[2 * i], at[2 * i + 1]
        if s < e or (s == e and not (iv.lo_open or iv.hi_open)):
            rows.append((s, 1 if iv.lo_open else 0, e, -1 if iv.hi_open else 0, iv))
    rows.sort(key=_FOUR)
    merged: list[Interval] = []
    total = 0
    for s, se, e, ee, iv in rows:
        # overlaps or touches the last component: no gap unless both the
        # last end and this start are open at the same point
        if merged and (end > s or (end == s and not (end_eps == -1 and se == 1))):
            if e > end or (e == end and ee > end_eps):
                last = merged[-1]
                merged[-1] = Interval(last.lo, iv.hi, last.lo_open, iv.hi_open)
                if den:
                    total += e - end
                end, end_eps = e, ee
        else:
            merged.append(iv)
            if den:
                total += e - s
            end, end_eps = e, ee
    return merged, total


class IntervalSet:
    """Sorted disjoint union of intervals, closed under set algebra."""

    __slots__ = ("components", "_starts", "_span")

    def __init__(self, intervals=()):
        intervals = tuple(intervals)
        ends = [x for iv in intervals for x in (iv.lo, iv.hi)]
        self._build(intervals, ends, positions(ends))

    def _build(self, intervals, ends, spots):
        """Sort and merge the intervals, given their ends and
        ``positions(ends)``."""
        if spots is None:
            self._set(_merge(intervals, ends)[0])
            return
        den, at = spots
        comps, total = _merge(intervals, at, den)
        # the sum of hi - lo is an int when every kept end is one
        ints = all(type(iv.lo) is int and type(iv.hi) is int for iv in comps)
        self._set(comps, (total, den, ints))

    def _set(self, comps, span=None):
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "_starts", [iv.lo for iv in comps])
        object.__setattr__(self, "_span", span)

    @classmethod
    def _normal(cls, comps) -> "IntervalSet":
        """A set of components that are already sorted, non-empty and
        separated, as the outputs of intersect, complement and clip are."""
        out = cls.__new__(cls)
        out._set(comps)
        return out

    @classmethod
    def ordered(cls, intervals) -> "IntervalSet":
        """The set of intervals listed left to right.  When each is
        non-empty and ends before the next starts, or where both ends are
        open at one point, they are the components as they stand, with no
        sort or merge; otherwise the constructor runs.  Either way the set
        is the constructor's, its measure's span included: the checks run
        on the same keys."""
        intervals = tuple(intervals)
        ends = [x for iv in intervals for x in (iv.lo, iv.hi)]
        spots = positions(ends)
        at = ends if spots is None else spots[1]
        out = cls.__new__(cls)
        total = 0
        end = None
        for i, iv in enumerate(intervals):
            s, e = at[2 * i], at[2 * i + 1]
            if not (s < e or (s == e and not (iv.lo_open or iv.hi_open))) or (
                    end is not None and not (end < s or (end == s and end_open and iv.lo_open))):
                out._build(intervals, ends, spots)
                return out
            total += e - s
            end, end_open = e, iv.hi_open
        if spots is None:
            out._set(intervals)
        else:
            out._set(intervals, (total, spots[0], all(type(x) is int for x in ends)))
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def closed(cls, lo, hi) -> "IntervalSet":
        return cls((Interval(lo, hi),))

    @classmethod
    def open(cls, lo, hi) -> "IntervalSet":
        return cls((Interval(lo, hi, True, True),))

    @classmethod
    def point(cls, x) -> "IntervalSet":
        return cls((Interval(x, x),))

    @classmethod
    def from_pairs(cls, pairs, lo_open=False, hi_open=False) -> "IntervalSet":
        return cls(Interval(lo, hi, lo_open, hi_open) for lo, hi in pairs)

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def measure(self):
        """Total length; exact when endpoints are exact.  A set built on
        integer positions summed its spans while merging, and noted whether
        every kept end is an int, when the sum of ``hi - lo`` is one too."""
        if self._span is not None:
            total, den, ints = self._span
            return total // den if ints else Fraction(total, den)
        total = 0
        for iv in self.components:
            total += iv.length
        return total

    def contains(self, x) -> bool:
        i = bisect_right(self._starts, x) - 1
        for j in (i, i + 1):
            if 0 <= j < len(self.components) and self.components[j].contains(x):
                return True
        return False

    def covers(self, other: "IntervalSet") -> bool:
        return other.difference(self).is_empty

    @property
    def lo(self):
        return self.components[0].lo

    @property
    def hi(self):
        return self.components[-1].hi

    # -- algebra ---------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.components + other.components)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        a, b = self.components, other.components
        i = j = 0
        while i < len(a) and j < len(b):
            piece = a[i].intersect(b[j])
            if not piece.empty:
                out.append(piece)
            # on a tie either side may step: the next component of each
            # starts past the shared end, or open at it where that end is open
            if a[i].hi < b[j].hi:
                i += 1
            else:
                j += 1
        return IntervalSet._normal(out)

    def complement(self) -> "IntervalSet":
        """Complement within (-inf, inf); infinite edges use open floats."""
        out = []
        lo, lo_open = _NEG_INF, True
        for iv in self.components:
            # each gap holds the ends its neighbours leave open
            gap = Interval(lo, iv.lo, lo_open, not iv.lo_open)
            if not gap.empty:
                out.append(gap)
            lo, lo_open = iv.hi, not iv.hi_open
        gap = Interval(lo, _POS_INF, lo_open, True)
        if not gap.empty:
            out.append(gap)
        return IntervalSet._normal(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def clip(self, lo, hi, lo_open=False, hi_open=False) -> "IntervalSet":
        """Intersection with one interval: the set itself when it lies
        inside the window, else a bisection finds the first component that
        can meet it, and the walk stops past ``hi``."""
        comps = self.components
        if not comps:
            return self
        first, last = comps[0], comps[-1]
        # inside when the first start is not before lo, nor the last end
        # past hi: on a tie, a closed end is outside an open one
        if ((first.lo > lo or (first.lo == lo and (first.lo_open or not lo_open)))
                and (last.hi < hi or (last.hi == hi and (last.hi_open or not hi_open)))):
            return self
        window = Interval(lo, hi, lo_open, hi_open)
        out = []
        for i in range(max(bisect_right(self._starts, lo) - 1, 0), len(comps)):
            comp = comps[i]
            if comp.lo > hi:
                break
            piece = comp.intersect(window)
            if not piece.empty:
                out.append(piece)
        return IntervalSet._normal(out)

    def affine(self, scale, offset) -> "IntervalSet":
        """Image under x -> scale*x + offset (scale may be negative)."""
        out = []
        for iv in self.components:
            u = scale * iv.lo + offset
            v = scale * iv.hi + offset
            if scale >= 0:
                out.append(Interval(u, v, iv.lo_open, iv.hi_open))
            else:
                out.append(Interval(v, u, iv.hi_open, iv.lo_open))
        return IntervalSet(out)

    # -- protocol --------------------------------------------------------

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __or__(self, other):
        return self.union(other)

    def __and__(self, other):
        return self.intersect(other)

    def __sub__(self, other):
        return self.difference(other)

    def __repr__(self) -> str:
        if self.is_empty:
            return "IntervalSet()"
        return "IntervalSet(" + " ∪ ".join(str(iv) for iv in self.components) + ")"
