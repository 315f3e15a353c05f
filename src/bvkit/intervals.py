"""Finite unions of real intervals with exact endpoint bookkeeping.

Endpoints may be :class:`fractions.Fraction` (exact mode) or ``float``.
Each endpoint carries an open/closed flag, encoded internally as a key
``(value, eps)`` where ``eps`` nudges the point by an infinitesimal:

* interval start: ``eps = 0`` (closed) or ``+1`` (open, "just after"),
* interval end:   ``eps = 0`` (closed) or ``-1`` (open, "just before").

Lexicographic comparison of keys linearises all endpoint positions, so
union, intersection, difference and emptiness checks become ordinary
sweeps with no case analysis.  Degenerate intervals behave correctly:
``[x, x]`` is the singleton {x} and any half-open ``[x, x)`` is empty.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

_NEG_INF = float("-inf")
_POS_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """One interval component; may be empty or a single point."""

    lo: object
    hi: object
    lo_open: bool = False
    hi_open: bool = False

    @property
    def start_key(self):
        return (self.lo, 1 if self.lo_open else 0)

    @property
    def end_key(self):
        return (self.hi, -1 if self.hi_open else 0)

    @property
    def empty(self) -> bool:
        return self.start_key > self.end_key

    @property
    def length(self):
        if self.empty:
            return 0
        return self.hi - self.lo

    @property
    def degenerate(self) -> bool:
        return not self.empty and self.lo == self.hi

    def contains(self, x) -> bool:
        return self.start_key <= (x, 0) <= self.end_key

    def intersect(self, other: "Interval") -> "Interval":
        sk = max(self.start_key, other.start_key)
        ek = min(self.end_key, other.end_key)
        return _from_keys(sk, ek)

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


def _from_keys(start_key, end_key) -> Interval:
    (lo, se), (hi, ee) = start_key, end_key
    return Interval(lo, hi, lo_open=(se == 1), hi_open=(ee == -1))


def _gap_between(end_key, start_key) -> bool:
    """True when a set ending at end_key and one starting at start_key
    neither overlap nor touch (so their union is disconnected)."""
    (v, ee), (w, se) = end_key, start_key
    if v < w:
        return True
    return v == w and ee == -1 and se == 1


class IntervalSet:
    """Sorted disjoint union of intervals, closed under set algebra."""

    __slots__ = ("components", "_starts")

    def __init__(self, intervals=()):
        comps = sorted(
            (iv for iv in intervals if not iv.empty),
            key=lambda iv: (iv.start_key, iv.end_key),
        )
        merged: list[Interval] = []
        for iv in comps:
            if merged and not _gap_between(merged[-1].end_key, iv.start_key):
                last = merged[-1]
                if iv.end_key > last.end_key:
                    merged[-1] = _from_keys(last.start_key, iv.end_key)
            else:
                merged.append(iv)
        object.__setattr__(self, "components", tuple(merged))
        object.__setattr__(self, "_starts", [iv.lo for iv in merged])

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
        """Total length; exact when endpoints are exact."""
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
            if a[i].end_key < b[j].end_key:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def complement(self) -> "IntervalSet":
        """Complement within (-inf, inf); infinite edges use open floats."""
        out = []
        prev_end = (_NEG_INF, 1)  # open at -inf
        for iv in self.components:
            sk = iv.start_key
            end = (sk[0], sk[1] - 1)
            if prev_end <= end:
                out.append(_from_keys(prev_end, end))
            ek = iv.end_key
            prev_end = (ek[0], ek[1] + 1)
        tail = (_POS_INF, -1)
        if prev_end <= tail:
            out.append(_from_keys(prev_end, tail))
        return IntervalSet(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def clip(self, lo, hi, lo_open=False, hi_open=False) -> "IntervalSet":
        """Intersection with one interval: a bisection finds the first
        component that can meet it, and the walk stops past ``hi``."""
        window = Interval(lo, hi, lo_open, hi_open)
        comps = self.components
        out = []
        for i in range(max(bisect_right(self._starts, lo) - 1, 0), len(comps)):
            comp = comps[i]
            if comp.lo > hi:
                break
            piece = comp.intersect(window)
            if not piece.empty:
                out.append(piece)
        return IntervalSet(out)

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
