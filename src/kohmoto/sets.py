"""Exact set computations on finite unions of closed intervals.

A spectrum enters as three pieces: an inner union certified inside the set,
an outer union certified to contain it, and "spots" (tiny intervals each
containing exactly one isolated member whose exact position is unknown).
Intersections, Lebesgue measure and the Hausdorff metric come out as
certified rational enclosures.

`_directed`, the directed Hausdorff distance dH(X, Y) = sup over X of the
distance to Y between two sorted disjoint unions, is the one distance
routine; both ends of the `EnclosedSet.hausdorff` enclosure come from it.
For the directed distance from the true set A to the true set B, with w(B)
the largest spot half-width of B (0 without spots):

- upper: dH(A.outer, B.inner + spot midpoints of B) + w(B), since A lies
  in A.outer and each spot's member lies within w(B) of the spot's
  midpoint;
- lower: the largest of dH(A.inner, B.outer) and, for each spot of A,
  the distance from its midpoint to B.outer minus its own half-width,
  since A holds A.inner and each spot's member, and B lies in B.outer.

Each end takes the larger value of the two directions.  The w(B) slack
lets the upper end use one sweep against the spot midpoints.

Endpoints are Fractions to callers.  The distance sweeps and `measure` run
on integers: the endpoints over four times the least common multiple of
their denominators, so spot centres and gap midpoints stay integers.  Each
result becomes a Fraction once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from .errors import PreconditionError, PrecisionError
from .farey import over_common_denominator

Interval = tuple[Fraction, Fraction]
_start = itemgetter(0)


def normalize(intervals) -> tuple[Interval, ...]:
    """Sort and merge closed intervals (degenerate ones allowed); the ends
    may be Fractions or integers."""
    xs = sorted((lo, hi) for lo, hi in intervals if lo <= hi)
    out: list[Interval] = []
    for lo, hi in xs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def intersect(a, b) -> tuple[Interval, ...]:
    out = []
    i = j = 0
    a, b = list(a), list(b)
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def measure(intervals) -> Fraction:
    ends, d = over_common_denominator(intervals)
    return Fraction(sum(hi - lo for lo, hi in ends), d)


def _directed(a: Sequence[tuple[int, int]], b: Sequence[tuple[int, int]]) -> int:
    """sup over the union a of the distance to the union b, on integer
    endpoints whose gap midpoints in b are integers.

    Both are sorted disjoint unions, as `normalize` returns them.  On each
    interval of a the distance to b peaks at an endpoint or at the midpoint
    of a gap of b.  Bisection finds the intervals of b next to each
    candidate, so the cost is O((n + m) log m) and nothing is built per
    candidate."""

    def dist(x: int, i: int) -> int:
        # b[i] is the first interval of b starting after x
        if i == 0:
            return b[0][0] - x
        d = max(0, x - b[i - 1][1])
        return d if i == len(b) else min(d, b[i][0] - x)

    best = 0
    for lo, hi in a:
        i = bisect_right(b, lo, key=_start)
        j = bisect_right(b, hi, key=_start)
        best = max(best, dist(lo, i), dist(hi, j))
        # gap g lies between b[g] and b[g + 1]; every gap midpoint in
        # [lo, hi] lies in one of the gaps i - 1 to j - 1
        for g in range(max(i - 1, 0), min(j, len(b) - 1)):
            mid = (b[g][1] + b[g + 1][0]) // 2
            if lo <= mid <= hi:
                best = max(best, mid - b[g][1])
    return best


@dataclass(frozen=True)
class EnclosedSet:
    """A compact set bracketed by certified interval data."""

    inner: tuple[Interval, ...]
    outer: tuple[Interval, ...]
    spots: tuple[Interval, ...] = field(default_factory=tuple)

    @staticmethod
    def from_spectrum(spec) -> "EnclosedSet":
        inner, outer, spots = [], [], []
        for lo, hi in spec.bands:
            outer.append((lo.lo, hi.hi))
            if lo.hi <= hi.lo:
                inner.append((lo.hi, hi.lo))
        for lo, hi in spec.points:
            outer.append((lo, hi))
            spots.append((lo, hi))
        return EnclosedSet(normalize(inner), normalize(outer), tuple(sorted(spots)))

    def intersection(self, other: "EnclosedSet") -> "EnclosedSet":
        if self.spots or other.spots:
            raise PreconditionError("set intersection is only defined for band data")
        return EnclosedSet(
            normalize(intersect(self.inner, other.inner)),
            normalize(intersect(self.outer, other.outer)),
        )

    def measure(self) -> tuple[Fraction, Fraction]:
        """Lebesgue measure enclosure; spots contribute only to the upper
        bound (each holds a single point of the true set)."""
        return measure(self.inner), measure(self.outer)

    def hausdorff(self, other: "EnclosedSet") -> tuple[Fraction, Fraction]:
        """Certified enclosure of the Hausdorff distance, computed on
        integer endpoints over one common denominator of both sets."""
        if not self.outer or not other.outer:
            raise PreconditionError("Hausdorff distance needs non-empty sets")
        parts = (self.inner, self.outer, self.spots, other.inner, other.outer, other.spots)
        ends, d = over_common_denominator((iv for part in parts for iv in part), 4)
        cuts = list(accumulate((len(part) for part in parts), initial=0))
        split = [ends[i:j] for i, j in zip(cuts, cuts[1:])]
        mine, theirs = split[:3], split[3:]
        hi = lo = 0
        for a, b in ((mine, theirs), (theirs, mine)):
            (a_inner, a_outer, a_spots), (b_inner, b_outer, b_spots) = a, b
            members = normalize(b_inner + [((s + t) // 2,) * 2 for s, t in b_spots])
            if not members:
                raise PrecisionError("set enclosure too coarse (no certified member)")
            slack = max(((t - s) // 2 for s, t in b_spots), default=0)
            hi = max(hi, _directed(a_outer, members) + slack)
            lo = max(lo, _directed(a_inner, b_outer))
            for s, t in a_spots:
                centre = ((s + t) // 2,) * 2
                lo = max(lo, _directed([centre], b_outer) - (t - s) // 2)
        return Fraction(min(lo, hi), d), Fraction(hi, d)


def hausdorff_spectra(s1, s2) -> tuple[Fraction, Fraction]:
    return EnclosedSet.from_spectrum(s1).hausdorff(EnclosedSet.from_spectrum(s2))


def lebesgue(spec) -> tuple[Fraction, Fraction]:
    """Total band length of a spectrum as a certified enclosure (isolated
    points contribute nothing)."""
    return EnclosedSet.from_spectrum(replace(spec, points=())).measure()
