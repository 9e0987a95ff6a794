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

An `EnclosedSet` keeps every endpoint as an integer numerator over one
power of two 2^exp, as the root enclosures of a spectrum give them, so two
sets meet over a common denominator by shifting to the larger exponent.
`hausdorff` shifts by 2 more, so spot centres and gap midpoints stay
integers.  Each result becomes a Fraction once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import itemgetter

from .errors import PreconditionError, PrecisionError

Interval = tuple[int, int]
_start = itemgetter(0)


def normalize(intervals) -> tuple[Interval, ...]:
    """Sort and merge closed intervals (degenerate ones allowed)."""
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
    """A compact set bracketed by certified interval data, every endpoint
    an integer numerator over 2^exp."""

    inner: tuple[Interval, ...]
    outer: tuple[Interval, ...]
    spots: tuple[Interval, ...] = field(default_factory=tuple)
    exp: int = 0

    @staticmethod
    def from_spectrum(spec) -> "EnclosedSet":
        encs = [e for band in spec.bands for e in band] + list(spec.defects)
        exp = max((e.exp for e in encs), default=0)
        ends = [e.ends_at(exp) for e in encs]
        n = 2 * len(spec.bands)
        edges = list(zip(ends[0:n:2], ends[1:n:2]))
        inner = [(lo[1], hi[0]) for lo, hi in edges if lo[1] <= hi[0]]
        outer = [(lo[0], hi[1]) for lo, hi in edges] + ends[n:]
        return EnclosedSet(normalize(inner), normalize(outer), tuple(sorted(ends[n:])), exp)

    def over(self, exp: int) -> "EnclosedSet":
        """The same set with its endpoints over 2^exp, for exp >= self.exp."""
        s = exp - self.exp
        # tuple() of a list sizes each tuple once; of a generator it grows the
        # tuple by reallocation, which fragmented the heap on large sets
        parts = [tuple([(lo << s, hi << s) for lo, hi in part]) for part in (self.inner, self.outer, self.spots)]
        return EnclosedSet(*parts, exp)

    def intersection(self, other: "EnclosedSet") -> "EnclosedSet":
        if self.spots or other.spots:
            raise PreconditionError("set intersection is only defined for band data")
        exp = max(self.exp, other.exp)
        a, b = self.over(exp), other.over(exp)
        return EnclosedSet(
            normalize(intersect(a.inner, b.inner)), normalize(intersect(a.outer, b.outer)), (), exp
        )

    def measure(self) -> tuple[Fraction, Fraction]:
        """Lebesgue measure enclosure; spots contribute only to the upper
        bound (each holds a single point of the true set)."""
        d = 1 << self.exp
        return tuple(Fraction(sum(hi - lo for lo, hi in part), d) for part in (self.inner, self.outer))

    def hausdorff(self, other: "EnclosedSet") -> tuple[Fraction, Fraction]:
        """Certified enclosure of the Hausdorff distance, computed on
        integer endpoints over 4 times the larger 2^exp of the two sets."""
        if not self.outer or not other.outer:
            raise PreconditionError("Hausdorff distance needs non-empty sets")
        exp = max(self.exp, other.exp) + 2
        mine, theirs = self.over(exp), other.over(exp)
        hi = lo = 0
        for a, b in ((mine, theirs), (theirs, mine)):
            members = normalize([*b.inner, *[((s + t) // 2,) * 2 for s, t in b.spots]])
            if not members:
                raise PrecisionError("set enclosure too coarse (no certified member)")
            slack = max(((t - s) // 2 for s, t in b.spots), default=0)
            hi = max(hi, _directed(a.outer, members) + slack)
            lo = max(lo, _directed(a.inner, b.outer))
            for s, t in a.spots:
                centre = ((s + t) // 2,) * 2
                lo = max(lo, _directed([centre], b.outer) - (t - s) // 2)
        return Fraction(min(lo, hi), 1 << exp), Fraction(hi, 1 << exp)


def hausdorff_spectra(s1, s2) -> tuple[Fraction, Fraction]:
    return EnclosedSet.from_spectrum(s1).hausdorff(EnclosedSet.from_spectrum(s2))


def lebesgue(spec) -> tuple[Fraction, Fraction]:
    """Total band length of a spectrum as a certified enclosure (isolated
    points contribute nothing)."""
    return EnclosedSet.from_spectrum(replace(spec, defects=())).measure()
