"""Exact set computations on finite unions of closed intervals.

A spectrum enters as three pieces: an inner union certified inside the set,
an outer union certified to contain it, and "spots" (tiny intervals each
containing exactly one isolated member whose exact position is unknown).
Intersections, Lebesgue measure and the Hausdorff metric come out as
certified rational enclosures.

`_directed` gives twice the directed Hausdorff distance dH(X, Y) = sup
over X of the distance to Y between two sorted disjoint unions, and
`_spots_lower` the same for the midpoints of spots, less their
half-widths; both ends of the `EnclosedSet.hausdorff` enclosure come from
these two.  For the directed distance from the true set A to the true set
B, with w(B) the largest spot half-width of B (0 without spots):

- upper: dH(A.outer, B.inner + spot midpoints of B) + w(B), since A lies
  in A.outer and each spot's member lies within w(B) of the spot's
  midpoint;
- lower: the largest of dH(A.inner, B.outer) and, for each spot of A,
  the distance from its midpoint to B.outer minus its own half-width,
  since A holds A.inner and each spot's member, and B lies in B.outer.

Each end takes the larger value of the two directions.  The w(B) slack
lets the upper end use one sweep against the spot midpoints.  Both
routines are linear merges: one pointer walks the intervals of Y while the
loop walks X (or the spots), so a distance costs O(n + m).

An `EnclosedSet` keeps every endpoint as an integer numerator over one
power of two 2^exp, as the root enclosures of a spectrum give them, so two
sets meet over a common denominator by shifting the one with the smaller
exponent.  Doubled distances keep gap midpoints exact on integer ends;
`hausdorff` doubles the ends once more only where spot midpoints join the
members, and reports every value over 4 times the common 2^exp.  Each
result becomes a Fraction once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import PreconditionError, PrecisionError

Interval = tuple[int, int]


def normalize(intervals) -> tuple[Interval, ...]:
    """Sort and merge closed intervals (degenerate ones allowed)."""
    out: list[Interval] = []
    end = None  # the right end of out[-1]
    for lo, hi in sorted(intervals):
        if lo > hi:
            continue
        if out and lo <= end:
            if hi > end:
                out[-1] = (out[-1][0], hi)
                end = hi
        else:
            out.append((lo, hi))
            end = hi
    return tuple(out)


def intersect(a, b) -> tuple[Interval, ...]:
    """The intersection of two sorted disjoint unions.  For unions as
    `normalize` returns them, the result is one too: each piece starts
    after the interval that ended the piece before it."""
    out = []
    i = j = 0
    n, m = len(a), len(b)
    while i < n and j < m:
        alo, ahi = a[i]
        blo, bhi = b[j]
        lo = alo if alo > blo else blo
        if ahi < bhi:
            if lo <= ahi:
                out.append((lo, ahi))
            i += 1
        else:
            if lo <= bhi:
                out.append((lo, bhi))
            j += 1
    return tuple(out)


def _directed(a: Sequence[Interval], b: Sequence[Interval]) -> int:
    """Twice the sup over the union a of the distance to the non-empty
    union b, both with integer endpoints, so gap midpoints need no rounding.

    Both are sorted disjoint unions, as `normalize` returns them.  On each
    interval of a the distance to b peaks at an endpoint or at the midpoint
    of a gap of b.  The loop walks a and one pointer walks b, so the cost
    is O(n + m)."""
    ends = gaps = 0  # largest end distance, largest gap width with its midpoint in a
    m = len(b)
    j = 0  # b[j] is the first interval of b starting after the point at hand
    for lo, hi in a:
        while j < m and b[j][0] <= lo:
            j += 1
        if j == m:
            # lo and hi lie past the start of the last interval of b
            if hi - b[-1][1] > ends:
                ends = hi - b[-1][1]
            continue
        y = b[j][0]
        if j:
            x = b[j - 1][1]
            d = lo - x if lo - x < y - lo else y - lo
            if 2 * lo <= x + y <= 2 * hi and y - x > gaps:
                gaps = y - x
        else:
            d = y - lo
        if d > ends:
            ends = d
        # every later gap that starts inside [lo, hi] has its midpoint past lo
        while y <= hi:
            j += 1
            if j == m:
                break
            x, y = b[j - 1][1], b[j][0]
            if x + y <= 2 * hi and y - x > gaps:
                gaps = y - x
        if j == m:
            d = hi - b[-1][1]
        elif j:
            x = b[j - 1][1]
            d = hi - x if hi - x < y - hi else y - hi
        else:
            d = y - hi
        if d > ends:
            ends = d
    return max(2 * ends, gaps)


def _spots_lower(spots: Sequence[Interval], b: Sequence[Interval]) -> int:
    """Twice the largest of 0 and, over the spots (s, t), the distance from
    the midpoint (s + t)/2 to the non-empty union b less the half-width
    (t - s)/2: the lower Hausdorff term of all spots in one pass.

    b is a sorted disjoint union; the pointer into b follows the midpoints
    forward, and back where spots nest, so sorted spots cost O(n + m)."""
    best = 0
    m = len(b)
    j = 0  # b[j] is the first interval of b starting after the midpoint
    for s, t in spots:
        c = s + t
        while j < m and 2 * b[j][0] <= c:
            j += 1
        while j and 2 * b[j - 1][0] > c:
            j -= 1
        d = c - 2 * b[j - 1][1] if j else 2 * b[0][0] - c
        if 0 < j < m and 2 * b[j][0] - c < d:
            d = 2 * b[j][0] - c
        d -= t - s
        if d > best:
            best = d
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
        exp = max((e.exp for part in (*spec.bands, spec.defects) for e in part), default=0)
        inner, outer = [], []
        for lo, hi in spec.bands:
            (a, b), (c, d) = lo.ends_at(exp), hi.ends_at(exp)
            if b <= c:
                inner.append((b, c))
            outer.append((a, d))
        spots = sorted(e.ends_at(exp) for e in spec.defects)
        return EnclosedSet(normalize(inner), normalize(outer + spots), tuple(spots), exp)

    def over(self, exp: int) -> "EnclosedSet":
        """The same set with its endpoints over 2^exp, for exp >= self.exp;
        the set itself when exp is its own."""
        s = exp - self.exp
        if not s:
            return self
        # tuple() of a list sizes each tuple once; of a generator it grows the
        # tuple by reallocation, which fragmented the heap on large sets
        parts = [tuple([(lo << s, hi << s) for lo, hi in part]) for part in (self.inner, self.outer, self.spots)]
        return EnclosedSet(*parts, exp)

    def intersection(self, other: "EnclosedSet") -> "EnclosedSet":
        if self.spots or other.spots:
            raise PreconditionError("set intersection is only defined for band data")
        exp = max(self.exp, other.exp)
        a, b = self.over(exp), other.over(exp)
        return EnclosedSet(intersect(a.inner, b.inner), intersect(a.outer, b.outer), (), exp)

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
        exp = max(self.exp, other.exp)
        mine, theirs = self.over(exp), other.over(exp)
        hi = lo = 0
        # every value below is over 2^(exp + 2)
        for a, b in ((mine, theirs), (theirs, mine)):
            if b.spots:
                # spot midpoints (s + t)/2 are integers over 2^(exp + 1);
                # a half-width (t - s)/2 is 2(t - s) over 2^(exp + 2)
                members = normalize([*((2 * s, 2 * t) for s, t in b.inner), *((s + t, s + t) for s, t in b.spots)])
                outer = [(2 * s, 2 * t) for s, t in a.outer]
                hi = max(hi, _directed(outer, members) + 2 * max(t - s for s, t in b.spots))
            elif b.inner:
                hi = max(hi, 2 * _directed(a.outer, b.inner))
            else:
                raise PrecisionError("set enclosure too coarse (no certified member)")
            lo = max(lo, 2 * _directed(a.inner, b.outer), 2 * _spots_lower(a.spots, b.outer))
        exp += 2
        return Fraction(min(lo, hi), 1 << exp), Fraction(hi, 1 << exp)


def hausdorff_spectra(s1, s2) -> tuple[Fraction, Fraction]:
    return EnclosedSet.from_spectrum(s1).hausdorff(EnclosedSet.from_spectrum(s2))


def lebesgue(spec) -> tuple[Fraction, Fraction]:
    """Total band length of a spectrum as a certified enclosure (isolated
    points contribute nothing)."""
    return EnclosedSet.from_spectrum(replace(spec, defects=())).measure()
