"""Exact set computations on finite unions of closed intervals.

A spectrum enters as three pieces: an inner union certified inside the set,
an outer union certified to contain it, and "spots" (tiny intervals each
containing exactly one isolated member whose exact position is unknown).
Intersections, Lebesgue measure and the Hausdorff metric come out as
certified rational enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError, PrecisionError

Interval = tuple[Fraction, Fraction]


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


def measure(intervals) -> Fraction:
    return sum((hi - lo for lo, hi in intervals), Fraction(0))


def _dist_to_intervals(x: Fraction, intervals) -> Fraction:
    best = None
    for lo, hi in intervals:
        d = max(Fraction(0), lo - x, x - hi)
        if best is None or d < best:
            best = d
        if d == 0:
            break
    return best


def _interval_gap(a: Interval, b: Interval) -> Fraction:
    return max(Fraction(0), b[0] - a[1], a[0] - b[1])


def directed_hausdorff(a, b) -> Fraction:
    """sup over the union a of the distance to the union b, exactly."""
    if not a:
        return Fraction(0)
    if not b:
        raise PreconditionError("directed distance to an empty set")
    candidates = [x for lo, hi in a for x in (lo, hi)]
    for (_, hi1), (lo2, _) in zip(b, b[1:]):
        m = (hi1 + lo2) / 2
        if any(lo <= m <= hi for lo, hi in a):
            candidates.append(m)
    return max(_dist_to_intervals(x, b) for x in candidates)


def hausdorff_exact(a, b) -> Fraction:
    """Hausdorff distance of two non-empty unions of closed intervals."""
    a, b = normalize(a), normalize(b)
    if not a or not b:
        raise PreconditionError("Hausdorff distance needs non-empty sets")
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


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

    @staticmethod
    def from_intervals(intervals) -> "EnclosedSet":
        xs = normalize(intervals)
        return EnclosedSet(xs, xs)

    def intersection(self, other: "EnclosedSet") -> "EnclosedSet":
        if self.spots or other.spots:
            raise PreconditionError("set intersection is only defined for band data")
        return EnclosedSet(
            normalize(intersect(self.inner, other.inner)),
            normalize(intersect(self.outer, other.outer)),
        )

    def union(self, other: "EnclosedSet") -> "EnclosedSet":
        return EnclosedSet(
            normalize(self.inner + other.inner),
            normalize(self.outer + other.outer),
            tuple(sorted(self.spots + other.spots)),
        )

    def measure(self) -> tuple[Fraction, Fraction]:
        """Lebesgue measure enclosure; spots contribute only to the upper
        bound (each holds a single point of the true set)."""
        return measure(self.inner), measure(self.outer)

    def _upper_distance(self, x: Fraction) -> Fraction:
        """Certified upper bound on dist(x, true set): distance to the
        certified inner union, or to the farthest end of a spot."""
        best = None
        if self.inner:
            best = _dist_to_intervals(x, self.inner)
        for lo, hi in self.spots:
            far = max(abs(x - lo), abs(x - hi))
            if best is None or far < best:
                best = far
        if best is None:
            raise PrecisionError("set enclosure too coarse (no certified member)")
        return best

    def hausdorff(self, other: "EnclosedSet") -> tuple[Fraction, Fraction]:
        """Certified enclosure of the Hausdorff distance."""
        if not self.outer or not other.outer:
            raise PreconditionError("Hausdorff distance needs non-empty sets")
        hi = max(_directed_upper(self, other), _directed_upper(other, self))
        lo = max(_directed_lower(self, other), _directed_lower(other, self))
        return min(lo, hi), hi

    def certainly_disjoint_triple(self, b: "EnclosedSet", c: "EnclosedSet") -> bool:
        return not intersect(intersect(self.outer, b.outer), c.outer)

    def covers_at_resolution(self, other: "EnclosedSet") -> bool:
        """Containment check at enclosure resolution: the certified inner
        part of other lies inside the outer hull of self."""
        body = normalize(other.inner + other.spots)
        hull = normalize(self.outer)
        return intersect(body, hull) == body


def _directed_upper(a: EnclosedSet, b: EnclosedSet) -> Fraction:
    """Upper bound for sup over the true set a of dist(., true set b).

    The bound function is a minimum of piecewise-linear unit-slope pieces
    anchored at boundary values of b's objects, so its local maxima sit at
    crossings between pieces of nearby objects; endpoint-combination
    midpoints of neighboring objects form a covering candidate set."""
    spotset = set(b.spots)
    objects = sorted(b.inner + b.spots)
    candidates = [x for lo, hi in a.outer for x in (lo, hi)]
    mids = []
    for i, u in enumerate(objects):
        # crossings pair an increasing piece of a left object with a
        # decreasing piece of a right one; interval-distance pieces anchor
        # only at the facing endpoints, spot far-end pieces at both
        left_anchors = u if u in spotset else (u[1],)
        for w in objects[i + 1 : i + 3]:  # two neighbors is already generous
            right_anchors = w if w in spotset else (w[0],)
            for p in left_anchors:
                for q in right_anchors:
                    mids.append((p + q) / 2)
    for m in mids:
        if any(lo <= m <= hi for lo, hi in a.outer):
            candidates.append(m)
    return max(b._upper_distance(x) for x in candidates)


def _directed_lower(a: EnclosedSet, b: EnclosedSet) -> Fraction:
    """Lower bound for sup over the true set a of dist(., true set b):
    evaluate at certified members of a against the outer hull of b."""
    best = Fraction(0)
    if a.inner:
        candidates = [x for lo, hi in a.inner for x in (lo, hi)]
        for (_, hi1), (lo2, _) in zip(b.outer, b.outer[1:]):
            m = (hi1 + lo2) / 2
            if any(lo <= m <= hi for lo, hi in a.inner):
                candidates.append(m)
        best = max(_dist_to_intervals(x, b.outer) for x in candidates)
    for spot in a.spots:
        d = min(_interval_gap(spot, j) for j in b.outer)
        if d > best:
            best = d
    return best


def hausdorff_spectra(s1, s2) -> tuple[Fraction, Fraction]:
    return EnclosedSet.from_spectrum(s1).hausdorff(EnclosedSet.from_spectrum(s2))


def lebesgue(spec) -> tuple[Fraction, Fraction]:
    """Total band length of a spectrum as a certified enclosure (isolated
    points contribute nothing)."""
    lo = Fraction(0)
    hi = Fraction(0)
    for b_lo, b_hi in spec.bands:
        hi += b_hi.hi - b_lo.lo
        if b_lo.hi <= b_hi.lo:
            lo += b_hi.lo - b_lo.hi
    return lo, hi
