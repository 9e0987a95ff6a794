"""The bisecting directed distance, the per-spot Hausdorff loop, the
normalizing intersection and the copying set constructor, kept as oracles
for `kohmoto.sets`.

`sets._directed` walks both unions with one pointer and returns twice the
distance; `EnclosedSet.hausdorff` takes the lower term of all spots in one
pass and shifts only the set with the smaller exponent;
`EnclosedSet.intersection` keeps the output of `intersect` as it is; and
`EnclosedSet.from_spectrum` shifts the edge ends inline.  Each must give
exactly what these give.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter

from kohmoto.errors import PreconditionError, PrecisionError
from kohmoto.sets import EnclosedSet, intersect

_start = itemgetter(0)


def sorting_normalize(intervals) -> tuple:
    """Sort and merge closed intervals (degenerate ones allowed)."""
    xs = sorted((lo, hi) for lo, hi in intervals if lo <= hi)
    out = []
    for lo, hi in xs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def bisect_directed(a, b) -> int:
    """sup over the union a of the distance to the union b, on integer
    endpoints whose gap midpoints in b are integers.  Bisection finds the
    intervals of b next to each candidate."""

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


def shifted(es: EnclosedSet, exp: int) -> EnclosedSet:
    """A copy of the set with its endpoints over 2^exp, exp >= es.exp."""
    s = exp - es.exp
    parts = [tuple((lo << s, hi << s) for lo, hi in part) for part in (es.inner, es.outer, es.spots)]
    return EnclosedSet(*parts, exp)


def per_spot_hausdorff(x: EnclosedSet, y: EnclosedSet) -> tuple[Fraction, Fraction]:
    """The Hausdorff enclosure over 4 times the larger 2^exp, with one
    directed distance per spot."""
    if not x.outer or not y.outer:
        raise PreconditionError("Hausdorff distance needs non-empty sets")
    exp = max(x.exp, y.exp) + 2
    mine, theirs = shifted(x, exp), shifted(y, exp)
    hi = lo = 0
    for a, b in ((mine, theirs), (theirs, mine)):
        members = sorting_normalize([*b.inner, *[((s + t) // 2,) * 2 for s, t in b.spots]])
        if not members:
            raise PrecisionError("set enclosure too coarse (no certified member)")
        slack = max(((t - s) // 2 for s, t in b.spots), default=0)
        hi = max(hi, bisect_directed(a.outer, members) + slack)
        lo = max(lo, bisect_directed(a.inner, b.outer))
        for s, t in a.spots:
            centre = ((s + t) // 2,) * 2
            lo = max(lo, bisect_directed([centre], b.outer) - (t - s) // 2)
    return Fraction(min(lo, hi), 1 << exp), Fraction(hi, 1 << exp)


def normalizing_intersection(x: EnclosedSet, y: EnclosedSet) -> EnclosedSet:
    if x.spots or y.spots:
        raise PreconditionError("set intersection is only defined for band data")
    exp = max(x.exp, y.exp)
    a, b = shifted(x, exp), shifted(y, exp)
    return EnclosedSet(
        sorting_normalize(intersect(a.inner, b.inner)), sorting_normalize(intersect(a.outer, b.outer)), (), exp
    )


def copying_from_spectrum(spec) -> EnclosedSet:
    encs = [e for band in spec.bands for e in band] + list(spec.defects)
    exp = max((e.exp for e in encs), default=0)
    ends = [e.ends_at(exp) for e in encs]
    n = 2 * len(spec.bands)
    edges = list(zip(ends[0:n:2], ends[1:n:2]))
    inner = [(lo[1], hi[0]) for lo, hi in edges if lo[1] <= hi[0]]
    outer = [(lo[0], hi[1]) for lo, hi in edges] + ends[n:]
    return EnclosedSet(sorting_normalize(inner), sorting_normalize(outer), tuple(sorted(ends[n:])), exp)
