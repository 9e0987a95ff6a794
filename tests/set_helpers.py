"""Set operations and exact distances that only the tests use, on
`kohmoto.sets.EnclosedSet` and plain interval unions with dyadic ends."""

from fractions import Fraction
from types import SimpleNamespace

from kohmoto.errors import PreconditionError
from kohmoto.sets import EnclosedSet, _directed, intersect, normalize

from rootfind_oracle import enclosure


def directed_hausdorff(a, b) -> Fraction:
    """sup over the union a of the distance to the union b, exactly; both
    are sorted disjoint unions, as `normalize` returns them."""
    if not a:
        return Fraction(0)
    if not b:
        raise PreconditionError("directed distance to an empty set")
    encs = [enclosure((), lo, hi) for lo, hi in [*a, *b]]
    exp = max(e.exp for e in encs)
    ends = [e.ends_at(exp) for e in encs]
    # _directed gives twice the distance
    return Fraction(_directed(ends[: len(a)], ends[len(a) :]), 2 << exp)


def hausdorff_exact(a, b) -> Fraction:
    """Hausdorff distance of two non-empty unions of closed intervals."""
    a, b = normalize(a), normalize(b)
    if not a or not b:
        raise PreconditionError("Hausdorff distance needs non-empty sets")
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def enclosed_set(bands=(), spots=()) -> EnclosedSet:
    """The set of a spectrum with these bands and isolated points: each
    band is a pair of edge enclosures ((lo, hi), (lo, hi)) and each spot the
    enclosure (lo, hi) of one point, all with dyadic ends."""
    spec = SimpleNamespace(
        bands=[(enclosure((), *lo), enclosure((), *hi)) for lo, hi in bands],
        defects=[enclosure((), *spot) for spot in spots],
    )
    return EnclosedSet.from_spectrum(spec)


def from_intervals(intervals, points=()) -> EnclosedSet:
    """A set known exactly, intervals and isolated points: inner and outer
    union coincide up to the points."""
    return enclosed_set([((lo, lo), (hi, hi)) for lo, hi in intervals], [(x, x) for x in points])


def _common(*sets: EnclosedSet) -> list[EnclosedSet]:
    exp = max(s.exp for s in sets)
    return [s.over(exp) for s in sets]


def union(a: EnclosedSet, b: EnclosedSet) -> EnclosedSet:
    a, b = _common(a, b)
    return EnclosedSet(
        normalize(a.inner + b.inner),
        normalize(a.outer + b.outer),
        tuple(sorted(a.spots + b.spots)),
        a.exp,
    )


def covers_at_resolution(a: EnclosedSet, b: EnclosedSet) -> bool:
    """Containment check at enclosure resolution: the certified inner part
    of b lies inside the outer hull of a."""
    a, b = _common(a, b)
    body = normalize(b.inner + b.spots)
    hull = normalize(a.outer)
    return intersect(body, hull) == body


def certainly_disjoint_triple(a: EnclosedSet, b: EnclosedSet, c: EnclosedSet) -> bool:
    a, b, c = _common(a, b, c)
    return not intersect(intersect(a.outer, b.outer), c.outer)
