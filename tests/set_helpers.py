"""Set operations and exact distances that only the tests use, on
`kohmoto.sets.EnclosedSet` and plain interval unions."""

from fractions import Fraction

from kohmoto.errors import PreconditionError
from kohmoto.farey import over_common_denominator
from kohmoto.sets import EnclosedSet, _directed, intersect, normalize


def directed_hausdorff(a, b) -> Fraction:
    """sup over the union a of the distance to the union b, exactly; both
    are sorted disjoint unions, as `normalize` returns them."""
    if not a:
        return Fraction(0)
    if not b:
        raise PreconditionError("directed distance to an empty set")
    ends, d = over_common_denominator([*a, *b], 4)
    return Fraction(_directed(ends[: len(a)], ends[len(a) :]), d)


def hausdorff_exact(a, b) -> Fraction:
    """Hausdorff distance of two non-empty unions of closed intervals."""
    a, b = normalize(a), normalize(b)
    if not a or not b:
        raise PreconditionError("Hausdorff distance needs non-empty sets")
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def from_intervals(intervals) -> EnclosedSet:
    """A set known exactly: inner and outer union coincide."""
    xs = normalize(intervals)
    return EnclosedSet(xs, xs)


def union(a: EnclosedSet, b: EnclosedSet) -> EnclosedSet:
    return EnclosedSet(
        normalize(a.inner + b.inner),
        normalize(a.outer + b.outer),
        tuple(sorted(a.spots + b.spots)),
    )


def covers_at_resolution(a: EnclosedSet, b: EnclosedSet) -> bool:
    """Containment check at enclosure resolution: the certified inner part
    of b lies inside the outer hull of a."""
    body = normalize(b.inner + b.spots)
    hull = normalize(a.outer)
    return intersect(body, hull) == body


def certainly_disjoint_triple(a: EnclosedSet, b: EnclosedSet, c: EnclosedSet) -> bool:
    return not intersect(intersect(a.outer, b.outer), c.outer)
