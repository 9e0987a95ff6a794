"""Set operations that only the tests use, on `kohmoto.sets.EnclosedSet`."""

from kohmoto.sets import EnclosedSet, intersect, normalize


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
