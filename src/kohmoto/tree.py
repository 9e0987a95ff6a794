"""The interval-labelled Farey tree, its weight, and the boundary metric.

Nodes are labelled by [0,1], by open intervals between Farey neighbors, or
by rational singletons; the weighted boundary is isometric to the completed
Farey interval.  The tree is generated lazily, children on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError
from .farey import (
    FareyPoint,
    as_point,
    compare_points,
    emergence_level,
    format_rational,
    is_neighbor_pair,
    mediant,
)


@dataclass(frozen=True)
class TreeNode:
    kind: str  # "root" | "interval" | "singleton"
    level: int
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
    r: Optional[Fraction] = None
    singleton_depth: int = 0

    @staticmethod
    def root() -> "TreeNode":
        return TreeNode("root", 0)

    @staticmethod
    def interval(lower: Fraction, upper: Fraction, level: int) -> "TreeNode":
        if not (lower == Fraction(0) and upper == Fraction(1)) and not is_neighbor_pair(
            lower, upper
        ):
            raise PreconditionError("interval label must be a Farey neighbor pair")
        return TreeNode("interval", level, lower=lower, upper=upper)

    @staticmethod
    def singleton(r: Fraction, level: int, depth: int) -> "TreeNode":
        return TreeNode("singleton", level, r=r, singleton_depth=depth)

    def label(self) -> str:
        if self.kind == "root":
            return "[0,1]"
        if self.kind == "interval":
            return f"({format_rational(self.lower)},{format_rational(self.upper)})"
        return f"{{{format_rational(self.r)}}}"


def children(node: TreeNode) -> list[TreeNode]:
    """Root splits into {0}, (0,1), {1}; an interval splits at its mediant;
    a singleton has the single singleton child."""
    lvl = node.level + 1
    if node.kind == "root":
        return [
            TreeNode.singleton(Fraction(0), lvl, 1),
            TreeNode.interval(Fraction(0), Fraction(1), lvl),
            TreeNode.singleton(Fraction(1), lvl, 1),
        ]
    if node.kind == "interval":
        s = mediant(node.lower, node.upper)
        return [
            TreeNode.interval(node.lower, s, lvl),
            TreeNode.singleton(s, lvl, 1),
            TreeNode.interval(s, node.upper, lvl),
        ]
    return [TreeNode.singleton(node.r, lvl, node.singleton_depth + 1)]


def weight(node: TreeNode) -> Fraction:
    """Node weight: 1 at the root, 1/(q+q') on an interval, and halving
    along singleton chains (1/(2^depth * q) in closed form)."""
    if node.kind == "root":
        return Fraction(1)
    if node.kind == "interval":
        if node.lower == 0 and node.upper == 1:
            return Fraction(1, 2)
        return Fraction(1, emergence_level(node.lower, node.upper))
    return Fraction(1, (2**node.singleton_depth) * node.r.denominator)


def _contains(node: TreeNode, x: FareyPoint) -> bool:
    if node.kind == "root":
        return True
    if node.kind == "singleton":
        return compare_points(x, FareyPoint.exact(node.r)) == 0
    return (
        compare_points(FareyPoint.exact(node.lower), x) < 0
        and compare_points(x, FareyPoint.exact(node.upper)) < 0
    )


@dataclass(frozen=True)
class BoundaryPath:
    """Boundary ray of the tree: a materialized prefix plus the rule that
    generates the rest (descend toward a point, stay in a singleton, or
    always take the left/right interval child)."""

    nodes: tuple[TreeNode, ...]
    rule: tuple  # ("point", FareyPoint) | ("singleton",) | ("left",) | ("right",)

    def depth(self) -> int:
        return len(self.nodes) - 1


def _descend(node: TreeNode, rule) -> TreeNode:
    kids = children(node)
    if node.kind == "singleton":
        return kids[0]
    tag = rule[0]
    if tag == "point":
        x = rule[1]
        for child in kids:
            if _contains(child, x):
                return child
        raise PreconditionError("point escaped its tree interval")  # unreachable
    if tag == "left":
        return kids[0] if node.kind != "root" else kids[1]
    if tag == "right":
        return kids[2] if node.kind != "root" else kids[1]
    if tag == "singleton":
        raise PreconditionError("singleton rule cannot extend an interval node")
    raise PreconditionError(f"unknown continuation rule {rule!r}")


# Cap on the depth of a materialized boundary path, one node per level: on a
# 2-core machine `tree dist 1/3 1/2` took 0.35 s and 33 MB max RSS at depth
# 10^4, 1.1 s and 71 MB at 10^5, and 1.7 s and 113 MB at 2 * 10^5.
MAX_PATH_DEPTH = 10_000


def path_of(x, depth: int) -> BoundaryPath:
    """The unique boundary path whose labels all contain x, materialized to
    the given depth."""
    x = as_point(x)
    if not 1 <= depth <= MAX_PATH_DEPTH:
        raise PreconditionError(f"depth must be between 1 and {MAX_PATH_DEPTH}")
    nodes = [TreeNode.root()]
    rule = ("point", x)
    for _ in range(depth):
        nodes.append(_descend(nodes[-1], rule))
    return BoundaryPath(tuple(nodes), rule)


def represent(path: BoundaryPath) -> FareyPoint:
    """The unique completion point contained in every label of the path."""
    if not path.nodes or path.nodes[0].kind != "root":
        raise PreconditionError("boundary path must start at the root")
    last = path.nodes[-1]
    tag = path.rule[0]
    if tag == "point":
        x = path.rule[1]
        if not _contains(last, x):
            raise PreconditionError("continuation point is not in the final label")
        return x
    if tag == "singleton":
        if last.kind != "singleton":
            raise PreconditionError("singleton rule needs a singleton tail")
        return FareyPoint.exact(last.r)
    if last.kind == "singleton":
        raise PreconditionError("left/right rules need an interval tail")
    if last.kind == "root":
        last = children(last)[1]  # the (0,1) child; left/right keep it an interval
    if tag == "left":
        return FareyPoint.plus(last.lower)
    if tag == "right":
        return FareyPoint.minus(last.upper)
    raise PreconditionError(f"unknown continuation rule {path.rule!r}")


def boundary_distance(gamma: BoundaryPath, eta: BoundaryPath) -> Fraction:
    """Weight of the last common node of the two paths; 0 for equal paths.
    Raises if the materialized prefixes are too short to separate them."""
    if compare_points(represent(gamma), represent(eta)) == 0:
        return Fraction(0)
    meet = None
    for a, b in zip(gamma.nodes, eta.nodes):
        if a != b:
            return weight(meet)
        meet = a
    raise PreconditionError("paths agree on their materialized prefixes; extend the depth")


MAX_LISTING_DEPTH = 16


def level_listing(depth: int) -> list[dict]:
    """Breadth-first listing of the tree to a depth, for the CLI; the
    listing has about 2^(depth + 1) rows, so the depth is capped."""
    if not 0 <= depth <= MAX_LISTING_DEPTH:
        raise PreconditionError(f"listing depth must be between 0 and {MAX_LISTING_DEPTH}")
    rows = []
    frontier = [TreeNode.root()]
    for _ in range(depth + 1):
        next_frontier = []
        for node in frontier:
            rows.append(
                {"label": node.label(), "level": node.level, "weight": format_rational(weight(node))}
            )
            next_frontier.extend(children(node))
        frontier = next_frontier
    return rows
