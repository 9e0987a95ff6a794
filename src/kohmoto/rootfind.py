"""Certified real-root isolation and refinement for integer polynomials.

Sturm chains over exact integers are the certificate for every root count;
floating-point root estimates may seed candidate intervals but every
interval is verified by a Sturm count before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegeneracyError, PreconditionError, PrecisionError

IntPoly = list[int]


def strip(p: Sequence[int]) -> IntPoly:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def degree(p: Sequence[int]) -> int:
    return len(p) - 1


def derivative(p: Sequence[int]) -> IntPoly:
    if len(p) <= 1:
        return [0]
    return [i * c for i, c in enumerate(p)][1:]


def content(p: Sequence[int]) -> int:
    g = 0
    for c in p:
        g = math.gcd(g, abs(c))
        if g == 1:
            return 1
    return g or 1


def primitive(p: Sequence[int]) -> IntPoly:
    p = strip(p)
    g = content(p)
    return [c // g for c in p] if g > 1 else p


def _eval_homogeneous(p: Sequence[int], num: int, den: int) -> int:
    """den^deg(p) * p(num/den), an exact integer (same sign as p(num/den))."""
    acc = p[-1]
    dpow = 1
    for c in reversed(p[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return acc


def sign_at(p: Sequence[int], x: Fraction) -> int:
    v = _eval_homogeneous(p, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def _pseudo_rem_signed(a: IntPoly, b: IntPoly) -> tuple[IntPoly, int]:
    """Remainder of (lc(b)^k) * a by b together with the sign of lc(b)^k."""
    db = degree(b)
    lb = b[-1]
    r = list(a)
    sgn = 1
    while degree(r) >= db and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        top = r[-1]
        r = [lb * c for c in r]
        off = degree(r) - db
        for i, c in enumerate(b):
            r[off + i] -= top * c
        r.pop()
        if not r:
            r = [0]
        sgn = sgn if lb > 0 else -sgn
        r = strip(r)
        if r == [0]:
            break
    return r, sgn


def sturm_chain(p: Sequence[int]) -> list[IntPoly]:
    """Sign-correct Sturm chain (primitive pseudo-remainders).

    Raises DegeneracyError when the polynomial has a multiple real or
    complex root (non-trivial gcd with its derivative)."""
    p0 = primitive(p)
    if degree(p0) == 0:
        return [p0]
    chain = [p0, primitive(derivative(p0))]
    while True:
        r, sgn = _pseudo_rem_signed(chain[-2], chain[-1])
        if r == [0]:
            break
        chain.append(primitive([-sgn * c for c in r]))
        if degree(chain[-1]) == 0:
            break
    if degree(chain[-1]) > 0:
        raise DegeneracyError(
            "polynomial has a multiple root; band machinery requires simple roots"
        )
    return chain


def _variations(signs: Sequence[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def variations_at(chain: Sequence[IntPoly], x: Fraction) -> int:
    return _variations([sign_at(q, x) for q in chain])


def count_roots(chain: Sequence[IntPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of roots in (lo, hi); endpoints must not be roots."""
    return variations_at(chain, lo) - variations_at(chain, hi)


def cauchy_bound(p: Sequence[int]) -> int:
    lead = abs(p[-1])
    worst = max(abs(c) for c in p)
    return 2 + worst // lead


@dataclass
class RootEnclosure:
    """Isolating interval [lo, hi] for one simple real root of poly, with
    poly(lo) != 0 != poly(hi) unless lo == hi hits the root exactly."""

    poly: tuple[int, ...]
    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def refined(self, max_width: Fraction) -> "RootEnclosure":
        lo, hi = self.lo, self.hi
        if lo == hi:
            return self
        p = list(self.poly)
        s_lo = sign_at(p, lo)
        while hi - lo > max_width:
            m = (lo + hi) / 2
            s_m = sign_at(p, m)
            if s_m == 0:
                return RootEnclosure(self.poly, m, m)
            if s_m == s_lo:
                lo = m
            else:
                hi = m
        return RootEnclosure(self.poly, lo, hi)


def isolate_roots(
    p: Sequence[int],
    guide: Optional[Sequence[float]] = None,
    window: Optional[tuple[Fraction, Fraction]] = None,
) -> list[RootEnclosure]:
    """All real roots of a square-free integer polynomial as disjoint
    isolating intervals, sorted.  Floating guesses may propose the cut
    points; Sturm counts certify every interval.  An optional window
    restricts the search to an open interval with non-root endpoints."""
    p = primitive(p)
    if degree(p) == 0:
        return []
    chain = sturm_chain(p)
    vcache: dict[Fraction, int] = {}

    def vat(x: Fraction) -> int:
        if x not in vcache:
            vcache[x] = variations_at(chain, x)
        return vcache[x]

    if window is None:
        bound = Fraction(cauchy_bound(p))
        lo_all, hi_all = -bound, bound
    else:
        lo_all, hi_all = window
        if sign_at(p, lo_all) == 0 or sign_at(p, hi_all) == 0:
            raise PreconditionError("window endpoints must not be roots")
    total = vat(lo_all) - vat(hi_all)
    roots: list[RootEnclosure] = []
    if total == 0:
        return roots

    cuts = [lo_all, hi_all]
    if guide:
        approx = sorted(set(guide))
        for x, y in zip(approx, approx[1:]):
            cut = Fraction((x + y) / 2).limit_denominator(1 << 40)
            if lo_all < cut < hi_all and sign_at(p, cut) != 0:
                cuts.append(cut)
    cuts = sorted(set(cuts))

    stack = []
    for a, b in zip(cuts, cuts[1:]):
        k = vat(a) - vat(b)
        if k > 0:
            stack.append((a, b, k))
    while stack:
        a, b, k = stack.pop()
        if k == 1:
            roots.append(RootEnclosure(tuple(p), a, b))
            continue
        m = (a + b) / 2
        if sign_at(p, m) == 0:
            roots.append(RootEnclosure(tuple(p), m, m))
            eps = (b - a) / 4
            while True:
                left, right = m - eps, m + eps
                if (
                    left > a
                    and right < b
                    and sign_at(p, left) != 0
                    and sign_at(p, right) != 0
                    and vat(left) - vat(right) == 1
                ):
                    break
                eps /= 2
            kl = vat(a) - vat(left)
            kr = vat(right) - vat(b)
            if kl:
                stack.append((a, left, kl))
            if kr:
                stack.append((right, b, kr))
            continue
        kl = vat(a) - vat(m)
        kr = k - kl
        if kl:
            stack.append((a, m, kl))
        if kr:
            stack.append((m, b, kr))
    roots.sort(key=lambda r: (r.lo, r.hi))
    if len(roots) != total:
        raise PrecisionError(f"isolated {len(roots)} roots, Sturm count is {total}")
    return roots


def separate(enclosures: list[RootEnclosure]) -> list[RootEnclosure]:
    """Refine a family of enclosures of pairwise distinct roots until the
    intervals are pairwise disjoint, and return them sorted."""
    out = list(enclosures)
    for _ in range(4096):
        out.sort(key=lambda r: (r.lo + r.hi, r.lo))
        changed = False
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            if a.hi >= b.lo and not (a.is_exact() and b.is_exact()):
                width = (a.width + b.width) / 4 or Fraction(1, 1 << 30)
                out[i] = a.refined(width)
                out[i + 1] = b.refined(width)
                changed = True
        if not changed:
            break
    else:
        raise DegeneracyError("two roots could not be separated (equal roots?)")
    out.sort(key=lambda r: (r.lo, r.hi))
    for a, b in zip(out, out[1:]):
        if a.hi >= b.lo:
            raise DegeneracyError("two roots could not be separated (equal roots?)")
    return out


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    """Primitive gcd of two integer polynomials."""
    a, b = primitive(a), primitive(b)
    if a == [0]:
        return b
    if b == [0]:
        return a
    if degree(a) < degree(b):
        a, b = b, a
    while True:
        r, _ = _pseudo_rem_signed(a, b)
        r = primitive(r)
        if r == [0]:
            return b if b[-1] > 0 else [-c for c in b]
        a, b = b, r


def compare_roots(a: RootEnclosure, b: RootEnclosure) -> int:
    """Exact order of two algebraic numbers given by enclosures, detecting
    equality through the gcd of the defining polynomials."""
    a_, b_ = a, b
    for _ in range(256):
        if a_.hi < b_.lo:
            return -1
        if b_.hi < a_.lo:
            return 1
        if a_.is_exact() and b_.is_exact() and a_.lo == b_.lo:
            return 0
        g = poly_gcd(list(a_.poly), list(b_.poly))
        if degree(g) > 0:
            gchain = sturm_chain(g)
            lo = min(a_.lo, b_.lo)
            hi = max(a_.hi, b_.hi)
            lo_pt = lo - Fraction(1, 1 << 10)
            hi_pt = hi + Fraction(1, 1 << 10)
            whole = count_roots(gchain, lo_pt, hi_pt)
            in_a = _count_roots_closed(g, gchain, a_)
            in_b = _count_roots_closed(g, gchain, b_)
            if whole == 1 and in_a == 1 and in_b == 1:
                return 0
        shrink = min(a_.width, b_.width) / 4 or Fraction(1, 1 << 30)
        a_ = a_.refined(shrink)
        b_ = b_.refined(shrink)
    raise PreconditionError("root comparison did not converge")


def _count_roots_closed(g: IntPoly, gchain, enc: RootEnclosure) -> int:
    if enc.is_exact():
        return 1 if sign_at(g, enc.lo) == 0 else 0
    lo, hi = enc.lo, enc.hi
    pad = (hi - lo) / (1 << 10)
    lo_pt, hi_pt = lo - pad, hi + pad
    while sign_at(g, lo_pt) == 0:
        lo_pt -= pad
    while sign_at(g, hi_pt) == 0:
        hi_pt += pad
    return count_roots(gchain, lo_pt, hi_pt)
