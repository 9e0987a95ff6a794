"""Certified real-root isolation and refinement for integer polynomials.

A Sturm chain over exact integers gives the number of roots in a window.
Floating-point root estimates place each root in one cell of a dyadic grid,
and exact sign changes across as many disjoint cells as the Sturm count
certify one root per cell; when the estimates do not yield such cells,
bisection on Sturm counts isolates the roots instead.  Floating point only
proposes cells: every certificate is an exact integer sign or count.
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
        if hi - lo <= max_width:
            return self
        p = self.poly
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


def _largest_dyadic_at_most(x: Fraction) -> Fraction:
    """The largest power of two that is <= x, for x > 0."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    h = Fraction(2) ** e
    if h > x:
        h /= 2
    return h


def isolate_roots(
    p: Sequence[int],
    guide: Optional[Sequence[float]] = None,
    window: Optional[tuple[Fraction, Fraction]] = None,
    width: Optional[Fraction] = None,
) -> list[RootEnclosure]:
    """All real roots of a square-free integer polynomial as isolating
    intervals, sorted, that meet at most in a shared endpoint which is not
    a root.  An optional window restricts the search to an open interval
    with non-root endpoints.

    One Sturm chain gives the number of roots in the window.  Floating
    guesses (one per root) then place each root in a cell of a dyadic
    grid whose spacing is at most width and at most a third of the
    smallest gap between guesses; a sign change across each of as many
    disjoint cells as there are roots certifies them all.  When the
    guesses do not yield such cells, Sturm bisection over the window
    isolates the roots instead."""
    p = primitive(p)
    if degree(p) == 0:
        return []
    chain = sturm_chain(p)
    if window is None:
        bound = Fraction(cauchy_bound(p))
        lo_all, hi_all = -bound, bound
        # every real root lies inside the Cauchy bound, so count at infinity
        lead = [1 if q[-1] > 0 else -1 for q in chain]
        at_minus = [-s if degree(q) % 2 else s for s, q in zip(lead, chain)]
        total = _variations(at_minus) - _variations(lead)
    else:
        lo_all, hi_all = window
        if sign_at(p, lo_all) == 0 or sign_at(p, hi_all) == 0:
            raise PreconditionError("window endpoints must not be roots")
        total = variations_at(chain, lo_all) - variations_at(chain, hi_all)
    if total == 0:
        return []
    poly = tuple(p)
    roots = None
    if guide is not None and len(guide) == total:
        roots = _grid_cells(poly, guide, lo_all, hi_all, width)
    if roots is None:
        roots = _sturm_bisection(poly, chain, lo_all, hi_all)
    if len(roots) != total:
        raise PrecisionError(f"isolated {len(roots)} roots, Sturm count is {total}")
    return roots


def _grid_cells(
    poly: tuple[int, ...],
    guide: Sequence[float],
    lo_all: Fraction,
    hi_all: Fraction,
    width: Optional[Fraction],
) -> Optional[list[RootEnclosure]]:
    """One sign-change cell of a dyadic grid per guess, sorted, or None
    when the cells do not certify one root each.  A grid point where the
    polynomial vanishes is returned as the exact enclosure [x, x]."""
    if not all(math.isfinite(g) for g in guide):
        return None
    approx = sorted(Fraction(g) for g in guide)
    caps = [b - a for a, b in zip(approx, approx[1:])]
    if any(c == 0 for c in caps):
        return None
    caps = [c / 3 for c in caps] + [hi_all - lo_all]
    if width is not None:
        caps.append(width)
    h = _largest_dyadic_at_most(min(caps))
    signs: dict[int, int] = {}

    def sign(k: int) -> int:
        if k not in signs:
            signs[k] = sign_at(poly, k * h)
        return signs[k]

    def cell(k: int) -> Optional[RootEnclosure]:
        for j in (k, k + 1):
            if sign(j) == 0:
                return RootEnclosure(poly, j * h, j * h)
        if sign(k) != sign(k + 1):
            return RootEnclosure(poly, k * h, (k + 1) * h)
        return None

    roots = []
    for g in approx:
        k = math.floor(g / h)
        enc = cell(k) or cell(k - 1 if g - k * h < (k + 1) * h - g else k + 1)
        if enc is None or enc.lo < lo_all or enc.hi > hi_all:
            return None
        roots.append(enc)
    roots.sort(key=lambda r: (r.lo, r.hi))
    if any(a.hi >= b.lo for a, b in zip(roots, roots[1:])):
        return None
    return roots


def _sturm_bisection(
    poly: tuple[int, ...], chain: Sequence[IntPoly], lo_all: Fraction, hi_all: Fraction
) -> list[RootEnclosure]:
    """Isolating intervals for the roots in (lo_all, hi_all) by bisection
    on Sturm counts, sorted."""
    vcache: dict[Fraction, int] = {}

    def vat(x: Fraction) -> int:
        if x not in vcache:
            vcache[x] = variations_at(chain, x)
        return vcache[x]

    roots: list[RootEnclosure] = []
    stack = [(lo_all, hi_all, vat(lo_all) - vat(hi_all))]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            roots.append(RootEnclosure(poly, a, b))
            continue
        m = (a + b) / 2
        if sign_at(poly, m) == 0:
            roots.append(RootEnclosure(poly, m, m))
            eps = (b - a) / 4
            while True:
                left, right = m - eps, m + eps
                if (
                    left > a
                    and right < b
                    and sign_at(poly, left) != 0
                    and sign_at(poly, right) != 0
                    and vat(left) - vat(right) == 1
                ):
                    break
                eps /= 2
            stack.append((a, left, vat(a) - vat(left)))
            stack.append((right, b, vat(right) - vat(b)))
            continue
        kl = vat(a) - vat(m)
        stack.append((a, m, kl))
        stack.append((m, b, k - kl))
    roots.sort(key=lambda r: (r.lo, r.hi))
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
    g = poly_gcd(list(a.poly), list(b.poly))
    gchain = sturm_chain(g) if degree(g) > 0 else None
    for _ in range(256):
        if a_.hi < b_.lo:
            return -1
        if b_.hi < a_.lo:
            return 1
        if a_.is_exact() and b_.is_exact() and a_.lo == b_.lo:
            return 0
        if gchain is not None:
            lo = min(a_.lo, b_.lo)
            hi = max(a_.hi, b_.hi)
            # the padded window shrinks with the enclosures, so it comes to
            # exclude every other root of g
            pad = (hi - lo) / (1 << 10)
            lo_pt, hi_pt = lo - pad, hi + pad
            while sign_at(g, lo_pt) == 0:
                lo_pt -= pad
            while sign_at(g, hi_pt) == 0:
                hi_pt += pad
            whole = count_roots(gchain, lo_pt, hi_pt)
            in_a = _count_roots_closed(g, gchain, a_)
            in_b = _count_roots_closed(g, gchain, b_)
            if whole == 1 and in_a == 1 and in_b == 1:
                return 0
        shrink = min(w for w in (a_.width, b_.width) if w) / 4
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
