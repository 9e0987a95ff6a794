"""Certified real-root isolation and refinement for integer polynomials.

A Sturm chain over exact integers gives the number of roots in a window.
Floating-point root estimates place each root in one cell of a dyadic grid,
and exact sign changes across as many disjoint cells as the Sturm count
certify one root per cell; when the estimates do not yield such cells,
bisection on Sturm counts isolates the roots instead.  Floating point only
proposes cells: every certificate is an exact integer sign or count.

Enclosure ends are Fractions to callers.  Inside the hot loops (grid
cells, bisection in `RootEnclosure.refined`, the sort and overlap tests of
`separate`) they are integer numerators over one common denominator
(`farey.over_common_denominator`), and a Fraction is built only for a
result.  Every exact sign is `sign_at(p, num, den)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegeneracyError, PreconditionError, PrecisionError
from .farey import over_common_denominator

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


def poly_mul(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def poly_add(a: Sequence[int], b: Sequence[int], sign: int = 1) -> IntPoly:
    """a + sign * b, stripped."""
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] += sign * y
    return strip(out)


def _eval_homogeneous(p: Sequence[int], num: int, den: int) -> int:
    """den^deg(p) * p(num/den), an exact integer (same sign as p(num/den)).
    A power-of-two den (every grid and bisection point) multiplies by
    shifts."""
    acc = p[-1]
    if den & (den - 1) == 0:
        k = den.bit_length() - 1
        shift = 0
        for c in reversed(p[:-1]):
            shift += k
            acc = acc * num + (c << shift)
        return acc
    dpow = 1
    for c in reversed(p[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return acc


def sign_at(p: Sequence[int], num: int, den: int) -> int:
    """Sign of p(num/den) for den > 0; every exact sign goes through here."""
    v = _eval_homogeneous(p, num, den)
    return (v > 0) - (v < 0)


def _sign(p: Sequence[int], x: Fraction) -> int:
    return sign_at(p, x.numerator, x.denominator)


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
    num, den = x.numerator, x.denominator
    return _variations([sign_at(q, num, den) for q in chain])


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
        """The same root enclosed at most max_width wide, by bisection on
        integer numerators over a doubling denominator."""
        wn, wd = max_width.numerator, max_width.denominator
        a, b = self.lo.numerator, self.lo.denominator
        c, e = self.hi.numerator, self.hi.denominator
        if (c * b - a * e) * wd <= wn * b * e:
            return self
        [(lo, hi)], d = over_common_denominator([(self.lo, self.hi)])
        p = self.poly
        s_lo = sign_at(p, lo, d)
        while (hi - lo) * wd > wn * d:
            m = lo + hi
            lo, hi, d = 2 * lo, 2 * hi, 2 * d
            s_m = sign_at(p, m, d)
            if s_m == 0:
                x = Fraction(m, d)
                return RootEnclosure(p, x, x)
            if s_m == s_lo:
                lo = m
            else:
                hi = m
        return RootEnclosure(p, Fraction(lo, d), Fraction(hi, d))


def _dyadic_exponent(n: int, d: int) -> int:
    """The largest e with 2^e <= n/d, for n, d > 0."""
    e = n.bit_length() - d.bit_length()
    if (d << e if e >= 0 else d) > (n if e >= 0 else n << -e):
        e -= 1
    return e


def isolate_roots(
    p: Sequence[int],
    guide: Optional[Sequence[float]] = None,
    width: Optional[Fraction] = None,
) -> list[RootEnclosure]:
    """All real roots of a square-free integer polynomial as isolating
    intervals, sorted, that meet at most in a shared endpoint which is not
    a root.

    One Sturm chain gives the number of real roots.  Floating guesses (one
    per root) then place each root in a cell of a dyadic grid whose
    spacing is at most width and at most a third of the smallest gap
    between guesses; a sign change across each of as many disjoint cells
    as there are roots certifies them all.  When the guesses do not yield
    such cells, Sturm bisection inside the Cauchy bound isolates the roots
    instead."""
    p = primitive(p)
    if degree(p) == 0:
        return []
    chain = sturm_chain(p)
    bound = Fraction(cauchy_bound(p))
    lo_all, hi_all = -bound, bound
    # every real root lies inside the Cauchy bound, so count at infinity
    lead = [1 if q[-1] > 0 else -1 for q in chain]
    at_minus = [-s if degree(q) % 2 else s for s, q in zip(lead, chain)]
    total = _variations(at_minus) - _variations(lead)
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


def _guess_numerators(guide: Sequence[float]) -> Optional[tuple[list[int], int]]:
    """The sorted guesses as exact integers over one power-of-two
    denominator, or None when one is not finite."""
    if not all(math.isfinite(g) for g in guide):
        return None
    ratios = [g.as_integer_ratio() for g in sorted(guide)]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _grid_exponent(
    xs: Sequence[int], den: int, window: Fraction, width: Optional[Fraction]
) -> Optional[int]:
    """The exponent of the grid spacing: the largest power of two at most
    the window, at most width and at most a third of the smallest gap
    between the guesses xs / den; None when two guesses coincide."""
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    if 0 in gaps:
        return None
    # 2^e <= x is monotone in x, so the smallest cap has the smallest exponent
    e = _dyadic_exponent(window.numerator, window.denominator)
    if gaps:
        e = min(e, _dyadic_exponent(min(gaps), 3 * den))
    if width is not None:
        e = min(e, _dyadic_exponent(width.numerator, width.denominator))
    return e


def grid_spacing(
    p: Sequence[int], guide: Sequence[float], width: Optional[Fraction]
) -> Optional[Fraction]:
    """The spacing of the grid that `isolate_roots(p, guide, width)` lays
    under the guesses, or None when it lays none.  Passed as the width to
    the isolation of each factor of p, guided by its share of the guesses,
    it puts every factor on the grid of p."""
    guesses = _guess_numerators(guide)
    if guesses is None:
        return None
    window = Fraction(2 * cauchy_bound(p))  # the same for every nonzero multiple of p
    e = _grid_exponent(*guesses, window, width)
    return None if e is None else Fraction(2) ** e


def _grid_cells(
    poly: tuple[int, ...],
    guide: Sequence[float],
    lo_all: Fraction,
    hi_all: Fraction,
    width: Optional[Fraction],
) -> Optional[list[RootEnclosure]]:
    """One sign-change cell of a dyadic grid per guess, sorted, or None
    when the cells do not certify one root each.  A grid point where the
    polynomial vanishes is returned as the exact enclosure [x, x].

    Grid point k is k * hn / hd, and the guesses are exact integers over
    one power-of-two denominator, so cells are found by integer division
    and only the accepted cells become Fractions."""
    guesses = _guess_numerators(guide)
    if guesses is None:
        return None
    xs, den = guesses
    e = _grid_exponent(xs, den, hi_all - lo_all, width)
    if e is None:
        return None
    hn, hd = (1 << e, 1) if e >= 0 else (1, 1 << -e)
    # the grid points inside the window are kmin..kmax
    kmin = -((-lo_all.numerator * hd) // (lo_all.denominator * hn))
    kmax = (hi_all.numerator * hd) // (hi_all.denominator * hn)
    signs: dict[int, int] = {}

    def sign(k: int) -> int:
        if k not in signs:
            signs[k] = sign_at(poly, k * hn, hd)
        return signs[k]

    def cell(k: int) -> Optional[tuple[int, int]]:
        for j in (k, k + 1):
            if sign(j) == 0:
                return j, j
        if sign(k) != sign(k + 1):
            return k, k + 1
        return None

    cells = []
    step = den * hn  # a guess x/den lies in cell k = floor(x / step * hd)
    for x in xs:
        k = (x * hd) // step
        # on a tie the guess sits on the cell midpoint and the cell above wins
        near = k - 1 if 2 * x * hd < (2 * k + 1) * step else k + 1
        c = cell(k) or cell(near)
        if c is None or c[0] < kmin or c[1] > kmax:
            return None
        cells.append(c)
    cells.sort()
    if any(a[1] >= b[0] for a, b in zip(cells, cells[1:])):
        return None
    return [RootEnclosure(poly, Fraction(a * hn, hd), Fraction(b * hn, hd)) for a, b in cells]


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
        if _sign(poly, m) == 0:
            roots.append(RootEnclosure(poly, m, m))
            eps = (b - a) / 4
            while True:
                left, right = m - eps, m + eps
                if (
                    left > a
                    and right < b
                    and _sign(poly, left) != 0
                    and _sign(poly, right) != 0
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
    intervals are pairwise disjoint, and return them sorted.

    Each pass sorts by (midpoint, lo) and tests overlaps and widths on
    integer numerators over one common denominator; a pair whose first
    enclosure the pass has just refined is put over its own denominator."""
    out = list(enclosures)
    for _ in range(4096):
        ends, d = over_common_denominator((r.lo, r.hi) for r in out)
        order = sorted(range(len(out)), key=lambda i: (ends[i][0] + ends[i][1], ends[i][0]))
        out = [out[i] for i in order]
        ends = [ends[i] for i in order]
        changed = stale = False
        for i in range(len(out) - 1):
            pair, e = ends[i : i + 2], d
            if stale:
                pair, e = over_common_denominator((r.lo, r.hi) for r in out[i : i + 2])
            (alo, ahi), (blo, bhi) = pair
            stale = ahi >= blo and not (alo == ahi and blo == bhi)
            if stale:
                # a quarter of the summed widths, positive as one is not exact
                width = Fraction(ahi - alo + bhi - blo, 4 * e)
                out[i], out[i + 1] = out[i].refined(width), out[i + 1].refined(width)
                changed = True
        if not changed:
            break
    else:
        raise DegeneracyError("two roots could not be separated (equal roots?)")
    ends, _ = over_common_denominator((r.lo, r.hi) for r in out)
    order = sorted(range(len(out)), key=ends.__getitem__)
    if any(ends[i][1] >= ends[j][0] for i, j in zip(order, order[1:])):
        raise DegeneracyError("two roots could not be separated (equal roots?)")
    return [out[i] for i in order]


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
            whole = _count_padded(g, gchain, min(a_.lo, b_.lo), max(a_.hi, b_.hi))
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
        return 1 if _sign(g, enc.lo) == 0 else 0
    return _count_padded(g, gchain, enc.lo, enc.hi)


def _count_padded(g: IntPoly, gchain, lo: Fraction, hi: Fraction) -> int:
    """Roots of g in [lo, hi] padded by a 1024th of its width, each end
    stepped outward off the roots of g.  The padding shrinks with the
    interval, so a shrinking interval comes to exclude every root of g
    outside it."""
    pad = (hi - lo) / (1 << 10)
    lo_pt, hi_pt = lo - pad, hi + pad
    while _sign(g, lo_pt) == 0:
        lo_pt -= pad
    while _sign(g, hi_pt) == 0:
        hi_pt += pad
    return count_roots(gchain, lo_pt, hi_pt)
