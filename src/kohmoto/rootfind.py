"""Certified real-root isolation and refinement for integer polynomials.

A Sturm chain over exact integers gives the number of roots in a window;
for a monic polynomial it is the subresultant chain, whose normal steps
divide exactly by the square of a leading coefficient instead of taking a
gcd of every coefficient.
Floating-point root estimates place each root in one cell of a dyadic grid,
and exact sign changes across as many disjoint cells as the Sturm count
certify one root per cell; when the estimates do not yield such cells,
bisection on Sturm counts isolates the roots instead.  Floating point only
proposes cells: every certificate is an exact integer sign or count.

One loop narrows every enclosure: `RootEnclosure.refined(grid)` splits at
the grid point with the fewest bits, down to the root's cell of the grid
of spacing 2^grid clipped to the enclosure, or [x, x] at a grid point x.
On a cell of a dyadic grid that point is the midpoint, so a cell is
halved.  `separate`, `compare_distinct_roots` and the defect points' gap
brackets narrow by it too; only Sturm bisection splits by counts.

One grid decides the bytes: guided and Sturm cells are all cells of dyadic
grids, so a root with no other root in or next to its cell of the grid of
spacing 2^grid <= width comes out of `isolate_roots` and `refined(grid)`
as that cell, or as [x, x] at a grid point x, whichever route found it.

Every enclosure end is dyadic: grid points and Sturm bisection inside a
power-of-two window have power-of-two denominators.
A `RootEnclosure` stores its ends as integers over one 2^exp, two of them
meet over a common denominator by a shift, and every loop here runs on
those integers; the `lo` and `hi` Fractions are for output.  A float
guess finds its grid cell by an exact scaling by a power of two
(`grid_cell`).  The signs at the ends of the guesses' cells come from one
Horner sweep per polynomial (`_grid_signs`); every other exact sign is
`sign_at(p, num, den)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegeneracyError, PreconditionError, PrecisionError

IntPoly = list[int]

# The finest grid float guides hit, about the accuracy of their eigenvalues
# (1e-13 at moderate coupling); refinement goes on from there.
GUIDE_GRID = Fraction(1, 2**40)


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
    """The product of two integer polynomials, unstripped (length
    len(a) + len(b) - 1), by Kronecker substitution: each factor becomes
    its value at 2^w, one big-integer product (in C) convolves them, and
    `unpack` reads the product's coefficients back.  A coefficient of the
    product is at most min(len) max|a| max|b| in absolute value, below
    2^(w - 1) for w = bits(max|a|) + bits(max|b|) + bits(min(len)) + 1."""
    w = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    x = y = 0
    for c in reversed(a):
        x = (x << w) + c
    for c in reversed(b):
        y = (y << w) + c
    return unpack(x * y, w, len(a) + len(b) - 1)


def unpack(m: int, w: int, count: int) -> IntPoly:
    """The coefficients of the integer polynomial f with f(2^w) = m and
    length count, every coefficient below 2^(w - 1) in absolute value: the
    balanced base-2^w digits of m, lowest first.  Each digit is then exact;
    anything left above the last digit raises PrecisionError."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = []
    for _ in range(count):
        c = m & mask
        m >>= w
        if c >= half:  # a negative digit borrows from the next
            c -= mask + 1
            m += 1
        out.append(c)
    if m:
        raise PrecisionError("packed value left a residue above its last digit")
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
    """Sign of p(num/den) for den > 0: every exact sign at a single point
    (`_grid_signs` sweeps many grid points at once)."""
    v = _eval_homogeneous(p, num, den)
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


def _prem_normal(a: IntPoly, b: IntPoly) -> IntPoly:
    """The pseudo-remainder lc(b)^2 a mod b for deg a = deg b + 1, stripped.

    With n = deg b, the first division step r = lb a - top x b cancels the
    degree n + 1 term, and the second, lb r - r_n b, the degree n term, so
    coefficient j is lb^2 a_j - lb top b_(j-1) - r_n b_j: one pass, three
    products per coefficient, r_n = lb a_n - top b_(n-1) its only other
    coefficient of r."""
    lb, top, n = b[-1], a[-1], len(b) - 1
    lb2, lbtop, rn = lb * lb, lb * top, lb * a[n] - top * b[n - 1]
    # (a_j, b_(j-1), b_j) for j < n, with b_(-1) = 0
    return strip([lb2 * x - lbtop * u - rn * v for x, u, v in zip(a, [0] + b, b[:n])])


def sturm_chain(p: Sequence[int]) -> list[IntPoly]:
    """Sign-correct Sturm chain.

    For a monic polynomial (every trace factor at an integer coupling) the
    normal steps, deg a = deg b + 1 >= 2, follow the subresultant chain
    (Collins 1967, Brown and Traub 1971).  A normal step after a normal
    step appends -prem(a, b) / lc(a)^2, an exact division that is checked;
    any other normal step appends -prem(a, b).  prem multiplies a by
    lc(b)^2 > 0.  Every other step, and every step for a polynomial that
    is not monic, appends the primitive part of its signed
    pseudo-remainder.  So each element is a positive multiple of the
    element of the primitive chain, and every sign and count is the same,
    without a gcd of every coefficient.  A large leading coefficient, such
    as the power of b that leads a trace factor at coupling a/b, carries
    into the subresultants and makes them several times longer than the
    primitive elements, so such a polynomial keeps the primitive chain.

    Raises DegeneracyError when the polynomial has a multiple real or
    complex root (non-trivial gcd with its derivative)."""
    p0 = primitive(p)
    if degree(p0) == 0:
        return [p0]
    chain = [p0, primitive(derivative(p0))]
    monic = abs(p0[-1]) == 1
    while True:
        a, b = chain[-2], chain[-1]
        if monic and len(a) - len(b) == 1 and len(b) > 1:
            r = _prem_normal(a, b)
            if r == [0]:
                break
            if len(chain) > 2 and len(chain[-3]) - len(a) == 1:
                # the step that made b was normal too: divide by lc(a)^2
                d = a[-1] * a[-1]
                quotients = []
                for c in r:
                    quo, rem = divmod(-c, d)
                    if rem:
                        raise PrecisionError("subresultant division left a remainder")
                    quotients.append(quo)
                chain.append(quotients)
            else:
                chain.append([-c for c in r])
        else:
            r, sgn = _pseudo_rem_signed(a, b)
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


def cauchy_bound(p: Sequence[int]) -> int:
    lead = abs(p[-1])
    worst = max(abs(c) for c in p)
    return 2 + worst // lead


@dataclass
class RootEnclosure:
    """Isolating interval [lo_num / 2^exp, hi_num / 2^exp] for one simple
    real root of poly, nonzero at both ends unless they coincide at the
    root.  The ends are kept reduced."""

    poly: tuple[int, ...]
    lo_num: int
    hi_num: int
    exp: int = 0

    def __post_init__(self):
        lo, hi, e = self.lo_num, self.hi_num, self.exp
        low = (lo | hi) & -(lo | hi)  # the lowest set bit of either end
        shift = min(low.bit_length() - 1, e) if low else e
        self.lo_num, self.hi_num, self.exp = lo >> shift, hi >> shift, e - shift

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, 1 << self.exp)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, 1 << self.exp)

    def ends_at(self, exp: int) -> tuple[int, int]:
        """The ends as numerators over 2^exp, for exp >= self.exp."""
        s = exp - self.exp
        return self.lo_num << s, self.hi_num << s

    def is_exact(self) -> bool:
        return self.lo_num == self.hi_num

    def refined(self, grid: int) -> "RootEnclosure":
        """The root's cell of the dyadic grid of spacing 2^grid, clipped to
        the enclosure, or [x, x] at a grid point x where poly vanishes; the
        enclosure itself when it lies in one cell.  Each split is
        at the grid point with the fewest bits strictly inside the grid
        cells that cover what is left (`_short_point`), read over its own
        denominator: the midpoint of a cell of a dyadic grid, so such a
        cell is halved."""
        p, lo, hi, e = self.poly, self.lo_num, self.hi_num, self.exp
        if e < -grid:
            lo, hi, e = lo << (-grid - e), hi << (-grid - e), -grid
        k = e + grid  # the grid points are the multiples of 2^k over 2^e
        a, b = lo >> k, -(-hi >> k)  # grid points a * 2^k <= lo and hi <= b * 2^k
        if b - a <= 1:
            return self
        s_lo = sign_at(p, self.lo_num, 1 << self.exp)
        while b - a > 1:
            m = _short_point(a, b)
            # the point m * 2^k over 2^e, reduced: strip its trailing zero bits
            z = min((m & -m).bit_length() - 1 + k, e) if m else e
            s = sign_at(p, m << k >> z, 1 << (e - z))
            if s == 0:
                return RootEnclosure(p, m << k, m << k, e)
            if s == s_lo:
                a = m
            else:
                b = m
        return RootEnclosure(p, max(a << k, lo), min(b << k, hi), e)


def _reduced(poly: tuple[int, ...], lo_num: int, hi_num: int, exp: int) -> RootEnclosure:
    """The RootEnclosure of ends that are already reduced (one of them odd,
    or exp = 0), without folding them again."""
    enc = object.__new__(RootEnclosure)
    enc.poly, enc.lo_num, enc.hi_num, enc.exp = poly, lo_num, hi_num, exp
    return enc


def _short_point(a: int, b: int) -> int:
    """The integer strictly between a and b > a + 1 with the most trailing
    zero bits: 0 when a < 0 < b, else b - 1 with the bits below its
    highest difference from a cleared (a has a 0 there and b - 1 a 1, in
    two's complement, so it lies above a)."""
    if a < 0 < b:
        return 0
    k = (a ^ (b - 1)).bit_length() - 1
    return ((b - 1) >> k) << k


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
    spacing 2^e is at most width and at most a third of the smallest gap
    between guesses: the cell floor(g / 2^e) of a guess g, or the cell
    next to it on the side of its midpoint that g lies on (`_grid_cells`).
    A sign change across each of as many disjoint cells as there are roots
    certifies them all; cells of a width finer than GUIDE_GRID that miss
    are laid on GUIDE_GRID instead.  When the guesses do not yield such
    cells, or a guess has no exact cell index, Sturm bisection
    (`_sturm_bisection`) isolates the roots.  A cell may be wider than
    width: `refined` finishes it."""
    p = primitive(p)
    if degree(p) == 0:
        return []
    chain = sturm_chain(p)
    bound = cauchy_bound(p)
    # every real root lies inside the Cauchy bound, so count at infinity
    lead = [1 if q[-1] > 0 else -1 for q in chain]
    at_minus = [-s if degree(q) % 2 else s for s, q in zip(lead, chain)]
    total = _variations(at_minus) - _variations(lead)
    if total == 0:
        return []
    poly = tuple(p)
    roots = None
    if guide is not None and len(guide) == total:
        roots = _grid_cells(poly, guide, bound, width)
        if roots is None and width is not None and width < GUIDE_GRID:
            roots = _grid_cells(poly, guide, bound, GUIDE_GRID)
    if roots is None:
        roots = _sturm_bisection(poly, chain, bound)
    if len(roots) != total:
        raise PrecisionError(f"isolated {len(roots)} roots, Sturm count is {total}")
    return roots


def grid_cell(g: float, e: int) -> Optional[tuple[int, bool]]:
    """The cell k = floor(g / 2^e) that holds the float g on the grid of
    spacing 2^e, and whether g lies on or above the cell's midpoint; None
    when g / 2^e is no float (g not finite, an overflow, or an underflow
    that loses a bit), so that no cell is certain.

    Scaling by a power of two is exact whenever the result is a float, and
    the round trip back to g checks that it is.  Then y - k is the exact
    fraction of y = g / 2^e, or 1 - |y| rounded for -1 < y < 0, where
    rounding is monotone and keeps the comparison with the float 1/2."""
    try:
        y = math.ldexp(g, -e)
        if not math.isfinite(y) or math.ldexp(y, e) != g:
            return None
    except OverflowError:
        return None
    k = math.floor(y)
    return k, y - k >= 0.5


def _grid_exponent(guesses: Sequence[float], window: int, width: Optional[Fraction]) -> Optional[int]:
    """The exponent of the grid spacing: the largest power of two at most
    the window, at most width and at most a third of the smallest gap
    between the sorted finite guesses; None when two guesses coincide.

    A float difference is correctly rounded, and rounding is monotone, so
    the smallest float gap m settles the gap's exponent g unless m is
    3 * 2^g itself (the exact gap may lie just below it) or overflows;
    then the exact gaps decide."""
    # 2^e <= x is monotone in x, so the smallest cap has the smallest exponent
    e = _dyadic_exponent(window, 1)
    if width is not None:
        e = min(e, _dyadic_exponent(width.numerator, width.denominator))
    if len(guesses) < 2:
        return e
    pairs = list(zip(guesses, guesses[1:]))
    m = min([b - a for a, b in pairs])
    if m == 0:
        return None
    if math.isfinite(m):
        n, d = m.as_integer_ratio()
        g = _dyadic_exponent(n, 3 * d)
    if not math.isfinite(m) or m == math.ldexp(3.0, g):
        exact = min(Fraction(b) - Fraction(a) for a, b in pairs)
        g = _dyadic_exponent(exact.numerator, 3 * exact.denominator)
    return min(e, g)


def _grid_signs(poly: tuple[int, ...], ks: Sequence[int], e: int) -> list[int]:
    """The signs of poly at the grid points k * 2^e for k in ks, by one
    Horner sweep: `_eval_homogeneous` at every point at once, one list
    comprehension per coefficient, each coefficient shifted once."""
    xs, k = (ks, -e) if e < 0 else ([x << e for x in ks], 0)
    acc = [poly[-1]] * len(xs)
    shift = 0
    for c in reversed(poly[:-1]):
        shift += k
        c <<= shift
        acc = [a * x + c for a, x in zip(acc, xs)]
    return [(v > 0) - (v < 0) for v in acc]


def _grid_cells(
    poly: tuple[int, ...], guide: Sequence[float], bound: int, width: Optional[Fraction]
) -> Optional[list[RootEnclosure]]:
    """One sign-change cell of a dyadic grid inside [-bound, bound] per
    guess, sorted, or None when the cells do not certify one root each.  A
    grid point where the polynomial vanishes is returned as the exact
    enclosure [x, x].

    Grid point k is k * 2^e, and `grid_cell` places each guess in its cell
    k and on one side of the cell's midpoint; the cell next to k on that
    side (the one above on a tie) is the second choice.  Guesses lie at
    least three cells apart, so the ends of the first-choice cells are
    distinct points, and one `_grid_signs` sweep reads them all; a second
    choice reads its one new end by `sign_at`.  Cells on a grid that close
    guesses made finer go back to the coarser grid by `_widened`."""
    guesses = sorted(guide)
    if not all(map(math.isfinite, guesses)):
        return None
    e = _grid_exponent(guesses, 2 * bound, width)
    if e is None:
        return None
    places = [grid_cell(g, e) for g in guesses]
    if None in places:
        return None
    hn, hd = (1 << e, 1) if e >= 0 else (1, 1 << -e)
    # the grid points inside the window are -kmax..kmax
    kmax = bound * hd // hn
    ends = [x for k, _ in places for x in (k, k + 1)]
    signs = dict(zip(ends, _grid_signs(poly, ends, e)))

    def sign(k: int) -> int:
        if k not in signs:
            signs[k] = sign_at(poly, k * hn, hd)
        return signs[k]

    def cell(k: int) -> Optional[tuple[int, int]]:
        lo = sign(k)
        if lo == 0:
            return k, k
        hi = sign(k + 1)
        if hi == 0:
            return k + 1, k + 1
        return (k, k + 1) if lo != hi else None

    cells = []
    for k, upper in places:
        c = cell(k) or cell(k + 1 if upper else k - 1)
        if c is None or c[0] < -kmax or c[1] > kmax:
            return None
        cells.append(c)
    cells.sort()
    if any(a[1] >= b[0] for a, b in zip(cells, cells[1:])):
        return None
    shift = _grid_exponent((), 2 * bound, width) - e
    if shift:
        cells = _widened(cells, shift)
    # k and k + 1 share no trailing zero bit, so a cell's ends are reduced
    exp = max(-e, 0)
    return [
        _reduced(poly, a * hn, b * hn, exp) if b - a == 1 else RootEnclosure(poly, a * hn, b * hn, exp)
        for a, b in cells
    ]


def _widened(cells: list[tuple[int, int]], shift: int) -> list[tuple[int, int]]:
    """The sorted certified cells (a, b) of `_grid_cells` (grid indices,
    a = b at a root), each widened to its cell of the grid 2^shift times
    coarser, the one Sturm bisection and `refined` give it, unless another
    root lies in that cell or next to it."""
    step = 1 << shift
    wide = [(a // step * step, -(-b // step) * step) for a, b in cells]
    below = [-math.inf] + [hi for _, hi in wide[:-1]]
    above = [lo for lo, _ in wide[1:]] + [math.inf]
    return [w if left < w[0] and w[1] < right else c for c, w, left, right in zip(cells, wide, below, above)]


def _sturm_bisection(
    poly: tuple[int, ...], chain: Sequence[IntPoly], bound: int
) -> list[RootEnclosure]:
    """Isolating intervals for the roots in (-bound, bound) by bisection
    on Sturm counts inside [-2^w, 2^w] with 2^w >= bound, sorted: cells of
    dyadic grids.  V(a) - V(b) counts the roots in (a, b] also where a or b is a
    root (Sturm's theorem; Basu, Pollack and Roy, Algorithms in Real
    Algebraic Geometry), so a midpoint that hits a root is kept as [m, m]
    and both halves go on.  The stack holds [a / 2^e, b / 2^e] with the
    sign of poly (chain[0]) and the variation count at both ends."""

    def signs(x: int, e: int) -> tuple[int, int]:
        s = [sign_at(q, x, 1 << e) for q in chain]
        return s[0], _variations(s)

    top = 1 << (bound - 1).bit_length()
    roots: list[RootEnclosure] = []
    stack = [(-top, top, 0, *signs(-top, 0), *signs(top, 0))]
    while stack:
        a, b, e, sa, va, sb, vb = stack.pop()
        inside = va - vb - (sb == 0)  # the roots in (a, b)
        if inside == 1 and sa and sb:
            roots.append(RootEnclosure(poly, a, b, e))
        elif inside:
            m, a, b, e = a + b, 2 * a, 2 * b, e + 1
            sm, vm = signs(m, e)
            if sm == 0:
                roots.append(RootEnclosure(poly, m, m, e))
            stack += [(a, m, e, sa, va, sm, vm), (m, b, e, sm, vm, sb, vb)]
    exp = max((r.exp for r in roots), default=0)
    roots.sort(key=lambda r: r.ends_at(exp))
    return roots


def separate(enclosures: list[RootEnclosure]) -> list[RootEnclosure]:
    """Refine a family of enclosures of pairwise distinct roots until the
    intervals are pairwise disjoint, and return them sorted.

    The family is kept sorted by (midpoint, lo), and each pass compares
    neighbouring pairs over the larger of their two exponents; both members
    of an overlapping pair are refined to their cells of the dyadic grid of
    spacing at most a quarter of the pair's summed widths.  A pass
    without overlaps leaves them sorted; two equal exact enclosures are
    DegeneracyError.

    A pass changes only the runs of enclosures chained by overlapping
    pairs, so only those runs are sorted again, and the next pass visits
    only the pairs that hold a member of a run.  A pair of two other
    enclosures was disjoint and stays so.  Every run keeps its place when
    its ends stay in order with their neighbours; otherwise the whole
    family is sorted again and the next pass visits every pair.  So the
    passes see the order, and make the signs, of sorting everything on
    each pass."""
    out = list(enclosures)
    _sort_by_midpoint(out)
    pairs = range(len(out) - 1)
    for _ in range(4096):
        runs: list[list[int]] = []  # [first, last] index of each run
        for i in pairs:
            a, b = out[i], out[i + 1]
            e = max(a.exp, b.exp)
            (alo, ahi), (blo, bhi) = a.ends_at(e), b.ends_at(e)
            if ahi < blo:
                continue
            total = ahi - alo + bhi - blo
            if not total:
                raise DegeneracyError("two equal roots with exact enclosures")
            grid = _dyadic_exponent(total, 4) - e
            out[i], out[i + 1] = a.refined(grid), b.refined(grid)
            if runs and runs[-1][1] == i:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1])
        if not runs:
            return out
        for first, last in runs:
            run = out[first : last + 1]
            _sort_by_midpoint(run)
            out[first : last + 1] = run
        n = len(out) - 1
        ends = [j for first, last in runs for j in (first - 1, last) if 0 <= j < n]
        if all(_in_order(out[j], out[j + 1]) for j in ends):
            pairs = sorted(
                {j for first, last in runs for j in range(max(first - 1, 0), min(last + 1, n))}
            )
        else:
            _sort_by_midpoint(out)
            pairs = range(n)
    raise DegeneracyError("two roots could not be separated (equal roots?)")


def _midpoint_key(r: RootEnclosure, exp: int) -> tuple[int, int]:
    lo, hi = r.ends_at(exp)
    return lo + hi, lo


def _sort_by_midpoint(encs: list[RootEnclosure]) -> None:
    """Sort in place by (midpoint, lo), stably."""
    exp = max((r.exp for r in encs), default=0)
    encs.sort(key=lambda r: _midpoint_key(r, exp))


def _in_order(a: RootEnclosure, b: RootEnclosure) -> bool:
    e = max(a.exp, b.exp)
    return _midpoint_key(a, e) <= _midpoint_key(b, e)


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
    """Exact order of two algebraic numbers given by enclosures.  The gcd g
    of their polynomials has at most one root, a simple one, in either
    isolating enclosure, so the roots are equal exactly when g vanishes at
    an end of the closed intersection of the enclosures or changes sign
    across it.  That is decided once, when the enclosures overlap; unequal
    roots go to `compare_distinct_roots`."""
    e = max(a.exp, b.exp)
    (alo, ahi), (blo, bhi) = a.ends_at(e), b.ends_at(e)
    if ahi < blo:
        return -1
    if bhi < alo:
        return 1
    g = poly_gcd(list(a.poly), list(b.poly))
    if sign_at(g, max(alo, blo), 1 << e) * sign_at(g, min(ahi, bhi), 1 << e) <= 0:
        return 0
    return compare_distinct_roots(a, b)


def compare_distinct_roots(a: RootEnclosure, b: RootEnclosure) -> int:
    """Exact order of two algebraic numbers known to differ, given by
    enclosures: while they overlap, each is refined to its cell of the
    dyadic grid of spacing at most a quarter of the narrower non-exact
    width."""
    for _ in range(256):
        e = max(a.exp, b.exp)
        (alo, ahi), (blo, bhi) = a.ends_at(e), b.ends_at(e)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        shrink = min((w for w in (ahi - alo, bhi - blo) if w), default=0)
        if not shrink:
            raise DegeneracyError("two roots said to differ have equal exact enclosures")
        grid = _dyadic_exponent(shrink, 4) - e
        a, b = a.refined(grid), b.refined(grid)
    raise PreconditionError("root comparison did not converge")
