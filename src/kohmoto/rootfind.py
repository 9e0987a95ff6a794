"""Certified real-root isolation and refinement for integer polynomials.

Every polynomial isolated here is b^k det(E - J) for a Jacobi matrix J
with positive squared links, the head of the recurrence of its leading
minors (`sturm_chain`): its roots are real and simple, so its degree
counts them.  Floating-point root estimates place each root in one cell of
a dyadic grid no finer than GUIDE_GRID, and exact sign changes across as
many disjoint cells as the degree certify one root per cell; when the
estimates do not yield such cells, bisection on the inertia of J
(`_inertia`, the same recurrence at one point) isolates the roots instead.
Floating point only proposes cells: every certificate is an exact integer
sign or count.

One loop narrows every enclosure: `RootEnclosure.refined(grid)` splits at
the grid point with the fewest bits, down to the root's cell of the grid
of spacing 2^grid clipped to the enclosure, or [x, x] at a grid point x.
On a cell of a dyadic grid that point is the midpoint, so a cell is
halved.  `separate`, `compare_distinct_roots` and the defect points' gap
brackets narrow by it too; only the inertia bisection splits by counts.

One grid decides the bytes: guided and bisection cells are cells of dyadic
grids, so a root with no other root in or next to its cell of the grid of
spacing 2^grid <= width comes out of `isolate_roots` as that cell, or as
[x, x] at a grid point x, whichever route found it.  `isolate_roots`
returns cells of that width grid: a guided cell at width >= GUIDE_GRID
lies on it or on a finer dyadic grid already, and only the bisection
cells, and the guided cells below GUIDE_GRID, go through `refined(grid)`.

Every enclosure end is dyadic: grid points and bisection inside a
power-of-two window have power-of-two denominators.
A `RootEnclosure` stores its ends as integers over one 2^exp, two of them
meet over a common denominator by a shift, and every loop here runs on
those integers; the `lo` and `hi` Fractions are for output.  A float
guess finds its grid cell by an exact scaling by a power of two
(`grid_cell`).  The signs at the ends of the guesses' cells come from one
Horner sweep per polynomial (`_grid_signs`); every other exact sign of a
polynomial is `sign_at(p, num, den)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegeneracyError, PreconditionError, PrecisionError

IntPoly = list[int]
Jacobi = tuple[Sequence[int], Sequence[int], int]  # (diag, beta, b) of `sturm_chain`

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


def sturm_chain(diag: Sequence[int], beta: Sequence[int], b: int) -> list[IntPoly]:
    """The scaled leading minors D_k, ..., D_0 of the k x k Jacobi matrix J
    with diagonal entries c_j / b (c_j = diag[j]) and squared
    off-diagonals beta, as integer polynomials in E: with D_0 = 1 and
    D_-1 = 0, D_j = (bE - c_j) D_(j-1) - b^2 beta_(j-1) D_(j-2), so
    D_j = b^j det(E - J_j) for the leading j x j block J_j.

    With every beta > 0 the roots of D_(j-1) strictly separate those of
    D_j, and D_(j-1), D_(j+1) have opposite signs where D_j vanishes, so
    the chain is a Sturm chain of its head D_k (Givens; Barth, Martin and
    Wilkinson, Numer. Math. 9, 1967): its sign variations at x count the
    eigenvalues of J above x, and every root is real and simple.  A beta
    that is not positive raises PreconditionError."""
    if any(y <= 0 for y in beta):
        raise PreconditionError("a Jacobi path needs positive squared links")
    lo, hi = [], [1]
    chain = [hi]
    for c, y in zip(diag, [0, *(b * b * x for x in beta)]):
        lo, hi = hi, [b * u - c * v - y * w for u, v, w in zip([0, *hi], [*hi, 0], [*lo, 0, 0])]
        chain.append(hi)
    chain.reverse()
    return chain


def _inertia(jacobi: Jacobi, x: int, e: int) -> tuple[int, int]:
    """The sign of the head D_k of `sturm_chain(*jacobi)` at x / 2^e
    (e >= 0) and the sign variations of D_k, ..., D_0 there, which count
    the eigenvalues of J above x / 2^e (Sylvester's law of inertia; Barth,
    Martin and Wilkinson, Numer. Math. 9, 1967): the recurrence at the one
    point, homogenized by 2^e, so that its j-th value is the integer
    2^(ej) D_j(x / 2^e) that `sign_at` reads, in O(k) products."""
    diag, beta, b = jacobi
    bx, bb, e2 = b * x, b * b, 2 * e
    lo, hi, last, count = 0, 1, 1, 0  # last: the sign of the last nonzero minor
    for c, y in zip(diag, (0, *beta)):
        lo, hi = hi, (bx - (c << e)) * hi - (bb * y * lo << e2)
        if hi and (hi > 0) != (last > 0):
            last, count = -last, count + 1
    return (hi > 0) - (hi < 0), count


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

    def refined(self, grid: int) -> "RootEnclosure":
        """The root's cell of the dyadic grid of spacing 2^grid, clipped to
        the enclosure, or [x, x] at a grid point x where poly vanishes; the
        enclosure itself when it lies in one cell.  Each split is
        at the grid point with the fewest bits strictly inside the grid
        cells that cover what is left (`_short_point`, inlined), read over
        its own denominator: the midpoint of a cell of a dyadic grid, so
        such a cell is halved."""
        p, lo, hi, e = self.poly, self.lo_num, self.hi_num, self.exp
        if e < -grid:
            lo, hi, e = lo << (-grid - e), hi << (-grid - e), -grid
        k = e + grid  # the grid points are the multiples of 2^k over 2^e
        a, b = lo >> k, -(-hi >> k)  # grid points a * 2^k <= lo and hi <= b * 2^k
        if b - a <= 1:
            return self
        s_lo = sign_at(p, self.lo_num, 1 << self.exp)
        while b - a > 1:
            if a < 0 < b:
                m, s = 0, sign_at(p, 0, 1)
            else:
                # m = c 2^t, c odd, is the point c 2^(t + k) over 2^e
                t = (a ^ (b - 1)).bit_length() - 1
                c = (b - 1) >> t
                m, z = c << t, e - t - k
                s = sign_at(p, c, 1 << z) if z > 0 else sign_at(p, c << -z, 1)
            if s == 0:
                return RootEnclosure(p, m << k, m << k, e)
            if s == s_lo:
                a = m
            else:
                b = m
        a, b = a << k, b << k
        return RootEnclosure(p, a if a > lo else lo, b if b < hi else hi, e)


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


def guide_exponent(tol: Fraction) -> int:
    """The exponent of the grid that float guides place roots on at width
    tol: of the largest power of two at most max(tol, GUIDE_GRID)."""
    width = max(tol, GUIDE_GRID)
    return _dyadic_exponent(width.numerator, width.denominator)


def isolate_roots(
    factor: Sequence[int], jacobi: Jacobi, guide: Sequence[float], width: Fraction
) -> list[RootEnclosure]:
    """All roots of b^k det(E - J), the head of `sturm_chain(*jacobi)`, as
    isolating intervals, sorted, that meet at most in a shared endpoint
    which is not a root: each root's cell of the grid of spacing
    2^grid <= width (the largest such power of two), clipped to the cell
    that isolated it, or [x, x] at a grid point x.

    Precondition: every root is real and simple, as for any J with every
    beta > 0 (`sturm_chain` refuses any other), so the degree counts them.
    Floating guesses (one per root) then place each root in a cell of a
    dyadic grid whose spacing 2^e is at most max(width, GUIDE_GRID) and at
    most a third of the smallest gap between guesses: the cell of a guess
    or the one next to it (`grid_cell`, `_grid_cells`).  A sign change
    across each of as many disjoint cells as the degree certifies them
    all.  When the guesses do not yield such cells, or a guess has no
    exact cell index, bisection on the inertia of J (`_sturm_bisection`)
    isolates the roots.  A guided cell for width >= GUIDE_GRID is a cell of
    the width grid or of a finer dyadic grid, so it lies in one cell of
    the width grid and is returned as it is; `refined(grid)` takes the
    bisection cells, and the guided cells below GUIDE_GRID, to the width
    grid.  The enclosures carry the factor's primitive part."""
    p = primitive(factor)
    poly, bound, total = tuple(p), cauchy_bound(p), degree(p)
    if total == 0:
        return []
    roots = None
    if len(guide) == total:
        roots = _grid_cells(poly, guide, bound, max(width, GUIDE_GRID))
    on_grid = roots is not None and width >= GUIDE_GRID
    if roots is None:
        roots = _sturm_bisection(poly, jacobi, bound)
    if len(roots) != total:
        raise PrecisionError(f"isolated {len(roots)} roots of a factor of degree {total}")
    if on_grid:
        return roots
    grid = _dyadic_exponent(width.numerator, width.denominator)
    return [r.refined(grid) for r in roots]


def grid_cell(g: float, e: int) -> Optional[tuple[int, int]]:
    """The cell k = floor(g / 2^e) that holds the float g on the grid of
    spacing 2^e, and the cell next to it on g's side of its midpoint: k + 1
    when g lies on or above the midpoint, else k - 1.  None when g / 2^e is
    no float (g not finite, an overflow, or an underflow that loses a bit),
    so that no cell is certain.

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
    return k, k + 1 if y - k >= 0.5 else k - 1


def _grid_exponent(guesses: Sequence[float], cap: int) -> Optional[int]:
    """The exponent of the grid spacing: the largest power of two at most
    2^cap and at most a third of the smallest gap between the sorted finite
    guesses; None when two guesses coincide.

    A float difference is correctly rounded, and rounding is monotone, so
    the smallest float gap m settles the gap's exponent g unless m is
    3 * 2^g itself (the exact gap may lie just below it) or overflows;
    then the exact gaps decide."""
    if len(guesses) < 2:
        return cap
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
    return min(cap, g)


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
    poly: tuple[int, ...], guide: Sequence[float], bound: int, width: Fraction
) -> Optional[list[RootEnclosure]]:
    """One sign-change cell of a dyadic grid inside [-bound, bound] per
    guess, sorted, or None when the cells do not certify one root each.  A
    grid point where the polynomial vanishes is returned as the exact
    enclosure [x, x].

    The grid's spacing is capped by the window 2 * bound and by width (the
    cap exponent) and by the guesses' gaps (`_grid_exponent`).  Grid point k
    is k * 2^e, and `grid_cell` places each guess in its cell k, with the
    cell next to k on the guess's side of the midpoint (the one above on a
    tie) as the second choice.  Guesses lie at least three cells apart, so
    the ends of the first-choice cells are distinct points, and one
    `_grid_signs` sweep reads them all, two per guess in guess order; a
    second choice shares one end with the first and reads its other end by
    `sign_at`.  Cells on a grid that close guesses made
    finer than the cap go back to the cap's grid by `_widened`."""
    guesses = sorted(guide)
    if not all(map(math.isfinite, guesses)):
        return None
    # 2^e <= x is monotone in x, so the smallest cap has the smallest exponent
    cap = min(_dyadic_exponent(2 * bound, 1), _dyadic_exponent(width.numerator, width.denominator))
    e = _grid_exponent(guesses, cap)
    if e is None:
        return None
    places = [grid_cell(g, e) for g in guesses]
    if None in places:
        return None
    hn, hd = (1 << e, 1) if e >= 0 else (1, 1 << -e)
    # the grid points inside the window are -kmax..kmax
    kmax = bound * hd // hn
    ends = [x for k, _ in places for x in (k, k + 1)]
    signs = _grid_signs(poly, ends, e)
    cells = []
    for j, (k, near) in enumerate(places):
        lo, hi = signs[2 * j], signs[2 * j + 1]
        if lo == 0:
            c = k, k
        elif hi == 0:
            c = k + 1, k + 1
        elif lo != hi:
            c = k, k + 1
        else:
            # lo == hi at both ends of cell k; the cell next to it has one
            # new end x
            x = near if near < k else near + 1
            s = sign_at(poly, x * hn, hd)
            if s == 0:
                c = x, x
            elif s != lo:
                c = near, near + 1
            else:
                return None
        if c[0] < -kmax or c[1] > kmax:
            return None
        cells.append(c)
    cells.sort()
    if any(a[1] >= b[0] for a, b in zip(cells, cells[1:])):
        return None
    if cap > e:
        cells = _widened(cells, cap - e)
    # k and k + 1 share no trailing zero bit, so a cell's ends are reduced
    exp = max(-e, 0)
    return [
        _reduced(poly, a * hn, b * hn, exp) if b - a == 1 else RootEnclosure(poly, a * hn, b * hn, exp)
        for a, b in cells
    ]


def _widened(cells: list[tuple[int, int]], shift: int) -> list[tuple[int, int]]:
    """The sorted certified cells (a, b) of `_grid_cells` (grid indices,
    a = b at a root), each widened to its cell of the grid 2^shift times
    coarser, the one the bisection and `refined` give it, unless another
    root lies in that cell or next to it."""
    step = 1 << shift
    wide = [(a // step * step, -(-b // step) * step) for a, b in cells]
    below = [-math.inf] + [hi for _, hi in wide[:-1]]
    above = [lo for lo, _ in wide[1:]] + [math.inf]
    return [w if left < w[0] and w[1] < right else c for c, w, left, right in zip(cells, wide, below, above)]


def _sturm_bisection(poly: tuple[int, ...], jacobi: Jacobi, bound: int) -> list[RootEnclosure]:
    """Isolating intervals for the roots in (-bound, bound) of poly, the
    primitive head of `sturm_chain(*jacobi)`, by bisection on the counts of
    `_inertia` inside [-2^w, 2^w] with 2^w >= bound, sorted: cells of dyadic
    grids.  The counts are the sign variations of a Sturm chain, so
    V(a) - V(b) counts the roots in (a, b] also where a or b is a root
    (Sturm's theorem; Basu, Pollack and Roy, Algorithms in Real Algebraic
    Geometry), and a midpoint that hits a root is kept as [m, m] while both
    halves go on.  The stack holds [a / 2^e, b / 2^e] with the sign of the
    head and the count at both ends."""
    top = 1 << (bound - 1).bit_length()
    roots: list[RootEnclosure] = []
    stack = [(-top, top, 0, *_inertia(jacobi, -top, 0), *_inertia(jacobi, top, 0))]
    while stack:
        a, b, e, sa, va, sb, vb = stack.pop()
        inside = va - vb - (sb == 0)  # the roots in (a, b)
        if inside == 1 and sa and sb:
            roots.append(RootEnclosure(poly, a, b, e))
        elif inside:
            m, a, b, e = a + b, 2 * a, 2 * b, e + 1
            sm, vm = _inertia(jacobi, m, e)
            if sm == 0:
                roots.append(RootEnclosure(poly, m, m, e))
            stack += [(a, m, e, sa, va, sm, vm), (m, b, e, sm, vm, sb, vb)]
    exp = max((r.exp for r in roots), default=0)
    roots.sort(key=lambda r: r.ends_at(exp))
    return roots


def separate(enclosures: list[RootEnclosure]) -> list[RootEnclosure]:
    """Refine a family of enclosures of pairwise distinct roots until the
    intervals are pairwise disjoint, and return them sorted.

    The family is kept sorted by (midpoint, lo), with every enclosure's
    ends read once, over 2^e for the family's largest exponent e: a
    power-of-two rescale keeps the order, the overlap of a pair and the
    grid it is refined on as they were over the larger of the pair's own
    exponents.  Each pass compares neighbouring pairs, and both members of
    an overlapping pair are refined to their cells of the dyadic grid of
    spacing at most a quarter of the pair's summed widths; only their ends
    are read again, and all ends are rescaled when a refined member's
    exponent exceeds e.  A pass without overlaps leaves them sorted; two
    equal exact enclosures are DegeneracyError.

    A pass changes only the runs of enclosures chained by overlapping
    pairs, so only those runs are sorted again, and the next pass visits
    only the pairs that hold a member of a run.  A pair of two other
    enclosures was disjoint and stays so.  Every run keeps its place when
    its ends stay in order with their neighbours; otherwise the whole
    family is sorted again and the next pass visits every pair.  So the
    passes see the order, and make the signs, of sorting everything on
    each pass."""
    e = max((r.exp for r in enclosures), default=0)
    out = [(*r.ends_at(e), r) for r in enclosures]  # (lo, hi, enclosure) over 2^e
    _sort_by_midpoint(out)
    n = len(out) - 1
    pairs = range(n)
    for _ in range(4096):
        runs: list[list[int]] = []  # [first, last] index of each run
        for i in pairs:
            alo, ahi, a = out[i]
            blo, bhi, b = out[i + 1]
            if ahi < blo:
                continue
            total = ahi - alo + bhi - blo
            if not total:
                raise DegeneracyError("two equal roots with exact enclosures")
            grid = _dyadic_exponent(total, 4) - e
            a, b = a.refined(grid), b.refined(grid)
            rise = max(a.exp, b.exp) - e
            if rise > 0:
                out, e = [(lo << rise, hi << rise, r) for lo, hi, r in out], e + rise
            out[i], out[i + 1] = (*a.ends_at(e), a), (*b.ends_at(e), b)
            if runs and runs[-1][1] == i:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1])
        if not runs:
            return [r for _, _, r in out]
        for first, last in runs:
            run = out[first : last + 1]
            _sort_by_midpoint(run)
            out[first : last + 1] = run
        ends = [j for first, last in runs for j in (first - 1, last) if 0 <= j < n]
        if all(_midpoint_key(out[j]) <= _midpoint_key(out[j + 1]) for j in ends):
            pairs = sorted(
                {j for first, last in runs for j in range(max(first - 1, 0), min(last + 1, n))}
            )
        else:
            _sort_by_midpoint(out)
            pairs = range(n)
    raise DegeneracyError("two roots could not be separated (equal roots?)")


def _midpoint_key(end: tuple[int, int, RootEnclosure]) -> tuple[int, int]:
    lo, hi, _ = end
    return lo + hi, lo


def _sort_by_midpoint(ends: list[tuple[int, int, RootEnclosure]]) -> None:
    """Sort (lo, hi, enclosure) entries over one 2^e in place by
    (midpoint, lo), stably."""
    ends.sort(key=_midpoint_key)


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
