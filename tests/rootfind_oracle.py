"""The remainder Sturm chains of a general integer polynomial, the
two-pass normal pseudo-remainder, the pass-and-resort `separate`, Sturm
root counts, the bisection on a chain's counts, and the halving loop and
the grid search that `RootEnclosure.refined` replaced, kept as oracles for
`kohmoto.rootfind`; `enclosure`, a RootEnclosure from dyadic Fraction
ends; `isolate`, the isolation of any square-free polynomial by its
remainder chain; `two_attempt_isolate`, the guides of a reflection
factor laid on the tol grid before the guide grid; and
`width_grid_isolate`, a factor's isolation with `refined` run on every
enclosure, which `rootfind.isolate_roots` must equal while it refines only
the cells that are not yet in one cell of the width grid.

`rootfind.sturm_chain` builds the leading minors of a Jacobi matrix; its
sign variations must equal those of `remainder_chain` of its head at
every point, and `rootfind._inertia` must read them without the chain, so
that `rootfind._sturm_bisection` returns what `chain_bisection` on the
minors does.  `remainder_chain` takes its normal steps by subresultants
for a monic polynomial; each of its elements must be a positive multiple
of the element of `primitive_sturm_chain`.  `prem_normal` builds in one
pass what two division steps build in `two_pass_prem_normal`.
`count_roots` certifies that an enclosure holds one root and no other.
`rootfind.separate` sorts again only the runs a pass refined; it must
return what sorting everything on each pass returns, after the same signs.
`RootEnclosure.refined(grid)` must halve an aligned dyadic cell as `halved`
does, and run `grid_search` on any other bracket, after the same signs.
"""

from __future__ import annotations

from fractions import Fraction

from kohmoto import rootfind
from kohmoto.errors import DegeneracyError, PrecisionError, PreconditionError
from kohmoto.rootfind import (
    RootEnclosure,
    _dyadic_exponent,
    _pseudo_rem_signed,
    _short_point,
    cauchy_bound,
    degree,
    primitive,
    sign_at,
    strip,
)


def enclosure(poly, lo, hi) -> RootEnclosure:
    """The RootEnclosure [lo, hi] of poly's root, for dyadic rational ends
    (ints or Fractions) folded into one exponent; any other end raises
    PreconditionError."""
    lo, hi = Fraction(lo), Fraction(hi)
    d = lo.denominator * hi.denominator
    if d & (d - 1):
        raise PreconditionError(f"enclosure [{lo}, {hi}] has an end that is not dyadic")
    return RootEnclosure(tuple(poly), int(lo * d), int(hi * d), d.bit_length() - 1)


def is_exact(enc: RootEnclosure) -> bool:
    """Whether the enclosure is a single point [x, x]."""
    return enc.lo_num == enc.hi_num


def isolate(p, guide=None, width=None) -> list[RootEnclosure]:
    """Every real root of any square-free integer polynomial, as isolating
    intervals, sorted: the real roots counted at infinity on
    `remainder_chain(p)`, the guided cells of `rootfind._grid_cells` when
    there is one guess per real root and they certify, else
    `chain_bisection` on the remainder chain.  Without a width the grid is
    capped by the window [-bound, bound] alone.  The enclosures carry p's
    primitive part."""
    chain = remainder_chain(p)
    poly = tuple(chain[0])
    total = real_root_count(chain) if degree(poly) else 0
    if total == 0:
        return []
    bound = cauchy_bound(poly)
    roots = None
    if guide is not None and len(guide) == total:
        roots = rootfind._grid_cells(poly, guide, bound, Fraction(2 * bound) if width is None else width)
    if roots is None:
        roots = chain_bisection(poly, chain, bound)
    if len(roots) != total:
        raise PrecisionError(f"isolated {len(roots)} roots, Sturm count is {total}")
    return roots


def two_attempt_isolate(factor, jacobi, guide, width: Fraction) -> list[RootEnclosure]:
    """The roots of a reflection factor, the head of
    `rootfind.sturm_chain(*jacobi)`, in two guided attempts: the guides'
    cells on the grid of width, then, for a width finer than
    `rootfind.GUIDE_GRID` whose cells miss, on GUIDE_GRID, and only then
    bisection on the sector's inertia.  `rootfind.isolate_roots` lays the
    guides once, on the grid of max(width, GUIDE_GRID)."""
    p = primitive(factor)
    poly, bound = tuple(p), cauchy_bound(p)
    if degree(poly) == 0:
        return []
    roots = None
    if len(guide) == degree(poly):
        roots = rootfind._grid_cells(poly, guide, bound, width)
        if roots is None and width < rootfind.GUIDE_GRID:
            roots = rootfind._grid_cells(poly, guide, bound, rootfind.GUIDE_GRID)
    return rootfind._sturm_bisection(poly, jacobi, bound) if roots is None else roots


def width_grid_isolate(factor, jacobi, guide, width: Fraction) -> list[RootEnclosure]:
    """The roots of a reflection factor as the isolation before
    `rootfind.isolate_roots` returned cells of the width grid: the guides'
    cells on the grid of max(width, GUIDE_GRID), else bisection on the
    sector's inertia, and then `refined` to the grid of width on every
    enclosure."""
    p = primitive(factor)
    poly, bound = tuple(p), cauchy_bound(p)
    if degree(poly) == 0:
        return []
    roots = None
    if len(guide) == degree(poly):
        roots = rootfind._grid_cells(poly, guide, bound, max(width, rootfind.GUIDE_GRID))
    if roots is None:
        roots = rootfind._sturm_bisection(poly, jacobi, bound)
    return [r.refined(grid_of(width)) for r in roots]


def variations(signs) -> int:
    """The sign changes of a sequence of signs, zeros skipped."""
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def real_root_count(chain) -> int:
    """The real roots of the head of a Sturm chain: its sign variations at
    -infinity less those at +infinity, read from the leading
    coefficients."""
    lead = [1 if q[-1] > 0 else -1 for q in chain]
    at_minus = [-s if degree(q) % 2 else s for s, q in zip(lead, chain)]
    return variations(at_minus) - variations(lead)


def chain_bisection(poly, chain, bound: int) -> list[RootEnclosure]:
    """Isolating intervals for the roots of poly in (-bound, bound) by
    bisection on the counts of the Sturm chain, which poly heads up to a
    positive factor, inside [-2^w, 2^w] with 2^w >= bound, sorted: cells of
    dyadic grids.  V(a) - V(b) counts the roots in (a, b] also where a or b
    is a root, so a midpoint that hits a root is kept as [m, m] and both
    halves go on.  The stack holds [a / 2^e, b / 2^e] with the sign of
    chain[0] and the variation count at both ends; every sign is one
    `sign_at` of a chain element."""

    def signs(x: int, e: int) -> tuple[int, int]:
        s = [sign_at(q, x, 1 << e) for q in chain]
        return s[0], variations(s)

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


def grid_of(width: Fraction) -> int:
    """The exponent of the largest power of two at most width."""
    return _dyadic_exponent(width.numerator, width.denominator)


def halvings(x: int, y: int) -> int:
    """The fewest halvings that bring a width x down to y > 0: the smallest
    n >= 0 with x <= y * 2^n."""
    return 0 if x <= y else -_dyadic_exponent(y, x)


# `halved` and `grid_search` read their signs through the module, so that a
# test that patches `rootfind.sign_at` sees them as it sees `refined`'s.


def halved(enc: RootEnclosure, steps: int) -> RootEnclosure:
    """The same root after steps halvings of the enclosure, or its exact
    enclosure when a midpoint hits it."""
    if steps <= 0 or is_exact(enc):
        return enc
    p, lo, hi, e = enc.poly, enc.lo_num, enc.hi_num, enc.exp
    s_lo = rootfind.sign_at(p, lo, 1 << e)
    for _ in range(steps):
        m = lo + hi
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        s_m = rootfind.sign_at(p, m, 1 << e)
        if s_m == 0:
            return RootEnclosure(p, m, m, e)
        lo, hi = (m, hi) if s_m == s_lo else (lo, m)
    return RootEnclosure(p, lo, hi, e)


def grid_search(poly, lo: int, hi: int, exp: int, step: int, s_lo: int) -> RootEnclosure:
    """The one root of poly in (lo, hi) over 2^exp, where poly has the
    nonzero sign s_lo at lo and the other at hi: bisection over the grid
    points k * step strictly between them, at the point with the fewest
    bits, read over its own denominator, down to the root's grid cell
    clipped to [lo, hi], or [x, x] at a grid point x where poly vanishes."""
    a, b = lo // step, -(-hi // step)  # a * step <= lo and hi <= b * step
    while b - a > 1:
        m = _short_point(a, b)
        x = m * step
        shift = min((x & -x).bit_length() - 1, exp) if x else exp
        s = rootfind.sign_at(poly, x >> shift, 1 << (exp - shift))
        if s == 0:
            return RootEnclosure(poly, x, x, exp)
        a, b = (m, b) if s == s_lo else (a, m)
    return RootEnclosure(poly, max(a * step, lo), min(b * step, hi), exp)


def derivative(p) -> list[int]:
    if len(p) <= 1:
        return [0]
    return [i * c for i, c in enumerate(p)][1:]


def primitive_sturm_chain(p) -> list[list[int]]:
    """Sign-correct Sturm chain of primitive pseudo-remainders."""
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


def prem_normal(a: list[int], b: list[int]) -> list[int]:
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


def remainder_chain(p) -> list[list[int]]:
    """Sign-correct Sturm chain of any integer polynomial by remainders.

    For a monic polynomial the normal steps, deg a = deg b + 1 >= 2, follow
    the subresultant chain (Collins 1967, Brown and Traub 1971).  A normal
    step after a normal step appends -prem(a, b) / lc(a)^2, an exact
    division that is checked; any other normal step appends -prem(a, b).
    prem multiplies a by lc(b)^2 > 0.  Every other step, and every step
    for a polynomial that is not monic, appends the primitive part of its
    signed pseudo-remainder.  So each element is a positive multiple of the
    element of the primitive chain, and every sign and count is the same.

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
            r = prem_normal(a, b)
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


def variations_at(chain, num: int, exp: int) -> int:
    """Sign variations of the chain at num / 2^exp."""
    return variations([sign_at(q, num, 1 << exp) for q in chain])


def variation_mismatches(chain, points) -> list[Fraction]:
    """The dyadic points at which the sign variations of a Sturm chain
    differ from those of `remainder_chain` of its head."""
    oracle = remainder_chain(chain[0])
    out = []
    for x in map(Fraction, points):
        exp = x.denominator.bit_length() - 1
        if variations_at(chain, x.numerator, exp) != variations_at(oracle, x.numerator, exp):
            out.append(x)
    return out


def count_roots(chain, lo: int, hi: int, exp: int) -> int:
    """Number of roots in (lo / 2^exp, hi / 2^exp) by the Sturm chain of
    the polynomial; the ends must not be roots."""
    return variations_at(chain, lo, exp) - variations_at(chain, hi, exp)


def two_pass_prem_normal(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^2 a mod b for deg a = deg b + 1, stripped, by two division
    steps: r = lb a - top x b, then lb r - r_n b."""
    lb, top, n = b[-1], a[-1], len(b) - 1
    r = [lb * a[0]] + [lb * a[j] - top * b[j - 1] for j in range(1, n + 1)]
    top = r[n]
    return strip([lb * r[j] - top * b[j] for j in range(n)])


def resorting_separate(enclosures: list[RootEnclosure]) -> list[RootEnclosure]:
    """`rootfind.separate` sorting every enclosure by (midpoint, lo) on
    each pass."""
    out = list(enclosures)
    for _ in range(4096):
        exp = max(r.exp for r in out)
        out.sort(key=lambda r: (sum(r.ends_at(exp)), r.ends_at(exp)[0]))
        changed = False
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            e = max(a.exp, b.exp)
            (alo, ahi), (blo, bhi) = a.ends_at(e), b.ends_at(e)
            total = ahi - alo + bhi - blo
            if ahi >= blo and not total:
                raise DegeneracyError("two equal roots with exact enclosures")
            if ahi >= blo:
                grid = _dyadic_exponent(total, 4) - e
                out[i], out[i + 1] = a.refined(grid), b.refined(grid)
                changed = True
        if not changed:
            return out
    raise DegeneracyError("two roots could not be separated (equal roots?)")


def is_positive_multiple(a: list[int], b: list[int]) -> bool:
    """Whether a = c b for a rational c > 0."""
    return (
        len(a) == len(b)
        and a[-1] * b[-1] > 0
        and all(x * b[-1] == y * a[-1] for x, y in zip(a, b))
    )


def chain_matches_oracle(p) -> bool:
    """Whether `remainder_chain(p)` has the length of the primitive chain
    and each element is a positive multiple of the primitive chain's, or
    both raise DegeneracyError."""
    try:
        want = primitive_sturm_chain(p)
    except DegeneracyError:
        try:
            remainder_chain(p)
        except DegeneracyError:
            return True
        return False
    got = remainder_chain(p)
    return len(got) == len(want) and all(is_positive_multiple(a, b) for a, b in zip(got, want))
