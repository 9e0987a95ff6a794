"""The primitive-remainder Sturm chain, the two-pass normal pseudo-remainder,
the pass-and-resort `separate`, a Sturm root count, and the halving loop and
the grid search that `RootEnclosure.refined` replaced, kept as oracles for
`kohmoto.rootfind`; and `enclosure`, a RootEnclosure from dyadic Fraction
ends.

`rootfind.sturm_chain` builds its normal steps by subresultants; each of
its elements must be a positive multiple of the element here.
`rootfind._prem_normal` builds in one pass what two division steps build
here.
`count_roots` certifies that an enclosure holds one root and no other.
`rootfind.separate` sorts again only the runs a pass refined; it must
return what sorting everything on each pass returns, after the same signs.
`RootEnclosure.refined(grid)` must halve an aligned dyadic cell as `halved`
does, and run `grid_search` on any other bracket, after the same signs.
"""

from __future__ import annotations

from fractions import Fraction

from kohmoto import rootfind
from kohmoto.errors import DegeneracyError, PreconditionError
from kohmoto.rootfind import (
    RootEnclosure,
    _dyadic_exponent,
    _pseudo_rem_signed,
    _short_point,
    _variations,
    degree,
    derivative,
    primitive,
    sign_at,
    strip,
    sturm_chain,
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
    if steps <= 0 or enc.is_exact():
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


def variations_at(chain, num: int, exp: int) -> int:
    """Sign variations of the chain at num / 2^exp."""
    return _variations([sign_at(q, num, 1 << exp) for q in chain])


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
    """Whether `sturm_chain(p)` has the length of the oracle's chain and
    each element is a positive multiple of the oracle's, or both raise
    DegeneracyError."""
    try:
        want = primitive_sturm_chain(p)
    except DegeneracyError:
        try:
            sturm_chain(p)
        except DegeneracyError:
            return True
        return False
    got = sturm_chain(p)
    return len(got) == len(want) and all(is_positive_multiple(a, b) for a, b in zip(got, want))
