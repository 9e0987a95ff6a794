"""The primitive-remainder Sturm chain, the two-pass normal pseudo-remainder,
the pass-and-resort `separate` and a Sturm root count, kept as oracles for
`kohmoto.rootfind`.

`rootfind.sturm_chain` builds its normal steps by subresultants; each of
its elements must be a positive multiple of the element here.
`rootfind._prem_normal` builds in one pass what two division steps build
here.
`count_roots` certifies that an enclosure holds one root and no other.
`rootfind.separate` sorts again only the runs a pass refined; it must
return what sorting everything on each pass returns, after the same signs.
"""

from __future__ import annotations

from kohmoto.errors import DegeneracyError
from kohmoto.rootfind import (
    RootEnclosure,
    _halvings,
    _pseudo_rem_signed,
    _variations,
    degree,
    derivative,
    primitive,
    sign_at,
    strip,
    sturm_chain,
)


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
                out[i] = a.bisected(_halvings(4 * (ahi - alo), total))
                out[i + 1] = b.bisected(_halvings(4 * (bhi - blo), total))
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
