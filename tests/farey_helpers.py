"""Brute-force Farey oracles that only the tests use."""

import math
from fractions import Fraction
from typing import Optional

from kohmoto.errors import PreconditionError
from kohmoto.farey import (
    ONE,
    ZERO,
    as_fraction,
    as_point,
    check_rotation,
    cmp_point_rational,
    format_rational,
    mediant,
)


def farey_set(m: int) -> list[Fraction]:
    """All m-Farey numbers, sorted."""
    if m < 1:
        raise PreconditionError("Farey level must be >= 1")
    out = {Fraction(0), Fraction(1)}
    for q in range(2, m + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                out.add(Fraction(p, q))
    return sorted(out)


def farey_neighbors_stern_brocot(r, m: int) -> tuple[Optional[Fraction], Optional[Fraction]]:
    """Same contract as `kohmoto.farey.farey_neighbors`, via a Stern-Brocot
    walk."""
    r = check_rotation(as_fraction(r))
    if m < 1 or r.denominator > m:
        raise PreconditionError(f"{format_rational(r)} is not an {m}-Farey number")
    if r == 0:
        return None, Fraction(1, m)
    if r == 1:
        return Fraction(m - 1, m), None
    lo, hi = Fraction(0), Fraction(1)
    while True:
        mid = mediant(lo, hi)
        if mid == r:
            break
        if mid < r:
            lo = mid
        else:
            hi = mid
    while lo.denominator + r.denominator <= m:
        lo = mediant(lo, r)
    while hi.denominator + r.denominator <= m:
        hi = mediant(hi, r)
    return lo, hi


def simplest_rational_unit_steps(lo, hi) -> Fraction:
    """Same contract as `kohmoto.farey.simplest_rational_between` for
    lo < hi, via a Stern-Brocot walk of one mediant per step."""
    lo, hi = as_point(lo), as_point(hi)
    if cmp_point_rational(lo, ZERO) <= 0 <= cmp_point_rational(hi, ZERO):
        return ZERO
    if cmp_point_rational(lo, ONE) <= 0 <= cmp_point_rational(hi, ONE):
        return ONE
    a, b, c, d = 0, 1, 1, 1
    while True:
        m = Fraction(a + c, b + d)
        if cmp_point_rational(lo, m) > 0:
            a, b = m.numerator, m.denominator
        elif cmp_point_rational(hi, m) < 0:
            c, d = m.numerator, m.denominator
        else:
            return m
