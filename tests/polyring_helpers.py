"""Constructors and predicates on `kohmoto.polyring.RP` that only the tests
use."""

import math
from fractions import Fraction

from kohmoto.polyring import RP


def from_fractions(coeffs) -> RP:
    """The polynomial with these rational coefficients, lowest degree first."""
    coeffs = [Fraction(c) for c in coeffs] or [Fraction(0)]
    den = math.lcm(*[c.denominator for c in coeffs])
    return RP([c.numerator * (den // c.denominator) for c in coeffs], den)


def is_zero(p: RP) -> bool:
    return p.num == [0]


def coeffs(p: RP) -> list[Fraction]:
    """The coefficients of p as Fractions, lowest degree first."""
    return [Fraction(x, p.den) for x in p.num]


def value_at(p: RP, x) -> Fraction:
    """p(x) as a Fraction for a rational x, by Horner's rule in Fraction
    arithmetic: the oracle of the integer `RP.eval`."""
    x, acc = Fraction(x), Fraction(0)
    for c in reversed(coeffs(p)):
        acc = acc * x + c
    return acc
