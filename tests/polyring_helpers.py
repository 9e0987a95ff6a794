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
