"""Dense polynomial arithmetic used by the spectra machinery.

RP: univariate polynomials in the energy E over the rationals, stored as
integer coefficients with one common positive denominator (fast exact
convolutions).  Ints and Fractions coerce to constant polynomials, so
trace recursions mix them freely with RP values.  When both operands have
denominator 1 (every integer coupling), sums and products are built on
the coefficient lists directly, without a gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rootfind import _eval_homogeneous, poly_add, poly_mul


def _strip(c: list) -> list:
    while len(c) > 1 and not c[-1]:
        c.pop()
    return c


class RP:
    """Polynomial in E over Q: integer coefficient list and a positive
    common denominator, always normalized."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _strip([int(x) for x in num] or [0])
        den = int(den)
        if den == 0:
            raise ZeroDivisionError
        if den < 0:
            num, den = [-x for x in num], -den
        if den != 1:
            g = math.gcd(den, *[abs(x) for x in num]) if any(num) else den
            if g > 1:
                num, den = [x // g for x in num], den // g
        self.num, self.den = num, den

    @staticmethod
    def _raw(num: list, den: int = 1) -> "RP":
        """The polynomial num / den from a stripped integer list and a
        positive denominator already in lowest terms, taken as they are."""
        out = object.__new__(RP)
        out.num, out.den = num, den
        return out

    @staticmethod
    def const(c) -> "RP":
        c = Fraction(c)
        return RP([c.numerator], c.denominator)

    def degree(self) -> int:
        return len(self.num) - 1

    def coeffs(self) -> list[Fraction]:
        return [Fraction(x, self.den) for x in self.num]

    def _coerce(self, other):
        if isinstance(other, RP):
            return other
        if isinstance(other, int):
            return RP._raw([int(other)])
        if isinstance(other, Fraction):
            return RP.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.den == b.den == 1:
            return RP._raw(poly_add(a.num, b.num))
        out = [0] * max(len(a.num), len(b.num))
        for i, x in enumerate(a.num):
            out[i] += x * b.den
        for i, x in enumerate(b.num):
            out[i] += x * a.den
        return RP(out, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return RP._raw([-x for x in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den == 1:
            return RP._raw(poly_add(self.num, other.num, -1))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den == 1:
            return RP._raw(_strip(poly_mul(self.num, other.num)))
        return RP(poly_mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(self.num), self.den))

    def eval(self, x) -> Fraction:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        acc = _eval_homogeneous(self.num, x.numerator, x.denominator)
        return Fraction(acc, self.den * x.denominator ** self.degree())

    def int_poly(self) -> list[int]:
        """Integer polynomial with the same roots (positive rescale)."""
        g = math.gcd(*[abs(x) for x in self.num]) if any(self.num) else 1
        return [x // g for x in self.num] if g > 1 else list(self.num)

    def __repr__(self):
        return f"RP({self.num}, {self.den})"
