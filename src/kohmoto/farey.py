"""Exact Farey arithmetic on [0,1].

Mediants, Farey neighbors, short/long continued fractions, quadratic
irrationals, and the Farey ultrametric on the completed interval, where
every rational r splits into r-, r and r+.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import PreconditionError, PrecisionError

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise PreconditionError(f"not a rational: {x!r}")


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def format_dyadic(num: int, exp: int) -> str:
    """`format_rational` of num / 2^exp without a gcd: the lowest terms
    strip the trailing zero bits of num, at most exp of them."""
    shift = min((num & -num).bit_length() - 1, exp) if num else exp
    return f"{num >> shift}/{1 << (exp - shift)}"


def check_rotation(r: Fraction) -> Fraction:
    if not (ZERO <= r <= ONE):
        raise PreconditionError(f"rotation number {format_rational(r)} outside [0,1]")
    return r


def mediant(a: Fraction, b: Fraction) -> Fraction:
    """Mediant (p+p')/(q+q') of two reduced fractions, returned reduced."""
    return Fraction(a.numerator + b.numerator, a.denominator + b.denominator)


def is_neighbor_pair(lower: Fraction, upper: Fraction) -> bool:
    """Farey neighbors are consecutive in F_m; equivalently p2*q1 - p1*q2 = 1."""
    return (
        lower < upper
        and upper.numerator * lower.denominator - lower.numerator * upper.denominator == 1
    )


def emergence_level(lower: Fraction, upper: Fraction) -> int:
    """First Farey level at which a rational appears strictly between a
    neighbor pair; equals the denominator of the mediant."""
    if not is_neighbor_pair(lower, upper):
        raise PreconditionError(
            f"({format_rational(lower)}, {format_rational(upper)}) is not a Farey neighbor pair"
        )
    return lower.denominator + upper.denominator


# ---------------------------------------------------------------------------
# Continued fractions.  Digit strings carry the artificial leading 0, so a
# value in [0,1] reads [0, a0, a1, ..., an] with a0 = 0.  The two sentinel
# strings are [0,0] for the value 0 and [0,0,1] for the value 1.

CF_ZERO = (0, 0)
CF_ONE = (0, 0, 1)


def _validate_cf(digits) -> tuple[int, ...]:
    digits = tuple(int(d) for d in digits)
    if len(digits) < 2 or digits[0] != 0:
        raise PreconditionError(f"malformed continued fraction {digits}")
    if digits[1] < 0:
        raise PreconditionError(f"malformed continued fraction {digits}")
    for d in digits[2:]:
        if d < 1:
            raise PreconditionError(f"malformed continued fraction {digits}")
    return digits


def cf_eval(digits) -> Fraction:
    """Evaluate a digit string [0, a0, a1, ..., an] exactly."""
    digits = _validate_cf(digits)
    if len(digits) == 2:
        return Fraction(digits[1])
    x = Fraction(digits[-1])
    for d in reversed(digits[2:-1]):
        x = d + 1 / x
    return digits[1] + 1 / x


def cf_forms(r) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Short and long continued-fraction strings of a rational in [0,1].

    The short form ends in a digit >= 2, the long form in 1; the values 0
    and 1 get their sentinel strings in both slots.
    """
    r = check_rotation(as_fraction(r))
    if r == 0:
        return CF_ZERO, CF_ZERO
    if r == 1:
        return CF_ONE, CF_ONE
    digits = [0, 0]
    num, den = r.denominator, r.numerator  # expand 1/r
    while den:
        a, num = divmod(num, den)
        digits.append(a)
        num, den = den, num
    short = tuple(digits)
    if short[-1] < 2 or cf_eval(short) != r:
        raise PrecisionError(f"continued fraction {short} does not expand {r}")
    long = short[:-1] + (short[-1] - 1, 1)
    return short, long


def check_ladder_digits(digits, what: str) -> tuple[int, ...]:
    """digits as a tuple of ints; PreconditionError unless they are a
    continued-fraction string [0, 0, a1, ..., an] of a value in [0,1], every
    ai >= 1, as the word ladder and the trace chain (what) need."""
    digits = tuple(int(d) for d in digits)
    if len(digits) < 2 or digits[0] != 0 or digits[1] != 0 or any(d < 1 for d in digits[2:]):
        raise PreconditionError(
            f"{what} needs a continued fraction of a value in [0,1], got {digits}"
        )
    return digits


def approach_digits(r, side: str) -> tuple[int, ...]:
    """Continued-fraction string whose k-extensions converge to the chosen
    one-sided limit of r: the short form when side is plus and the short
    form has an even number of digits past a0 (or minus and odd), else the
    long form; the sentinels for 0+ and 1-."""
    r = check_rotation(as_fraction(r))
    if side not in ("plus", "minus"):
        raise PreconditionError(f"side must be plus or minus, got {side!r}")
    if r == 0:
        if side == "minus":
            raise PreconditionError("0- is not a point of the completion")
        return CF_ZERO
    if r == 1:
        if side == "plus":
            raise PreconditionError("1+ is not a point of the completion")
        return CF_ONE
    short, long = cf_forms(r)
    n = len(short) - 2
    return short if (side == "plus") == (n % 2 == 0) else long


# ---------------------------------------------------------------------------
# Farey neighbors


def _q_neighbors_cf(r: Fraction) -> tuple[Fraction, Fraction]:
    """Neighbors of r in F_q (q the denominator of r), read off the long
    continued fraction by truncation."""
    _, long = cf_forms(r)
    n = len(long) - 3  # long = [0, a0, ..., an, 1]
    below = cf_eval(long[: n + 1]) if n >= 1 else Fraction(long[1])
    above = cf_eval(long[: n + 2])
    if n % 2 == 1:
        return below, above
    return above, below


def _cascade(neighbor: Fraction, r: Fraction, m: int) -> Fraction:
    """The last of the mediants (a + k p) / (b + k q) of the neighbor a/b
    with r = p/q that lies in F_m: k = (m - b) // q."""
    k = (m - neighbor.denominator) // r.denominator
    return Fraction(neighbor.numerator + k * r.numerator, neighbor.denominator + k * r.denominator)


def farey_neighbors(r, m: int) -> tuple[Optional[Fraction], Optional[Fraction]]:
    """The m-Farey neighbors (r_*, r^*) of r in F_m; r_* is absent for r=0
    and r^* for r=1.  Continued-fraction route."""
    r = check_rotation(as_fraction(r))
    if m < 1 or r.denominator > m:
        raise PreconditionError(f"{format_rational(r)} is not an {m}-Farey number")
    if r == 0:
        return None, Fraction(1, m)
    if r == 1:
        return Fraction(m - 1, m), None
    lower, upper = _q_neighbors_cf(r)
    return _cascade(lower, r, m), _cascade(upper, r, m)


# ---------------------------------------------------------------------------
# Quadratic irrationals: exact elements a + b*sqrt(d) given by an eventually
# periodic digit string.


def sign_quad(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) for a non-square d >= 2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if a > 0:  # b < 0
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1  # a < 0, b > 0


@dataclass(frozen=True)
class QuadraticIrrational:
    """Irrational in (0,1) with eventually periodic continued fraction.

    preperiod is the full digit prefix including the artificial 0 and a0=0;
    period is the non-empty repeating block.  The exact value a + b*sqrt(d)
    is derived once at construction.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def from_digits(preperiod, period) -> "QuadraticIrrational":
        preperiod = tuple(int(x) for x in preperiod)
        period = tuple(int(x) for x in period)
        if len(preperiod) < 2 or preperiod[0] != 0 or preperiod[1] != 0:
            raise PreconditionError("preperiod must start with the artificial 0 and a0 = 0")
        if any(x < 1 for x in preperiod[2:]) or not period or any(x < 1 for x in period):
            raise PreconditionError("continued-fraction digits past a0 must be >= 1")
        # Value t of the purely periodic tail from the Moebius matrix of one period.
        A, B, C, D = 1, 0, 0, 1
        for digit in period:
            A, B, C, D = A * digit + B, A, C * digit + D, C
        disc = (A - D) * (A - D) + 4 * B * C
        root = math.isqrt(disc)
        if root * root == disc:
            raise PreconditionError("periodic tail evaluates to a rational: not irrational")
        ta, tb = Fraction(A - D, 2 * C), Fraction(1, 2 * C)  # t = ta + tb*sqrt(disc)
        # Fold the preperiod digits (past the a0 slot) from the right: x -> digit + 1/x.
        xa, xb = ta, tb
        for digit in reversed(preperiod[2:]):
            na, nb = _quad_inv(xa, xb, disc)
            xa, xb = digit + na, nb
        va, vb = _quad_inv(xa, xb, disc)  # value = 0 + 1/x
        obj = QuadraticIrrational(preperiod, period, va, vb, disc)
        if sign_quad(va, vb, disc) <= 0 or sign_quad(va - 1, vb, disc) >= 0:
            raise PreconditionError("quadratic irrational not in (0,1)")
        return obj

    def digit_stream(self) -> Iterator[int]:
        """CF digits a1, a2, ... (the artificial 0 and a0 dropped)."""
        yield from self.preperiod[2:]
        yield from itertools.cycle(self.period)

    def cmp_fraction(self, s: Fraction) -> int:
        return sign_quad(self.a - s, self.b, self.d)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def floor_times(self, n: int) -> int:
        """floor(n * value), exactly."""
        a, b = n * self.a, n * self.b
        m = math.floor(float(a) + float(b) * math.sqrt(self.d))
        while sign_quad(a - (m + 1), b, self.d) >= 0:
            m += 1
        while sign_quad(a - m, b, self.d) < 0:
            m -= 1
        return m

    def __str__(self) -> str:
        pre = ",".join(str(x) for x in self.preperiod)
        per = ",".join(str(x) for x in self.period)
        return f"cf:[{pre}]per[{per}]"


def _quad_inv(a: Fraction, b: Fraction, d: int) -> tuple[Fraction, Fraction]:
    """1 / (a + b*sqrt(d)) in the same field."""
    norm = a * a - b * b * d
    if norm == 0:
        raise ZeroDivisionError
    return a / norm, -b / norm


def _cmp_digit_streams(x: QuadraticIrrational, y: QuadraticIrrational) -> int:
    # Eventually periodic streams agree everywhere iff they agree on a
    # prefix longer than both preperiods plus the product of period lengths.
    bound = len(x.preperiod) + len(y.preperiod) + len(x.period) * len(y.period) + 2
    for i, (dx, dy) in enumerate(zip(x.digit_stream(), y.digit_stream())):
        if dx != dy:
            # Earlier larger digit means smaller value at odd depth, larger at even;
            # here position 0 holds a1 (odd depth of the classical expansion).
            if i % 2 == 0:
                return -1 if dx > dy else 1
            return 1 if dx > dy else -1
        if i > bound:
            return 0
    return 0


# ---------------------------------------------------------------------------
# Points of the completed interval

_KIND_ORDER = {"minus": 0, "exact": 1, "plus": 2}


@dataclass(frozen=True)
class FareyPoint:
    """Element of the completion of [0,1]: an exact rational, a one-sided
    limit r- / r+, or a quadratic irrational."""

    kind: str
    r: Optional[Fraction] = None
    irr: Optional[QuadraticIrrational] = None

    @staticmethod
    def exact(r) -> "FareyPoint":
        return FareyPoint("exact", check_rotation(as_fraction(r)))

    @staticmethod
    def plus(r) -> "FareyPoint":
        r = check_rotation(as_fraction(r))
        if r == 1:
            raise PreconditionError("1+ is not a point of the completion")
        return FareyPoint("plus", r)

    @staticmethod
    def minus(r) -> "FareyPoint":
        r = check_rotation(as_fraction(r))
        if r == 0:
            raise PreconditionError("0- is not a point of the completion")
        return FareyPoint("minus", r)

    @staticmethod
    def irrational(irr: QuadraticIrrational) -> "FareyPoint":
        return FareyPoint("irrational", None, irr)

    @staticmethod
    def parse(text: str) -> "FareyPoint":
        text = text.strip()
        if text.startswith("cf:"):
            body = text[3:]
            if "per" not in body:
                raise PreconditionError(f"bad point syntax: {text!r}")
            pre_s, per_s = body.split("per", 1)
            pre = [int(t) for t in pre_s.strip("[]").split(",") if t.strip()]
            per = [int(t) for t in per_s.strip("[]").split(",") if t.strip()]
            return FareyPoint.irrational(QuadraticIrrational.from_digits(pre, per))
        if text.endswith("+"):
            return FareyPoint.plus(Fraction(text[:-1]))
        if text.endswith("-") and not text.startswith("-"):
            return FareyPoint.minus(Fraction(text[:-1]))
        return FareyPoint.exact(Fraction(text))

    def __str__(self) -> str:
        if self.kind == "irrational":
            return str(self.irr)
        suffix = {"exact": "", "plus": "+", "minus": "-"}[self.kind]
        return format_rational(self.r) + suffix

    def __float__(self) -> float:
        if self.kind == "irrational":
            return float(self.irr)
        return float(self.r)


def as_point(x) -> FareyPoint:
    if isinstance(x, FareyPoint):
        return x
    if isinstance(x, QuadraticIrrational):
        return FareyPoint.irrational(x)
    if isinstance(x, str) and not x.lstrip("-").replace("/", "").isdigit():
        return FareyPoint.parse(x)
    return FareyPoint.exact(as_fraction(x))


def cmp_point_rational(x: FareyPoint, s: Fraction) -> int:
    """Compare a completion point with a rational, in completion order."""
    return _cmp_point_ratio(x, s.numerator, s.denominator)


def _cmp_point_ratio(x: FareyPoint, n: int, m: int) -> int:
    """Compare a completion point with n/m for m > 0, in completion order;
    a rational base value by integer cross-multiplication, without a
    Fraction."""
    if x.kind == "irrational":
        return x.irr.cmp_fraction(Fraction(n, m))
    u, v = x.r.numerator * m, n * x.r.denominator  # x.r and n/m, both times m x.r.denominator
    if x.kind == "exact":
        return (u > v) - (u < v)
    if x.kind == "plus":
        return 1 if v <= u else -1
    return 1 if v < u else -1  # minus


def compare_points(x, y) -> int:
    """Total completion order: r- < r < r+ and real order between distinct
    base values; quadratic irrationals separated by digit expansion."""
    x, y = as_point(x), as_point(y)
    if x.kind != "irrational" and y.kind != "irrational":
        if x.r != y.r:
            return 1 if x.r > y.r else -1
        return (_KIND_ORDER[x.kind] > _KIND_ORDER[y.kind]) - (
            _KIND_ORDER[x.kind] < _KIND_ORDER[y.kind]
        )
    if x.kind == "irrational" and y.kind == "irrational":
        if x.irr.a == y.irr.a and x.irr.b == y.irr.b and x.irr.d == y.irr.d:
            return 0
        return _cmp_digit_streams(x.irr, y.irr)
    if x.kind == "irrational":
        return -_cmp_mixed(y, x.irr)
    return _cmp_mixed(x, y.irr)


def _cmp_mixed(rational_point: FareyPoint, irr: QuadraticIrrational) -> int:
    # An irrational never equals a rational base value, so the one-sided
    # decorations never matter.
    return -irr.cmp_fraction(rational_point.r)


def simplest_rational_between(lo, hi) -> Fraction:
    """Minimal-denominator rational s with lo <= s <= hi in completion
    order; one-sided and irrational endpoints exclude their base value.
    On a denominator tie the smaller value wins."""
    lo, hi = as_point(lo), as_point(hi)
    if compare_points(lo, hi) >= 0:
        raise PreconditionError("simplest_rational_between needs lo < hi")
    if cmp_point_rational(lo, ZERO) <= 0 <= cmp_point_rational(hi, ZERO):
        return ZERO
    if cmp_point_rational(lo, ONE) <= 0 <= cmp_point_rational(hi, ONE):
        return ONE
    # the Stern-Brocot walk between a/b and c/d, one run of moves in the
    # same direction at a time: the mediants (a + j c) / (b + j d) rise with
    # j, and (j a + c) / (j b + d) fall
    a, b, c, d = 0, 1, 1, 1
    while True:
        k = _run_length(lambda j: _cmp_point_ratio(lo, a + j * c, b + j * d) > 0)
        a, b = a + k * c, b + k * d
        k = _run_length(lambda j: _cmp_point_ratio(hi, j * a + c, j * b + d) < 0)
        if not k:
            return Fraction(a + c, b + d)
        c, d = k * a + c, k * b + d


def _run_length(move) -> int:
    """The largest k >= 0 with move(j) true for j = 1 .. k, for a move
    that is true up to some j and false after, by a doubling search."""
    if not move(1):
        return 0
    lo, hi = 1, 2  # move(lo) holds; move(hi) is unknown until the loop ends
    while move(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if move(mid) else (lo, mid)
    return lo


def farey_distance(x, y) -> Fraction:
    """The Farey ultrametric on the completion: 1 over the denominator of
    the simplest rational weakly between the two points."""
    x, y = as_point(x), as_point(y)
    order = compare_points(x, y)
    if order == 0:
        return ZERO
    if order > 0:
        x, y = y, x
    s = simplest_rational_between(x, y)
    return Fraction(1, s.denominator)
