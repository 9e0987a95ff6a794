"""Mechanical words, the word recursion along continued fractions,
dictionaries and their metric, and the one-sided limit configurations.

A configuration is either a two-sided periodic word u^inf or a finite
defect u^inf v . u^inf: the impurity v occupies indices -|v| .. -1, index 0
starts the right periodic tail, and the left tail is aligned so that the
letter at -|v|-1 is the last letter of u.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import PreconditionError, PrecisionError
from .farey import (
    QuadraticIrrational,
    approach_digits,
    as_fraction,
    as_point,
    cf_forms,
    check_ladder_digits,
    check_rotation,
    sign_quad,
)

ALPHABET = {"0", "1"}


def _check_word(w: str, allow_empty: bool = True) -> str:
    if not set(w) <= ALPHABET:
        raise PreconditionError(f"word {w!r} is not over the alphabet {{0,1}}")
    if not allow_empty and not w:
        raise PreconditionError("word must be non-empty")
    return w


def _primitive_root(u: str) -> str:
    n = len(u)
    for d in range(1, n + 1):
        if n % d == 0 and u == u[:d] * (n // d):
            return u[:d]
    return u


@dataclass(frozen=True)
class Configuration:
    """Two-sided word: pure periodic (empty impurity) or a finite defect."""

    period: str
    impurity: str = ""

    @staticmethod
    def periodic(u: str) -> "Configuration":
        return Configuration(_primitive_root(_check_word(u, allow_empty=False)))

    @staticmethod
    def defect(u: str, v: str) -> "Configuration":
        u = _check_word(u, allow_empty=False)
        v = _check_word(v)
        if not v:
            return Configuration.periodic(u)
        return Configuration(u, v)

    @property
    def is_periodic(self) -> bool:
        return not self.impurity

    def at(self, n: int) -> str:
        u, v = self.period, self.impurity
        if n >= 0:
            return u[n % len(u)]
        if n >= -len(v):
            return v[n + len(v)]
        return u[(n + len(v)) % len(u)]

    def render(self) -> str:
        if self.is_periodic:
            return f"({self.period})^inf . ({self.period})^inf"
        return f"({self.period})^inf [{self.impurity}] . ({self.period})^inf"

    def __str__(self) -> str:
        return self.render()


def mechanical_word(alpha, lo: int, hi: int) -> str:
    """Letters chi_[1-a,1)(n*a mod 1) for n in [lo, hi], evaluated exactly
    for rational or quadratic-irrational rotation numbers."""
    if lo > hi:
        raise PreconditionError("window must satisfy lo <= hi")
    if isinstance(alpha, QuadraticIrrational):
        out = []
        for n in range(lo, hi + 1):
            f = alpha.floor_times(n)
            # n*a - f >= 1 - a  <=>  (n+1)*a - 1 - f >= 0
            s = sign_quad((n + 1) * alpha.a - 1 - f, (n + 1) * alpha.b, alpha.d)
            out.append("1" if s >= 0 else "0")
        return "".join(out)
    a = check_rotation(as_fraction(alpha))
    out = []
    for n in range(lo, hi + 1):
        frac = (n * a) % 1
        out.append("1" if frac >= 1 - a else "0")
    return "".join(out)


def sk_words(digits) -> list[str]:
    """Word ladder [s_-1, s_0, ..., s_n] of a continued-fraction string
    [0, a0, a1, ..., an]: s_-1 = 1, s_0 = 0, s_1 = s_0^(a1-1) s_-1 and
    s_k = s_{k-1}^(a_k) s_{k-2} afterwards."""
    digits = check_ladder_digits(digits, "word ladder")
    ladder = ["1", "0"]
    for i, a in enumerate(digits[2:]):
        if i == 0:
            ladder.append(ladder[-1] * (a - 1) + ladder[-2])
        else:
            ladder.append(ladder[-1] * a + ladder[-2])
    return ladder


def period_word(r) -> str:
    """Length-q period of the mechanical word at p/q: the top word of the
    short-form ladder (a cyclic rotation of the mechanical window)."""
    r = check_rotation(as_fraction(r))
    short, _ = cf_forms(r)
    word = sk_words(short)[-1]
    if len(word) != r.denominator:
        raise PrecisionError(f"period word has length {len(word)}, wanted {r.denominator}")
    return word


# Cap on the period q of the configurations the word commands build whole.
# On a 2-core machine `word complexity --n 256` took 1.1-3.7 s at q = 10^4
# and 24 s at 1/10^5+; at 1/10^7 `word defect` printed 30 MB.
MAX_WORD_PERIOD = 10_000


def check_period(r: Fraction) -> Fraction:
    if r.denominator > MAX_WORD_PERIOD:
        raise PreconditionError(f"rotation denominator must be at most {MAX_WORD_PERIOD} for a word")
    return r


def defect_config(r, side: str) -> Configuration:
    """One-sided limit configuration at a rational rotation: the period is
    kept and a single impurity determined by the Farey neighbors appears
    left of the origin.  side is "plus" or "minus".  The period and the
    impurity are the last two words of the ladder of `approach_digits`.
    The period q is capped at MAX_WORD_PERIOD."""
    ladder = sk_words(approach_digits(check_period(as_fraction(r)), side))
    return Configuration.defect(ladder[-1], ladder[-2])


def limit_configuration(x) -> Union[Configuration, QuadraticIrrational]:
    """Dictionary-bearing object of a completion point: periodic word,
    defect word, or the rotation number itself for the Sturmian case.  The
    period q of a rational point is capped at MAX_WORD_PERIOD."""
    x = as_point(x)
    if x.kind == "exact":
        return Configuration.periodic(period_word(check_period(x.r)))
    if x.kind == "plus":
        return defect_config(x.r, "plus")
    if x.kind == "minus":
        return defect_config(x.r, "minus")
    return x.irr


@dataclass(frozen=True)
class DictionarySlice:
    length: int
    words: frozenset


def _slice_periodic(u: str, n: int) -> frozenset:
    reps = -(-n // len(u)) + 1
    w = u * reps
    return frozenset(w[i : i + n] for i in range(len(u)))


def _slice_defect(u: str, v: str, n: int) -> frozenset:
    reps = -(-n // len(u)) + 1
    w = u * reps + v + u * reps
    return frozenset(w[i : i + n] for i in range(len(w) - n + 1))


def _slice_sturmian(alpha: QuadraticIrrational, n: int) -> frozenset:
    # grow symmetric windows until the Sturmian factor count n+1 is reached
    half = 2 * n + 2
    for _ in range(32):
        text = mechanical_word(alpha, -half, half)
        words = frozenset(text[i : i + n] for i in range(len(text) - n + 1))
        if len(words) == n + 1:
            return words
        half *= 2
    raise PreconditionError("factor collection did not stabilize")  # unreachable


# Caps on the CLI's word windows and subword lengths, from measured cost on
# a 2-core machine: a 10^5-letter window of a quadratic irrational takes
# about 6 s (about 0.05 s for a rational), and the complexity table up to
# length 256 about 9 s.
MAX_WINDOW = 100_000
MAX_SUBWORD_LENGTH = 256


def check_window(lo: int, hi: int) -> None:
    if lo > hi:
        raise PreconditionError("window must satisfy lo <= hi")
    if hi - lo + 1 > MAX_WINDOW:
        raise PreconditionError(f"window must hold at most {MAX_WINDOW} letters")


def check_subword_length(n: int) -> None:
    if n > MAX_SUBWORD_LENGTH:
        raise PreconditionError(f"subword length must be <= {MAX_SUBWORD_LENGTH}")


def dictionary(c, n: int) -> DictionarySlice:
    """Exact set of length-n subwords of the two-sided configuration (or of
    the Sturmian system of an irrational rotation)."""
    if n < 1:
        raise PreconditionError("subword length must be >= 1")
    if isinstance(c, QuadraticIrrational):
        return DictionarySlice(n, _slice_sturmian(c, n))
    if not isinstance(c, Configuration):
        raise PreconditionError(f"not a configuration: {c!r}")
    if c.is_periodic:
        return DictionarySlice(n, _slice_periodic(c.period, n))
    return DictionarySlice(n, _slice_defect(c.period, c.impurity, n))


def complexity(c, n: int) -> int:
    return len(dictionary(c, n).words)


def subshift_distance(c1, c2, cutoff: int) -> tuple[Fraction, bool]:
    """Dictionary metric 1/(m+1) with m the largest length at which the
    slices agree; scans lengths up to the cutoff and reports whether the
    value is certified or only a certified upper bound."""
    if cutoff < 1:
        raise PreconditionError("cutoff must be >= 1")
    if c1 == c2:
        return Fraction(0), True
    for m in range(1, cutoff + 1):
        if dictionary(c1, m).words != dictionary(c2, m).words:
            return Fraction(1, m), True
    return Fraction(1, cutoff + 1), False


def orbit_inclusion(sub, sup, cutoff: int) -> bool:
    """Dictionary containment at every length up to the cutoff."""
    if cutoff < 1:
        raise PreconditionError("cutoff must be >= 1")
    return all(dictionary(sub, n).words <= dictionary(sup, n).words for n in range(1, cutoff + 1))
