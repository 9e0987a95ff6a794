"""The trace of a word from its transfer product, and the power-sum trace
recursion, kept as oracles for `kohmoto.spectra`.

`trace_poly` multiplies out the transfer product of any word over {0,1} by
its column recurrence and checks the Casoratian; the package takes every
trace from the continued-fraction recurrence of `_trace_triples` instead.

In the power-sum recursion tr(P M^e) comes from the sequence S_-1 = -1,
S_0 = 0, S_(j+1) = tr(M) S_j - S_(j-1), for which M^e = S_e M - S_(e-1) I
(Cayley-Hamilton), so tr(P M^e) = S_e tr(PM) - S_(e-1) tr(P): two products
on top of the e of the sequence.  It is the oracle for the three-term
recurrence of `_trace_triples` and `extension_traces`.  Both recursions run
over any commutative ring that coerces integers, so they compare over `RP`
and over the symbolic Z[V][E] of `symbolic_ring`.
"""

from __future__ import annotations

from kohmoto.errors import PreconditionError, PrecisionError
from kohmoto.farey import as_fraction
from kohmoto.polyring import RP
from kohmoto.rootfind import unpack


def trace_poly(word: str, V) -> RP:
    """Trace of the ordered transfer product A(w_n)...A(w_1), with
    A(a) = [[E - V a, -1], [1, 0]], as an exact polynomial in the energy.

    Column c of the product is (x_n, x_(n-1)) for the solution of
    x_j = (E - V w_j) x_(j-1) - x_(j-2) from (x_0, x_(-1)) = e_c.  With
    V = a/b, X_j = b^(j+1) x_j is an integer polynomial with
    X_j = (bE - a w_j) X_(j-1) - b^2 X_(j-2).  The loop runs on the values
    at E = 2^w, a shift and small products per letter and column, so it
    takes O(n) integer operations.  The trace is
    x0_n + x1_(n-1), and the determinant, the Casoratian
    x0_n x1_(n-1) - x1_n x0_(n-1), is checked to be 1.  Both are read at
    2^w: with N_j = (b + |c_j|) N_(j-1) + b^2 N_(j-2) the bound on the L1
    norm of X_j, every coefficient of either lies below 2 N_n^2 < 2^(w - 1)
    in absolute value, so its value at 2^w fixes it."""
    if not word:
        raise PreconditionError("transfer product needs a non-empty word")
    if set(word) - {"0", "1"}:
        raise PreconditionError(f"word {word!r} is not over {{0,1}}")
    V = as_fraction(V)
    a, b, n = V.numerator, V.denominator, len(word)
    cs = [a if letter == "1" else 0 for letter in word]
    b2 = b * b
    lo, hi = 1, b
    for c in cs:
        lo, hi = hi, (b + abs(c)) * hi + b2 * lo
    w = (hi * hi).bit_length() + 2
    x0_prev, x0, x1_prev, x1 = 0, b, 1, 0
    for c in cs:
        x0_prev, x0 = x0, ((x0 * b) << w) - c * x0 - b2 * x0_prev
        x1_prev, x1 = x1, ((x1 * b) << w) - c * x1 - b2 * x1_prev
    if x0 * x1_prev - x1 * x0_prev != b ** (2 * n + 1):
        raise PrecisionError("transfer product determinant is not 1")
    return RP(unpack(x0 + b * x1_prev, w, n + 1), b ** (n + 1))


def power_trace(A, B, C, e: int):
    """tr(P M^e) from A = tr P, B = tr M, C = tr(P M), for e >= 0."""
    lo, hi = -1, 0
    for _ in range(e):
        lo, hi = hi, B * hi - lo
    return hi * C - lo * A


def power_trace_triples(digits, E, Vc) -> list[tuple]:
    """The trace triples of `kohmoto.spectra._trace_triples`, each new pair
    from two calls of `power_trace`."""
    A, B, C = E - Vc, E, E * E - Vc * E - 2
    out = [(A, B, C)]
    for i, d in enumerate(digits[2:]):
        e = d - 1 if i == 0 else d
        A, B, C = B, power_trace(A, B, C, e), power_trace(A, B, C, e + 1)
        out.append((A, B, C))
    return out


def power_extension_traces(digits, E, Vc, kmax: int) -> list[tuple]:
    """(k, trace of digits ++ [k]) for k = 1..kmax, as `extension_traces`
    yields them: exponent k - 1 after the bare string (0, 0), else k."""
    A, B, C = power_trace_triples(digits, E, Vc)[-1]
    first = len(digits) == 2
    return [(k, power_trace(A, B, C, k - 1 if first else k)) for k in range(1, kmax + 1)]
