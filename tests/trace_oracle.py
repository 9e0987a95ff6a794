"""The power-sum trace recursion, kept as the oracle for the three-term
recurrence of `kohmoto.spectra._trace_triples` and `extension_traces`.

Here tr(P M^e) comes from the sequence S_-1 = -1, S_0 = 0,
S_(j+1) = tr(M) S_j - S_(j-1), for which M^e = S_e M - S_(e-1) I
(Cayley-Hamilton), so tr(P M^e) = S_e tr(PM) - S_(e-1) tr(P): two products
on top of the e of the sequence.  Both recursions run over any
commutative ring that coerces integers, so they compare over `RP` and over
the symbolic Z[V][E] of `symbolic_ring`.
"""

from __future__ import annotations


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
