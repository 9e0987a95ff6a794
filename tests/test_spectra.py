import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohmoto import rootfind, spectra
from kohmoto.analysis import FAST_K
from kohmoto.errors import DegeneracyError, PreconditionError, PrecisionError
from kohmoto.farey import approach_digits, cf_forms
from kohmoto.polyring import RP
from kohmoto.rootfind import cauchy_bound, compare_roots, poly_mul, primitive, sturm_chain
from kohmoto.sets import EnclosedSet, lebesgue
from kohmoto.spectra import (
    band_classify,
    defect_spectrum,
    extension_traces,
    _path_matrix,
    _sector_paths,
    _trace_triples,
    floquet_edges,
    floquet_zeros,
    membership,
    reflection_factors,
    spectrum_from_trace,
    spectrum_periodic,
    trace_poly_cf,
    trace_triples,
)
from kohmoto.words import Configuration, defect_config, period_word, sk_words

import symbolic_ring
from band_oracle import (
    dense_sector_matrices,
    list_path_determinant,
    unsplit_spectrum,
)
from defect_oracle import (
    approximant_defect_points,
    finite_section_eigs,
    finite_section_modes,
    halving_defect_points,
)
from polyring_helpers import coeffs, value_at
import rootfind_oracle
from rootfind_oracle import (
    chain_bisection,
    isolate,
    resorting_separate,
    two_attempt_isolate,
    variation_mismatches,
    width_grid_isolate,
    variations_at,
)
from set_helpers import certainly_disjoint_triple, covers_at_resolution, union
from trace_oracle import power_extension_traces, power_trace_triples, trace_poly

V5 = F(5)
TOL9 = F(1, 10**9)
TOL6 = F(1, 10**6)
# the exponents of the grids of spacing 2^-30 <= 1e-9 and 2^-40 <= 1e-12
GRID9, GRID12 = -30, -40
# the exponent of the grid of spacing 2^-67 <= 1e-20
GRID20 = -67


def closure_factors(word: str, V):
    """The reflection factors of the periodic and the antiperiodic closure,
    each from its own `_sector_paths`, without their sectors."""
    return tuple(
        tuple(f for f, _ in reflection_factors(V, _sector_paths(word, anti))) for anti in (False, True)
    )


def sector_matrices(word: str, V, anti: bool):
    """The two sectors of one closure as `_path_matrix` floats."""
    return [_path_matrix(float(V), path) for path in _sector_paths(word, anti)]


def sqrt_enclosure(n: int, digits: int = 20) -> tuple[F, F]:
    scale = 10**digits
    lo = math.isqrt(n * scale * scale)
    return F(lo, scale), F(lo + 1, scale)


def interval_eval(poly: RP, lo: F, hi: F) -> tuple[F, F]:
    """Naive interval Horner; valid enclosure of poly([lo, hi])."""
    alo, ahi = F(0), F(0)
    for c in reversed(coeffs(poly)):
        cands = [alo * lo, alo * hi, ahi * lo, ahi * hi]
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


# --- trace polynomials ---------------------------------------------------------


def test_trace_examples():
    assert coeffs(trace_poly("0", V5)) == [F(0), F(1)]
    assert coeffs(trace_poly("01", V5)) == [F(-2), F(-5), F(1)]
    t = trace_poly("110", V5)
    assert t.degree() == 3 and coeffs(t)[-1] == 1
    assert t == trace_poly("101", V5) == trace_poly("011", V5)
    with pytest.raises(PreconditionError):
        trace_poly("", V5)


def test_traces_need_a_rational_coupling():
    # symbolic coupling runs only through the private _trace_triples
    with pytest.raises(PreconditionError):
        trace_triples((0, 0, 2), None)
    with pytest.raises(PreconditionError):
        trace_poly("01", None)


def test_trace_cyclic_invariance_random_words():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 12)
        w = "".join(rng.choice("01") for _ in range(n))
        t = trace_poly(w, F(3, 2))
        for j in range(1, n):
            assert t == trace_poly(w[j:] + w[:j], F(3, 2))


def transfer_product(word: str, E, Vc):
    """A(w_n)...A(w_1) for A(a) = [[E - V a, -1], [1, 0]], as a matrix
    product over any ring that holds E and Vc."""
    m = None
    for ch in word:
        a = [[E if ch == "0" else E - Vc, -1], [1, 0]]
        m = a if m is None else [
            [a[0][0] * m[0][0] + a[0][1] * m[1][0], a[0][0] * m[0][1] + a[0][1] * m[1][1]],
            [a[1][0] * m[0][0] + a[1][1] * m[1][0], a[1][0] * m[0][1] + a[1][1] * m[1][1]],
        ]
    return m


def test_transfer_determinant_symbolic():
    # multiply the site matrices symbolically for small words and check
    # det == 1 in Z[V][E]
    for w in ("0", "1", "01", "110", "10110"):
        m = transfer_product(w, symbolic_ring.E, symbolic_ring.V)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


def test_trace_poly_matches_the_matrix_product():
    # the column recurrence of trace_poly against the 2 x 2 product
    rng = random.Random(7)
    for V in (V5, F(3, 2), F(-7, 3)):
        for _ in range(20):
            w = "".join(rng.choice("01") for _ in range(rng.randint(1, 16)))
            m = transfer_product(w, RP([0, 1]), RP.const(V))
            assert trace_poly(w, V) == m[0][0] + m[1][1], (w, V)


def test_trace_cf_examples_and_word_agreement():
    assert coeffs(trace_poly_cf((0, 0, 2), V5)) == [F(-2), F(-5), F(1)]
    assert coeffs(trace_poly_cf((0, 0), V5)) == [F(0), F(1)]
    assert coeffs(trace_poly_cf((0,), V5)) == [F(2)]
    for r in (F(1, 2), F(2, 3), F(7, 9), F(5, 8), F(11, 25)):
        short, long = cf_forms(r)
        assert trace_poly_cf(short, V5) == trace_poly(period_word(r), V5)
        assert trace_poly_cf(long, V5) == trace_poly(sk_words(long)[-1], V5)


def test_extension_traces_match_word_ladders():
    for digits in ((0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 1, 2), (0, 0, 1, 3, 2)):
        for k, t in extension_traces(digits, V5):
            if k > 4:
                break
            assert t == trace_poly(sk_words(digits + (k,))[-1], V5)


# the bare string, first digit 1 (exponent 0) and larger first digits,
# followed by up to two more digits
RECURRENCE_STRINGS = [(0, 0)] + [
    (0, 0) + digs for n in (1, 2, 3) for digs in itertools.product((1, 2, 4), repeat=n)
]


@pytest.mark.parametrize("V", [V5, F(1, 2), F(-3), F(7, 3)])
def test_trace_recurrence_matches_the_power_trace_oracle(V):
    E, Vc = RP([0, 1]), RP.const(V)
    for digits in RECURRENCE_STRINGS:
        assert trace_triples(digits, V) == power_trace_triples(digits, E, Vc), digits
        assert list(itertools.islice(extension_traces(digits, V), 6)) == power_extension_traces(
            digits, E, Vc, 6
        ), digits


def test_trace_recurrence_matches_the_power_trace_oracle_symbolically():
    E, Vs = symbolic_ring.E, symbolic_ring.V
    for digits in RECURRENCE_STRINGS:
        assert _trace_triples(digits, E, Vs) == power_trace_triples(digits, E, Vs), digits


def test_fricke_invariant_symbolic_V():
    E, Vs = symbolic_ring.E, symbolic_ring.V
    target = Vs * Vs + 4
    # the base triple for the value 0: (2, E, E - V)
    A, B, C = 2, E, E - Vs
    assert (A * A + B * B + C * C - A * B * C) == target
    digit_strings = [()]
    for n in (1, 2, 3):
        digit_strings += list(itertools.product((1, 2, 3), repeat=n))
    for digs in digit_strings:
        triples = _trace_triples((0, 0) + digs, E, Vs)
        for A, B, C in triples:
            assert (A * A + B * B + C * C - A * B * C) == target


def test_trace_recursion_at_band_edges():
    # at an edge enclosure E with t_c(E) = +-2, the k-extension trace obeys
    # |t_{d_{k+1}}(E)| = k |(1 + 1/k) t_{d_1}(E) -+ t_{d_0}(E)|
    for r in (F(1, 2), F(2, 3)):
        short, _ = cf_forms(r)
        A, B, C = trace_triples(short, V5)[-1]
        spec = spectrum_periodic(r, V5, F(1, 10**24))
        exts = {}
        for k, t in extension_traces(short, V5):
            exts[k] = t
            if k > 9:
                break
        # the edges where t_c = +2 are the roots of the two factors of t_c - 2
        upper_polys = {tuple(primitive(f)) for f in closure_factors(period_word(r), V5)[0]}
        for lo_enc, hi_enc in spec.bands:
            for enc in (lo_enc, hi_enc):
                sign_plus = enc.poly in upper_polys
                for k in range(1, 9):
                    lhs_lo, lhs_hi = interval_eval(exts[k + 1], enc.lo, enc.hi)
                    c_lo, c_hi = interval_eval(C, enc.lo, enc.hi)
                    a_lo, a_hi = interval_eval(A, enc.lo, enc.hi)
                    coef = 1 + F(1, k)
                    if sign_plus:
                        rhs_lo = coef * c_lo - a_hi
                        rhs_hi = coef * c_hi - a_lo
                    else:
                        rhs_lo = coef * c_lo + a_lo
                        rhs_hi = coef * c_hi + a_hi
                    rhs_lo, rhs_hi = k * rhs_lo, k * rhs_hi
                    # compare |lhs| and |rhs| as intervals: they must overlap
                    labs = (max(F(0), lhs_lo, -lhs_hi), max(abs(lhs_lo), abs(lhs_hi)))
                    rabs = (max(F(0), rhs_lo, -rhs_hi), max(abs(rhs_lo), abs(rhs_hi)))
                    assert labs[0] <= rabs[1] and rabs[0] <= labs[1]


# --- periodic spectra -----------------------------------------------------------


def test_spectrum_free_and_constant():
    s0 = spectrum_periodic(F(0), V5, TOL9)
    assert len(s0.bands) == 1
    (lo, hi), = s0.bands
    assert lo.lo <= -2 <= lo.hi and hi.lo <= 2 <= hi.hi
    s1 = spectrum_periodic(F(1), V5, TOL9)
    (lo, hi), = s1.bands
    assert lo.lo <= 3 <= lo.hi and hi.lo <= 7 <= hi.hi
    # V = 0 stays fine at period one, touches at period two
    assert len(spectrum_periodic(F(0), F(0), TOL9).bands) == 1
    with pytest.raises(DegeneracyError):
        spectrum_periodic(F(1, 2), F(0), TOL9)


def test_spectrum_half_closed_forms():
    spec = spectrum_periodic(F(1, 2), V5, F(1, 10**12))
    (a_lo, a_hi), (b_lo, b_hi) = spec.bands
    s41lo, s41hi = sqrt_enclosure(41)
    targets = [(5 - s41hi) / 2, F(0), F(5), (5 + s41lo) / 2]
    edges = [a_lo, a_hi, b_lo, b_hi]
    for enc, target in zip(edges, targets):
        assert abs((enc.lo + enc.hi) / 2 - target) <= F(1, 10**9)


def test_band_count_sampled():
    rng = random.Random(15)
    for V in (F(1, 2), F(2), F(5)):
        for _ in range(6):
            q = rng.randint(2, 18)
            p = rng.choice([x for x in range(1, q) if math.gcd(x, q) == 1])
            spec = spectrum_periodic(F(p, q), V, TOL6)
            assert len(spec.bands) == q
            for (_, h1), (l2, _) in zip(spec.bands, spec.bands[1:]):
                assert h1.hi < l2.lo


# 2/q and (q - 2)/q for odd q from 43 to 59 at V = 5, tol 1e-9: two band
# edges 1e-14 apart in different reflection factors.  A grid shared by the
# two factors of a side missed them and fell back to Sturm bisection; each
# factor's own grid certifies them.
CLOSE_EDGE_CASES = [F(p, q) for q in range(43, 60, 2) for p in (2, q - 2)]


def test_band_edges_certify_without_fallback(monkeypatch):
    # a silent Sturm-bisection fallback would only slow runs down
    from kohmoto import rootfind, spectra

    def no_fallback(*args):
        raise AssertionError("grid cells did not certify")

    monkeypatch.setattr(rootfind, "_sturm_bisection", no_fallback)
    spectra.clear_memos()
    try:
        for V in (F(1, 2), F(2), F(5)):
            for q in range(1, 21):
                for p in range(q + 1):
                    if math.gcd(p, q) == 1:
                        assert len(spectrum_periodic(F(p, q), V, TOL6).bands) == q
        for r in CLOSE_EDGE_CASES:
            assert len(spectrum_periodic(r, V5, TOL9).bands) == r.denominator
    finally:
        spectra.clear_memos()


def test_edges_of_one_spectrum_lie_on_four_reflection_factors():
    spec = spectrum_periodic(F(21, 34), V5, TOL9)
    sides = closure_factors(period_word(F(21, 34)), V5)
    factors = [tuple(primitive(f)) for side in sides for f in side]
    assert len({id(enc.poly) for band in spec.bands for enc in band}) == 4
    assert {enc.poly for band in spec.bands for enc in band} == set(factors)


def _reduced(qmax: int):
    for q in range(1, qmax + 1):
        for p in range(q + 1):
            if math.gcd(p, q) == 1:
                yield F(p, q)


def _check_reflection_identities(word: str, t: RP, V) -> None:
    scale = V.denominator ** len(word)
    for factors, target in zip(closure_factors(word, V), (t - 2, t + 2)):
        assert [c * target.den for c in poly_mul(*factors)] == [c * scale for c in target.num]


def test_reflection_factors_multiply_to_t_minus_and_plus_2():
    # b^q (t - 2) = D_even D_odd of the periodic sector paths and
    # b^q (t + 2) that of the antiperiodic ones, exactly
    cases = 0
    for V in (V5, F(1, 2), F(-3), F(13, 2)):
        for r in _reduced(40):
            _check_reflection_identities(period_word(r), trace_poly_cf(cf_forms(r)[0], V), V)
            cases += 1
    for r, side in _one_sided_points(7):
        digits = approach_digits(r, side)
        for k, t in extension_traces(digits, V5):
            if k > 6:
                break
            _check_reflection_identities(sk_words(digits + (k,))[-1], t, V5)
            cases += 1
    assert cases == 1964 + 216


wide_numerators = st.integers(-(2**2000), 2**2000) | st.integers(-3, 3)


def diagonal_points(diag, b) -> set:
    """The dyadic points at and beside each diagonal entry c / b: c / b,
    the root of the first minor when c = diag[0], and c / b -+ 1, -+ 2,
    the roots of the head of a link of two such entries with beta = 1 or
    4, where these are dyadic; and the points of the quarter grid either
    side of c / b."""
    out = set()
    for c in diag:
        out.update((F(4 * c // b, 4), F(4 * c // b + 1, 4)))
        if b & (b - 1) == 0:
            out.update(F(c, b) + s for s in (-2, -1, 0, 1, 2))
    return out


def zero_counts(chain, points) -> tuple[int, int]:
    """How many of the dyadic points are roots of the chain's head, and how
    many are zeros of an element below it."""
    zeros = [[rootfind.sign_at(q, x.numerator, x.denominator) == 0 for q in chain] for x in points]
    return sum(z[0] for z in zeros), sum(any(z[1:]) for z in zeros)


def check_minors_chain(diag, beta, b, points) -> tuple[int, int]:
    """Check `sturm_chain` against the list recurrence, its sign variations
    against the remainder chain of its head, and `_inertia` against the
    head's sign and the chain's variations, at the points and at -+ the
    head's Cauchy bound; return how many points are roots of the head and
    how many zeros of an element below it."""
    chain = sturm_chain(diag, beta, b)
    assert chain[0] == list_path_determinant(diag, beta, b)
    assert [(len(q), q[-1]) for q in chain] == [(j + 1, b**j) for j in range(len(diag), -1, -1)]
    bound = cauchy_bound(chain[0])
    points = {*points, -bound, bound}
    assert not variation_mismatches(chain, points), (diag, beta, b)
    for x in points:
        num, exp = x.numerator, x.denominator.bit_length() - 1
        want = (rootfind.sign_at(chain[0], num, 1 << exp), variations_at(chain, num, exp))
        assert rootfind._inertia((diag, beta, b), num, exp) == want, (diag, beta, b, x)
    return zero_counts(chain, points)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(0, 8), st.sampled_from([1, 2, 3, 7]), st.data())
def test_minors_chain_counts_like_the_remainder_chain(k, b, data):
    # entries up to 2000 bits, and small ones that repeat, so that minors
    # vanish at the points c / b; the remainder chain of a head of degree k
    # with 2000-bit entries has elements of about 2000 k^2 bits, so k stays
    # small
    diag = data.draw(st.lists(wide_numerators, min_size=k, max_size=k))
    links = max(k - 1, 0)
    beta = data.draw(st.lists(st.sampled_from([1, 2, 4]), min_size=links, max_size=links))
    check_minors_chain(diag, beta, b, diagonal_points(diag, b))


def test_minors_chain_edge_cases():
    # the empty path; zero and constant diagonals, whose odd minors vanish
    # at the centre c / b, where the heads of odd length have a root; two
    # equal entries on a link, whose head has the roots c / b -+ sqrt(beta);
    # and one 2000-bit entry among small ones.  A link that is not positive
    # is no Jacobi path.
    n = 40
    roots = inner = 0
    for diag, beta in (
        ([], []),
        ([0] * n, [1] * (n - 1)),
        ([-1] * (n - 1), [4] * (n - 2)),
        ([5, 5], [1]),
        ([5, 5], [4]),
        ([5, 0, 5, 0, 5], [1, 2, 4, 2]),
        ([1] * 11 + [-(1 << 1999)], [2] * 11),
    ):
        for b in (1, 2, 3, 7):
            got = check_minors_chain(diag, beta, b, diagonal_points(diag, b))
            roots, inner = roots + got[0], inner + got[1]
    assert roots >= 8 and inner >= 8
    for beta in ([0], [-1]):
        with pytest.raises(PreconditionError, match="positive"):
            sturm_chain([5, 0], beta, 1)


def test_reflection_sectors_hold_the_roots_of_their_factors():
    # the even and odd sectors of floquet_edges give one estimate per real
    # root of the factor in the same position, and nothing else
    cases = 0
    for V in (V5, F(1, 2), F(-3)):
        for r in _reduced(21):
            word = period_word(r)
            for anti, factors in zip((False, True), closure_factors(word, V)):
                for f, guesses in zip(factors, floquet_edges(V, _sector_paths(word, anti))):
                    roots = [float(e.refined(GRID12).lo) for e in isolate(f)]
                    assert len(roots) == len(f) - 1 == len(guesses)
                    assert np.allclose(sorted(guesses), roots, rtol=0, atol=1e-9)
            cases += 1
    assert cases == 3 * 141


def test_floquet_edges_match_the_dense_basis_construction_bit_for_bit():
    # every period word and every approximant word with k <= 6 for q <= 25:
    # the path matrices are the dense B^T H B bit for bit on the diagonal
    # and in absolute value off it (the paths keep no link signs), and their
    # eigenvalues are those of the dense matrices, signs and all
    words = set()
    for r in _reduced(25):
        words.add(period_word(r))
        for side in ("plus", "minus"):
            if (side, r) not in (("plus", 1), ("minus", 0)):
                digits = approach_digits(r, side)
                words.update(sk_words(digits + (k,))[-1] for k in range(1, 7))
    assert len(words) == 2456
    for V in (V5, F(1, 2), F(-3)):
        for word in words:
            for anti in (False, True):
                got = sector_matrices(word, V, anti)
                want = [np.ascontiguousarray(h) for h in dense_sector_matrices(word, V, anti)]
                assert [(h.shape, np.diag(h).tobytes(), np.abs(h).tobytes()) for h in got] == [
                    (h.shape, np.diag(h).tobytes(), np.abs(h).tobytes()) for h in want
                ], (word, V, anti)
                edges = floquet_edges(V, _sector_paths(word, anti))
                assert [np.array(x).tobytes() for x in edges] == [
                    np.linalg.eigvalsh(h).tobytes() for h in want
                ], (word, V, anti)


def test_factored_band_edges_nest_with_the_unsplit_isolation():
    # each factor lays its own grid, so an edge's enclosure may differ from
    # the one of the grid of t -+ 2 whole; both hold the same root on dyadic
    # grids, so one contains the other wherever the unsplit grid certifies
    fallback = mock.patch.object(rootfind_oracle, "chain_bisection", wraps=chain_bisection)
    compared = 0
    for V in (F(1, 2), F(2), V5, F(-3), F(13, 2)):
        for tol in (TOL6, TOL9):
            for r in _reduced(30):
                t = trace_poly_cf(cf_forms(r)[0], V)
                word = period_word(r)
                got = [e for band in spectrum_from_trace(t, tol, word, V).bands for e in band]
                assert all(e.hi - e.lo <= tol for e in got), (r, V, tol)
                with fallback as spy:
                    want = [e for band in unsplit_spectrum(t, tol, word, V).bands for e in band]
                if spy.call_count:
                    continue
                compared += 1
                for a, b in zip(got, want):
                    assert (a.lo <= b.lo and b.hi <= a.hi) or (b.lo <= a.lo and a.hi <= b.hi), (
                        r, V, tol
                    )
    assert compared > 2700


def reflection_chain_points(word: str, V):
    """The chain of leading minors of each reflection sector of the word's
    two closures at coupling V, with the points at and beside the diagonal
    entries of its sector (`diagonal_points`) and its float guides, which
    lie beside its roots."""
    V = F(V)
    for anti in (False, True):
        paths = _sector_paths(word, anti)
        for (f, (diag, beta, b)), guide in zip(reflection_factors(V, paths), floquet_edges(V, paths)):
            chain = sturm_chain(diag, beta, b)
            assert chain[0] == f
            yield chain, diagonal_points(diag, b) | set(map(F, guide))


def test_sturm_chains_of_trace_polynomials_match_the_primitive_chain():
    # the minors chain of every reflection factor counts like the remainder
    # chain of the factor, also where the factor or a minor vanishes
    roots = inner = 0
    for V in (V5, F(1, 2), F(-3)):
        for r in _reduced(30):
            for chain, points in reflection_chain_points(period_word(r), V):
                assert not variation_mismatches(chain, points), (r, V)
                got = zero_counts(chain, points)
                roots, inner = roots + got[0], inner + got[1]
    assert roots > 100 and inner > 1000


def test_sturm_fallback_cases_match_the_primitive_chain():
    assert len(CLOSE_EDGE_CASES) == 18
    for r in CLOSE_EDGE_CASES:
        for chain, points in reflection_chain_points(period_word(r), V5):
            assert not variation_mismatches(chain, points), r


def test_sturm_bisection_keeps_a_root_hit_by_a_midpoint():
    # the odd antiperiodic factor of 1/6 at V = 5 is E^3 - 3E, and the
    # window's first midpoint is its root 0: kept as [0, 0], while the
    # half-open inertia count V(a) - V(b) goes on in both halves, past the
    # root end of [0, 4], to cells of dyadic grids that `refined` takes down
    # to the tol-grid cells of -+sqrt3
    word = period_word(F(1, 6))
    f, jacobi = reflection_factors(V5, _sector_paths(word, True))[1]
    assert f == [0, -3, 0, 1]
    roots = rootfind._sturm_bisection(tuple(f), jacobi, rootfind.cauchy_bound(f))
    assert [(e.lo, e.hi) for e in roots] == [(-2, -1), (0, 0), (1, 2)]
    k = math.isqrt(3 << 60)  # floor(sqrt3 * 2^30)
    cells = [(e.refined(GRID9).lo_num, e.refined(GRID9).hi_num) for e in (roots[0], roots[2])]
    assert cells == [(-k - 1, -k), (k, k + 1)]


def test_inertia_bisection_matches_the_chain_bisection():
    # every factor that takes the fallback, at 3/25 (V = 100) and at a few
    # rotations with q <= 30 at V = 1000: bisection on the sector's inertia
    # gives the cells that bisection on its chain of leading minors gives,
    # enclosure for enclosure
    calls, real = [], rootfind._sturm_bisection

    def recorded(poly, jacobi, bound):
        calls.append((poly, jacobi, bound))
        return real(poly, jacobi, bound)

    cases = [(F(3, 25), F(100))] + [(r, F(1000)) for r in (F(3, 19), F(4, 23), F(5, 27), F(16, 29))]
    spectra.clear_memos()
    try:
        with mock.patch.object(rootfind, "_sturm_bisection", recorded):
            for r, V in cases:
                spectrum_periodic(r, V, TOL9)
    finally:
        spectra.clear_memos()
    assert len(calls) >= len(cases)
    for poly, jacobi, bound in calls:
        got = rootfind._sturm_bisection(poly, jacobi, bound)
        want = chain_bisection(poly, sturm_chain(*jacobi), bound)
        assert [(e.lo_num, e.hi_num, e.exp) for e in got] == [(e.lo_num, e.hi_num, e.exp) for e in want]
        assert len(got) == len(poly) - 1


def recorded_isolations(cases, tol) -> list[tuple]:
    """The arguments of every `isolate_roots` call of the band spectra of
    the (r, V) cases at tol, computed afresh."""
    calls, real = [], rootfind.isolate_roots

    def isolate(factor, jacobi, guide, width):
        calls.append((factor, jacobi, guide, width))
        return real(factor, jacobi, guide, width)

    spectra.clear_memos()
    try:
        with mock.patch.object(spectra, "isolate_roots", isolate):
            for r, V in cases:
                spectrum_periodic(r, V, tol)
    finally:
        spectra.clear_memos()
    return calls


def test_isolated_edges_are_the_refined_cells_of_the_width_grid():
    # on the guided route at tol 1e-9 and on the inertia fallback (3/25 at
    # V = 100 and the V = 1000 factors of the chain-bisection test),
    # `isolate_roots` returns what `refined` on the tol grid makes of every
    # enclosure of the isolation before it refined them itself
    guided = [(r, V) for V in (V5, F(7, 3), F(-3)) for r in _reduced(20)]
    fallback = [(F(3, 25), F(100))] + [(r, F(1000)) for r in (F(3, 19), F(4, 23), F(5, 27), F(16, 29))]
    bisection = mock.patch.object(rootfind, "_sturm_bisection", wraps=rootfind._sturm_bisection)
    for cases in (guided, fallback):
        bisections = 0
        for factor, jacobi, guide, width in recorded_isolations(cases, TOL9):
            with bisection as spy:
                got = rootfind.isolate_roots(factor, jacobi, guide, width)
            bisections += spy.call_count
            assert got == width_grid_isolate(factor, jacobi, guide, width)
        assert bisections >= len(cases) if cases is fallback else bisections == 0


def test_band_edges_are_refined_only_to_separate_them():
    # at tol >= GUIDE_GRID a guided cell already lies in one cell of the tol
    # grid, so `spectrum_from_trace` refines an edge only inside `separate`,
    # where two edge cells touch or overlap
    inside, outside, depth = [], [], [0]
    real_refined, real_separate = rootfind.RootEnclosure.refined, rootfind.separate

    def refined(enc, grid):
        (inside if depth[0] else outside).append(grid)
        return real_refined(enc, grid)

    def separate(encs):
        depth[0] += 1
        try:
            return real_separate(encs)
        finally:
            depth[0] -= 1

    spectra.clear_memos()
    try:
        with mock.patch.object(rootfind.RootEnclosure, "refined", refined), mock.patch.object(
            spectra, "separate", separate
        ):
            for tol in (TOL9, F(1, 2**40), F(1, 1000)):
                for r in (*_reduced(16), F(28, 55), F(29, 57), F(30, 59)):
                    spectrum_periodic(r, V5, tol)
    finally:
        spectra.clear_memos()
    assert not outside and inside


def test_defect_points_build_no_sturm_chain():
    # the gap brackets of the cached bands certify the roots of
    # t_u^2 = V^2 + 4, also where two float guides coincide (2/17) or lie
    # 1e-14 apart (1/21, 1/60): no Sturm chain, no Sturm bisection
    cases = [(F(1, 60), "plus"), (F(1, 60), "minus"), (F(34, 89), "plus")]
    cases += [(r, side) for r in (F(2, 17), F(1, 21), F(2, 19)) for side in ("plus", "minus")]
    chain = mock.patch.object(spectra, "sturm_chain", wraps=spectra.sturm_chain)
    fallback = mock.patch.object(rootfind, "_sturm_bisection", wraps=rootfind._sturm_bisection)
    for r, side in cases:
        spectrum_periodic(r, V5, TOL9)
        with chain as chains, fallback as bisections:
            spec = spectra.defect_spectrum.__wrapped__(r, side, V5, TOL9)
        assert len(spec.defects) == r.denominator
        assert (chains.call_count, bisections.call_count) == (0, 0), (r, side)


def tol_grid_brackets(wide):
    """Record, for each call of `refined` on the grid of TOL9 (the gap
    roots'; point placement refines on finer grids), whether its enclosure
    spans more than one cell, so that refined bisects it."""
    real = rootfind.RootEnclosure.refined

    def refined(enc, grid):
        if grid == GRID9:
            e = max(enc.exp, -grid)
            lo, hi = enc.ends_at(e)
            wide.append(-(-hi >> (e + grid)) - (lo >> (e + grid)) > 1)
        return real(enc, grid)

    return mock.patch.object(rootfind.RootEnclosure, "refined", refined)


def test_guide_cells_across_a_bracket_end_need_no_bisection(monkeypatch):
    # at 1/30+ (V = 5) the top two roots of t_u^2 = V^2 + 4 lie within a
    # tol cell of the narrow top band, so their guide cells cross the band
    # check points that end their brackets: clipped to the brackets, those
    # cells hold them, with the bytes of the guides-withheld refinement of
    # whole brackets
    r = F(1, 30)
    spectrum_periodic(r, V5, TOL9)
    wide = []
    with tol_grid_brackets(wide):
        guided = spectra.defect_spectrum.__wrapped__(r, "plus", V5, TOL9)
    assert not any(wide)
    monkeypatch.setattr(spectra, "floquet_defect_estimates", lambda word, V: [])
    bisected = spectra.defect_spectrum.__wrapped__(r, "plus", V5, TOL9)
    assert guided.defects[28:] == bisected.defects[28:]


def withheld_guides(monkeypatch):
    """No float guides: every band factor takes Sturm bisection and every
    defect point the grid search of its gap bracket."""
    monkeypatch.setattr(spectra, "floquet_edges", lambda V, paths: ([], []))
    monkeypatch.setattr(spectra, "floquet_defect_estimates", lambda word, V: [])


def guided_and_withheld(monkeypatch, compute):
    """compute() as JSON with the float guides and without them."""
    spectra.clear_memos()
    try:
        guided = json.dumps(compute().to_json_obj())
        with monkeypatch.context() as m:
            withheld_guides(m)
            spectra.clear_memos()
            withheld = json.dumps(compute().to_json_obj())
    finally:
        spectra.clear_memos()
    return guided, withheld


def test_certified_bytes_do_not_depend_on_the_float_guides(monkeypatch):
    # every enclosure is its root's tol-grid cell (clipped to its gap for a
    # defect point), however it was found: guided cells, the Sturm
    # fallback (3/25 at V = 100), cells widened back from a grid that close
    # guides made finer (3/14 at V = 1000) or the grid search of a bracket
    cases = [(r, V) for V in (V5, F(1, 2), F(-3), F(7, 3)) for r in _reduced(16)]
    for r, V in cases + [(F(3, 25), F(100)), (F(3, 14), F(1000))]:
        guided, withheld = guided_and_withheld(monkeypatch, lambda: spectra.spectrum_periodic(r, V, TOL9))
        assert guided == withheld, (r, V)
    for V in (V5, F(1, 2), F(-3), F(7, 3)):
        for r, side in _one_sided_points(16):
            guided, withheld = guided_and_withheld(monkeypatch, lambda: spectra.defect_spectrum(r, side, V, TOL9))
            assert guided == withheld, (r, side, V)


def test_guides_finer_than_their_accuracy_move_to_the_guide_grid(monkeypatch):
    # at tol 1e-20 the guides miss their tol-grid cells; they place the
    # roots on GUIDE_GRID = 2^-40 instead, and refinement and the grid
    # search go on to tol: no Sturm bisection, and the bytes of Sturm
    # bisection and of the grid search of whole brackets
    r, tol = F(34, 89), F(1, 10**20)
    fallback = mock.patch.object(rootfind, "_sturm_bisection", wraps=rootfind._sturm_bisection)
    for compute in (
        lambda: spectra.spectrum_periodic(r, V5, tol),
        lambda: spectra.defect_spectrum(r, "plus", V5, tol),
    ):
        with fallback as spy:
            guided, withheld = guided_and_withheld(monkeypatch, compute)
        assert guided == withheld
        assert spy.call_count == 4  # the four reflection factors, all withheld


def test_guides_are_laid_once_on_the_guide_grid():
    # at tol 1e-20 `isolate_roots` lays each factor's guides on the grid of
    # GUIDE_GRID = 2^-40 alone, with no sweep on the tol grid, and finds
    # the enclosures of two attempts, on the tol grid and then on
    # GUIDE_GRID, each refined to its tol-grid cell
    calls, sweeps = [], []
    real_isolate, real_sweep = rootfind.isolate_roots, rootfind._grid_signs

    def isolate(factor, jacobi, guide, width):
        calls.append((factor, jacobi, guide, width))
        return real_isolate(factor, jacobi, guide, width)

    def sweep(poly, ks, e):
        sweeps.append(e)
        return real_sweep(poly, ks, e)

    tol = F(1, 10**20)
    spectra.clear_memos()
    try:
        with mock.patch.object(spectra, "isolate_roots", isolate), mock.patch.object(rootfind, "_grid_signs", sweep):
            for r in (F(34, 89), F(13, 21), F(5, 12)):
                spectrum_periodic(r, V5, tol)
    finally:
        spectra.clear_memos()
    assert len(calls) == 12 and set(sweeps) == {GRID12}
    for factor, jacobi, guide, width in calls:
        got = rootfind.isolate_roots(factor, jacobi, guide, width)
        assert got == width_grid_isolate(factor, jacobi, guide, width)
        two_attempts = two_attempt_isolate(factor, jacobi, guide, width)
        assert got == [e.refined(GRID20) for e in two_attempts]


def test_a_guide_in_the_cell_next_to_its_root_narrows_the_bracket():
    # at 15/28+ (V = 7/3, tol 1e-9) a guide lies 2.3e-10 from its root but
    # in the next tol-grid cell; that neighbour holds the root, so
    # `refined` bisects no bracket
    r, V = F(15, 28), F(7, 3)
    spectrum_periodic(r, V, TOL9)
    wide = []
    with tol_grid_brackets(wide):
        points = spectra.defect_spectrum.__wrapped__(r, "plus", V, TOL9).defects
    assert len(wide) == 28 and not any(wide)
    estimates, step = spectra.floquet_defect_estimates(period_word(r), V), F(2) ** GRID9
    missed = []
    for p in points:
        k, near = rootfind.grid_cell(min(estimates, key=lambda g: abs(g - float(p.lo))), GRID9)
        if not k * step <= p.lo <= p.hi <= (k + 1) * step:
            missed.append((p, near))
    ((p, k),) = missed
    assert (p.lo, p.hi) == (k * step, (k + 1) * step)


def test_point_placement_takes_no_gcd():
    # a root of t_u^2 - V^2 - 4 is never a root of t_u -+ 2 when V != 0, so
    # refinement alone orders a point and an edge, also where their
    # enclosures overlap (1/20+ at V = -3 lies 1.7e-10 from its edge)
    r, V = F(1, 20), F(-3)
    base, spec = spectrum_periodic(r, V, TOL9), defect_spectrum(r, "plus", V, TOL9)
    edges = [e for band in base.bands for e in band]
    assert any(p.lo <= e.hi and e.lo <= p.hi for p in spec.defects for e in edges)
    gcd = mock.patch.object(rootfind, "poly_gcd", wraps=rootfind.poly_gcd)
    with gcd as gcds:
        spectra._check_point_placement(base, spec.defects, above=False)
    assert gcds.call_count == 0


def test_a_bracket_count_that_misses_a_sign_change_is_refused(monkeypatch):
    # (x + 3)(x - 1)(x - 2) changes sign 3 times across -4 < 0 < 3/2 < 3 < 4,
    # but only once when 3/2 is missing: its two roots in (0, 3) go unseen
    f = poly_mul(poly_mul([3, 1], [-1, 1]), [-2, 1])
    assert spectra._sign_change_gaps(f, [-8, 0, 3, 6, 8], 1) == [0, 1, 2]
    with pytest.raises(PrecisionError, match="changes sign 1 times, wanted 3"):
        spectra._sign_change_gaps(f, [-4, 0, 3, 4], 0)
    # without the upper Cauchy bound the top bracket of 2/3+ is lost, and A
    # (degree 4) holds the root above the bands
    real = spectra._sign_change_gaps
    monkeypatch.setattr(spectra, "_sign_change_gaps", lambda f, xs, exp: real(f, xs[:-1], exp))
    with pytest.raises(PrecisionError, match="changes sign 3 times, wanted 4"):
        spectra.defect_spectrum.__wrapped__(F(2, 3), "plus", V5, TOL6)


def test_separate_matches_resorting_every_pass_on_band_edges(monkeypatch):
    calls = []

    def both(encs):
        want = resorting_separate(encs)
        got = rootfind.separate(encs)
        calls.append((got, want))
        return got

    monkeypatch.setattr(spectra, "separate", both)
    for r in (F(28, 55), F(29, 57), F(30, 59)):
        t = trace_poly_cf(cf_forms(r)[0], V5)
        spectrum_from_trace(t, TOL9, period_word(r), V5)
    assert len(calls) == 3
    for got, want in calls:
        assert [(e.poly, e.lo_num, e.hi_num, e.exp) for e in got] == [
            (e.poly, e.lo_num, e.hi_num, e.exp) for e in want
        ]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(-(2**70), 2**70), st.integers(2, 2**12) | st.integers(2, 2**80))
def test_band_check_point_is_the_shortest_between_the_ends(a, gap):
    b = a + gap
    m = rootfind._short_point(a, b)
    assert a < m < b
    if gap <= 2**12:
        # no integer strictly between has more trailing zero bits
        zeros = lambda x: (x & -x).bit_length() if x else math.inf
        assert zeros(m) == max(zeros(x) for x in range(a + 1, b))


def test_touching_bands_fail_fast():
    # at coupling 0 the two factors of t - 2 share their roots; the overlap
    # of their cells must end the isolation before separate's passes
    spectra.clear_memos()
    t0 = time.perf_counter()
    with pytest.raises(DegeneracyError, match="multiple root"):
        spectrum_periodic(F(2, 5), 0, TOL6)
    assert time.perf_counter() - t0 < 0.5


def test_one_spectrum_folds_each_closure_once():
    # the exact factors and the float guides of a closure share its paths
    spectra.clear_memos()
    try:
        with mock.patch.object(spectra, "_sector_paths", wraps=spectra._sector_paths) as fold:
            spectrum_periodic(F(34, 89), V5, TOL9)
    finally:
        spectra.clear_memos()
    assert fold.call_count == 2


def test_reflection_factors_are_checked_against_the_trace():
    # a word of the right length whose trace is another polynomial
    t = trace_poly_cf(cf_forms(F(2, 5))[0], V5)
    with pytest.raises(PrecisionError, match="reflection factors"):
        spectrum_from_trace(t, TOL6, period_word(F(1, 5)), V5)


def dense_bloch_zeros(word: str, V) -> np.ndarray:
    """Reference: eigenvalues of the dense complex quarter-phase Bloch
    matrix, with the whole flux on the closing link."""
    q = len(word)
    m = np.zeros((q, q), dtype=complex)
    for i, ch in enumerate(word):
        m[i, i] = float(V) * int(ch)
    for i in range(q - 1):
        m[i, i + 1] = m[i + 1, i] = 1.0
    if q > 1:
        m[0, q - 1] += 1j
        m[q - 1, 0] += -1j
    return np.linalg.eigvalsh(m)


def test_floquet_zeros_match_dense_complex_bloch_matrix():
    # every defect word of the fast Q = 25 butterfly, and all short words
    words = {
        "".join(w) for n in (1, 2, 3) for w in itertools.product("01", repeat=n)
    }
    for q in range(1, 26):
        for p in range(q + 1):
            if math.gcd(p, q) != 1:
                continue
            r = F(p, q)
            for side in ("plus", "minus"):
                if (side, r) not in (("plus", 1), ("minus", 0)):
                    words.add(sk_words(approach_digits(r, side) + (FAST_K,))[-1])
    for V in (V5, F(1, 2), F(-3)):
        for word in words:
            zeros = floquet_zeros(word, V)
            assert len(zeros) == len(word)
            assert np.max(np.abs(np.array(zeros) - dense_bloch_zeros(word, V))) < 1e-10


def test_doubled_antiperiodic_sectors_hold_the_trace_zeros():
    # the trace t of the single word w from its transfer product (the
    # oracle's Casoratian check makes det M = 1, so tr(M^2) = t^2 - 2 and
    # det(E - H') = tr(M^2) + 2 = t^2 for the antiperiodic ring H' of ww),
    # and each of the two sectors of H' holds every zero of t once, for
    # every defect word of the fast Q = 25 butterfly
    cases = {
        sk_words(digits)[-1]: digits
        for q in range(1, 26)
        for p in range(q + 1)
        for side in ("plus", "minus")
        if math.gcd(p, q) == 1 and (side, F(p, q)) not in (("plus", 1), ("minus", 0))
        for digits in [approach_digits(F(p, q), side) + (FAST_K,)]
    }
    assert len(cases) == 400
    for V in (V5, F(7, 3)):
        for word, digits in cases.items():
            t = trace_poly_cf(digits, V)
            assert trace_poly(word, V) == t
            # exactly: each sector's b^n det(E - J) is b^n t
            sectors = reflection_factors(V, _sector_paths(word + word, True))
            assert all(RP(f, V.denominator ** len(word)) == t for f, _ in sectors)
            even, odd = sector_matrices(word + word, V, True)
            assert len(even) == len(odd) == len(word)
            zeros = floquet_zeros(word, V)
            assert np.max(np.abs(np.linalg.eigvalsh(odd) - zeros)) < 1e-10


def test_floquet_zeros_needs_a_reflection_of_the_cyclic_word():
    with pytest.raises(PreconditionError):
        floquet_zeros("001011", V5)


def test_a_coupling_without_a_finite_float_is_a_precondition():
    assert spectra.check_coupling("7/3") == F(7, 3)
    for call in (
        spectra.check_coupling,
        lambda V: spectrum_periodic(F(1, 3), V, TOL6),
        lambda V: defect_spectrum(F(1, 3), "plus", V, TOL6),
        lambda V: band_classify(F(1, 3), 2, V, TOL6),
    ):
        with pytest.raises(PreconditionError, match="coupling"):
            call(F(10**400))
    # a finite float whose square overflows the defect estimates: beyond the
    # cap on |V| for the certified spectra, and refused by the estimates
    with pytest.raises(PreconditionError, match="coupling"):
        defect_spectrum(F(1, 3), "plus", F(10**300), TOL6)
    with pytest.raises(PreconditionError, match="V\\^2 overflows"):
        spectra.floquet_defect_estimates("001", F(10**300))


def test_coupling_bits_are_capped():
    # exact run time grows with |V| and with the bits of V's denominator,
    # not with the bits of its numerator as such (65537/65536, 3.14159)
    den = 2**64 - 1
    for V in (F(2**16 - 1), F(-(2**16 - 1)), F(65537, 65536), F("3.14159"), F(3, den), F((den << 16) - 1, den)):
        assert spectra.check_coupling(V) == V
    for V in (F(2**16), F(-(2**16)), F(2**32 + 1, 2**16), F(3, 2**64), F(1, 3 << 63)):
        for call in (
            spectra.check_coupling,
            lambda V: spectrum_periodic(F(1, 3), V, TOL6),
            lambda V: defect_spectrum(F(1, 3), "plus", V, TOL6),
        ):
            with pytest.raises(PreconditionError, match="coupling"):
                call(V)


def test_rotation_denominator_is_capped():
    # the run time at the corner of the coupling caps grows fast with q
    assert len(spectrum_periodic(F(1, spectra.MAX_DENOMINATOR), V5, TOL6).bands) == 89
    for call in (
        lambda r: spectrum_periodic(r, V5, TOL6),
        lambda r: defect_spectrum(r, "plus", V5, TOL6),
        lambda r: band_classify(r, 1, V5, TOL6),
    ):
        with pytest.raises(PreconditionError, match="denominator"):
            call(F(1, 90))


def test_membership_examples():
    assert membership(F(0), F(0), V5)
    assert not membership(F(3), F(0), V5)
    assert membership(F(0), F(1, 2), V5)  # band edge: t(0) = -2
    assert not membership(F(1), F(1, 2), V5)
    # the trace recurrence run on Fractions at E gives the trace
    # polynomial's value there
    for r in (F(1, 3), F(5, 8), F(21, 34)):
        t = trace_poly_cf(cf_forms(r)[0], V5)
        for E in (F(-7, 3), F(0), F(1, 7), F(5, 2), F(9, 2), F(-3)):
            assert membership(E, r, V5) == (abs(value_at(t, E)) <= 2), (r, E)
            # the integer band check of `spectrum_from_trace` agrees
            scaled = abs(t.eval(E.numerator, E.denominator))
            assert (scaled <= 2 * t.den * E.denominator ** t.degree()) == membership(E, r, V5), (r, E)


# --- classification and defects --------------------------------------------------


def test_band_classify_examples():
    type_a, type_b, k0 = band_classify(F(0), 1, V5, TOL9)
    assert len(type_a) == 0 and len(type_b) == 1 and k0
    type_a, type_b, k0 = band_classify(F(2, 3), 2, V5, TOL6)
    assert len(type_b) == 3 and k0
    type_a, type_b, k0 = band_classify(F(1, 2), 1, V5, TOL6)
    assert len(type_b) == 2
    # interleaving: approximants of the short form of 1/2 sit below each band
    base = spectrum_periodic(F(1, 2), V5, TOL6)
    for (a, b), (c, d) in zip(type_b, base.bands):
        assert b.hi < c.lo


def test_band_classify_nesting():
    for r, form in ((F(2, 3), "short"), (F(1, 2), "long")):
        prev = None
        for k in range(1, 11):
            _, type_b, _ = band_classify(r, k, V5, TOL6, form=form)
            if prev is not None:
                for (a2, b2), (a1, b1) in zip(type_b, prev):
                    assert compare_roots(a2, a1) >= 0
                    assert compare_roots(b2, b1) <= 0
            prev = type_b


def test_defect_spectrum_single_impurity():
    spec = defect_spectrum(F(0), "plus", V5, TOL9)
    assert len(spec.points) == 1
    lo, hi = spec.points[0]
    s29lo, s29hi = sqrt_enclosure(29)
    assert lo <= s29hi and s29lo <= hi  # enclosure contains sqrt(29)
    assert hi - lo <= TOL9
    evs = finite_section_eigs(Configuration.defect("0", "1"), V5, 2001)
    top = [e for e in evs if e > 2.1]
    assert len(top) == 1
    assert abs(top[0] - math.sqrt(29)) < 1e-6


def test_defect_spectrum_examples():
    spec = defect_spectrum(F(2, 3), "plus", V5, TOL6)
    assert len(spec.points) == 3
    spec = defect_spectrum(F(1, 4), "minus", V5, TOL6)
    assert len(spec.points) == 4
    spec = defect_spectrum(F(1), "minus", V5, TOL9)
    lo, hi = spec.points[0]
    s29lo, s29hi = sqrt_enclosure(29)
    assert lo <= 5 - s29lo and 5 - s29hi <= hi  # V - sqrt(V^2 + 4)
    with pytest.raises(PreconditionError):
        defect_spectrum(F(0), "minus", V5, TOL9)
    with pytest.raises(PreconditionError):
        defect_spectrum(F(2, 3), "plus", F(0), TOL9)


def test_defect_point_placement_both_sides():
    # upper limits put points above each band, lower limits below
    for r in (F(1, 2), F(2, 3), F(1, 4), F(3, 5)):
        base = spectrum_periodic(r, V5, TOL6)
        for side in ("plus", "minus"):
            spec = defect_spectrum(r, side, V5, TOL6)
            assert len(spec.points) == r.denominator
            assert spec.bands == base.bands  # identical band part
            for j, (plo, phi) in enumerate(spec.points):
                if side == "plus":
                    assert plo > base.bands[j][1].hi
                    if j + 1 < len(base.bands):
                        assert phi < base.bands[j + 1][0].lo
                else:
                    assert phi < base.bands[j][0].lo
                    if j >= 1:
                        assert plo > base.bands[j - 1][1].hi


# Defect points whose enclosures at this tol overlap the enclosure of a
# band edge (at V = -3 the 1/20+ point lies 1.7e-10 from its edge).  Over
# every p/q with q <= 25, both sides, V = 5, 1/2, -3 and 13/2, these are
# the points that a placement decided at tol resolution fails to certify.
NEAR_EDGE_POINTS = [
    *((TOL6, V5, pt) for pt in ("9/19-", "10/19+")),
    *(
        (TOL6, F(-3), pt)
        for pt in ("1/14+", "13/14-", "1/20+", "19/20-", "1/22+", "21/22-", "1/23+", "22/23-", "12/25-", "13/25+")
    ),
    *((TOL9, F(-3), pt) for pt in ("1/20+", "19/20-", "1/22+", "21/22-", "1/23+", "22/23-")),
]


@pytest.mark.parametrize(
    "tol, V, point", NEAR_EDGE_POINTS, ids=[f"{pt}-V{V}-tol{float(tol):g}" for tol, V, pt in NEAR_EDGE_POINTS]
)
def test_defect_points_near_a_band_edge_are_placed_exactly(tol, V, point):
    r, side = F(point[:-1]), "plus" if point.endswith("+") else "minus"
    spec = defect_spectrum(r, side, V, tol)
    q = r.denominator
    assert len(spec.defects) == q
    assert all(e.hi - e.lo <= tol for e in spec.defects)
    # refined far below tol, every point lies strictly inside its gap
    fine = -100
    edges = [e.refined(fine) for band in spec.bands for e in band]
    above = (side == "plus") == (V > 0)
    for j, enc in enumerate(spec.defects):
        p = enc.refined(fine)
        below_edge, above_edge = (2 * j + 1, 2 * j + 2) if above else (2 * j - 1, 2 * j)
        assert below_edge < 0 or edges[below_edge].hi < p.lo
        assert above_edge == 2 * q or p.hi < edges[above_edge].lo


def test_defect_gap_clusters_against_finite_sections():
    r, side = F(2, 3), "plus"
    spec = defect_spectrum(r, side, V5, TOL6)
    vals, edge_mass = finite_section_modes(defect_config(r, side), V5, 801)
    for lo, hi in spec.points:
        hits = [
            v
            for v, m in zip(vals, edge_mass)
            if float(lo) - 1e-3 <= v <= float(hi) + 1e-3 and m < 0.2
        ]
        assert len(hits) == 1


def test_negative_coupling_mirrors_positive():
    # conjugating by (-1)^n shows sigma(H_{w,-V}) = -sigma(H_{w,V})
    tol = F(1, 10**9)
    pos = spectrum_periodic(F(1, 2), V5, tol)
    neg = spectrum_periodic(F(1, 2), -V5, tol)
    mirrored = [(-h.hi, -h.lo, -l.hi, -l.lo) for l, h in reversed(pos.bands)]
    for (l, h), (a, b, c, d) in zip(neg.bands, mirrored):
        assert l.lo <= b and a <= l.hi and h.lo <= d and c <= h.hi
    dpos = defect_spectrum(F(2, 3), "plus", V5, TOL6)
    dneg = defect_spectrum(F(2, 3), "plus", -V5, TOL6)
    for (plo, phi), (nlo, nhi) in zip(dpos.points, reversed(dneg.points)):
        assert nlo - TOL6 <= -phi and -plo <= nhi + TOL6


def test_defect_spectrum_small_coupling():
    # the roots of t^2 = V^2 + 4 need no large coupling, unlike the
    # approximant enclosures of the optimality certificate (V > 4)
    spec = defect_spectrum(F(1, 2), "plus", F(1, 2), F(1, 10**4))
    assert len(spec.points) == 2
    evs = finite_section_eigs(defect_config(F(1, 2), "plus"), F(1, 2), 2001)
    base = spectrum_periodic(F(1, 2), F(1, 2), F(1, 10**6))
    bands = [(float(l.lo) - 1e-3, float(h.hi) + 1e-3) for l, h in base.bands]
    gap_evs = [e for e in evs if not any(lo <= e <= hi for lo, hi in bands)]
    assert len(gap_evs) == 2
    for (lo, hi), ev in zip(spec.points, gap_evs):
        assert float(lo) - 1e-4 <= ev <= float(hi) + 1e-4


def _points_bracket_defect_roots(spec, r, V):
    """Each point is at most tol wide and brackets a sign change of
    t(E)^2 - (V^2 + 4), with t the trace over the mechanical word of r,
    computed by an integer transfer product with site matrices
    [[E - V a, -1], [1, 0]] scaled by L = den(E) den(V)."""
    p, q = r.numerator, r.denominator
    word = [((n + 1) * p) // q - (n * p) // q for n in range(q)]

    def disc_sign(E):
        L = E.denominator * V.denominator
        d0 = E.numerator * V.denominator
        d1 = d0 - V.numerator * E.denominator
        m00, m01, m10, m11 = 1, 0, 0, 1
        for a in word:
            d = d1 if a else d0
            m00, m01, m10, m11 = d * m00 - L * m10, d * m01 - L * m11, L * m00, L * m01
        tr = m00 + m11
        v = (tr * V.denominator) ** 2 - (V.numerator**2 + 4 * V.denominator**2) * L ** (2 * q)
        return (v > 0) - (v < 0)

    assert len(spec.points) == q
    for lo, hi in spec.points:
        assert hi - lo <= spec.tol
        assert disc_sign(lo) * disc_sign(hi) <= 0


def _one_sided_points(max_q):
    for q in range(1, max_q + 1):
        for p in range(q + 1):
            if math.gcd(p, q) == 1:
                for side in ("plus", "minus"):
                    if not (p == 0 and side == "minus" or p == q and side == "plus"):
                        yield F(p, q), side


def test_defect_identity_with_symbolic_coupling():
    # P^2 - V^2 t_v^2 = (t_u^2 - V^2 - 4)(t_v^2 - 4) for P = t_u t_v - 2 t_uv,
    # from the trace-map invariant, for every approach string with q <= 13
    E, Vs = symbolic_ring.E, symbolic_ring.V
    cases = list(_one_sided_points(13))
    assert len(cases) == 116
    for r, side in cases:
        t_v, t_u, t_uv = _trace_triples(approach_digits(r, side), E, Vs)[-1]
        P = t_u * t_v - 2 * t_uv
        assert P * P - Vs * Vs * t_v * t_v == (t_u * t_u - Vs * Vs - 4) * (t_v * t_v - 4)


def test_defect_points_match_approximant_oracle():
    for V in (V5, F(2), F(-3), F(13, 2)):
        for r, side in _one_sided_points(8):
            spec = defect_spectrum(r, side, V, TOL6)
            oracle = approximant_defect_points(r, side, V, TOL6)
            assert len(spec.points) == len(oracle)
            for (lo, hi), (olo, ohi) in zip(spec.points, oracle):
                assert lo <= ohi and olo <= hi
            _points_bracket_defect_roots(spec, r, V)


def test_defect_split_matches_the_halving_oracle():
    # the gap brackets decide every root as the Lipschitz halving did.  The
    # oracle's cells are cells of dyadic grids, guided or from Sturm
    # bisection on a power-of-two window, and each point is its tol-grid
    # cell clipped to its gap, so the two nest for every point, also at
    # 1/21+ and 2/23- (V = 5), where the oracle takes Sturm bisection
    cases = [(r, side, V) for V in (V5, F(-3), F(1, 2)) for r, side in _one_sided_points(12)]
    for r, side, V in cases + [(F(1, 21), "plus", V5), (F(2, 23), "minus", V5)]:
        points = defect_spectrum(r, side, V, TOL6).defects
        oracle = halving_defect_points(r, side, V, TOL6)
        assert len(points) == len(oracle) == r.denominator
        for enc, old in zip(points, oracle):
            assert (enc.lo <= old.lo and old.hi <= enc.hi) or (old.lo <= enc.lo and enc.hi <= old.hi), (r, side, V)


def test_defect_spectrum_checks_the_trace_invariant(monkeypatch):
    from kohmoto import spectra

    real = spectra.trace_triples

    def skewed(digits, V):
        *head, (t_v, t_u, t_uv) = real(digits, V)
        return [*head, (t_v, t_u, t_uv + 1)]

    monkeypatch.setattr(spectra, "trace_triples", skewed)
    with pytest.raises(PrecisionError, match="invariant"):
        spectra.defect_spectrum.__wrapped__(F(2, 3), "plus", V5, TOL6)


@pytest.mark.parametrize("point", ["34/89+", "34/89-", "55/89+", "55/89-"])
def test_defect_sides_are_decided_at_q89(point):
    # a Lipschitz slope bound on G+- grows like R^deg and left these
    # undecided after 256 halvings; the gcd split needs none
    r, side = F(point[:-1]), "plus" if point.endswith("+") else "minus"
    spec = defect_spectrum(r, side, V5, TOL9)
    _points_bracket_defect_roots(spec, r, V5)
    bands = spec.bands
    for j, (lo, hi) in enumerate(spec.points):
        if side == "plus":
            assert bands[j][1].hi < lo and (j + 1 == 89 or hi < bands[j + 1][0].lo)
        else:
            assert hi < bands[j][0].lo and (j == 0 or bands[j - 1][1].hi < lo)


def test_defect_spectrum_checks_the_gcd_split(monkeypatch):
    # a split whose factors do not multiply to t^2 - V^2 - 4 is refused
    from kohmoto import spectra

    monkeypatch.setattr(spectra, "poly_gcd", lambda a, b: [1])
    with pytest.raises(PrecisionError, match="split"):
        spectra.defect_spectrum.__wrapped__(F(2, 3), "plus", V5, TOL6)


def test_defect_spectrum_without_float_guides(monkeypatch):
    # the guides only place grid cells: without them each root is found by
    # bisection of its gap bracket, down to the same tolerance
    from kohmoto import spectra

    for r, side in ((F(2, 3), "plus"), (F(3, 5), "minus")):
        guided = defect_spectrum(r, side, V5, TOL6)
        with monkeypatch.context() as m:
            m.setattr(spectra, "floquet_defect_estimates", lambda word, V: [])
            bisected = spectra.defect_spectrum.__wrapped__(r, side, V5, TOL6)
        _points_bracket_defect_roots(bisected, r, V5)
        for (lo, hi), (glo, ghi) in zip(bisected.points, guided.points):
            assert lo <= ghi and glo <= hi


def test_defect_points_at_rational_square_roots():
    # sqrt(V^2 + 4) is rational, so t^2 - V^2 - 4 factors over Q and a grid
    # point can be a root: at 0+ with V = 3/2 the point is exactly 5/2
    exact = 0
    for V in (F(3, 2), F(-3, 2), F(8, 3)):
        for r, side in _one_sided_points(6):
            spec = defect_spectrum(r, side, V, TOL6)
            _points_bracket_defect_roots(spec, r, V)
            exact += sum(lo == hi for lo, hi in spec.points)
    assert defect_spectrum(F(0), "plus", F(3, 2), TOL6).points == ((F(5, 2), F(5, 2)),)
    assert exact > 1


def test_defect_spectrum_small_coupling_against_finite_sections():
    V, tol = F(1, 2), TOL9
    for r in (F(1, 2), F(2, 5), F(5, 8)):
        base = spectrum_periodic(r, V, tol)
        bands = [(float(lo.lo), float(hi.hi)) for lo, hi in base.bands]
        for side in ("plus", "minus"):
            spec = defect_spectrum(r, side, V, tol)
            _points_bracket_defect_roots(spec, r, V)
            vals, edge_mass = finite_section_modes(defect_config(r, side), V, 2001)
            gap_evs = [
                v
                for v, m in zip(vals, edge_mass)
                if m < 0.2 and not any(lo <= v <= hi for lo, hi in bands)
            ]
            assert len(gap_evs) == r.denominator
            for (lo, hi), ev in zip(spec.points, gap_evs):
                assert float(lo) - 1e-8 <= ev <= float(hi) + 1e-8


def test_finite_section_free_laplacian():
    evs = finite_section_eigs(Configuration.periodic("0"), V5, 501)
    assert all(-2.01 <= e <= 2.01 for e in evs)
    evs = finite_section_eigs(Configuration.periodic(period_word(F(2, 3))), V5, 1501)
    spec = spectrum_periodic(F(2, 3), V5, TOL6)
    bands = [(float(l.lo) - 1e-2, float(h.hi) + 1e-2) for l, h in spec.bands]
    inside = sum(1 for e in evs if any(lo <= e <= hi for lo, hi in bands))
    assert inside >= 1501 - 6  # a few boundary modes may leak into gaps


# --- structural laws across approximants ------------------------------------------


def test_inclusion_and_at_most_k():
    for r in (F(0), F(1, 2), F(2, 3)):
        digits = cf_forms(r)[0]
        base = EnclosedSet.from_spectrum(spectrum_periodic(r, V5, TOL6))
        specs = {}
        for k, t in extension_traces(digits, V5):
            if k > 7:
                break
            specs[k] = spectrum_from_trace(t, TOL6, word=sk_words(digits + (k,))[-1], V=V5)
        for k in range(1, 7):
            small = EnclosedSet.from_spectrum(specs[k + 1])
            cover = union(base, EnclosedSet.from_spectrum(specs[k]))
            assert covers_at_resolution(cover, small)
        scale = 1 << base.exp  # base.outer holds integers over 2^exp
        for k in range(1, 8):
            approx = specs[k]
            for c, d in base.outer:
                count = 0
                for lo, hi in approx.bands:
                    if c <= lo.hi * scale and hi.lo * scale <= d:
                        count += 1
                assert count <= k


def test_triple_disjointness_large_coupling():
    for r in (F(0), F(1, 2), F(2, 3)):
        digits = cf_forms(r)[0]
        base = EnclosedSet.from_spectrum(spectrum_periodic(r, V5, F(1, 10**12)))
        specs = {}
        for k, t in extension_traces(digits, V5):
            if k > 7:
                break
            specs[k] = EnclosedSet.from_spectrum(
                spectrum_from_trace(t, F(1, 10**12), word=sk_words(digits + (k,))[-1], V=V5)
            )
        for k in range(1, 7):
            assert certainly_disjoint_triple(base, specs[k], specs[k + 1])


def test_measure_equality_defect_vs_periodic():
    for r, side in ((F(0), "plus"), (F(1, 2), "minus"), (F(2, 3), "plus")):
        spec_d = defect_spectrum(r, side, V5, TOL6)
        spec_p = spectrum_periodic(r, V5, TOL6)
        assert lebesgue(spec_d) == lebesgue(spec_p)


def test_memo_tables_under_concurrency():
    # concurrent readers/writers must agree on one deterministic value
    from concurrent.futures import ThreadPoolExecutor

    from kohmoto.spectra import clear_memos

    clear_memos()

    def work(_):
        spec = spectrum_periodic(F(3, 7), V5, TOL6)
        return spec.to_json_obj()

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(16)))
    assert all(r == results[0] for r in results)


def test_clear_memos_empties_bounded_caches(monkeypatch):
    from kohmoto import spectra

    caches = (spectrum_periodic, defect_spectrum)
    defect_spectrum(F(1, 2), "plus", V5, TOL6)
    assert all(c.cache_info().currsize > 0 for c in caches)
    assert all(c.cache_info().maxsize is not None for c in caches)
    spectra.clear_memos()
    assert all(c.cache_info().currsize == 0 for c in caches)
    # a tracer may rebind the module attribute to a plain wrapper
    defect_spectrum(F(1, 2), "plus", V5, TOL6)
    monkeypatch.setattr(spectra, "spectrum_periodic", lambda *a: spectrum_periodic(*a))
    spectra.clear_memos()
    assert all(c.cache_info().currsize == 0 for c in caches)


def test_point_placement_check_survives_python_O():
    code = (
        "from fractions import Fraction as F\n"
        "from kohmoto.errors import PrecisionError\n"
        "from kohmoto.rootfind import RootEnclosure\n"
        "from kohmoto.spectra import _check_point_placement, spectrum_periodic\n"
        "base = spectrum_periodic(F(0), 5, F(1, 10**6))\n"
        "try:\n"
        "    _check_point_placement(base, [RootEnclosure((0, 1), 0, 0)], above=True)\n"
        "except PrecisionError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stdout) == (0, "defect point is not above its band\n")


def gap_point_mutation(r, V, band: int):
    """The band spectrum of the rotation r at coupling V with the check
    point of one band moved into a gap: for the top band a grid step above
    its upper edge's enclosure, for any other the check point of the gap
    above it, between its upper edge and the next band's lower edge."""
    t, word = trace_poly_cf(cf_forms(r)[0], V), period_word(r)
    bands = spectrum_from_trace(t, TOL9, word, V).bands
    real = spectra._band_point
    if band + 1 < len(bands):
        gap = real(bands[band][1], bands[band + 1][0])
    else:
        top = bands[band][1]
        gap = top.hi_num + 1, top.exp
    seen = []

    def moved(lo, hi):
        seen.append(lo)
        return gap if len(seen) == band + 1 else real(lo, hi)

    with mock.patch.object(spectra, "_band_point", moved):
        return spectrum_from_trace(t, TOL9, word, V)


def test_a_band_check_point_moved_into_a_gap_is_refused():
    # the integer check |t| <= 2 refuses a check point in a bounded gap and
    # in the unbounded gap above the bands, at an integer coupling and at a
    # non-dyadic one (t.den > 1)
    for V in (V5, F(7, 3)):
        for band in (0, 3, 7):
            with pytest.raises(PrecisionError, match="band check point escaped the trace window"):
                gap_point_mutation(F(5, 8), V, band)


def test_band_check_survives_python_O():
    code = (
        "from fractions import Fraction as F\n"
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from kohmoto.errors import PrecisionError\n"
        "from test_spectra import gap_point_mutation\n"
        "try:\n"
        "    gap_point_mutation(F(5, 8), F(7, 3), 2)\n"
        "except PrecisionError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, str(Path(__file__).resolve().parent)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stdout) == (0, "band check point escaped the trace window\n")


def test_json_serialization_schema():
    spec = defect_spectrum(F(1, 2), "plus", V5, TOL6)
    obj = spec.to_json_obj()
    assert set(obj) == {"bands", "points", "tol"}
    assert all(len(band) == 4 for band in obj["bands"])
    assert all(len(pt) == 2 for pt in obj["points"])
    assert all("/" in s for band in obj["bands"] for s in band)
