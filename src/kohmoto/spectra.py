"""Certified spectra of the two-sided discrete Schrodinger operators with
mechanical-word potentials.

The spectrum of a q-periodic operator is the preimage of [-2,2] under the
trace t of the transfer-matrix cocycle over one period.  Its 2q band edges
are the roots of t - 2 = det(E - H) and t + 2 = det(E - H'), with H and H'
the periodic and antiperiodic one-period operators.  The period word is a
rotation of its reversal, so its ring folds by that reflection, and each of
H, H' splits into an even and an odd reflection sector.  Each sector is a
path, a Jacobi matrix of about half the size (`_sector_paths`).  Its
entries give both the exact reflection factor, b^k det(E - J) from the
three-term recurrence of the leading minors (`reflection_factors`; the
products are checked against the trace), and the float sector matrix
whose eigenvalues guide the isolation of that factor's roots
(`floquet_edges`).  The roots are certified in cells of a dyadic grid laid
from the factor's own guides: exact sign changes across as many cells as
a Sturm count over exact integers finds.  Bisection only splits the two
edges of a band narrower than a cell, or isolates the edges when the
estimates do not certify.  The float zeros of t, which mark the bands for
the fast backend, are one sector of the doubled word's antiperiodic
operator, of determinant t^2 (`floquet_zeros`).
One-sided limit spectra add exactly q isolated eigenvalues: this side's q
of the 2q simple roots of D = t_u^2 - (V^2 + 4), with t_u the trace over
one period (`defect_spectrum`).  The trace-map invariant splits D into
gcd(D, G+) and gcd(D, G-), one factor for each sign of t_u.  D < 0 inside
the bands, so the band check points bracket the gaps, and exact signs of
the two factors there, counted against their degrees, put each root alone
in a known gap without a Sturm chain.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .errors import DegeneracyError, PreconditionError, PrecisionError
from .farey import (
    approach_digits,
    as_fraction,
    cf_forms,
    check_ladder_digits,
    check_rotation,
    format_dyadic,
    format_rational,
)
from .polyring import RP
from .rootfind import (
    IntPoly,
    RootEnclosure,
    _dyadic_exponent,
    _halvings,
    cauchy_bound,
    compare_distinct_roots,
    compare_roots,
    degree,
    grid_cell,
    isolate_roots,
    poly_gcd,
    poly_mul,
    separate,
    sign_at,
    unpack,
)
from .words import period_word, sk_words

# ---------------------------------------------------------------------------
# Transfer-matrix traces


def trace_poly(word: str, V) -> RP:
    """Trace of the ordered transfer product A(w_n)...A(w_1), with
    A(a) = [[E - V a, -1], [1, 0]], as an exact polynomial in the energy.

    Column c of the product is (x_n, x_(n-1)) for the solution of
    x_j = (E - V w_j) x_(j-1) - x_(j-2) from (x_0, x_(-1)) = e_c.  With
    V = a/b, X_j = b^(j+1) x_j is an integer polynomial with
    X_j = (bE - a w_j) X_(j-1) - b^2 X_(j-2).  As in `_path_determinant`
    the loop runs on the values at E = 2^w, a shift and small products per
    letter and column, so it takes O(n) integer operations.  The trace is
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


def _step_traces(A, B, C, e: int):
    """(tr(P M^e), tr(P M^(e+1))) from A = tr P, B = tr M, C = tr(P M), for
    e >= 0.  By Cayley-Hamilton M^2 = tr(M) M - I, so T_j = tr(P M^j)
    obeys T_(j+1) = B T_j - T_(j-1): one product per step."""
    lo, hi = A, C
    for _ in range(e):
        lo, hi = hi, B * hi - lo
    return lo, hi


def trace_triples(digits, V) -> list[tuple[RP, RP, RP]]:
    """Trace triples (prev, current, one-step-extension) along the prefixes
    of a continued-fraction string, as polynomials in the energy at a
    rational coupling.  A digit e appends the word of the current trace e
    times, and each appended copy costs one polynomial product through the
    three-term recurrence of `_step_traces`.  The recursion is
    `_trace_triples`, which takes the energy and the coupling as ring
    elements: that is the seam where the tests pass a symbolic coupling."""
    return _trace_triples(digits, RP([0, 1]), RP.const(as_fraction(V)))


def _trace_triples(digits, E, Vc) -> list[tuple]:
    """The recursion of `trace_triples` over any ring that holds the energy
    E and the coupling Vc and coerces integer constants.  The tests run it
    over Z[V][E] to check the trace-map invariant for every coupling."""
    digits = check_ladder_digits(digits, "trace chain")
    A, B, C = E - Vc, E, E * E - Vc * E - 2
    out = [(A, B, C)]
    for i, d in enumerate(digits[2:]):
        nb, nc = _step_traces(A, B, C, d - 1 if i == 0 else d)
        A, B, C = B, nb, nc
        out.append((A, B, C))
    return out


def trace_poly_cf(digits, V) -> RP:
    """Trace polynomial of the word generated by a continued-fraction
    string; the bare string [0] is the constant 2 (spectrum = all of R)."""
    digits = tuple(int(d) for d in digits)
    V = as_fraction(V)
    if digits == (0,):
        return RP.const(2)
    return trace_triples(digits, V)[-1][1]


def extension_traces(digits, V) -> Iterator[tuple[int, RP]]:
    """Yields (k, trace polynomial of digits ++ [k]) for k = 1, 2, ...

    Incremental in k: with (A, B, C) the last trace triple, the trace for
    exponent e is T_e = tr(P M^e) of `_step_traces`, so each k costs one
    polynomial product.  Extending the bare string for the value 0 uses the
    first-digit exponent e = k - 1, any other string e = k."""
    digits = tuple(int(d) for d in digits)
    A, B, C = trace_triples(digits, V)[-1]
    k, lo, hi = 1, A, C  # (T_(e-1), T_e) at e = 1
    if len(digits) == 2:
        yield 1, A
        k = 2
    while True:
        yield k, hi
        lo, hi = hi, B * hi - lo
        k += 1


# ---------------------------------------------------------------------------
# Spectra


@dataclass(frozen=True)
class Spectrum:
    """Ordered certified band/point data: bands are pairs of root
    enclosures of their edges, defects the root enclosures of the isolated
    points."""

    bands: tuple
    defects: tuple
    tol: Fraction

    @property
    def points(self) -> tuple:
        """Each isolated point's enclosure as a (lo, hi) pair of Fractions."""
        return tuple((e.lo, e.hi) for e in self.defects)

    def to_json_obj(self) -> dict:
        """Every enclosure end as the string of `format_rational`, built from
        its integer numerator over 2^exp by `format_dyadic`."""

        def ends(e: RootEnclosure) -> list[str]:
            return [format_dyadic(e.lo_num, e.exp), format_dyadic(e.hi_num, e.exp)]

        return {
            "bands": [ends(lo) + ends(hi) for lo, hi in self.bands],
            "points": [ends(e) for e in self.defects],
            "tol": format_rational(self.tol),
        }


# Cap on the approximant index k of the optimality and measure loops: the
# approximant trace degree grows with k.
MAX_K = 64

# Floor on the enclosure width tol.  Refinement costs about quadratically
# in its digits, and below the accuracy of the float guides (about 1e-13)
# band edges fall back to Sturm bisection: on a 2-core machine,
# `spectrum defects --r 34/89 --side plus --V 5` took 0.3 s at tol 1e-9,
# 1.4-1.7 s at 1e-20 and 2.5-3.1 s at 1e-40 (12 s at 1e-100 in process).
MIN_TOL = Fraction(1, 10**40)


def check_tol(tol) -> Fraction:
    """tol as a Fraction; PreconditionError unless MIN_TOL <= tol."""
    tol = as_fraction(tol)
    if tol < MIN_TOL:
        raise PreconditionError(f"tolerance must be at least {float(MIN_TOL):g}")
    return tol


def check_coupling(V) -> Fraction:
    """V as a Fraction; PreconditionError unless it has a finite float."""
    V = as_fraction(V)
    try:
        float(V)
    except OverflowError:
        raise PreconditionError("coupling is too large for a float") from None
    return V


def _bloch_matrix(word: str, v: float, mult: float) -> np.ndarray:
    """The one-period operator of a word with Bloch multiplier mult: the
    corner from the last site back to the first carries mult, its partner
    1/mult; one site holds both on the diagonal, added as one sum."""
    q = len(word)
    m = np.zeros((q, q))
    m.flat[:: q + 1] = [v * int(ch) for ch in word]
    m.flat[1 :: q + 1] = m.flat[q :: q + 1] = 1.0
    if q == 1:
        m[0, 0] += mult + 1 / mult
    else:
        m[q - 1, 0] += mult
        m[0, q - 1] += 1 / mult
    return m


def _reflection(word: str) -> int:
    """The shift s with word[::-1] == word[s:] + word[:s]: the mirror
    i -> (s - 1 - i) mod n of the ring maps the cyclic word onto itself.
    Every Christoffel word is a rotation of its reversal; a word that is
    not raises PreconditionError."""
    shift = (word + word).find(word[::-1])
    if shift < 0:
        raise PreconditionError(f"word {word!r} is not a rotation of its reversal")
    return shift


# One reflection sector as a path (`_sector_paths`): the lists (site, turn)
# over its nodes, then (sign, beta) over the links between them.
SectorPath = tuple[list[int], list[int], list[int], list[int]]


def _sector_paths(word: str, anti: bool) -> tuple[SectorPath, SectorPath]:
    """The even and odd reflection sectors of the one-period operator with
    periodic or antiperiodic closure, each a path: a Jacobi matrix.

    The mirror R(i) = (s - 1 - i) mod n, s = `_reflection(word)`, maps each
    palindrome w[:s], w[s:] onto itself, so it folds the ring into a path:
    the pairs {i, R i} for the first h1 = s // 2 sites i of w[:s] and the
    first h2 = (n - s) // 2 of w[s:], and the centre of each odd
    palindrome, fixed by R.  Pair j meets pair j + 1 of its half on two
    links.  The halves meet where the closing link (n - 1, 0) and its
    mirror (s - 1, s) join pair 0 to pair h1.  The path turns at the middle
    of each palindrome: at its centre, or at the link between its two
    middle sites, which joins a pair to its own mirror; with s = 0 that
    link of the empty w[:s] is the closing link.

    The periodic operator commutes with R; the antiperiodic one with G o R
    instead, G = -1 on the sites of the first palindrome w[:s].  A sector
    vector has v[R i] = sign G(i) v[i], so a centre lies in the sector
    where that factor is 1.  On the orthonormal basis
    (e_i + sign G(i) e_Ri) / sqrt2 of the pairs and e_c of the centres, a
    sector is the folded ring, in path order: the centre of w[:s], pairs
    h1 - 1 .. 0, pairs h1 .. p - 1, the centre of w[s:].  Node k carries
    V w_site + x_k on the diagonal, where x_k = sign G x for a turning link
    of weight x from its pair to its own mirror (and the one site of n = 1
    closes on itself, x = 2 mult).  Link k joins nodes k and k + 1 with
    entry sign_k sqrt(beta_k): 1 along a half, sign * mult where the halves
    meet, +-sqrt2 from a centre to its pair and 2 between the two centres
    of n = 2."""
    n, shift = len(word), _reflection(word)
    h1, h2 = shift // 2, (n - shift) // 2
    p, mult = h1 + h2, -1 if anti else 1
    out = []
    for sign in (1, -1):
        site = [*range(h1 - 1, -1, -1), *range(shift, shift + h2)]
        turn, link, beta = [0] * p, [1] * (p - 1), [1] * (p - 1)
        if 0 < h1 < p:  # pair 0 meets pair h1 across the closing link
            link[h1 - 1] = sign * mult
        if shift % 2 == 0 and p:  # the middle link of w[:s], or closing at s = 0
            turn[0] += sign * mult
        if (n - shift) % 2 == 0:  # the middle link of w[s:]
            turn[-1] += sign
        if (n - shift) % 2 and sign == 1:  # the centre of w[s:], G = 1
            if p:
                link.append(1 if h2 else mult)
                beta.append(2)
            site.append(shift + h2)
            turn.append(2 * mult if n == 1 else 0)
        if shift % 2 and sign == mult:  # the centre of w[:s], G = mult
            if site:  # both centres share a sector only when mult = 1
                link.insert(0, 1)
                beta.insert(0, 2 if p else 4)
            site.insert(0, h1)
            turn.insert(0, 0)
        out.append((site, turn, link, beta))
    return out[0], out[1]


def _path_matrix(word: str, v: float, path: SectorPath) -> np.ndarray:
    """A sector path as its tridiagonal float matrix at coupling v, in path
    order: v w_site + x on the diagonal, with +0.0 for a 0 site (v * 0 is
    -0.0 for v < 0), and sign sqrt(beta) beside it.  These are bit for bit
    the entries of B^T H B for the unnormalized basis B, scaled by the
    norms: the integer weights sum exactly, and B^T H B gives a turning
    pair (v w + x) + (x + v w), which halves to v w + x rounded once."""
    site, turn, link, beta = path
    n = len(site)
    h = np.zeros((n, n))
    h.flat[:: n + 1] = [(v if word[j] == "1" else 0.0) + x for j, x in zip(site, turn)]
    h.flat[1 :: n + 1] = h.flat[n :: n + 1] = [s * math.sqrt(b) for s, b in zip(link, beta)]
    return h


def floquet_edges(word: str, V, paths: tuple[SectorPath, SectorPath]) -> tuple[list[float], list[float]]:
    """Floating band-edge estimates: the eigenvalues of the two reflection
    sectors (even, odd) of `_sector_paths` for one closure of the
    one-period operator, periodic (trace = +2) or antiperiodic
    (trace = -2), as `_path_matrix` floats.  Used only to seed certified
    isolation and the rendering backend."""
    v = float(as_fraction(V))
    even, odd = (np.linalg.eigvalsh(_path_matrix(word, v, path)).tolist() for path in paths)
    return even, odd


def floquet_zeros(word: str, V) -> list[float]:
    """Floating estimates of the trace zeros (one per band) of a word that
    is a rotation of its reversal: the eigenvalues of the even sector of
    the antiperiodic operator H' of ww.  With M the transfer product of w,
    det(E - H') = tr(M^2) + 2 = t^2, and a Jacobi matrix with nonzero links
    has simple eigenvalues, so each sector of H' holds every zero of t
    once."""
    doubled = word + word
    path = _sector_paths(doubled, True)[0]
    return np.linalg.eigvalsh(_path_matrix(doubled, float(as_fraction(V)), path)).tolist()


def reflection_factors(word: str, V, paths: tuple[SectorPath, SectorPath]) -> tuple[IntPoly, IntPoly]:
    """The reflection factors of t - 2 or t + 2 for the trace t of a word
    that is a rotation of its reversal, as integer polynomials in E: for
    each sector of `_sector_paths` for the periodic or the antiperiodic
    closure, b^k det(E - J) by `_path_determinant`, with J its k x k
    Jacobi matrix and b the denominator of V = a/b.  det(E - H) is t - 2
    for the periodic operator H of the n sites and t + 2 for the
    antiperiodic one, and H is the direct sum of its two sectors, so the
    pair multiplies to b^n (t -+ 2).  The pair is ordered like the sectors
    of `floquet_edges`."""
    V = as_fraction(V)
    a, b = V.numerator, V.denominator
    even, odd = (
        _path_determinant([a * (word[i] == "1") + b * x for i, x in zip(site, turn)], beta, b)
        for site, turn, _, beta in paths
    )
    return even, odd


def _path_determinant(diag: list[int], beta: list[int], b: int) -> IntPoly:
    """b^k det(E - J) for the k x k Jacobi matrix J with diagonal entries
    c_j / b (c_j = diag[j]) and squared off-diagonals beta, as an integer
    polynomial in E.

    With D_0 = 1 and D_-1 = 0, the scaled leading minors obey
    D_j = (bE - c_j) D_(j-1) - b^2 beta_(j-1) D_(j-2).  The loop runs on
    their values at E = 2^w, one integer each, and `unpack` reads D_k back.
    w is set by the bound N_j = (b + |c_j|) N_(j-1) + b^2 beta_(j-1) N_(j-2)
    on the L1 norm of D_j, which bounds every coefficient."""
    links = [0, *(b * b * y for y in beta)]
    lo, hi = 0, 1
    for c, y in zip(diag, links):
        lo, hi = hi, (b + abs(c)) * hi + y * lo
    w = hi.bit_length() + 1
    lo, hi = 0, 1
    for c, y in zip(diag, links):
        lo, hi = hi, hi * ((b << w) - c) - y * lo
    return unpack(hi, w, len(diag) + 1)


def _share_a_root(roots: list[RootEnclosure], f: IntPoly, g: IntPoly) -> bool:
    """Whether the factors f and g of one side share a root, given the
    enclosures of the roots of both.  A shared root lies in an enclosure of
    each, so two enclosures overlap; only then is the gcd computed."""
    ends = sorted((lo, hi) for lo, hi, _ in _edges(roots))
    # an end shared by two enclosures is a root only if both are exact
    overlap = any(a[1] > b[0] or a == b for a, b in zip(ends, ends[1:]))
    return overlap and degree(poly_gcd(f, g)) > 0


def spectrum_from_trace(t: RP, tol, word: str, V) -> Spectrum:
    """Band decomposition {|t| <= 2} of a degree-q trace polynomial: exactly
    q certified-disjoint closed bands, edges enclosed to width <= tol.

    The band edges are the roots of t - 2 and t + 2, isolated as the roots
    of their reflection factors (`reflection_factors`, each of about half
    the degree), with the exact product identities checked first.  The
    eigenvalues of the reflection sectors of `floquet_edges` guide the
    factors they belong to, each on a grid laid from its own guides and
    tol.  Exact signs across the cells, counted against one Sturm chain per
    factor, certify them.  A root shared by the two factors of a side
    (touching bands, e.g. coupling 0) raises DegeneracyError.

    Each band is checked by |t| <= 2 at its `_band_point`."""
    tol = check_tol(tol)
    q = t.degree()
    if q < 1:
        raise PreconditionError("trace polynomial must have positive degree")
    if t.num[-1] != t.den:
        raise PrecisionError("trace polynomial must be monic")
    if len(word) != q:
        raise PreconditionError("word length must match the trace degree")
    scale = check_coupling(V).denominator ** q
    found = []
    try:
        for anti in (False, True):
            # one fold of the ring per closure, for the factors and the guides
            paths = _sector_paths(word, anti)
            factors = reflection_factors(word, V, paths)
            # den * (t -+ 2)
            name, target = ("t + 2", 2) if anti else ("t - 2", -2)
            target = [t.num[0] + target * t.den] + t.num[1:]
            if [c * t.den for c in poly_mul(*factors)] != [c * scale for c in target]:
                raise PrecisionError(f"reflection factors do not multiply to {name}")
            roots = [
                enc
                for f, guide in zip(factors, floquet_edges(word, V, paths))
                for enc in isolate_roots(f, guide=guide, width=tol)
            ]
            if _share_a_root(roots, *factors):
                raise DegeneracyError(f"{name} has a multiple root")
            found.append(roots)
    except DegeneracyError as exc:
        raise DegeneracyError(
            f"degenerate band structure (touching bands, e.g. coupling 0): {exc}"
        ) from exc
    roots_upper, roots_lower = found
    if len(roots_upper) != q or len(roots_lower) != q:
        raise DegeneracyError(
            f"expected {q} simple edges per side, found "
            f"{len(roots_upper)}/{len(roots_lower)}"
        )
    # refining keeps each edge inside its enclosure, so the edges stay
    # disjoint and in order
    edges = [e.refined(tol) for e in separate(roots_upper + roots_lower)]
    bands = []
    for i in range(0, 2 * q, 2):
        lo, hi = edges[i], edges[i + 1]
        num, exp = _band_point(lo, hi)
        value = t.eval(Fraction(num, 1 << exp))  # |t| <= 2 on its integers, without a new Fraction
        if abs(value.numerator) > 2 * value.denominator:
            raise PrecisionError("band check point escaped the trace window")
        bands.append((lo, hi))
    return Spectrum(tuple(bands), (), tol)


def _band_point(lo: RootEnclosure, hi: RootEnclosure) -> tuple[int, int]:
    """The check point num / 2^exp of a band with edge enclosures lo and hi,
    between their inner ends lo.hi and hi.lo: the dyadic with the fewest
    bits strictly between them (`_short_point`), or their midpoint when
    they are neighbours over 2^exp.  A short point keeps the Horner
    integers, and the gcd of the Fraction, short."""
    exp = max(lo.exp, hi.exp)
    a, b = lo.ends_at(exp)[1], hi.ends_at(exp)[0]
    return (_short_point(a, b), exp) if b - a > 1 else (a + b, exp + 1)


def _short_point(a: int, b: int) -> int:
    """The integer strictly between a and b > a + 1 with the most trailing
    zero bits: 0 when a < 0 < b, else b - 1 with the bits below its
    highest difference from a cleared (a has a 0 there and b - 1 a 1, in
    two's complement, so it lies above a)."""
    if a < 0 < b:
        return 0
    k = (a ^ (b - 1)).bit_length() - 1
    return ((b - 1) >> k) << k


@functools.lru_cache(maxsize=128)
def spectrum_periodic(r, V, tol) -> Spectrum:
    """Certified spectrum of the periodic operator at rational rotation r:
    exactly q disjoint closed bands."""
    r = check_rotation(as_fraction(r))
    V = check_coupling(V)
    tol = check_tol(tol)
    t = trace_poly_cf(cf_forms(r)[0], V)
    spec = spectrum_from_trace(t, tol, word=period_word(r), V=V)
    if len(spec.bands) != r.denominator:
        raise DegeneracyError(
            f"expected {r.denominator} bands at {format_rational(r)}, got {len(spec.bands)}"
        )
    return spec


def membership(E, r, V) -> bool:
    """Exact test |t(E)| <= 2 for rational energy E."""
    t = trace_poly_cf(cf_forms(as_fraction(r))[0], as_fraction(V))
    return abs(t.eval(as_fraction(E))) <= 2


# ---------------------------------------------------------------------------
# Band classification and defect spectra


# A band edge or defect point in the band relations and the placement check:
# (lo, hi, enclosure), the ends over the 2^exp shared by all edges compared.
Edge = tuple[int, int, RootEnclosure]


def _edges(encs: list[RootEnclosure]) -> list[Edge]:
    exp = max(enc.exp for enc in encs)
    return [(*enc.ends_at(exp), enc) for enc in encs]


def _cmp(a: Edge, b: Edge) -> int:
    if a[1] < b[0]:
        return -1
    if b[1] < a[0]:
        return 1
    return compare_roots(a[2], b[2])


def _band_relation(band: tuple[Edge, Edge], base_bands) -> str:
    """Exact relation of a band to a sorted disjoint band family: "inside"
    (contained in one member), "outside" (disjoint from all), "partial"."""
    a, b = band
    for c, d in base_bands:
        if b[1] < c[0]:  # strictly below this and every later band
            return "outside"
        if a[0] > d[1]:  # strictly above this band
            continue
        if _cmp(b, c) < 0:
            return "outside"
        if _cmp(a, d) > 0:
            continue
        if _cmp(a, c) >= 0 and _cmp(b, d) <= 0:
            return "inside"
        return "partial"
    return "outside"


def _split_escaping(approx: Spectrum, base: Spectrum):
    """Split approximant bands into those certified inside the base
    spectrum and the escaping rest, with each escaping band's relation;
    exactly one band per base band must escape."""
    edges = _edges([e for spec in (approx, base) for band in spec.bands for e in band])
    pairs = list(zip(edges[::2], edges[1::2]))
    base_edges = pairs[len(approx.bands) :]
    inside, escaping, rels = [], [], []
    for band, band_edges in zip(approx.bands, pairs):
        rel = _band_relation(band_edges, base_edges)
        if rel == "inside":
            inside.append(band)
        else:
            escaping.append(band)
            rels.append(rel)
    if len(escaping) != len(base.bands):
        raise PrecisionError(
            f"expected {len(base.bands)} escaping bands, found {len(escaping)}"
        )
    return inside, escaping, rels


def band_classify(r, k: int, V, tol, form: str = "short"):
    """Split the bands of the k-th continued-fraction approximant into those
    certified inside the base spectrum (type A) and those certified not
    contained (type B); reports whether every type-B band has already
    detached from the base spectrum."""
    r = check_rotation(as_fraction(r))
    V = check_coupling(V)
    tol = check_tol(tol)
    if k < 1:
        raise PreconditionError("approximant index k must be >= 1")
    if form not in ("short", "long"):
        raise PreconditionError("form must be short or long")
    if V == 0:
        raise PreconditionError("band classification requires a non-zero coupling")
    digits = cf_forms(r)[0 if form == "short" else 1]
    base = spectrum_periodic(r, V, tol)
    for kk, t in extension_traces(digits, V):
        if kk == k:
            approx = spectrum_from_trace(t, tol, word=sk_words(digits + (k,))[-1], V=V)
            break
    type_a, type_b, rels = _split_escaping(approx, base)
    k0_reached = all(rel == "outside" for rel in rels)
    return type_a, type_b, k0_reached


def floquet_defect_estimates(word: str, V) -> list[float]:
    """Floating estimates of the 2q roots of t^2 = V^2 + 4: eigenvalues of
    the one-period operator with Bloch multiplier +-lam, lam + 1/lam =
    sqrt(V^2 + 4).  Used only to seed certified isolation.  A coupling
    whose float square overflows is a PreconditionError."""
    v = float(as_fraction(V))
    if math.isinf(v * v):
        raise PreconditionError("coupling is too large for the float defect estimates: V^2 overflows")
    lam = (np.sqrt(v * v + 4) + abs(v)) / 2
    out = []
    for mult in (lam, -lam):
        out.extend(float(x) for x in np.linalg.eigvals(_bloch_matrix(word, v, mult)).real)
    return out


@functools.lru_cache(maxsize=128)
def defect_spectrum(r, side: str, V, tol) -> Spectrum:
    """Spectrum of the one-sided limit operator: the periodic bands plus
    exactly q isolated eigenvalues, one in each bounded spectral gap and one
    in an unbounded gap (above the bands for the upper limit, below for the
    lower), each enclosed to width <= tol.

    With (t_v, t_u, t_uv) the last trace triple of the approach string, the
    gap energies that are eigenvalues of u^inf v . u^inf are those where
    P = t_u t_v - 2 t_uv equals sign(t_u) |V| t_v.  The trace-map invariant
    t_u^2 + t_v^2 + t_uv^2 - t_u t_v t_uv - 4 = V^2 gives the identity
    G+ G- = D (t_v^2 - 4) for G+- = P -+ |V| t_v and D = t_u^2 - V^2 - 4,
    checked exactly here, so the q points of both sides together are the
    2q simple roots of D.  At each of them exactly one of G+ and G- vanishes
    (if both did, P = |V| t_v = 0 there, and G+ G- would vanish twice at a
    simple root of D, where t_v^2 - 4 = -4), so A = gcd(D, G+) and
    C = gcd(D, G-) split D exactly, A C = +-D, which is checked.

    t_u is the trace of the base spectrum, so D <= -V^2 < 0 at each
    `_band_point`, and the band points and -+ the Cauchy bound of D bracket
    the q + 1 gaps; `_sign_change_gaps` puts each root of A and of C alone
    in one of them.  t_u is positive on the top gap and changes sign across
    each band, so this side's point in a gap is the root of A there when
    t_u > 0 and of C when t_u < 0, enclosed by `_gap_root`."""
    r = check_rotation(as_fraction(r))
    V = check_coupling(V)
    tol = check_tol(tol)
    if V == 0:
        raise PreconditionError("defect spectra require a non-zero coupling")
    t_v, t_u, t_uv = trace_triples(approach_digits(r, side), V)[-1]
    q = r.denominator
    base = spectrum_periodic(r, V, tol)
    P = t_u * t_v - 2 * t_uv
    D = t_u * t_u - (V * V + 4)
    g_plus, g_minus = P - abs(V) * t_v, P + abs(V) * t_v
    if g_plus * g_minus != D * (t_v * t_v - 4):
        raise PrecisionError("trace-map invariant fails for the defect traces")
    d = D.int_poly()
    a, c = poly_gcd(d, g_plus.int_poly()), poly_gcd(d, g_minus.int_poly())
    # primitive factors of the primitive d, so their product is d up to sign,
    # and equal lists make deg a + deg c = deg d
    if poly_mul(a, c) not in (d, [-x for x in d]):
        raise PrecisionError("G+ and G- do not split t^2 = V^2 + 4")
    marks = [_band_point(lo, hi) for lo, hi in base.bands]
    grid = _dyadic_exponent(tol.numerator, tol.denominator)  # guide cells 2^grid <= tol wide
    exp = max(-grid, *(e for _, e in marks))
    bound, step = cauchy_bound(d) << exp, 1 << (exp + grid)
    xs = [-bound, *(num << (exp - e) for num, e in marks), bound]
    guides = (grid_cell(x, grid) for x in floquet_defect_estimates(period_word(r), V))
    cells = sorted(k * step for k, _ in filter(None, guides))
    # t_u > 0 on gap i, between xs[i] and xs[i + 1], when q - i is even
    chosen = {i: f for f, odd in ((a, 0), (c, 1)) for i in _sign_change_gaps(f, xs, exp) if (q - i) % 2 == odd}
    points = tuple(_gap_root(f, xs[i], xs[i + 1], exp, cells, step, tol) for i, f in sorted(chosen.items()))
    _check_point_placement(base, points, above=(side == "plus") == (V > 0))
    return Spectrum(base.bands, points, tol)


def _sign_change_gaps(f: IntPoly, xs: list[int], exp: int) -> list[int]:
    """The indices i of the brackets [xs[i], xs[i + 1]] (over 2^exp, xs
    increasing) across which f changes sign: with deg f of them, each holds
    one simple root and f has no other root; else PrecisionError."""
    signs = [sign_at(f, x, 1 << exp) for x in xs]
    gaps = [i for i in range(len(xs) - 1) if signs[i] * signs[i + 1] < 0]
    if len(gaps) != degree(f):
        raise PrecisionError(f"a factor of t^2 = V^2 + 4 changes sign {len(gaps)} times, wanted {degree(f)}")
    return gaps


def _gap_root(f: IntPoly, lo: int, hi: int, exp: int, cells: list[int], step: int, tol) -> RootEnclosure:
    """The one root of f in the bracket (lo, hi) over 2^exp: the first
    cell [k, k + step] of the guides' sorted cells inside the bracket that
    holds it, else the bracket bisected down to width tol.

    That bisection ends in the one of the bracket's 2^n equal cells, each
    at most tol wide, that holds the root, or at the root when it is an end
    of one.  A guide cell that crosses an end of the bracket meets a few of
    these cells; the first of them that holds the root is the bisection's
    answer, found without bisecting."""
    poly = tuple(f)
    meeting = cells[bisect.bisect_right(cells, lo - step) : bisect.bisect_left(cells, hi)]
    for k in meeting:
        if lo <= k <= hi - step and (enc := _cell_root(poly, k, k + step, exp)):
            return enc
    n, w = _halvings((hi - lo) * tol.denominator, tol.numerator << exp), hi - lo
    for k in meeting:
        if k < lo or k > hi - step:
            # the bisection's cells [lo + j w / 2^n, lo + (j + 1) w / 2^n]
            # that meet the guide's, for j from first to last
            first, last = max(((k - lo) << n) // w, 0), min(((k + step - lo) << n) // w, (1 << n) - 1)
            for a in range((lo << n) + first * w, (lo << n) + (last + 1) * w, w):
                if enc := _cell_root(poly, a, a + w, exp + n):
                    return enc
    return RootEnclosure(poly, lo, hi, exp).refined(tol)


def _cell_root(poly: tuple[int, ...], a: int, b: int, exp: int) -> Optional[RootEnclosure]:
    """The root of poly in [a, b] over 2^exp when poly changes sign across
    it, or [x, x] when poly vanishes at an end x; else None."""
    s, t = sign_at(poly, a, 1 << exp), sign_at(poly, b, 1 << exp)
    if s == 0 or t == 0:
        x = a if s == 0 else b
        return RootEnclosure(poly, x, x, exp)
    return RootEnclosure(poly, a, b, exp) if s != t else None


def _check_point_placement(base: Spectrum, points, above: bool) -> None:
    """For positive coupling, upper limits put one eigenvalue in the gap
    above each band (the last one above the spectrum) and lower limits
    mirror this below each band; negative coupling reflects the picture
    (conjugation by (-1)^n sends H(V) to -H(-V)).

    The gap brackets of `defect_spectrum` already put each point between
    two band check points; this proves its place against the band edges
    themselves.  A point is a root of t_u^2 - V^2 - 4 and an edge one of
    t_u -+ 2, and with V != 0 no energy is both, so
    `compare_distinct_roots` orders the two by refinement alone, whatever
    the tol."""
    q = len(base.bands)
    if len(points) != q:
        raise PrecisionError(f"expected {q} defect points, found {len(points)}")
    lower, upper = [lo for lo, _ in base.bands], [hi for _, hi in base.bands]
    # the edge the point lies beside, and the edge across its gap
    side, near, far = (1, upper, lower) if above else (-1, lower, upper)
    for j, point in enumerate(points):
        if compare_distinct_roots(point, near[j]) != side:
            raise PrecisionError(f"defect point is not {'above' if above else 'below'} its band")
        if 0 <= j + side < q and compare_distinct_roots(point, far[j + side]) != -side:
            raise PrecisionError("defect point escaped its gap")


# The bench tracer rebinds the module attributes to plain wrappers, so the
# caches are captured here, at import time.
_CACHES = (spectrum_periodic, defect_spectrum)


def clear_memos() -> None:
    for cached in _CACHES:
        cached.cache_clear()
