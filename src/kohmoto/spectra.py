"""Certified spectra of the two-sided discrete Schrodinger operators with
mechanical-word potentials.

The spectrum of a q-periodic operator is the preimage of [-2,2] under the
trace t of the transfer-matrix cocycle over one period.  Its 2q band edges
are the roots of t - 2 = det(E - H) and t + 2 = det(E - H'), with H and H'
the periodic and antiperiodic one-period operators.  The period word is a
rotation of its reversal, so its ring folds by that reflection, and each of
H, H' splits into an even and an odd reflection sector.  Each sector is a
path, a Jacobi matrix of about half the size (`_sector_paths`).  Its
entries give both the exact reflection factor b^k det(E - J), by the
three-term recurrence of the leading minors (`reflection_factors`; the
products of the factors are checked against the trace), and the float
sector matrix whose eigenvalues guide the isolation of that factor's roots
(`floquet_edges`).  The roots are real and simple, so they are certified
in cells of a dyadic grid laid once from the factor's own guides and
max(tol, 2^-40): exact sign changes across as many cells as the factor's
degree.  When the estimates do not certify, bisection on the inertia of
the sector's Jacobi matrix isolates the edges instead.  The float zeros of
t, which mark the bands for the fast backend, are one sector of the
doubled word's antiperiodic operator, of determinant t^2 (`floquet_zeros`).
One-sided limit spectra add exactly q isolated eigenvalues: this side's q
of the 2q simple roots of D = t_u^2 - (V^2 + 4), with t_u the trace over
one period (`defect_spectrum`).  The trace-map invariant splits D into
gcd(D, G+) and gcd(D, G-), one factor for each sign of t_u.  D < 0 inside
the bands, so the band check points bracket the gaps, and exact signs of
the two factors there, counted against their degrees, put each root alone
in a known gap without a Sturm chain.

One grid decides every certified enclosure: the root's cell of the grid
of spacing 2^floor(log2 tol), [x, x] at a grid point x, split further by
`separate` only where two band edges share a cell and clipped to its gap
for a defect point.  One loop, `RootEnclosure.refined`, narrows band
edges and defect points alike to that cell; the guides and the bisection
fallback decide how fast it is found, not its bytes (but for two roots of
one reflection factor in one cell or in neighbouring ones).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

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
    Jacobi,
    RootEnclosure,
    _dyadic_exponent,
    _grid_signs,
    _short_point,
    cauchy_bound,
    compare_distinct_roots,
    compare_roots,
    degree,
    grid_cell,
    guide_exponent,
    isolate_roots,
    poly_gcd,
    poly_mul,
    separate,
    sign_at,
    sturm_chain,
)
from .words import period_word, sk_words

# ---------------------------------------------------------------------------
# Transfer-matrix traces


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

# Floor on the enclosure width tol.  Below the guide grid (2^-40) every
# digit is exact bisection, at a cost about quadratic in the digits: on a
# 2-core machine, `spectrum defects --r 34/89 --side plus --V 5` took
# 0.4-0.5 s at tol 1e-9, 0.8-0.9 s at 1e-20 and 2.5-2.8 s at 1e-40 (18 s
# at 1e-100 in process).
MIN_TOL = Fraction(1, 10**40)


def check_tol(tol) -> Fraction:
    """tol as a Fraction; PreconditionError unless MIN_TOL <= tol."""
    tol = as_fraction(tol)
    if tol < MIN_TOL:
        raise PreconditionError(f"tolerance must be at least {float(MIN_TOL):g}")
    return tol


# Caps on the size of the coupling and on the bits of its denominator: the
# exact run time grows with |V| and with the denominator's bits, not with
# the numerator's bits as such.  On a 2-core machine `spectrum bands --r
# 55/89` took 17 s at V = 10^4, 20 s at 65535 and at 65535/3, but 0.3-0.5 s
# at 65535/65534, 65537/65536 and 3.14159; just below 2^16 it took 33 s
# with a 16-bit denominator, 42 s with 64 bits and 61 s with 128 bits
# (`spectrum defects --r 34/89 --side plus` 19, 27 and 55 s), and at
# V = 1/(2^64 - 1) 1.8 s (defects 10 s).
MAX_COUPLING_BITS = 16  # |V| < 2^16
MAX_COUPLING_DENOMINATOR_BITS = 64


def check_coupling(V) -> Fraction:
    """V as a Fraction; PreconditionError unless |V| < 2^MAX_COUPLING_BITS
    and its denominator has at most MAX_COUPLING_DENOMINATOR_BITS bits."""
    V = as_fraction(V)
    if abs(V.numerator) >= V.denominator << MAX_COUPLING_BITS:
        raise PreconditionError(f"coupling must satisfy |V| < 2^{MAX_COUPLING_BITS}")
    if V.denominator.bit_length() > MAX_COUPLING_DENOMINATOR_BITS:
        raise PreconditionError(f"coupling denominator must have at most {MAX_COUPLING_DENOMINATOR_BITS} bits")
    return V


# Cap on the rotation denominator q of the certified band and defect
# spectra: the coupling caps bound the run time at a given q, not overall.
# At their worst corner, V = ((2^64 - 1) 2^16 - 1) / (2^64 - 1), on a 2-core
# machine, `spectrum bands` took 4.5 s at 55/89 and `spectrum defects
# --side plus` 50 s at 59/89, 48 s at 59/90 and about 68 s at 65/98.
MAX_DENOMINATOR = 89


def check_denominator(r: Fraction) -> Fraction:
    """r; PreconditionError unless its denominator is at most
    MAX_DENOMINATOR."""
    if r.denominator > MAX_DENOMINATOR:
        raise PreconditionError(f"rotation denominator must be at most {MAX_DENOMINATOR}")
    return r


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


# One reflection sector as a path (`_sector_paths`): its nodes' letters
# ("0" or "1") and turns, then beta over the links between them.
SectorPath = tuple[str, list[int], list[int]]


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
    the letter w_k of its sites and the turn x_k, where x_k = sign G x for
    a turning link of weight x from its pair to its own mirror (and the one
    site of n = 1 closes on itself, x = 2 mult); its diagonal entry is
    V w_k + x_k.  Link k joins nodes k and k + 1 with squared entry
    beta_k: 1 along a half and where the halves meet, 2 from a centre to
    its pair and 4 between the two centres of n = 2; no eigenvalue reads a
    link's sign (Barth, Martin and Wilkinson, Numer. Math. 9, 1967)."""
    n, shift = len(word), _reflection(word)
    h1, h2 = shift // 2, (n - shift) // 2
    p, mult = h1 + h2, -1 if anti else 1
    pairs = word[:h1][::-1] + word[shift : shift + h2]
    out = []
    for sign in (1, -1):
        letters, turn, beta = pairs, [0] * p, [1] * (p - 1)
        if shift % 2 == 0 and p:  # the middle link of w[:s], or closing at s = 0
            turn[0] += sign * mult
        if (n - shift) % 2 == 0:  # the middle link of w[s:]
            turn[-1] += sign
        if (n - shift) % 2 and sign == 1:  # the centre of w[s:], G = 1
            if p:
                beta.append(2)
            letters += word[shift + h2]
            turn.append(2 * mult if n == 1 else 0)
        if shift % 2 and sign == mult:  # the centre of w[:s], G = mult
            if letters:  # both centres share a sector only when mult = 1
                beta.insert(0, 2 if p else 4)
            letters = word[h1] + letters
            turn.insert(0, 0)
        out.append((letters, turn, beta))
    return out[0], out[1]


def _path_matrix(v: float, path: SectorPath) -> np.ndarray:
    """A sector path as its tridiagonal float matrix at coupling v, in path
    order: v w + x on the diagonal for the letter w and the turn x, with
    +0.0 for a 0 letter (v * 0 is -0.0 for v < 0), and sqrt(beta) beside
    it: bit for bit the entries of B^T H B for the unnormalized basis B,
    scaled by the norms, up to the links' signs (the integer weights sum
    exactly, and a turning pair (v w + x) + (x + v w) halves to v w + x
    rounded once).  numpy's `eigvalsh` (LAPACK dsyevd, then dsterf) reads
    the links only through their squares, so the eigenvalues match too."""
    letters, turn, beta = path
    n = len(letters)
    h = np.zeros((n, n))
    h.flat[:: n + 1] = [(v if w == "1" else 0.0) + x for w, x in zip(letters, turn)]
    h.flat[1 :: n + 1] = h.flat[n :: n + 1] = [math.sqrt(b) for b in beta]
    return h


def floquet_edges(V, paths: tuple[SectorPath, SectorPath]) -> tuple[list[float], list[float]]:
    """Floating band-edge estimates: the eigenvalues of the two reflection
    sectors (even, odd) of `_sector_paths` for one closure of the
    one-period operator, periodic (trace = +2) or antiperiodic
    (trace = -2), as `_path_matrix` floats.  Used only to seed certified
    isolation and the rendering backend."""
    v = float(as_fraction(V))
    return tuple(np.linalg.eigvalsh(_path_matrix(v, path)).tolist() for path in paths)


def floquet_zeros(word: str, V) -> list[float]:
    """Floating estimates of the trace zeros (one per band) of a word that
    is a rotation of its reversal: the eigenvalues of the even sector of
    the antiperiodic operator H' of ww.  With M the transfer product of w,
    det(E - H') = tr(M^2) + 2 = t^2, and a Jacobi matrix with nonzero links
    has simple eigenvalues, so each sector of H' holds every zero of t
    once."""
    path = _sector_paths(word + word, True)[0]
    return np.linalg.eigvalsh(_path_matrix(float(as_fraction(V)), path)).tolist()


def reflection_factors(V, paths: tuple[SectorPath, SectorPath]) -> tuple[tuple[IntPoly, Jacobi], ...]:
    """The reflection factors of t - 2 or t + 2 for the trace t of a word
    that is a rotation of its reversal, each with its sector's Jacobi
    matrix: for each sector of `_sector_paths` for the periodic or the
    antiperiodic closure, the factor b^k det(E - J) of its k x k Jacobi
    matrix J, the head of `sturm_chain`, and J as (diag, beta, b), with b
    the denominator of V = a/b.  det(E - H) is t - 2 for the periodic
    operator H of the n sites and t + 2 for the antiperiodic one, and H is
    the direct sum of its two sectors, so the two factors multiply to
    b^n (t -+ 2).  The pair is ordered like the sectors of
    `floquet_edges`."""
    V = as_fraction(V)
    a, b = V.numerator, V.denominator
    out = []
    for letters, turn, beta in paths:
        diag = [a * (w == "1") + b * x for w, x in zip(letters, turn)]
        out.append((sturm_chain(diag, beta, b)[0], (diag, beta, b)))
    return out[0], out[1]


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
    of their reflection factors, each of about half the degree and built
    from its sector's Jacobi matrix (`reflection_factors`), with the exact
    product identities checked first.  The eigenvalues of the reflection
    sectors of `floquet_edges` guide the factors they belong to, each on a
    grid laid once from its own guides and tol.  Exact signs across the cells,
    counted against the factor's degree, certify them; where they do not,
    `isolate_roots` bisects on the sector's inertia.  Either way it returns
    each edge in its tol-grid cell, and `separate` refines only edges whose
    cells touch or overlap.  A root shared by the two factors of a side
    (touching bands, e.g. coupling 0) raises DegeneracyError.

    Each band is checked by |t| <= 2 at its `_band_point` num / 2^exp, on
    the integer `t.eval(num, 2^exp)` = 2^(exp q) t.den t(num / 2^exp)."""
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
            sectors = reflection_factors(V, paths)
            factors = [f for f, _ in sectors]
            # den * (t -+ 2)
            name, target = ("t + 2", 2) if anti else ("t - 2", -2)
            target = [t.num[0] + target * t.den] + t.num[1:]
            if [c * t.den for c in poly_mul(*factors)] != [c * scale for c in target]:
                raise PrecisionError(f"reflection factors do not multiply to {name}")
            roots = []
            for (f, jacobi), guide in zip(sectors, floquet_edges(V, paths)):
                roots += isolate_roots(f, jacobi, guide, tol)
            if _share_a_root(roots, *factors):
                raise DegeneracyError(f"{name} has a multiple root")
            found.append(roots)
    except DegeneracyError as exc:
        raise DegeneracyError(
            f"degenerate band structure (touching bands, e.g. coupling 0): {exc}"
        ) from exc
    # each side's factors multiply to degree q and give their degrees in roots
    edges = separate(found[0] + found[1])
    bands = []
    for i in range(0, 2 * q, 2):
        lo, hi = edges[i], edges[i + 1]
        num, exp = _band_point(lo, hi)
        # |t| <= 2 at num / 2^exp, on the integer 2^(exp q) t.den t(num / 2^exp)
        if abs(t.eval(num, 1 << exp)) > (2 * t.den) << (exp * q):
            raise PrecisionError("band check point escaped the trace window")
        bands.append((lo, hi))
    return Spectrum(tuple(bands), (), tol)


def _band_point(lo: RootEnclosure, hi: RootEnclosure) -> tuple[int, int]:
    """The check point num / 2^exp of a band with edge enclosures lo and hi,
    between their inner ends lo.hi and hi.lo: the dyadic with the fewest
    bits strictly between them (`_short_point`), or their midpoint when
    they are neighbours over 2^exp.  A short point keeps the Horner
    integers of the band check short."""
    exp = max(lo.exp, hi.exp)
    a, b = lo.ends_at(exp)[1], hi.ends_at(exp)[0]
    return (_short_point(a, b), exp) if b - a > 1 else (a + b, exp + 1)


@functools.lru_cache(maxsize=128)
def spectrum_periodic(r, V, tol) -> Spectrum:
    """Certified spectrum of the periodic operator at rational rotation r:
    exactly q disjoint closed bands."""
    r = check_denominator(check_rotation(as_fraction(r)))
    V = check_coupling(V)
    t = trace_poly_cf(cf_forms(r)[0], V)
    return spectrum_from_trace(t, tol, word=period_word(r), V=V)


def membership(E, r, V) -> bool:
    """Exact test |t(E)| <= 2 for rational energy E, with the trace
    recurrence run on Fractions, under the caps of `spectrum_periodic`."""
    r = check_denominator(check_rotation(as_fraction(r)))
    return abs(_trace_triples(cf_forms(r)[0], as_fraction(E), check_coupling(V))[-1][1]) <= 2


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
    r = check_denominator(check_rotation(as_fraction(r)))
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
    # the tol grid, cells 2^grid <= tol wide, and the guides' grid over it
    grid, guide_grid = _dyadic_exponent(tol.numerator, tol.denominator), guide_exponent(tol)
    exp = max(-guide_grid, *(e for _, e in marks))
    bound, width = cauchy_bound(d) << exp, 1 << (exp + guide_grid)
    xs = [-bound, *(num << (exp - e) for num, e in marks), bound]
    guides = filter(None, (grid_cell(x, guide_grid) for x in floquet_defect_estimates(period_word(r), V)))
    # each guide's cell, and the cell next to it on the guide's side
    cells = sorted((k * width, near * width) for k, near in guides)
    # t_u > 0 on gap i, between xs[i] and xs[i + 1], when q - i is even
    chosen = {i: f for f, odd in ((a, 0), (c, 1)) for i in _sign_change_gaps(f, xs, exp) if (q - i) % 2 == odd}
    points = tuple(_gap_root(f, xs[i], xs[i + 1], exp, cells, width, grid) for i, f in sorted(chosen.items()))
    _check_point_placement(base, points, above=(side == "plus") == (V > 0))
    return Spectrum(base.bands, points, tol)


def _sign_change_gaps(f: IntPoly, xs: list[int], exp: int) -> list[int]:
    """The indices i of the brackets [xs[i], xs[i + 1]] (over 2^exp, xs
    increasing) across which f changes sign: with deg f of them, each holds
    one simple root and f has no other root; else PrecisionError."""
    signs = _grid_signs(f, xs, -exp)
    gaps = [i for i in range(len(xs) - 1) if signs[i] * signs[i + 1] < 0]
    if len(gaps) != degree(f):
        raise PrecisionError(f"a factor of t^2 = V^2 + 4 changes sign {len(gaps)} times, wanted {degree(f)}")
    return gaps


def _gap_root(
    f: IntPoly, lo: int, hi: int, exp: int, cells: list[tuple[int, int]], width: int, grid: int
) -> RootEnclosure:
    """The one root of f in the bracket (lo, hi) over 2^exp, where f has
    opposite nonzero signs at lo and hi: its cell of the grid of spacing
    2^grid clipped to the bracket, or [x, x] at a grid point x, by
    `refined`.  The guides only narrow the bracket: `cells` holds the
    sorted starts of each guide's cell, width wide, and of the cell next
    to it on the guide's side; the first of these cells near the bracket
    (own cells first) across which f changes sign, clipped to it, is the
    new bracket."""
    poly = tuple(f)
    near = cells[bisect.bisect_left(cells, (lo - 2 * width + 1,)) : bisect.bisect_left(cells, (hi + width,))]
    for k in [k for k, _ in near] + [k for _, k in near]:
        a, b = max(k, lo), min(k + width, hi)
        if a < b:
            s_a, s_b = sign_at(poly, a, 1 << exp), sign_at(poly, b, 1 << exp)
            if s_a == 0 or s_b == 0:
                x = a if s_a == 0 else b
                return RootEnclosure(poly, x, x, exp)
            if s_a != s_b:
                return RootEnclosure(poly, a, b, exp).refined(grid)
    return RootEnclosure(poly, lo, hi, exp).refined(grid)


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
