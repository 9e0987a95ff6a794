"""Certified spectra of the two-sided discrete Schrodinger operators with
mechanical-word potentials.

The spectrum of a q-periodic operator is the preimage of [-2,2] under the
trace of the transfer-matrix cocycle over one period.  Its 2q band edges,
the roots of t - 2 and t + 2, are certified in cells of a dyadic grid placed
by floating eigenvalue estimates: exact sign changes across as many cells as
a Sturm count over exact integers finds.  Bisection only splits the two
edges of a band narrower than a cell, or isolates the edges when the
estimates do not certify.
One-sided limit spectra add exactly q isolated eigenvalues.  With
(t_v, t_u, t_uv) the traces of the last two words of the approach string and
of their one-step extension, set P = t_u t_v - 2 t_uv, G+- = P -+ |V| t_v and
D = t_u^2 - (V^2 + 4).  The trace-map invariant
t_u^2 + t_v^2 + t_uv^2 - t_u t_v t_uv - 4 = V^2 gives G+ G- = D (t_v^2 - 4),
so the points of the upper and the lower limit together are the 2q simple
roots of D, isolated like band edges.  A root is a point of the chosen side
when P = sign(t_u) |V| t_v there; this is certified by showing the other
factor non-zero on the root's enclosure with a Lipschitz bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import DegeneracyError, PreconditionError, PrecisionError
from .farey import as_fraction, cf_forms, check_rotation, format_rational, over_common_denominator
from .polyring import RP
from .rootfind import (
    RootEnclosure,
    _eval_homogeneous,
    compare_roots,
    isolate_roots,
    separate,
    sign_at,
)
from .words import Configuration, period_word, sk_words

# ---------------------------------------------------------------------------
# Transfer-matrix traces


def _site_matrix(letter: str, E, Vc):
    # A(a) = [[E - V*a, -1], [1, 0]]
    return [[E if letter == "0" else E - Vc, -1], [1, 0]]


def trace_poly(word: str, V) -> RP:
    """Trace of the ordered transfer product A(w_q)...A(w_1), as an exact
    polynomial in the energy; the product determinant is checked to be 1."""
    if not word:
        raise PreconditionError("transfer product needs a non-empty word")
    if set(word) - {"0", "1"}:
        raise PreconditionError(f"word {word!r} is not over {{0,1}}")
    E, Vc = RP([0, 1]), RP.const(as_fraction(V))
    m = _site_matrix(word[0], E, Vc)
    for letter in word[1:]:
        a = _site_matrix(letter, E, Vc)
        m = [
            [a[0][0] * m[0][0] + a[0][1] * m[1][0], a[0][0] * m[0][1] + a[0][1] * m[1][1]],
            [a[1][0] * m[0][0] + a[1][1] * m[1][0], a[1][0] * m[0][1] + a[1][1] * m[1][1]],
        ]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det != 1:
        raise PrecisionError("transfer product determinant is not 1")
    return m[0][0] + m[1][1]


def _power_trace(A, B, C, e: int):
    """tr(P M^e) from A = tr P, B = tr M, C = tr(P M), for e >= 0."""
    lo, hi = -1, 0
    for _ in range(e):
        lo, hi = hi, B * hi - lo
    return hi * C - lo * A


def trace_triples(digits, V) -> list[tuple[RP, RP, RP]]:
    """Trace triples (prev, current, one-step-extension) along the prefixes
    of a continued-fraction string, as polynomials in the energy at a
    rational coupling.  The recursion is `_trace_triples`, which takes the
    energy and the coupling as ring elements: that is the seam where the
    tests pass a symbolic coupling."""
    return _trace_triples(digits, RP([0, 1]), RP.const(as_fraction(V)))


def _trace_triples(digits, E, Vc) -> list[tuple]:
    """The recursion of `trace_triples` over any ring that holds the energy
    E and the coupling Vc and coerces integer constants.  The tests run it
    over Z[V][E] to check the trace-map invariant for every coupling."""
    digits = tuple(int(d) for d in digits)
    if len(digits) < 2 or digits[0] != 0 or digits[1] != 0 or any(d < 1 for d in digits[2:]):
        raise PreconditionError(
            f"trace chain needs a continued fraction of a value in [0,1], got {digits}"
        )
    A, B, C = E - Vc, E, E * E - Vc * E - 2
    out = [(A, B, C)]
    for i, d in enumerate(digits[2:]):
        e = d - 1 if i == 0 else d
        nb = _power_trace(A, B, C, e)
        nc = _power_trace(A, B, C, e + 1)
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

    Incremental in k; extending the bare string for the value 0 uses the
    first-digit exponent convention."""
    digits = tuple(int(d) for d in digits)
    A, B, C = trace_triples(digits, V)[-1]
    first_slot = len(digits) == 2
    # exponent for appended digit k is k-1 in the first slot, else k
    lo, hi = -1, 0  # (S_{e-2}, S_{e-1}) at e = 0
    e = 0
    k = 0
    while True:
        k += 1
        target = k - 1 if first_slot else k
        while e < target:
            lo, hi = hi, B * hi - lo
            e += 1
        yield k, hi * C - lo * A


# ---------------------------------------------------------------------------
# Spectra


@dataclass(frozen=True)
class Spectrum:
    """Ordered certified band/point data: bands are pairs of root
    enclosures, points are plain rational enclosures."""

    bands: tuple
    points: tuple
    tol: Fraction

    def to_json_obj(self) -> dict:
        return {
            "bands": [
                [
                    format_rational(lo.lo),
                    format_rational(lo.hi),
                    format_rational(hi.lo),
                    format_rational(hi.hi),
                ]
                for lo, hi in self.bands
            ],
            "points": [
                [format_rational(lo), format_rational(hi)] for lo, hi in self.points
            ],
            "tol": format_rational(self.tol),
        }


def _check_tol(tol) -> Fraction:
    tol = as_fraction(tol)
    if tol <= 0:
        raise PreconditionError("tolerance must be positive")
    return tol


def _bloch_matrix(word: str, v: float, mult: float) -> np.ndarray:
    """The one-period operator of a word with Bloch multiplier mult: the
    corner from the last site back to the first carries mult, its partner
    1/mult; one site holds both on the diagonal, added as one sum."""
    q = len(word)
    m = np.diag([v * int(ch) for ch in word])
    i = np.arange(q - 1)
    m[i, i + 1] = m[i + 1, i] = 1.0
    if q == 1:
        m[0, 0] += mult + 1 / mult
    else:
        m[q - 1, 0] += mult
        m[0, q - 1] += 1 / mult
    return m


def floquet_edges(word: str, V, anti: bool) -> list[float]:
    """Floating band-edge estimates: eigenvalues of the one-period operator
    with periodic (trace = +2) or antiperiodic (trace = -2) closure.  Used
    only to seed certified isolation and the rendering backend."""
    m = _bloch_matrix(word, float(as_fraction(V)), -1.0 if anti else 1.0)
    return [float(x) for x in np.linalg.eigvalsh(m)]


def floquet_zeros(word: str, V) -> list[float]:
    """Floating estimates of the trace zeros (one per band): eigenvalues of
    the quarter-phase Bloch matrix of the cyclic word.

    The flux pi/2 is spread as e^{i pi/(2n)} over the n links of the ring,
    so the matrix H commutes with R o conjugation, where R is the
    reflection of the ring that maps the cyclic word onto itself.  In the
    basis e_i (sites fixed by R), (e_i + e_Ri)/sqrt2 and i(e_i - e_Ri)/sqrt2
    (pairs of sites swapped by R) H is real symmetric; its O(n) nonzeros
    are summed directly.  Every Christoffel word is a rotation of its
    reversal; a word that is not raises PreconditionError."""
    n = len(word)
    shift = (word + word).find(word[::-1])
    if shift < 0:
        raise PreconditionError(f"word {word!r} is not a rotation of its reversal")
    v = float(as_fraction(V))
    sites = np.arange(n)
    mirror = (shift - 1 - sites) % n  # word[mirror[i]] == word[i]
    fixed = sites[mirror == sites]
    reps = sites[sites < mirror]
    nf, npairs = len(fixed), len(reps)
    # each site lies on at most two basis vectors: (column, amplitude) slots
    col = np.zeros((n, 2), dtype=int)
    amp = np.zeros((n, 2), dtype=complex)
    col[fixed, 0], amp[fixed, 0] = np.arange(nf), 1.0
    plus = nf + np.arange(npairs)
    h = np.sqrt(0.5)
    for site, phase in ((reps, 1j), (mirror[reps], -1j)):
        col[site, 0], amp[site, 0] = plus, h
        col[site, 1], amp[site, 1] = plus + npairs, phase * h
    # nonzeros of H: diagonal, links i -> i+1 and their adjoints
    nxt = (sites + 1) % n
    rows = np.concatenate([sites, nxt, sites])
    cols = np.concatenate([sites, sites, nxt])
    hop = np.exp(0.5j * np.pi / n) if n else 0.0
    vals = np.concatenate([
        v * np.array([int(ch) for ch in word], dtype=float),
        np.full(n, hop),
        np.full(n, np.conj(hop)),
    ])
    # M[a, b] sums conj(U[i, a]) H[i, j] U[j, b] over the nonzeros H[i, j];
    # the imaginary parts cancel
    a = col[rows][:, :, None] * n + col[cols][:, None, :]
    w = amp[rows].conj()[:, :, None] * vals[:, None, None] * amp[cols][:, None, :]
    m = np.bincount(a.ravel(), weights=w.real.ravel(), minlength=n * n).reshape(n, n)
    return [float(x) for x in np.linalg.eigvalsh(m)]


def spectrum_from_trace(t: RP, tol, word: str, V) -> Spectrum:
    """Band decomposition {|t| <= 2} of a degree-q trace polynomial: exactly
    q certified-disjoint closed bands, edges enclosed to width <= tol.  The
    generating word and coupling give eigenvalue estimates that place each
    edge in a grid cell at most tol wide; exact signs and a Sturm count
    certify the cells."""
    tol = _check_tol(tol)
    q = t.degree()
    if q < 1:
        raise PreconditionError("trace polynomial must have positive degree")
    if t.num[-1] != t.den:
        raise PrecisionError("trace polynomial must be monic")
    if len(word) != q:
        raise PreconditionError("word length must match the trace degree")
    try:
        upper = (t - 2).int_poly()
        lower = (t + 2).int_poly()
        roots_upper = isolate_roots(
            upper, guide=floquet_edges(word, V, anti=False), width=tol
        )
        roots_lower = isolate_roots(
            lower, guide=floquet_edges(word, V, anti=True), width=tol
        )
    except DegeneracyError as exc:
        raise DegeneracyError(
            f"degenerate band structure (touching bands, e.g. coupling 0): {exc}"
        ) from exc
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
        mid = (lo.hi + hi.lo) / 2
        if abs(t.eval(mid)) > 2:
            raise PrecisionError("band midpoint escaped the trace window")
        bands.append((lo, hi))
    return Spectrum(tuple(bands), (), tol)


@functools.lru_cache(maxsize=128)
def spectrum_periodic(r, V, tol) -> Spectrum:
    """Certified spectrum of the periodic operator at rational rotation r:
    exactly q disjoint closed bands."""
    r = check_rotation(as_fraction(r))
    V = as_fraction(V)
    tol = _check_tol(tol)
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


# A band edge in the band relations: (lo, hi, enclosure), with the ends of
# the enclosure as integer numerators over a denominator shared by all
# edges compared.
Edge = tuple[int, int, RootEnclosure]


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
    encs = [e for spec in (approx, base) for band in spec.bands for e in band]
    ends, _ = over_common_denominator((e.lo, e.hi) for e in encs)
    edges = [(lo, hi, e) for (lo, hi), e in zip(ends, encs)]
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
    V = as_fraction(V)
    tol = _check_tol(tol)
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


def approach_digits(r, side: str) -> tuple[int, ...]:
    """Continued-fraction string whose k-extensions converge to the chosen
    one-sided limit of r."""
    r = check_rotation(as_fraction(r))
    if side not in ("plus", "minus"):
        raise PreconditionError(f"side must be plus or minus, got {side!r}")
    if r == 0:
        if side == "minus":
            raise PreconditionError("0- is not a point of the completion")
        return (0, 0)
    if r == 1:
        if side == "plus":
            raise PreconditionError("1+ is not a point of the completion")
        return (0, 0, 1)
    short, long = cf_forms(r)
    n = len(short) - 2
    return short if (side == "plus") == (n % 2 == 0) else long


# Cap on the approximant index k of the optimality and measure loops: the
# approximant trace degree grows with k.
MAX_K = 64


def floquet_defect_estimates(word: str, V) -> list[float]:
    """Floating estimates of the 2q roots of t^2 = V^2 + 4: eigenvalues of
    the one-period operator with Bloch multiplier +-lam, lam + 1/lam =
    sqrt(V^2 + 4).  Used only to seed certified isolation."""
    v = float(as_fraction(V))
    lam = (np.sqrt(v * v + 4) + abs(v)) / 2
    out = []
    for mult in (lam, -lam):
        out.extend(float(x) for x in np.linalg.eigvals(_bloch_matrix(word, v, mult)).real)
    return out


def _certified_nonzero(g: RP, lo: Fraction, hi: Fraction) -> bool:
    """True when g has no root in [lo, hi]: |g(mid)| exceeds the bound
    sum_k k |c_k| R^(k-1) * width/2 on |g(x) - g(mid)|, R = max(|lo|, |hi|).
    An exact enclosure [x, x] is decided by g(x) itself.

    With lo = a/d and hi = b/d, both sides are scaled by (2d)^n, n = deg g,
    so the test runs on integers."""
    c = g.num
    if lo == hi:
        return sign_at(c, lo.numerator, lo.denominator) != 0
    [(a, b)], d = over_common_denominator([(lo, hi)])
    n = len(c) - 1
    slope = [k * abs(ck) for k, ck in enumerate(c)][1:] or [0]
    bound = _eval_homogeneous(slope, max(abs(a), abs(b)), d)  # d^(n-1) * sum
    return 2 * abs(_eval_homogeneous(c, a + b, 2 * d)) > bound * (b - a) << n


# Cap on the halvings that decide which side a root of t_u^2 - V^2 - 4
# belongs to.
MAX_SIDE_HALVINGS = 256


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
    2q simple roots of D.  A root belongs to this side when, with s the
    exact sign of t_u across its enclosure, G_-s is certified non-zero on
    the enclosure (so G_s vanishes at the root), and to the other side when
    G_s is; undecided enclosures are halved."""
    r = check_rotation(as_fraction(r))
    V = as_fraction(V)
    tol = _check_tol(tol)
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
    roots = isolate_roots(
        D.int_poly(), guide=floquet_defect_estimates(period_word(r), V), width=tol
    )
    if len(roots) != 2 * q:
        raise PrecisionError(f"t^2 = V^2 + 4 has {len(roots)} roots, wanted {2 * q}")
    points = []
    for enc in roots:
        enc = enc.refined(tol)
        for _ in range(MAX_SIDE_HALVINGS):
            s = sign_at(t_u.num, enc.lo.numerator, enc.lo.denominator)
            if s != 0 and s == sign_at(t_u.num, enc.hi.numerator, enc.hi.denominator):
                g_same, g_other = (g_plus, g_minus) if s > 0 else (g_minus, g_plus)
                if _certified_nonzero(g_other, enc.lo, enc.hi):
                    points.append((enc.lo, enc.hi))
                    break
                if _certified_nonzero(g_same, enc.lo, enc.hi):
                    break
            if enc.is_exact():
                raise PrecisionError("G+ and G- both vanish at an exact defect root")
            enc = enc.refined(enc.width / 2)
        else:
            raise PrecisionError(
                f"side of a defect root at {format_rational(r)} not decided "
                f"after {MAX_SIDE_HALVINGS} halvings"
            )
    _check_point_placement(base, tuple(points), above=(side == "plus") == (V > 0))
    return Spectrum(base.bands, tuple(points), tol)


def _check_point_placement(base: Spectrum, points, above: bool) -> None:
    """For positive coupling, upper limits put one eigenvalue in the gap
    above each band (the last one above the spectrum) and lower limits
    mirror this below each band; negative coupling reflects the picture
    (conjugation by (-1)^n sends H(V) to -H(-V))."""
    bands = base.bands
    q = len(bands)
    if len(points) != q:
        raise PrecisionError(f"expected {q} defect points, found {len(points)}")
    for j, (plo, phi) in enumerate(points):
        if above:
            beside = plo > bands[j][1].hi
            in_gap = j + 1 == q or phi < bands[j + 1][0].lo
        else:
            beside = phi < bands[j][0].lo
            in_gap = j == 0 or plo > bands[j - 1][1].hi
        if not beside:
            where = "above" if above else "below"
            raise PrecisionError(f"defect point is not {where} its band")
        if not in_gap:
            raise PrecisionError("defect point escaped its gap")


# The bench tracer rebinds the module attributes to plain wrappers, so the
# caches are captured here, at import time.
_CACHES = (spectrum_periodic, defect_spectrum)


def clear_memos() -> None:
    for cached in _CACHES:
        cached.cache_clear()


# ---------------------------------------------------------------------------
# Floating-point finite-section oracle (never part of the certified path)


def finite_section_eigs(config: Configuration, V, N: int) -> list[float]:
    """Eigenvalues of the N x N truncation centered at the origin."""
    from scipy.linalg import eigh_tridiagonal

    if N < 3 or N % 2 == 0:
        raise PreconditionError("finite section size must be odd and >= 3")
    half = (N - 1) // 2
    v = float(as_fraction(V))
    diag = np.array([v * int(config.at(n)) for n in range(-half, half + 1)])
    off = np.ones(N - 1)
    return list(eigh_tridiagonal(diag, off, eigvals_only=True))
