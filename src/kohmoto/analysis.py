"""Experiment drivers: Lipschitz ratio sweeps, the gap-closing optimality
certificate, Lebesgue-measure experiments, and the butterfly dataset.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import PreconditionError, PrecisionError, UnsupportedRegimeError
from .farey import (
    FareyPoint,
    approach_digits,
    as_fraction,
    as_point,
    cf_eval,
    cf_forms,
    check_rotation,
    farey_distance,
    format_rational,
)
from .sets import EnclosedSet
from .spectra import (
    MAX_K,
    Spectrum,
    _sector_paths,
    check_coupling,
    check_tol,
    defect_spectrum,
    extension_traces,
    floquet_edges,
    floquet_zeros,
    spectrum_from_trace,
    spectrum_periodic,
)
from .words import period_word, sk_words

# Imported after the package's own modules, so that numpy loads inside
# `spectra`, after `farey`, `sets` and `rootfind`: loading it before them
# measured 0.4 MB more peak RSS on `bands_sweep` (heap layout, not objects).
import numpy as np


def point_spectrum(x, V, tol) -> Spectrum:
    """Certified spectrum of a completion point (rational or one-sided
    limit; irrational rotations are out of reach of the certified path)."""
    x = as_point(x)
    if x.kind == "exact":
        return spectrum_periodic(x.r, V, tol)
    if x.kind in ("plus", "minus"):
        return defect_spectrum(x.r, x.kind, V, tol)
    raise PreconditionError(
        "spectra are computed at rational points and their one-sided limits only"
    )


# ---------------------------------------------------------------------------
# Lipschitz sweep


@dataclass(frozen=True)
class LipschitzRow:
    x: FareyPoint
    y: FareyPoint
    d_farey: Fraction
    d_hausdorff: tuple[Fraction, Fraction]
    ratio_upper: Fraction
    scaled_qd: Optional[tuple[Fraction, Fraction]]  # q*d_H in the |a - p/q| < 1/q^2 regime


def lipschitz_sweep(pairs, V, tol):
    """Hausdorff/Farey ratio table over point pairs; returns the largest
    certified ratio upper bound and the full table."""
    V = as_fraction(V)
    rows = []
    max_ratio = Fraction(0)
    for x, y in pairs:
        x, y = as_point(x), as_point(y)
        df = farey_distance(x, y)
        if df == 0:
            raise PreconditionError("Lipschitz ratios need distinct points")
        sx = EnclosedSet.from_spectrum(point_spectrum(x, V, tol))
        sy = EnclosedSet.from_spectrum(point_spectrum(y, V, tol))
        dh = sx.hausdorff(sy)
        ratio = dh[1] / df
        max_ratio = max(max_ratio, ratio)
        scaled = None
        if x.kind == "exact" and y.kind == "exact":
            qualifying = [
                pq.denominator
                for a, pq in ((x.r, y.r), (y.r, x.r))
                if 0 < abs(a - pq) < Fraction(1, pq.denominator**2)
            ]
            if qualifying:
                qq = max(qualifying)
                scaled = (qq * dh[0], qq * dh[1])
        rows.append(LipschitzRow(x, y, df, dh, ratio, scaled))
    return max_ratio, rows


# ---------------------------------------------------------------------------
# Optimality certificate


@dataclass(frozen=True)
class CertificateRow:
    k: int
    r_k: Fraction
    d_farey: Fraction
    overlap_defect: Optional[tuple[Fraction, Fraction]]  # D_k enclosure (None: empty overlap)
    d_hausdorff: tuple[Fraction, Fraction]  # d_H(sigma_{r_k}, sigma_side)
    step3_certified: bool
    step2_certified: bool


@dataclass(frozen=True)
class OptimalityReport:
    r: Fraction
    V: Fraction
    side: str
    rows: tuple[CertificateRow, ...]
    subsequence: tuple[int, ...]
    C1: Fraction
    C2_observed: Fraction
    mu: tuple[Fraction, Fraction]
    l0: Optional[int]
    step4_all_certified: bool

    def to_json_obj(self) -> dict:
        return {
            "r": format_rational(self.r),
            "V": format_rational(self.V),
            "side": self.side,
            "C1": format_rational(self.C1),
            "C2_observed": format_rational(self.C2_observed),
            "mu": [format_rational(self.mu[0]), format_rational(self.mu[1])],
            "l0": self.l0,
            "step4_all_certified": self.step4_all_certified,
            "subsequence": list(self.subsequence),
            "rows": [
                {
                    "k": row.k,
                    "r_k": format_rational(row.r_k),
                    "d_F": format_rational(row.d_farey),
                    "D_k": None
                    if row.overlap_defect is None
                    else [format_rational(v) for v in row.overlap_defect],
                    "d_H": [format_rational(v) for v in row.d_hausdorff],
                    "step3_certified": row.step3_certified,
                    "step2_certified": row.step2_certified,
                }
                for row in self.rows
            ],
        }


def optimality_certificate(r, side: str, V, Kmax: int, tol) -> OptimalityReport:
    """Gap-closing certificate along one-sided approximants: verifies the
    measure sandwich and the lower-bound dichotomy at every step, extracts
    the subsequence realizing the two-sided spectral estimate, and reports
    the constants."""
    r = check_rotation(as_fraction(r))
    V = as_fraction(V)
    tol = as_fraction(tol)
    if V <= 4:
        raise UnsupportedRegimeError(
            "the optimality certificate requires coupling V > 4 "
            "(the overlap families must be disjoint)"
        )
    if not 4 <= Kmax <= MAX_K:
        raise PreconditionError(f"Kmax must be between 4 and {MAX_K}")
    q = r.denominator
    digits = approach_digits(r, side)
    base_spec = spectrum_periodic(r, V, tol)
    base = EnclosedSet.from_spectrum(base_spec)
    side_spec = defect_spectrum(r, side, V, tol)
    side_set = EnclosedSet.from_spectrum(side_spec)
    side_point = FareyPoint.plus(r) if side == "plus" else FareyPoint.minus(r)
    mu = base.measure()

    ks, d_over, d_haus, d_far, r_ks = {}, {}, {}, {}, {}
    for k, t in extension_traces(digits, V):
        if k > Kmax:
            break
        approx_spec = spectrum_from_trace(t, tol, word=sk_words(digits + (k,))[-1], V=V)
        approx = EnclosedSet.from_spectrum(approx_spec)
        overlap = approx.intersection(base)
        d_over[k] = None if not overlap.outer else overlap.hausdorff(base)
        d_haus[k] = approx.hausdorff(side_set)
        r_k = cf_eval(digits + (k,))
        r_ks[k] = r_k
        d_far[k] = farey_distance(FareyPoint.exact(r_k), side_point)
        ks[k] = overlap

    # Step 3 sandwich mu(overlap) <= mu(base) <= mu(overlap) + 2q(k+1) D_k:
    # the left half holds structurally (overlap hulls sit inside base hulls),
    # the right half is certified from the lower enclosure ends.
    step3 = {}
    for k in d_over:
        if d_over[k] is None:
            step3[k] = True  # vacuous: empty overlap makes D_k infinite
            continue
        step3[k] = mu[1] <= ks[k].measure()[0] + 2 * q * (k + 1) * d_over[k][0]

    # Step 4: max{(k+1) D_k, (k+2) D_{k+1}} >= mu/(4q) for every k.
    def step4_pair(k) -> bool:
        pair = []
        for kk, w in ((k, k + 1), (k + 1, k + 2)):
            if kk in d_over:
                enc = d_over[kk]
                pair.append(Fraction(10**9) if enc is None else w * enc[0])
        return bool(pair) and max(pair) >= mu[1] / (4 * q)

    step4_all = all(step4_pair(k) for k in range(1, Kmax))

    # Step 2 empirical threshold: D_k <= d_H(sigma_{r_k}, sigma_side) from l0
    # on.  Equality is attained (already at rotation 0), so the check is
    # consistency at enclosure resolution, not strict separation.
    step2 = {}
    for k in d_over:
        if d_over[k] is None:
            step2[k] = False
        else:
            step2[k] = d_over[k][0] <= d_haus[k][1]
    l0 = None
    for k in sorted(step2):
        if all(step2[j] for j in step2 if j >= k):
            l0 = k
            break

    C1 = mu[1] / 8
    subsequence = []
    for k in sorted(d_over):
        if l0 is None or k < l0 or d_over[k] is None:
            continue
        if (k + 1) * d_over[k][0] >= mu[1] / (4 * q):
            subsequence.append(k)
    C2 = Fraction(0)
    for k in subsequence:
        C2 = max(C2, d_haus[k][1] / d_far[k])

    rows = tuple(
        CertificateRow(k, r_ks[k], d_far[k], d_over[k], d_haus[k], step3[k], step2[k])
        for k in sorted(d_over)
    )
    return OptimalityReport(
        r, V, side, rows, tuple(subsequence), C1, C2, mu, l0, step4_all
    )


# ---------------------------------------------------------------------------
# Measure experiments


@dataclass(frozen=True)
class MeasureRow:
    k: int
    r_k: Fraction
    overlap: tuple[Fraction, Fraction]
    sub_half: bool


@dataclass(frozen=True)
class MeasureReport:
    r: Fraction
    V: Fraction
    mu: tuple[Fraction, Fraction]
    rows: tuple[MeasureRow, ...]
    pair_inequality_certified: Optional[bool]  # only asserted for V > 4

    def to_json_obj(self) -> dict:
        return {
            "r": format_rational(self.r),
            "V": format_rational(self.V),
            "mu": [format_rational(v) for v in self.mu],
            "pair_inequality_certified": self.pair_inequality_certified,
            "rows": [
                {
                    "k": row.k,
                    "r_k": format_rational(row.r_k),
                    "overlap": [format_rational(v) for v in row.overlap],
                    "sub_half": row.sub_half,
                }
                for row in self.rows
            ],
        }


def measure_experiments(r, V, Kmax: int, tol=Fraction(1, 10**9)) -> MeasureReport:
    """Tabulates the overlap measure with the k-th approximant; for V > 4
    additionally certifies that consecutive overlaps fit inside the base
    measure and flags the rows below half of it."""
    r = check_rotation(as_fraction(r))
    V = as_fraction(V)
    if V == 0:
        raise PreconditionError("measure experiments need a non-zero coupling")
    if not 0 <= Kmax <= MAX_K:
        raise PreconditionError(f"Kmax must be between 0 and {MAX_K}")
    digits = cf_forms(r)[0]
    base = EnclosedSet.from_spectrum(spectrum_periodic(r, V, tol))
    mu = base.measure()
    rows = []
    overlaps = {}
    for k, t in extension_traces(digits, V):
        if k > Kmax:
            break
        approx = EnclosedSet.from_spectrum(
            spectrum_from_trace(t, tol, word=sk_words(digits + (k,))[-1], V=V)
        )
        overlap = approx.intersection(base).measure()
        overlaps[k] = overlap
        rows.append(
            MeasureRow(k, cf_eval(digits + (k,)), overlap, overlap[1] <= mu[0] / 2)
        )
    pair_ok = None
    if V > 4 and Kmax >= 2:
        pair_ok = all(
            overlaps[k][1] + overlaps[k + 1][1] <= mu[0] for k in range(1, Kmax)
        )
    return MeasureReport(r, V, mu, tuple(rows), pair_ok)


# ---------------------------------------------------------------------------
# Butterfly dataset


@dataclass(frozen=True)
class ButterflyRow:
    q: int
    p: int
    bands: tuple  # (lo_str, hi_str) pairs, exact "p/q" or "~decimal"
    defects_plus: tuple
    defects_minus: tuple
    error: Optional[str] = None


@dataclass(frozen=True, eq=False)
class ButterflyDataset:
    """The intervals of every row p/q, held as numbers only.  `ends` holds
    the ends of all intervals, two per interval in row order (each row's
    bands, then its plus and minus points): exact Fractions for the
    certified backend, and for the fast one a float64 array of the values
    its `~` strings print (the float ends widened by FAST_SLOP).  `layout`
    gives each row's q, p, its numbers of bands, plus and minus points, and
    its error text or None.  Each artifact formats or draws straight from
    `ends`; `rows` formats them anew on each access."""

    Q: int
    V: Fraction
    backend: str
    include_defects: bool
    layout: tuple
    ends: Union[np.ndarray, tuple] = field(repr=False)

    def _row_parts(self):
        """Each row's q, p and error text, with the slices of `ends` that
        hold its bands, its plus points and its minus points."""
        i = 0
        for q, p, counts, error in self.layout:
            parts = []
            for n in counts:
                parts.append(slice(i, i + 2 * n))
                i += 2 * n
            yield q, p, error, parts

    def _format_args(self) -> tuple[str, list]:
        """The %-format of one interval end, and the values of `ends` it
        formats."""
        if self.backend == "fast":
            return "~%.12e", self.ends.tolist()
        return "%s", [format_rational(x) for x in self.ends]

    @property
    def rows(self) -> tuple[ButterflyRow, ...]:
        """The rows with each interval end as the artifacts print it."""
        fmt, values = self._format_args()
        strs = [fmt % x for x in values]
        return tuple(
            ButterflyRow(q, p, *(tuple(zip(strs[s][0::2], strs[s][1::2])) for s in parts), error=error)
            for q, p, error, parts in self._row_parts()
        )

    def to_csv(self) -> str:
        fmt, values = self._format_args()
        out = ["q,p,kind,lo,hi\n"]
        for q, p, _, parts in self._row_parts():
            for kind, s in zip(("band", "defect_plus", "defect_minus"), parts):
                line = f"{q},{p},{kind},{fmt},{fmt}\n"
                out.append(line * ((s.stop - s.start) // 2) % tuple(values[s]))
        return "".join(out)

    def to_json_obj(self) -> dict:
        return {
            "Q": self.Q,
            "V": format_rational(self.V),
            "backend": self.backend,
            "include_defects": self.include_defects,
            "rows": [
                {
                    "q": row.q,
                    "p": row.p,
                    "bands": [list(b) for b in row.bands],
                    "defects_plus": [list(b) for b in row.defects_plus],
                    "defects_minus": [list(b) for b in row.defects_minus],
                    "error": row.error,
                }
                for row in self.rows
            ],
        }

    def to_svg(self, width: int = 800, height: int = 600) -> str:
        """Bands as lines and defect points as circles, one row per p/q.  A
        row whose `error` is set is preceded by the comment
        `<!-- p/q failed: message -->` of `xml_comment`, so a figure with
        missing parts says so."""
        ends = np.asarray(self.ends, dtype=float)
        e_lo, e_hi = (ends.min(), ends.max()) if len(ends) else (0.0, 1.0)
        pad = 0.05 * (e_hi - e_lo) or 1.0
        e_lo, e_hi = e_lo - pad, e_hi + pad

        def sx(e: np.ndarray) -> np.ndarray:
            return 40 + (width - 60) * (e - e_lo) / (e_hi - e_lo)

        x_end, x_mid = sx(ends), sx((ends[0::2] + ends[1::2]) / 2)
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]
        for q, p, error, (bands, plus, minus) in self._row_parts():
            if error:
                out.append(xml_comment(f"{p}/{q} failed: {error}"))
            y = f"{height - 30 - (height - 60) * (p / q):.2f}"
            xs = x_end[bands].tolist()
            for x1, x2 in zip(xs[0::2], xs[1::2]):
                out.append(
                    f'<line x1="{x1:.2f}" y1="{y}" x2="{x2:.2f}" y2="{y}" '
                    f'stroke="black" stroke-width="1.2"/>'
                )
            for s, color in ((plus, "#cc0000"), (minus, "#0044cc")):
                for x in x_mid[s.start // 2 : s.stop // 2].tolist():
                    out.append(f'<circle cx="{x:.2f}" cy="{y}" r="1.2" fill="{color}"/>')
        out.append("</svg>")
        return "\n".join(out) + "\n"


def xml_comment(text: str) -> str:
    """`<!-- text -->` with the markup characters of text escaped and a
    space after each hyphen that another follows, as an XML comment
    requires."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<!-- {re.sub('-(?=-)', '- ', text)} -->"


FAST_SLOP = 2.0**-40
# approximant index of the fast backend's defect words
FAST_K = 6


def _fast_band_edges(word: str, V) -> list[float]:
    """The union of the four reflection sectors' eigenvalues, sorted."""
    (a, b), (c, d) = (floquet_edges(V, _sector_paths(word, anti)) for anti in (False, True))
    return sorted(a + b + c + d)


@dataclass(frozen=True)
class _RowValues:
    """One butterfly row before formatting: band and defect-point intervals
    as numbers (exact enclosure ends, or float edges and trace zeros for
    the fast backend), and the message of each part that failed."""

    bands: tuple
    plus: tuple
    minus: tuple
    errors: dict

    def mirrored(self, v: float) -> "_RowValues":
        """The row of 1 - r from the row of r: sigma(1 - r) = V - sigma(r),
        and the plus points of 1 - r are V minus the minus points of r."""

        def flip(intervals) -> tuple:
            return tuple((v - hi, v - lo) for lo, hi in reversed(intervals))

        swap = {"defect_plus": "defect_minus", "defect_minus": "defect_plus"}
        errors = {swap.get(part, part): msg for part, msg in self.errors.items()}
        return _RowValues(flip(self.bands), flip(self.minus), flip(self.plus), errors)

    def error_text(self) -> Optional[str]:
        text = "; ".join(
            f"{part}: {self.errors[part]}"
            for part in ("bands", "defect_plus", "defect_minus")
            if part in self.errors
        )
        return text or None


def _butterfly_row(r: Fraction, V: Fraction, backend: str, include_defects: bool, tol) -> _RowValues:
    q = r.denominator
    errors = {}
    bands = plus = minus = ()
    try:
        if backend == "certified":
            spec = spectrum_periodic(r, V, tol)
            bands = tuple((lo.lo, hi.hi) for lo, hi in spec.bands)
        else:
            edges = _fast_band_edges(period_word(r), V)
            if len(edges) != 2 * q:
                raise PrecisionError(
                    f"fast backend found {len(edges)} edges, wanted {2 * q}"
                )
            bands = tuple(zip(edges[::2], edges[1::2]))
    except Exception as exc:  # per-row capture keeps the dataset total
        errors["bands"] = f"{type(exc).__name__}: {exc}"
    if include_defects and bands:
        for side in ("plus", "minus"):
            if (side == "plus" and r == 1) or (side == "minus" and r == 0):
                continue
            try:
                if backend == "certified":
                    pts = defect_spectrum(r, side, V, tol).points
                else:
                    pts = tuple((z, z) for z in _fast_defects(r, side, V, bands))
                if side == "plus":
                    plus = pts
                else:
                    minus = pts
            except Exception as exc:
                errors[f"defect_{side}"] = f"{type(exc).__name__}: {exc}"
    return _RowValues(bands, plus, minus, errors)


def _outside_bands(zeros, bands) -> list[float]:
    """The zeros outside every band widened by 1e-9 on each side.  The ends
    of sorted bands are sorted, so a zero lies in some widened band iff it
    lies in the last one that starts at or below it; a band at -inf stands
    below them all."""
    lo, hi = np.array([(-np.inf, -np.inf), *bands]).T
    zeros = np.asarray(zeros, dtype=float)
    last = np.searchsorted(lo - 1e-9, zeros, side="right") - 1
    return zeros[zeros > hi[last] + 1e-9].tolist()


def _fast_defects(r: Fraction, side: str, V: Fraction, base_bands) -> list[float]:
    # The trace crosses zero exactly once inside every band, so the zeros of
    # the approximant trace (one sector of the doubled word) mark its bands
    # far more robustly in floating point than near-degenerate edge pairs;
    # a zero outside every base band marks an escaping band.
    digits = approach_digits(r, side)
    zeros = floquet_zeros(sk_words(digits + (FAST_K,))[-1], V)
    pts = _outside_bands(zeros, base_bands)
    if len(pts) != r.denominator:
        raise PrecisionError(
            f"fast backend found {len(pts)} defect points, wanted {r.denominator}"
        )
    return pts


# Caps on Q by backend, from measured CLI wall time at V = 5 on a 2-core
# machine: the fast backend takes 4.5-5.1 s and 68 MB peak RSS at Q = 60
# and 6.0-6.3 s and 75 MB at Q = 64 (CSV), the certified one 4.9-6.8 s at
# Q = 38, 5.1-6.8 s at Q = 39 and 6.0-9.5 s at Q = 40 (rows grow like Q^2,
# and each costs more with q).
MAX_Q = {"fast": 64, "certified": 38}

# The fast backend's rows are float eigenvalues of matrices with V on the
# diagonal and unit hoppings; from |V| = 2^52 on, an ulp of V is at least 1
# and the hoppings are lost.
MAX_FAST_V = 2**52


def butterfly(
    Q: int,
    V,
    backend: str = "certified",
    include_defects: bool = True,
    tol=Fraction(1, 10**6),
) -> ButterflyDataset:
    """Band (and optionally defect-point) data for every reduced rational
    with denominator <= Q, ordered by (q, p); a row that fails keeps its
    error instead of aborting the dataset.  Certified rows are computed
    independently.  The fast backend computes the rows p/q <= 1/2 and 1/1,
    and takes the row of 1 - p/q for 0 < p/q < 1/2 from that of p/q in
    floats, by the mirror symmetry sigma(1 - r) = V - sigma(r); 1/1 is
    computed directly because the fast approximant words of 0+ and 1- are
    not mirror images."""
    if Q < 1:
        raise PreconditionError("Q must be >= 1")
    if backend not in ("certified", "fast"):
        raise PreconditionError("backend must be certified or fast")
    if Q > MAX_Q[backend]:
        raise PreconditionError(f"Q must be <= {MAX_Q[backend]} with the {backend} backend")
    # the fast backend reads V only as a float
    V = check_coupling(V) if backend == "certified" else as_fraction(V)
    if backend == "fast" and abs(V) >= MAX_FAST_V:
        raise PreconditionError("the fast backend needs a coupling |V| < 2^52")
    tol = check_tol(tol)
    rationals = [
        Fraction(p, q)
        for q in range(1, Q + 1)
        for p in range(0, q + 1)
        if math.gcd(p, q) == 1
    ]
    lower = {}  # fast rows of 0 < r < 1/2, until their mirror row is due
    layout, ends = [], []
    for r in rationals:
        if 1 - r in lower:
            values = lower.pop(1 - r).mirrored(float(V))
        else:
            values = _butterfly_row(r, V, backend, include_defects, tol)
            if backend == "fast" and 0 < 2 * r < 1:
                lower[r] = values
        parts = (values.bands, values.plus, values.minus)
        layout.append((r.denominator, r.numerator, tuple(map(len, parts)), values.error_text()))
        ends.extend(x for part in parts for pair in part for x in pair)
    if backend == "certified":
        ends = tuple(ends)
    else:
        ends = (np.array(ends, dtype=float).reshape(-1, 2) + (-FAST_SLOP, FAST_SLOP)).ravel()
    return ButterflyDataset(Q, V, backend, include_defects, tuple(layout), ends)
