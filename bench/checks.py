"""Output checks that do not use kohmoto's polynomial or root-finding layers.

Periodic bands are certified here from scratch: t(E)^2 - 4 is evaluated
exactly with an integer 2x2 transfer product over the mechanical word of
p/q, and each band edge enclosure must bracket a sign change.  2q sign
changes on 2q disjoint enclosures account for every root of the degree-2q
polynomial, so the check is a complete certificate of the band structure.

Defect points, Hausdorff distances and measures are checked by overlap
with reference enclosures recorded from the seed commit (reference.json):
a correct enclosure always overlaps a correct reference, while bytes may
change with any legitimate change of algorithm.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class WrongOutput(Exception):
    """A task returned an output that fails its check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def mechanical_word(p: int, q: int) -> list[int]:
    """One period of floor((n+1)p/q) - floor(np/q); by cyclic invariance of
    the trace the phase does not matter."""
    return [((n + 1) * p) // q - (n * p) // q for n in range(q)]


def disc_sign(word: list[int], V: Fraction, E: Fraction) -> int:
    """Exact sign of t(E)^2 - 4 for the transfer product over word, with
    site matrices A(a) = [[E - V a, -1], [1, 0]] scaled by L = den(E) den(V)
    so that every entry stays an integer."""
    L = E.denominator * V.denominator
    d0 = E.numerator * V.denominator
    d1 = d0 - V.numerator * E.denominator
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in word:
        d = d1 if a else d0
        m00, m01, m10, m11 = d * m00 - L * m10, d * m01 - L * m11, L * m00, L * m01
    tr = m00 + m11
    v = tr * tr - 4 * L ** (2 * len(word))
    return (v > 0) - (v < 0)


def check_bands(bands: list[tuple[Fraction, Fraction, Fraction, Fraction]], r: Fraction, V: Fraction, tol: Fraction) -> None:
    """bands: (lower.lo, lower.hi, upper.lo, upper.hi) per band, sorted."""
    q = r.denominator
    word = mechanical_word(r.numerator, q)
    require(len(bands) == q, f"{r}: {len(bands)} bands, wanted {q}")
    for i, (a, b, c, d) in enumerate(bands):
        require(a <= b <= c <= d, f"{r}: band {i} enclosures out of order")
        require(b - a <= tol and d - c <= tol, f"{r}: band {i} edge wider than tol")
        if i:
            require(bands[i - 1][3] < a, f"{r}: bands {i - 1} and {i} not disjoint")
        require(disc_sign(word, V, a) >= 0 and disc_sign(word, V, b) <= 0, f"{r}: no sign change at lower edge {i}")
        require(disc_sign(word, V, c) <= 0 and disc_sign(word, V, d) >= 0, f"{r}: no sign change at upper edge {i}")


def bands_from_json(obj: dict) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(s) for s in band) for band in obj["bands"]]


def check_points(bands, points, above: bool, tol: Fraction, label: str) -> None:
    """q points, one in the gap above each band (upper limit) or below it
    (lower limit), each at most tol wide."""
    q = len(bands)
    require(len(points) == q, f"{label}: {len(points)} defect points, wanted {q}")
    for j, (lo, hi) in enumerate(points):
        require(lo <= hi and hi - lo <= tol, f"{label}: point {j} wider than tol")
        if above:
            require(lo > bands[j][3], f"{label}: point {j} not above its band")
            require(j + 1 == q or hi < bands[j + 1][0], f"{label}: point {j} escaped its gap")
        else:
            require(hi < bands[j][0], f"{label}: point {j} not below its band")
            require(j == 0 or lo > bands[j - 1][3], f"{label}: point {j} escaped its gap")


# ---------------------------------------------------------------------------
# Reference enclosures


def outward(lo: Fraction, hi: Fraction) -> list[float]:
    """Float enclosure containing [lo, hi]."""
    return [math.nextafter(float(lo), -math.inf), math.nextafter(float(hi), math.inf)]


def overlaps(enc, ref, label: str) -> None:
    lo, hi = Fraction(enc[0]), Fraction(enc[1])
    require(lo <= hi, f"{label}: empty enclosure")
    require(lo <= Fraction(ref[1]) and Fraction(ref[0]) <= hi, f"{label}: {float(lo)}..{float(hi)} misses reference {ref}")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Fast butterfly rows

_LINE = re.compile(r"<line ")
_CIRCLE = re.compile(r"<circle ")
WIDE_BAND = Fraction(1, 10**6)


def check_butterfly(ds, csv: str, svg: str, V: Fraction, sample_rows) -> tuple[int, int]:
    """Structure of every row, and exact checks on sampled rows: the
    midpoint of every band wider than WIDE_BAND satisfies |t| <= 2, and every
    defect point lies in a gap.
    Returns (rows, rows with an error)."""
    n_bands = n_points = failed = 0
    for row in ds.rows:
        label = f"V={V} row {row.p}/{row.q}"
        bands = [(float(lo[1:]), float(hi[1:])) for lo, hi in row.bands]
        require(len(bands) == row.q, f"{label}: {len(bands)} bands")
        for i, (lo, hi) in enumerate(bands):
            require(lo < hi and (i == 0 or bands[i - 1][1] < lo), f"{label}: bands out of order")
        sides = [("plus", row.defects_plus), ("minus", row.defects_minus)]
        expected = {
            "plus": 0 if row.p == row.q else row.q,
            "minus": 0 if row.p == 0 else row.q,
        }
        if row.error is None:
            for side, pts in sides:
                require(len(pts) == expected[side], f"{label}: {len(pts)} {side} points")
        else:
            failed += 1
            for side, pts in sides:
                require(len(pts) in (0, expected[side]), f"{label}: partial {side} points")
                require(pts or expected[side] == 0 or f"defect_{side}" in row.error, f"{label}: {side} points dropped without an error")
        n_bands += len(bands)
        n_points += len(row.defects_plus) + len(row.defects_minus)
    require(csv.count("\n") == 1 + n_bands + n_points, f"V={V}: CSV line count")
    require(len(_LINE.findall(svg)) == n_bands and len(_CIRCLE.findall(svg)) == n_points, f"V={V}: SVG marker count")
    for row in sample_rows:
        word = mechanical_word(row.p, row.q)
        for lo, hi in row.bands:
            lo, hi = Fraction(float(lo[1:])), Fraction(float(hi[1:]))
            if hi - lo < WIDE_BAND:
                continue  # float edges of a narrower band need not enclose it
            require(disc_sign(word, V, (lo + hi) / 2) <= 0, f"V={V} row {row.p}/{row.q}: band midpoint outside the spectrum")
        for lo, hi in row.defects_plus + row.defects_minus:
            mid = (Fraction(float(lo[1:])) + Fraction(float(hi[1:]))) / 2
            require(disc_sign(word, V, mid) > 0, f"V={V} row {row.p}/{row.q}: defect point inside a band")
    return len(ds.rows), failed
