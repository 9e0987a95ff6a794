"""Test oracles for `spectra.defect_spectrum`: the approximant enclosure
of the defect eigenvalues, and floating finite-section modes.

Extending the approach string of a one-sided limit by a digit k gives
approximants whose bands, apart from those inside the periodic spectrum,
escape onto the q defect points as k grows.  k doubles until every
escaping band is at most tol wide and disjoint from the periodic spectrum,
and the escaping bands are the point enclosures."""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

from kohmoto.errors import PreconditionError, PrecisionError
from kohmoto.farey import as_fraction
from kohmoto.spectra import (
    MAX_K,
    _split_escaping,
    approach_digits,
    extension_traces,
    spectrum_from_trace,
    spectrum_periodic,
)
from kohmoto.words import Configuration, sk_words


def approximant_defect_points(r, side: str, V, tol) -> tuple:
    """The q defect point enclosures of the one-sided limit of r, from the
    escaping bands of approximants k = 1, 2, 4, ... up to MAX_K."""
    digits = approach_digits(r, side)
    base = spectrum_periodic(r, V, tol)
    k_next = 1
    for k, t in extension_traces(digits, V):
        if k != k_next:
            continue
        approx = spectrum_from_trace(t, tol / 4, word=sk_words(digits + (k,))[-1], V=V)
        _, escaping, rels = _split_escaping(approx, base)
        if all(b.hi - a.lo <= tol for a, b in escaping) and all(rel == "outside" for rel in rels):
            points = tuple((a.lo, b.hi) for a, b in escaping)
            _check_hull_placement(base, points, above=(side == "plus") == (V > 0))
            return points
        if 2 * k_next > MAX_K:
            raise PrecisionError(f"approximants did not converge by k = {k_next}")
        k_next *= 2


def _check_hull_placement(base, points, above: bool) -> None:
    """`spectra._check_point_placement` at enclosure resolution, for point
    hulls that enclose no root of a known polynomial: each hull lies
    strictly beside its band and inside its gap."""
    bands = base.bands
    q = len(bands)
    for j, (plo, phi) in enumerate(points):
        if above:
            ok = plo > bands[j][1].hi and (j + 1 == q or phi < bands[j + 1][0].lo)
        else:
            ok = phi < bands[j][0].lo and (j == 0 or plo > bands[j - 1][1].hi)
        if not ok:
            raise PrecisionError("escaping band hull is not in its gap")


def finite_section_modes(config: Configuration, V, N: int, edge_frac: float = 0.05):
    """Eigenvalues of the N x N truncation centered at the origin, with the
    probability mass each eigenvector carries in the outer edge_frac of the
    window (to filter boundary modes)."""
    if N < 3 or N % 2 == 0:
        raise PreconditionError("finite section size must be odd and >= 3")
    half = (N - 1) // 2
    v = float(as_fraction(V))
    diag = np.array([v * int(config.at(n)) for n in range(-half, half + 1)])
    vals, vecs = eigh_tridiagonal(diag, np.ones(N - 1))
    m = max(1, int(edge_frac * N))
    mass = (vecs[:m] ** 2).sum(axis=0) + (vecs[-m:] ** 2).sum(axis=0)
    return list(vals), list(mass)
