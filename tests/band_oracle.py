"""The unsplit isolation of band edges, kept as an oracle: the roots of
t - 2 and t + 2 isolated whole, each guided by all eigenvalues of the
periodic or antiperiodic one-period operator.  `spectra.spectrum_from_trace`
isolates the reflection factors instead and must give the same bytes
wherever this grid certifies."""

from __future__ import annotations

import numpy as np

from kohmoto.errors import PrecisionError
from kohmoto.farey import as_fraction
from kohmoto.rootfind import isolate_roots, separate
from kohmoto.spectra import Spectrum, _bloch_matrix


def ring_eigenvalues(word: str, V, anti: bool) -> list[float]:
    m = _bloch_matrix(word, float(as_fraction(V)), -1.0 if anti else 1.0)
    return [float(x) for x in np.linalg.eigvalsh(m)]


def unsplit_spectrum(t, tol, word: str, V) -> Spectrum:
    """`spectrum_from_trace` on t -+ 2 whole."""
    tol = as_fraction(tol)
    q = t.degree()
    roots_upper = isolate_roots(
        (t - 2).int_poly(), guide=ring_eigenvalues(word, V, anti=False), width=tol
    )
    roots_lower = isolate_roots(
        (t + 2).int_poly(), guide=ring_eigenvalues(word, V, anti=True), width=tol
    )
    assert len(roots_upper) == q and len(roots_lower) == q
    edges = [e.refined(tol) for e in separate(roots_upper + roots_lower)]
    bands = []
    for i in range(0, 2 * q, 2):
        lo, hi = edges[i], edges[i + 1]
        if abs(t.eval((lo.hi + hi.lo) / 2)) > 2:
            raise PrecisionError("band midpoint escaped the trace window")
        bands.append((lo, hi))
    return Spectrum(tuple(bands), (), tol)
