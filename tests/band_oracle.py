"""The unsplit isolation of band edges, kept as an oracle: the roots of
t - 2 and t + 2 isolated whole, each guided by all eigenvalues of the
periodic or antiperiodic one-period operator.  `spectra.spectrum_from_trace`
isolates the reflection factors instead, each on its own grid, and must
give enclosures nested with these wherever this grid certifies.

t -+ 2 is proportional to det(E - H) for the real symmetric periodic or
antiperiodic operator H of the period, so all its q roots are real.  Then
q disjoint sign-change cells of the grid that `isolate_roots` lays are a
complete certificate: each holds a root, and there are no more.  The
oracle builds no Sturm chain of full degree unless the cells fail.

`list_path_determinant` is the oracle of the head of `rootfind.sturm_chain`:
the same three-term recurrence, one coefficient at a time."""

from __future__ import annotations

import numpy as np

from kohmoto.errors import PrecisionError
from kohmoto.farey import as_fraction
from kohmoto.rootfind import _grid_cells, cauchy_bound, degree, primitive, separate
from kohmoto.spectra import Spectrum, _bloch_matrix, _reflection

from rootfind_oracle import grid_of, isolate


def ring_eigenvalues(word: str, V, anti: bool) -> list[float]:
    m = _bloch_matrix(word, float(as_fraction(V)), -1.0 if anti else 1.0)
    return [float(x) for x in np.linalg.eigvalsh(m)]


def isolate_real_rooted(p, guide: list[float], width):
    """`isolate` for a polynomial whose roots are all real: the same
    cells when as many as its degree certify, from the same grid."""
    p = primitive(p)
    if len(guide) == degree(p):
        cells = _grid_cells(tuple(p), guide, cauchy_bound(p), width)
        if cells is not None:
            return cells
    return isolate(p, guide=guide, width=width)


def unsplit_spectrum(t, tol, word: str, V) -> Spectrum:
    """`spectrum_from_trace` on t -+ 2 whole."""
    tol = as_fraction(tol)
    q = t.degree()
    roots_upper = isolate_real_rooted(
        (t - 2).int_poly(), ring_eigenvalues(word, V, anti=False), tol
    )
    roots_lower = isolate_real_rooted(
        (t + 2).int_poly(), ring_eigenvalues(word, V, anti=True), tol
    )
    assert len(roots_upper) == q and len(roots_lower) == q
    edges = [e.refined(grid_of(tol)) for e in separate(roots_upper + roots_lower)]
    bands = []
    for i in range(0, 2 * q, 2):
        lo, hi = edges[i], edges[i + 1]
        if abs(t.eval((lo.hi + hi.lo) / 2)) > 2:
            raise PrecisionError("band midpoint escaped the trace window")
        bands.append((lo, hi))
    return Spectrum(tuple(bands), (), tol)


def dense_sector_matrices(word: str, V, anti: bool) -> tuple[np.ndarray, np.ndarray]:
    """The reflection sectors of `spectra._sector_paths` as the dense
    change of basis B^T H B: an n x n basis with columns e_j + sign e_Rj,
    even sector first, each in path order (the centre of w[:s], the pairs of
    w[:s] from the middle out, those of w[s:] from the outside in, the
    centre of w[s:]), and two n x n products.  The fold writes the same
    entries up to the signs of the links, so the matrices must agree bit for
    bit on the diagonal and in absolute value."""
    n = len(word)
    shift = _reflection(word)
    m = _bloch_matrix(word, float(as_fraction(V)), -1.0 if anti else 1.0)
    h1, h2 = shift // 2, (n - shift) // 2
    pairs = [*range(h1 - 1, -1, -1), *range(shift, shift + h2)]
    centre1 = [h1] if shift % 2 else []
    centre2 = [shift + h2] if (n - shift) % 2 else []
    even = ([] if anti else centre1) + pairs + centre2
    odd = (centre1 if anti else []) + pairs
    cols = even + odd
    mirror = [(shift - 1 - j) % n for j in cols]
    sign = [-1.0 if anti and j < shift else 1.0 for j in even]
    sign += [1.0 if anti and j < shift else -1.0 for j in odd]
    basis = np.zeros((n, n))
    basis[cols + mirror, list(range(n)) * 2] = [1.0] * n + sign
    inv_norm2 = [1.0 if j == r else 0.5 for j, r in zip(cols, mirror)]
    h = (basis.T @ m @ basis) * np.sqrt(np.outer(inv_norm2, inv_norm2))
    k = len(even)
    return h[:k, :k], h[k:, k:]


def list_path_determinant(diag: list[int], beta: list[int], b: int) -> list[int]:
    """b^k det(E - J) for the Jacobi matrix J with diagonal diag / b and
    squared off-diagonals beta, by D_j = (bE - c_j) D_(j-1)
    - b^2 beta_(j-1) D_(j-2) on coefficient lists, lowest first."""
    lo, hi = [0], [1]
    for c, y in zip(diag, [0, *beta]):
        out = [0] * (len(hi) + 1)
        for i, x in enumerate(hi):
            out[i + 1] += b * x
            out[i] -= c * x
        for i, x in enumerate(lo):
            out[i] -= b * b * y * x
        lo, hi = hi, out
    return hi
