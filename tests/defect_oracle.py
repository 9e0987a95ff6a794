"""Test oracles for `spectra.defect_spectrum`: the approximant enclosure
of the defect eigenvalues, the side decision by a Lipschitz bound, and
floating finite-section eigenvalues and modes.

Extending the approach string of a one-sided limit by a digit k gives
approximants whose bands, apart from those inside the periodic spectrum,
escape onto the q defect points as k grows.  k doubles until every
escaping band is at most tol wide and disjoint from the periodic spectrum,
and the escaping bands are the point enclosures.

The halving oracle decides each root of t_u^2 - V^2 - 4 by showing G+ or
G- non-zero on its enclosure with a global slope bound, halving the
enclosure until one of them is; `defect_spectrum` decides the same roots by
the exact split of t_u^2 - V^2 - 4 into its gcds with G+ and G-."""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

from kohmoto.errors import PreconditionError, PrecisionError
from kohmoto.farey import approach_digits, as_fraction, check_rotation
from kohmoto.polyring import RP
from kohmoto.rootfind import RootEnclosure, _eval_homogeneous, sign_at
from kohmoto.spectra import (
    MAX_K,
    _split_escaping,
    extension_traces,
    floquet_defect_estimates,
    spectrum_from_trace,
    spectrum_periodic,
    trace_triples,
)
from kohmoto.words import Configuration, period_word, sk_words

from rootfind_oracle import grid_of, halved, is_exact, isolate


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


def certified_nonzero(g: RP, a: int, b: int, exp: int) -> bool:
    """True when g has no root in [lo, hi] = [a / 2^exp, b / 2^exp]: |g(mid)|
    exceeds the bound sum_k k |c_k| R^(k-1) * width/2 on |g(x) - g(mid)|,
    R = max(|lo|, |hi|).  An exact enclosure [x, x] is decided by g(x)
    itself.

    With d = 2^exp, both sides are scaled by (2d)^n, n = deg g, so the test
    runs on integers."""
    c = g.num
    d = 1 << exp
    if a == b:
        return sign_at(c, a, d) != 0
    n = len(c) - 1
    slope = [k * abs(ck) for k, ck in enumerate(c)][1:] or [0]
    bound = _eval_homogeneous(slope, max(abs(a), abs(b)), d)  # d^(n-1) * sum
    return 2 * abs(_eval_homogeneous(c, a + b, 2 * d)) > bound * (b - a) << n


def halving_defect_points(r, side: str, V, tol) -> list[RootEnclosure]:
    """The point enclosures of the one-sided limit of r, each root of
    t_u^2 - V^2 - 4 refined to tol and then halved until t_u has one sign s
    on it and `certified_nonzero` shows G_-s non-zero (a point of this
    side) or G_s non-zero (a point of the other side), within 256 halvings."""
    r, V = check_rotation(as_fraction(r)), as_fraction(V)
    t_v, t_u, t_uv = trace_triples(approach_digits(r, side), V)[-1]
    P = t_u * t_v - 2 * t_uv
    D = t_u * t_u - (V * V + 4)
    g_plus, g_minus = P - abs(V) * t_v, P + abs(V) * t_v
    roots = isolate(
        D.int_poly(), guide=floquet_defect_estimates(period_word(r), V), width=tol
    )
    points = []
    for enc in roots:
        enc = enc.refined(grid_of(tol))
        for _ in range(256):
            lo, hi, exp = enc.lo_num, enc.hi_num, enc.exp
            s = sign_at(t_u.num, lo, 1 << exp)
            if s != 0 and s == sign_at(t_u.num, hi, 1 << exp):
                g_same, g_other = (g_plus, g_minus) if s > 0 else (g_minus, g_plus)
                if certified_nonzero(g_other, lo, hi, exp):
                    points.append(enc)
                    break
                if certified_nonzero(g_same, lo, hi, exp):
                    break
            if is_exact(enc):
                raise PrecisionError("G+ and G- both vanish at an exact defect root")
            enc = halved(enc, 1)
        else:
            raise PrecisionError("side of a defect root not decided after 256 halvings")
    return points


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


def finite_section_eigs(config: Configuration, V, N: int) -> list[float]:
    """Eigenvalues of the N x N truncation centered at the origin."""
    if N < 3 or N % 2 == 0:
        raise PreconditionError("finite section size must be odd and >= 3")
    half = (N - 1) // 2
    v = float(as_fraction(V))
    diag = np.array([v * int(config.at(n)) for n in range(-half, half + 1)])
    return list(eigh_tridiagonal(diag, np.ones(N - 1), eigvals_only=True))
