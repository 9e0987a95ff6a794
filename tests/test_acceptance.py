"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s`)."""

import itertools
import math
import random
import time
from fractions import Fraction as F

from kohmoto.analysis import butterfly, optimality_certificate
from kohmoto.farey import (
    FareyPoint as P,
    cf_eval,
    cf_forms,
    farey_distance,
)
from kohmoto.sets import EnclosedSet, lebesgue
from kohmoto.spectra import (
    defect_spectrum,
    extension_traces,
    _trace_triples,
    spectrum_from_trace,
    spectrum_periodic,
)
from kohmoto.tree import boundary_distance, path_of
from kohmoto.words import (
    Configuration,
    complexity,
    defect_config,
    limit_configuration,
    period_word,
    sk_words,
    subshift_distance,
)
from kohmoto.farey import QuadraticIrrational

import symbolic_ring
from defect_oracle import finite_section_eigs, finite_section_modes
from farey_helpers import farey_set
from set_helpers import certainly_disjoint_triple

V5 = F(5)


def report(num, ok, text, t0):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {text} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {num} failed: {text}"


def reduced_rationals(max_q):
    out = []
    for q in range(1, max_q + 1):
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1:
                out.append(F(p, q))
    return sorted(set(out), key=lambda r: (r.denominator, r.numerator))


def test_criterion_01_band_counts():
    t0 = time.time()
    ok = True
    for V in (F(1, 2), F(2), F(5)):
        for r in reduced_rationals(40):
            spec = spectrum_periodic(r, V, F(1, 10**6))
            if len(spec.bands) != r.denominator:
                ok = False
            for (_, h1), (l2, _) in zip(spec.bands, spec.bands[1:]):
                if not h1.hi < l2.lo:
                    ok = False
    report(1, ok, "q certified-disjoint bands for all q <= 40, V in {1/2, 2, 5}", t0)


def test_criterion_02_closed_form_spectra():
    t0 = time.time()
    tol = F(1, 10**12)
    spec = spectrum_periodic(F(1, 2), V5, tol)
    scale = 10**24
    s41 = math.isqrt(41 * scale * scale)
    targets = [
        (5 - F(s41 + 1, scale)) / 2,
        F(0),
        F(5),
        (5 + F(s41, scale)) / 2,
    ]
    edges = [spec.bands[0][0], spec.bands[0][1], spec.bands[1][0], spec.bands[1][1]]
    ok = all(abs((e.lo + e.hi) / 2 - t) <= F(1, 10**9) for e, t in zip(edges, targets))
    s0 = spectrum_periodic(F(0), V5, tol)
    s1 = spectrum_periodic(F(1), V5, tol)
    ok = ok and s0.bands[0][0].lo <= -2 <= s0.bands[0][0].hi
    ok = ok and s0.bands[0][1].lo <= 2 <= s0.bands[0][1].hi
    ok = ok and s1.bands[0][0].lo <= 3 <= s1.bands[0][0].hi
    ok = ok and s1.bands[0][1].lo <= 7 <= s1.bands[0][1].hi
    report(2, ok, "sigma_{1/2}(5), sigma_0, sigma_1(5) match their closed forms", t0)


def _random_points(rng, count, max_den):
    pts = []
    while len(pts) < count:
        q = rng.randint(1, max_den)
        p = rng.randint(0, q)
        if math.gcd(p, q) != 1:
            continue
        r = F(p, q)
        kind = rng.choice(["exact", "plus", "minus"])
        if kind == "plus" and r < 1:
            pts.append(P.plus(r))
        elif kind == "minus" and r > 0:
            pts.append(P.minus(r))
        else:
            pts.append(P.exact(r))
    return pts


def test_criterion_03_isometry_dictionaries():
    t0 = time.time()
    rng = random.Random(303)
    checked, ok = 0, True
    while checked < 200:
        x, y = _random_points(rng, 2, 30)
        want = farey_distance(x, y)
        if want == 0:
            continue
        d, certified = subshift_distance(
            limit_configuration(x), limit_configuration(y), 64
        )
        if not certified or d != want:
            ok = False
        checked += 1
    report(3, ok, "dictionary metric equals Farey metric on 200 random pairs", t0)


def test_criterion_04_isometry_tree():
    t0 = time.time()
    rng = random.Random(404)

    def sample():
        total = rng.randint(1, 12)
        digits = []
        while total > 0:
            d = rng.randint(1, total)
            digits.append(d)
            total -= d
        r = cf_eval([0, 0] + digits)
        kind = rng.choice(["exact", "plus", "minus"])
        if kind == "plus" and r < 1:
            return P.plus(r)
        if kind == "minus" and r > 0:
            return P.minus(r)
        return P.exact(r)

    checked, ok = 0, True
    while checked < 200:
        x, y = sample(), sample()
        want = farey_distance(x, y)
        if want == 0:
            continue
        got = boundary_distance(path_of(x, 14), path_of(y, 14))
        if got != want:
            ok = False
        checked += 1
    report(4, ok, "boundary metric equals Farey metric on 200 random pairs, depth 14", t0)


def test_criterion_05_distance_oracle():
    t0 = time.time()
    grids = {m: farey_set(m) for m in range(1, 30)}

    def oracle(alpha, beta):
        if alpha == beta:
            return F(0)
        if alpha in (F(0), F(1)) or beta in (F(0), F(1)):
            return F(1)
        best = None
        for m in itertools.count(1):
            grid = grids[m]
            if not any(lo < alpha < hi and lo < beta < hi for lo, hi in zip(grid, grid[1:])):
                return best
            best = F(1, m + 1)

    rats = farey_set(12)
    ok = all(farey_distance(a, b) == oracle(a, b) for a in rats for b in rats)
    report(5, ok, "metric agrees with the interval-enumeration oracle, q <= 12", t0)


def test_criterion_06_defect_placement():
    t0 = time.time()
    tol = F(1, 10**6)
    ok = True
    for r in (F(2, 3), F(1, 4), F(7, 9)):
        base = spectrum_periodic(r, V5, tol)
        for side in ("plus", "minus"):
            spec = defect_spectrum(r, side, V5, tol)
            if len(spec.points) != r.denominator:
                ok = False
            for j, (plo, phi) in enumerate(spec.points):
                if phi - plo > tol:
                    ok = False
                if side == "plus":
                    if not plo > base.bands[j][1].hi:
                        ok = False
                    if j + 1 < len(base.bands) and not phi < base.bands[j + 1][0].lo:
                        ok = False
                else:
                    if not phi < base.bands[j][0].lo:
                        ok = False
                    if j >= 1 and not plo > base.bands[j - 1][1].hi:
                        ok = False
    report(6, ok, "q defect points per side, one per gap, correctly interleaved", t0)


def test_criterion_07_single_impurity_eigenvalue():
    t0 = time.time()
    spec = defect_spectrum(F(0), "plus", V5, F(1, 10**9))
    lo, hi = spec.points[0]
    scale = 10**24
    s29lo = F(math.isqrt(29 * scale * scale), scale)
    s29hi = s29lo + F(1, scale)
    ok = len(spec.points) == 1 and lo - F(1, 10**9) <= s29lo and s29hi <= hi + F(1, 10**9)
    evs = [e for e in finite_section_eigs(Configuration.defect("0", "1"), V5, 2001) if e > 2.1]
    ok = ok and len(evs) == 1 and abs(evs[0] - math.sqrt(29)) < 1e-6
    report(7, ok, "impurity eigenvalue encloses sqrt(29), finite sections agree", t0)


def test_criterion_08_essential_spectrum():
    t0 = time.time()
    tol = F(1, 10**6)
    ok = True
    cases = [(F(0), "plus"), (F(1), "minus"), (F(2, 3), "plus"), (F(2, 3), "minus"),
             (F(1, 4), "plus"), (F(1, 4), "minus"), (F(7, 9), "plus"), (F(7, 9), "minus")]
    for r, side in cases:
        spec = defect_spectrum(r, side, V5, tol)
        base = spectrum_periodic(r, V5, tol)
        if spec.bands != base.bands:
            ok = False
        vals, mass = finite_section_modes(defect_config(r, side), V5, 2001)
        bulk = [v for v, m in zip(vals, mass) if m < 0.1]
        bands = [(float(l.lo) - 1e-4, float(h.hi) + 1e-4) for l, h in base.bands]
        points = [(float(lo) - 1e-4, float(hi) + 1e-4) for lo, hi in spec.points]
        for lo, hi in points:
            hits = [v for v in bulk if lo <= v <= hi]
            if len(hits) != 1:
                ok = False
        for v in bulk:
            if not any(lo <= v <= hi for lo, hi in bands + points):
                ok = False
    report(8, ok, "band parts identical; one bulk cluster per gap point at N=2001", t0)


def test_criterion_09_fricke_invariant():
    t0 = time.time()
    E, Vs = symbolic_ring.E, symbolic_ring.V
    target = Vs * Vs + 4
    ok = (2 * 2 + E * E + (E - Vs) * (E - Vs) - 2 * E * (E - Vs)) == target
    for n in (1, 2, 3):
        for digs in itertools.product((1, 2, 3), repeat=n):
            for A, B, C in _trace_triples((0, 0) + digs, E, Vs):
                if (A * A + B * B + C * C - A * B * C) != target:
                    ok = False
    for digs in itertools.product((1, 2, 3), repeat=4):
        A, B, C = _trace_triples((0, 0) + digs, E, Vs)[-1]
        if (A * A + B * B + C * C - A * B * C) != target:
            ok = False
    report(9, ok, "Fricke invariant holds symbolically, depth <= 5, digits <= 3", t0)


def test_criterion_10_optimality_certificates():
    t0 = time.time()
    ok = True
    for r, side in ((F(0), "plus"), (F(2, 3), "minus"), (F(1, 2), "plus")):
        rep = optimality_certificate(r, side, V5, 40, F(1, 10**6))
        if not rep.step4_all_certified or not all(row.step3_certified for row in rep.rows):
            ok = False
        if not rep.subsequence:
            ok = False
        if r == 0:
            if rep.C1 != F(1, 2):
                ok = False
            if any(row.d_farey != F(1, row.k) for row in rep.rows):
                ok = False
        for row in rep.rows:
            if row.k not in rep.subsequence:
                continue
            if row.overlap_defect is None or not rep.C1 * row.d_farey <= row.overlap_defect[0]:
                ok = False
            if not row.overlap_defect[0] <= row.d_hausdorff[1]:
                ok = False
            if not row.d_hausdorff[0] <= rep.C2_observed * row.d_farey:
                ok = False
    report(10, ok, "two-sided estimates certified at 0+, (2/3)-, (1/2)+ with Kmax 40", t0)


def test_criterion_11_measure_identities():
    t0 = time.time()
    tol = F(1, 10**9)
    ok = True
    for r, side in ((F(0), "plus"), (F(1), "minus"), (F(2, 3), "plus"), (F(2, 3), "minus"),
                    (F(1, 4), "minus"), (F(7, 9), "plus")):
        if lebesgue(defect_spectrum(r, side, V5, tol)) != lebesgue(
            spectrum_periodic(r, V5, tol)
        ):
            ok = False
    for r in (F(0), F(1, 2), F(2, 3), F(2, 5)):
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
            if not certainly_disjoint_triple(base, specs[k], specs[k + 1]):
                ok = False
    report(11, ok, "defect measures equal band measures; triple overlaps empty", t0)


def test_criterion_12_complexity_laws():
    t0 = time.time()
    ok = True
    for r in reduced_rationals(12):
        q = r.denominator
        periodic = Configuration.periodic(period_word(r))
        for n in range(1, 3 * q + 1):
            if complexity(periodic, n) != (q if n >= q else n + 1):
                ok = False
        for side in ("plus", "minus"):
            if (r, side) in ((F(0), "minus"), (F(1), "plus")):
                continue
            cfg = defect_config(r, side)
            for n in range(1, 3 * q + 1):
                if complexity(cfg, n) != n + 1:
                    ok = False
    golden = QuadraticIrrational.from_digits([0, 0], [1])
    silver = QuadraticIrrational.from_digits([0, 0], [2])
    for irr in (golden, silver):
        for n in range(1, 13):
            if complexity(irr, n) != n + 1:
                ok = False
    report(12, ok, "complexity laws hold for periodic, defect, Sturmian windows", t0)


def test_criterion_13_butterfly_reproduction():
    t0 = time.time()
    ds1 = butterfly(25, V5, "fast", True)
    ds2 = butterfly(25, V5, "fast", True)
    ok = ds1.to_csv() == ds2.to_csv() and ds1.to_svg() == ds2.to_svg()
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "butterfly_q25_v5.svg"
    body = golden.read_text().splitlines()
    # the golden file is CLI output: without its invocation header
    body = "\n".join(line for line in body if not line.startswith("<!-- kohmoto ")) + "\n"
    ok = ok and ds1.to_svg() == body
    report(13, ok, "butterfly dataset byte-stable across runs, matches golden", t0)
