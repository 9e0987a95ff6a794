import gc
import os
import random
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohmoto.analysis import (
    FAST_SLOP,
    ButterflyDataset,
    _butterfly_row,
    _outside_bands,
    butterfly,
    lipschitz_sweep,
    measure_experiments,
    optimality_certificate,
    point_spectrum,
)
from kohmoto.errors import PreconditionError, UnsupportedRegimeError
from kohmoto.farey import FareyPoint as P

V5 = F(5)
TOL = F(1, 10**9)


def test_lipschitz_endpoint_pair():
    max_ratio, rows = lipschitz_sweep([(P.exact(F(0)), P.exact(F(1)))], V5, TOL)
    assert rows[0].d_farey == 1
    assert abs(max_ratio - 5) < F(1, 10**6)
    with pytest.raises(PreconditionError):
        lipschitz_sweep([(P.exact(F(1, 2)), P.exact(F(1, 2)))], V5, TOL)


def test_lipschitz_random_pairs_stable():
    rng = random.Random(19)
    pairs = []
    while len(pairs) < 100:
        q1, q2 = rng.randint(1, 25), rng.randint(1, 25)
        x, y = F(rng.randint(0, q1), q1), F(rng.randint(0, q2), q2)
        if x != y:
            pairs.append((P.exact(x), P.exact(y)))
    pairs += [
        (P.plus(F(0)), P.exact(F(1, 5))),
        (P.minus(F(1, 2)), P.exact(F(1, 3))),
        (P.plus(F(2, 3)), P.minus(F(3, 4))),
    ]
    m1, rows1 = lipschitz_sweep(pairs, V5, TOL)
    m2, rows2 = lipschitz_sweep(pairs, V5, TOL)
    assert m1 == m2 and rows1 == rows2
    assert all(row.ratio_upper > 0 for row in rows1)
    assert m1 < 100  # finite, sane scale for the Lipschitz constant at V = 5


def test_lipschitz_diophantine_column():
    # |1/3 - 2/7| = 1/21 < 1/49? no; use alpha = 13/21 vs 5/8: |.| = 1/168 < 1/64 yes
    _, rows = lipschitz_sweep([(P.exact(F(13, 21)), P.exact(F(5, 8)))], V5, TOL)
    assert rows[0].scaled_qd is not None
    _, rows = lipschitz_sweep([(P.exact(F(0)), P.exact(F(1)))], V5, TOL)
    assert rows[0].scaled_qd is None


def test_point_spectrum_dispatch():
    spec = point_spectrum(P.plus(F(0)), V5, TOL)
    assert len(spec.points) == 1
    with pytest.raises(PreconditionError):
        point_spectrum(P.parse("cf:[0,0]per[1]"), V5, TOL)


def test_optimality_certificate_zero_plus():
    rep = optimality_certificate(F(0), "plus", V5, 10, TOL)
    assert rep.C1 == F(1, 2)
    assert rep.mu == (F(4), F(4))
    assert rep.subsequence and min(rep.subsequence) >= 2
    assert rep.step4_all_certified
    assert all(row.step3_certified for row in rep.rows)
    for row in rep.rows:
        assert row.d_farey == F(1, row.k)  # d_F(0+, 1/k) = 1/k
        if row.k in rep.subsequence:
            assert rep.C1 * row.d_farey <= row.overlap_defect[1]
            assert row.overlap_defect[0] <= row.d_hausdorff[1]
            assert row.d_hausdorff[0] <= rep.C2_observed * row.d_farey


def test_hausdorff_column_decays_like_the_farey_distance():
    rep = optimality_certificate(F(0), "plus", V5, 12, TOL)
    hs = [row.d_hausdorff[1] for row in rep.rows]
    assert hs[-1] < hs[1] and hs[-1] < F(1, 3)
    # consistent with the Lipschitz estimate: d_H / d_F stays bounded
    assert all(
        row.d_hausdorff[1] / row.d_farey < 30 for row in rep.rows if row.k >= 2
    )


def test_optimality_guards():
    with pytest.raises(UnsupportedRegimeError):
        optimality_certificate(F(1, 2), "plus", F(2), 10, TOL)
    with pytest.raises(PreconditionError):
        optimality_certificate(F(0), "plus", V5, 3, TOL)


def test_measure_experiments_zero():
    rep = measure_experiments(F(0), V5, 6)
    assert len(rep.rows) == 6
    assert rep.pair_inequality_certified
    assert rep.mu == (F(4), F(4))
    overlaps = [row.overlap[1] for row in rep.rows]
    assert overlaps[0] == 0  # sigma_1 misses [-2,2] entirely at V=5
    assert all(o <= F(4) for o in overlaps)
    assert all(row.sub_half for row in rep.rows)
    empty = measure_experiments(F(2, 3), V5, 0)
    assert empty.rows == ()


def test_measure_experiments_interior_rational():
    rep = measure_experiments(F(2, 3), V5, 5)
    assert rep.pair_inequality_certified
    assert all(row.overlap[1] <= rep.mu[1] for row in rep.rows)
    assert any(row.sub_half for row in rep.rows)
    assert [row.r_k.denominator for row in rep.rows] == [3 * k + 1 for k in range(1, 6)]


def test_butterfly_certified_small():
    ds = butterfly(1, V5, "certified", True, F(1, 10**6))
    assert [(r.q, r.p) for r in ds.rows] == [(1, 0), (1, 1)]
    row0, row1 = ds.rows
    assert len(row0.bands) == 1 and len(row0.defects_plus) == 1 and not row0.defects_minus
    assert len(row1.bands) == 1 and len(row1.defects_minus) == 1 and not row1.defects_plus
    assert row0.error is None and row1.error is None
    lo, hi = (F(x) for x in row0.bands[0])
    assert lo <= -2 and hi >= 2
    ds3 = butterfly(3, V5, "certified", True, F(1, 10**6))
    row23 = next(r for r in ds3.rows if (r.q, r.p) == (3, 2))
    assert len(row23.bands) == 3
    assert len(row23.defects_plus) == 3 and len(row23.defects_minus) == 3


def test_certified_butterfly_places_defect_points_near_band_edges():
    # at V = -3 the 1/14+ points lie closer to their band edges than the
    # default tol 1e-6, so only exact root comparison places them
    ds = butterfly(14, F(-3), "certified")
    assert [(r.q, r.p, r.error) for r in ds.rows if r.error] == []
    row = next(r for r in ds.rows if (r.q, r.p) == (14, 1))
    assert len(row.defects_plus) == 14


def test_butterfly_fast_deterministic_and_schema():
    ds1 = butterfly(8, V5, "fast", True)
    ds2 = butterfly(8, V5, "fast", True)
    assert ds1.to_csv() == ds2.to_csv()
    assert ds1.to_svg() == ds2.to_svg()
    lines = ds1.to_csv().splitlines()
    assert lines[0] == "q,p,kind,lo,hi"
    kinds = {line.split(",")[2] for line in lines[1:]}
    assert kinds <= {"band", "defect_plus", "defect_minus"}
    assert all("~" in line for line in lines[1:])  # fast values are tagged
    obj = ds1.to_json_obj()
    assert obj["backend"] == "fast" and obj["Q"] == 8
    # every row keeps its bands even if a defect estimate failed
    assert all(row.bands for row in ds1.rows)


def test_butterfly_fast_matches_certified_bands():
    ds = butterfly(4, V5, "fast", False)
    from kohmoto.spectra import spectrum_periodic

    for row in ds.rows:
        spec = spectrum_periodic(F(row.p, row.q), V5, F(1, 10**9))
        assert len(row.bands) == len(spec.bands)
        for (flo, fhi), (clo, chi) in zip(row.bands, spec.bands):
            assert abs(float(flo[1:]) - float(clo.lo)) < 1e-6
            assert abs(float(fhi[1:]) - float(chi.lo)) < 1e-6


def comment_text(message: str) -> str:
    """A message as XML comment text: markup escaped, and hyphen pairs
    split until none is left."""
    text = escape(message)
    while "--" in text:
        text = text.replace("--", "- -")
    return text


def string_parsing_svg(ds, width: int = 800, height: int = 600) -> str:
    """The SVG render that reads every value back from the row strings:
    the oracle for `ButterflyDataset.to_svg`, which draws from the values
    the strings were formatted from, and marks each failed row with a
    comment."""

    def parse(s: str) -> float:
        return float(s[1:]) if s.startswith("~") else float(F(s))

    parsed = [
        tuple(
            [(parse(lo), parse(hi)) for lo, hi in part]
            for part in (row.bands, row.defects_plus, row.defects_minus)
        )
        for row in ds.rows
    ]
    vals = [x for parts in parsed for part in parts for pair in part for x in pair]
    if not vals:
        vals = [0.0, 1.0]
    e_lo, e_hi = min(vals), max(vals)
    pad = 0.05 * (e_hi - e_lo) or 1.0
    e_lo, e_hi = e_lo - pad, e_hi + pad

    def sx(e: float) -> float:
        return 40 + (width - 60) * (e - e_lo) / (e_hi - e_lo)

    def sy(r: float) -> float:
        return height - 30 - (height - 60) * r

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for row, (bands, plus, minus) in zip(ds.rows, parsed):
        if row.error:
            out.append(f"<!-- {row.p}/{row.q} failed: {comment_text(row.error)} -->")
        y = sy(row.p / row.q)
        for lo, hi in bands:
            x1, x2 = sx(lo), sx(hi)
            out.append(
                f'<line x1="{x1:.2f}" y1="{y:.2f}" x2="{x2:.2f}" y2="{y:.2f}" '
                f'stroke="black" stroke-width="1.2"/>'
            )
        for points, color in ((plus, "#cc0000"), (minus, "#0044cc")):
            for lo, hi in points:
                x = sx((lo + hi) / 2)
                out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.2" fill="{color}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("V", [V5, F(1, 2), F(8)])
@pytest.mark.parametrize("Q, backend", [(8, "certified"), (12, "fast")])
def test_svg_matches_the_string_parsing_render(Q, backend, V):
    ds = butterfly(Q, V, backend)
    assert ds.to_svg() == string_parsing_svg(ds)
    assert ds.to_svg(width=333, height=201) == string_parsing_svg(ds, 333, 201)
    # at V = 8 the fast rows of 1/12+ and 11/12- fail and draw no points
    assert any(row.error for row in ds.rows) == (backend == "fast" and V == 8)


def test_svg_comment_of_a_failed_row_cannot_end_the_comment_or_draw():
    message = "defect_plus: <line x1='0'/> --> <circle r='1'/> a---b & c-"
    # the row 1/3 with no band or point, and the message as its error text
    ds = ButterflyDataset(3, V5, "fast", True, ((3, 1, (0, 0, 0), message),), np.zeros(0))
    svg = ds.to_svg()
    assert svg == string_parsing_svg(ds)
    comments = [line for line in svg.splitlines() if line.startswith("<!--")]
    assert comments == [f"<!-- 1/3 failed: {comment_text(message)} -->"]
    body = comments[0][len("<!-- ") : -len(" -->")]
    assert not any(bad in body for bad in ("--", "<line ", "<circle "))
    assert [el.tag for el in ET.fromstring(svg)] == ["{http://www.w3.org/2000/svg}rect"]


def stored_rows(ds) -> dict:
    """(q, p) -> (error text, [bands, plus points, minus points]) of a
    dataset, each part a list of (lo, hi) pairs of the numbers it stores."""
    return {
        (q, p): (error, [list(zip(ds.ends[s][0::2], ds.ends[s][1::2])) for s in parts])
        for q, p, error, parts in ds._row_parts()
    }


# at V = 8 the fast backend drops defect points of 1/12+ and so of 11/12-
@pytest.mark.parametrize("V, failed", [(V5, 0), (F(2), 0), (F(1, 2), 0), (F(8), 1)])
def test_butterfly_fast_mirrored_rows_match_direct_rows(V, failed):
    ds = butterfly(12, V, "fast", True)
    mirrored = {(q, p): row for (q, p), row in stored_rows(ds).items() if 2 * p > q > 2}
    assert len(mirrored) == 22
    assert sum(error is not None for error, _ in mirrored.values()) == failed
    for (q, p), (error, parts) in mirrored.items():
        direct = _butterfly_row(F(p, q), V, "fast", True, None)
        assert error == direct.error_text()
        for got, want in zip(parts, (direct.bands, direct.plus, direct.minus)):
            assert len(got) == len(want)
            for pair, (lo, hi) in zip(got, want):
                # the stored ends are widened by the slop the strings print
                for s, t in zip(pair, (lo - FAST_SLOP, hi + FAST_SLOP)):
                    assert abs(s - t) <= 2e-12


def test_butterfly_rows_are_formatted_on_access_as_every_artifact_prints_them():
    ds = butterfly(12, F(8), "fast")
    rows = ds.rows
    assert rows == ds.rows and rows is not ds.rows and "rows" not in vars(ds)
    assert any(row.error for row in rows)
    printed = [
        f"{row.q},{row.p},{kind},{lo},{hi}"
        for row in rows
        for kind, part in (
            ("band", row.bands), ("defect_plus", row.defects_plus), ("defect_minus", row.defects_minus)
        )
        for lo, hi in part
    ]
    assert ds.to_csv().splitlines() == ["q,p,kind,lo,hi", *printed]
    assert ds.to_json_obj()["rows"] == [
        {
            "q": row.q,
            "p": row.p,
            "bands": [list(b) for b in row.bands],
            "defects_plus": [list(b) for b in row.defects_plus],
            "defects_minus": [list(b) for b in row.defects_minus],
            "error": row.error,
        }
        for row in rows
    ]


def test_fast_butterfly_keeps_its_values_as_numbers_only():
    # the float64 ends and the row layout take about 0.2 MB at Q = 25; a
    # ~%.12e string kept per interval end would add about 1.9 MB
    butterfly(25, V5, "fast")  # any memo the rows fill stays out of the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = butterfly(25, V5, "fast")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
    assert len(ds.rows) == 201


# rows of the fast backend that drop defect points, at the benchmark's Q = 25
@pytest.mark.parametrize("V, most", [(F(2), 4), (F(8), 36)])
def test_butterfly_fast_failed_rows_at_q25(V, most):
    assert sum(row.error is not None for row in butterfly(25, V, "fast").rows) <= most


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0, 4e-9), min_size=2, max_size=12),
    st.lists(st.floats(-5e-9, 5e-8), max_size=30),
)
def test_band_filter_matches_scan_of_every_band(steps, zeros):
    # sorted edges whose gaps and widths straddle the 2e-9 total widening
    edges = [sum(steps[: i + 1]) for i in range(len(steps) - len(steps) % 2)]
    bands = list(zip(edges[::2], edges[1::2]))
    want = [z for z in zeros if not any(lo - 1e-9 <= z <= hi + 1e-9 for lo, hi in bands)]
    assert _outside_bands(zeros, bands) == want


def test_fast_butterfly_does_not_import_scipy():
    code = (
        "import sys\n"
        "from kohmoto.analysis import butterfly\n"
        "butterfly(8, 5, 'fast')\n"
        "print('scipy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_butterfly_guards():
    with pytest.raises(PreconditionError):
        butterfly(0, V5)
    # from 2^52 on, an ulp of the float V is at least the unit hopping
    with pytest.raises(PreconditionError, match="2\\^52"):
        butterfly(2, 2**52, backend="fast")
    with pytest.raises(PreconditionError, match="2\\^52"):
        butterfly(2, -(2**52), backend="fast")
    assert len(butterfly(2, 2**52 - 1, backend="fast", include_defects=False).rows) == 3
    with pytest.raises(PreconditionError):
        butterfly(2, V5, backend="quick")
