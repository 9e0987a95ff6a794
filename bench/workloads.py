"""The workloads: seeded inputs, the timed task, and its output check.

Inputs come in rounds.  A run measures whole rounds only, and the rounds
of a workload cost about the same, so the throughput of a run does not
depend on where the clock ran out.

Every task goes through the public entry points that kohmoto.cli calls.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from kohmoto import analysis, spectra
from kohmoto.farey import format_rational

import checks

V = Fraction(5)
BANDS_TOL = Fraction(1, 10**9)
DEFECT_TOL = Fraction(1, 10**6)
DEFECT_KMAX = 6
BUTTERFLY_Q = 25
MAX_ROUNDS = 40


def coprime(q: int) -> list[int]:
    return [p for p in range(q + 1) if math.gcd(p, q) == 1]


def one_sided(r: Fraction) -> list[str]:
    sides = []
    if r != 1:
        sides.append(format_rational(r) + "+")
    if r != 0:
        sides.append(format_rational(r) + "-")
    return sides


def split_point(text: str) -> tuple[Fraction, str]:
    return Fraction(text[:-1]), "plus" if text.endswith("+") else "minus"


# ---------------------------------------------------------------------------
# bands_sweep: spectrum_periodic(r, 5, 1e-9) and its JSON, distinct p/q with
# 15 <= q <= 60 and 1/5 <= p/q <= 4/5.  Nearly all time is exact sign
# evaluation in rootfind.  Near 0 and 1 the same q costs up to half as much
# again, so those p are left out to keep the cost of a q steady.


def bands_rounds(rng: random.Random) -> list[list[Fraction]]:
    """Round i takes q = 15 + (i mod 5) + 5j <= 60, so every seed runs the
    same denominators in the same rounds and only the numerators vary."""
    unused = {q: [p for p in coprime(q) if q <= 5 * p <= 4 * q] for q in range(15, 61)}
    rounds = []
    for i in range(MAX_ROUNDS):
        qs = range(15 + i % 5, 61, 5)
        if not all(unused[q] for q in qs):
            break
        rnd = [Fraction(unused[q].pop(rng.randrange(len(unused[q]))), q) for q in qs]
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def bands_task(r: Fraction) -> dict:
    return spectra.spectrum_periodic(r, V, BANDS_TOL).to_json_obj()


def bands_check(r: Fraction, out: dict, ref: dict) -> None:
    checks.require(Fraction(out["tol"]) == BANDS_TOL and not out["points"], f"{r}: tol or points")
    checks.check_bands(checks.bands_from_json(out), r, V, BANDS_TOL)


# ---------------------------------------------------------------------------
# defect_optimality: optimality_certificate at one-sided points with q <= 5.
# The points pair up as mirror images r+ <-> (1-r)- (the potential of 1-r is
# V minus that of r, so their spectra are reflections and cost the same);
# a round takes one point of each pair, so every round costs about the same.
# The limits 1/q- and (q-1)/q+ with q >= 4 are left out: their defect
# approximants converge slowly, and one of them costs as much as a round.


def _slow_limit(pt: str) -> bool:
    r, side = split_point(pt)
    q = r.denominator
    return q >= 4 and ((r.numerator == 1 and side == "minus") or (r.numerator == q - 1 and side == "plus"))


def mirror(pt: str) -> str:
    r, side = split_point(pt)
    return format_rational(1 - r) + ("-" if side == "plus" else "+")


DEFECT_POINTS = [
    pt
    for q in range(1, 6)
    for p in coprime(q)
    for pt in one_sided(Fraction(p, q))
    if not _slow_limit(pt)
]
DEFECT_PAIRS = [(pt, mirror(pt)) for pt in DEFECT_POINTS if DEFECT_POINTS.index(pt) < DEFECT_POINTS.index(mirror(pt))]


def defect_rounds(rng: random.Random) -> list[list[str]]:
    rounds = []
    for _ in range(MAX_ROUNDS):
        rnd = [rng.choice(pair) for pair in DEFECT_PAIRS]
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def defect_task(pt: str) -> dict:
    r, side = split_point(pt)
    return analysis.optimality_certificate(r, side, V, DEFECT_KMAX, DEFECT_TOL).to_json_obj()


def defect_reference(pt: str, out: dict) -> dict:
    r, side = split_point(pt)
    spec = spectra.defect_spectrum(r, side, V, DEFECT_TOL)
    return {
        "points": [checks.outward(lo, hi) for lo, hi in spec.points],
        "mu": checks.outward(*(Fraction(x) for x in out["mu"])),
        "rows": {
            str(row["k"]): {
                "r_k": row["r_k"],
                "d_F": row["d_F"],
                "d_H": checks.outward(*(Fraction(x) for x in row["d_H"])),
                "D_k": None if row["D_k"] is None else checks.outward(*(Fraction(x) for x in row["D_k"])),
            }
            for row in out["rows"]
        },
    }


def defect_check(pt: str, out: dict, ref: dict) -> None:
    ref = ref["defect_optimality"][pt]
    r, side = split_point(pt)
    # The certificate's own defect spectrum is still in the memo until the
    # next task clears it, so reading it back here is cheap and untimed.
    spec = spectra.defect_spectrum(r, side, V, DEFECT_TOL)
    bands = [(lo.lo, lo.hi, hi.lo, hi.hi) for lo, hi in spec.bands]
    checks.check_bands(bands, r, V, DEFECT_TOL)
    checks.check_points(bands, list(spec.points), side == "plus", DEFECT_TOL, pt)
    for j, (enc, renc) in enumerate(zip(spec.points, ref["points"])):
        checks.overlaps(enc, renc, f"{pt} defect point {j}")
    checks.require(out["step4_all_certified"] is True, f"{pt}: lower-bound dichotomy not certified")
    checks.require(out["l0"] is not None and out["subsequence"], f"{pt}: no extracted subsequence")
    checks.overlaps(out["mu"], ref["mu"], f"{pt} measure")
    checks.require(sorted(str(row["k"]) for row in out["rows"]) == sorted(ref["rows"]), f"{pt}: rows")
    for row in out["rows"]:
        rrow = ref["rows"][str(row["k"])]
        label = f"{pt} k={row['k']}"
        checks.require(row["r_k"] == rrow["r_k"] and row["d_F"] == rrow["d_F"], f"{label}: Farey data")
        checks.overlaps(row["d_H"], rrow["d_H"], f"{label} d_H")
        if row["D_k"] is not None and rrow["D_k"] is not None:
            checks.overlaps(row["D_k"], rrow["D_k"], f"{label} D_k")


# ---------------------------------------------------------------------------
# butterfly_fast: butterfly(25, V, fast) with its SVG and CSV, couplings on
# the grid k/4 in [1/2, 8].  Float and render path only; rows that drop
# defect points (PrecisionError) are the failed operations.

BUTTERFLY_COUPLINGS = [Fraction(k, 4) for k in range(2, 33)]


def butterfly_rounds(rng: random.Random) -> list[list[Fraction]]:
    return [[rng.choice(BUTTERFLY_COUPLINGS)] for _ in range(8 * MAX_ROUNDS)]


def butterfly_task(coupling: Fraction):
    ds = analysis.butterfly(BUTTERFLY_Q, coupling, backend="fast")
    return ds, ds.to_csv(), ds.to_svg()


def butterfly_check(coupling: Fraction, out, ref: dict) -> tuple[int, int]:
    ds, csv, svg = out
    rng = random.Random(f"{coupling}")
    sample = rng.sample(ds.rows[2:], 2)
    return checks.check_butterfly(ds, csv, svg, coupling, sample)


class Workload(NamedTuple):
    name: str
    rounds: Callable  # rng -> list of rounds, each a list of task inputs
    task: Callable  # input -> output (the timed part)
    check: Callable  # (input, output, reference) -> None or (rows, failed rows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bands_sweep", bands_rounds, bands_task, bands_check),
        Workload("defect_optimality", defect_rounds, defect_task, defect_check),
        Workload("butterfly_fast", butterfly_rounds, butterfly_task, butterfly_check),
    )
}


def record_reference(log) -> dict:
    """Reference enclosures for every input the seeded generators can draw
    (run once, at the seed commit)."""
    ref = {"defect_optimality": {}}
    for pt in DEFECT_POINTS:
        spectra.clear_memos()
        ref["defect_optimality"][pt] = defect_reference(pt, defect_task(pt))
        log(f"reference {pt}")
    return ref
