import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohmoto import rootfind
from kohmoto.errors import DegeneracyError, PreconditionError
from kohmoto.polyring import RP
from kohmoto.rootfind import (
    RootEnclosure,
    compare_roots,
    poly_gcd,
    separate,
    sign_at,
    sturm_chain,
)

import rootfind_oracle
import symbolic_ring
from polyring_helpers import coeffs, from_fractions, is_zero
from rootfind_oracle import (
    chain_matches_oracle,
    count_roots,
    enclosure,
    grid_of,
    grid_search,
    halved,
    halvings,
    is_exact,
    isolate,
    prem_normal,
    primitive_sturm_chain,
    remainder_chain,
    resorting_separate,
    two_pass_prem_normal,
)
from symbolic_ring import BP


def poly_from_roots(roots):
    """Integer polynomial with exactly the given rational roots."""
    p = [1]
    for r in roots:
        r = F(r)
        q = [0] * (len(p) + 1)
        for i, c in enumerate(p):
            q[i] += -r.numerator * c
            q[i + 1] += r.denominator * c
        p = q
    return p


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_sturm_chain_counts():
    # x^2 - 2 = det(E - J) for J = [[0, sqrt2], [sqrt2, 0]]
    chain = sturm_chain([0, 0], [2], 1)
    assert chain == [[-2, 0, 1], [0, 1], [1]]
    assert count_roots(chain, -2, 2, 0) == 2
    assert count_roots(chain, 0, 2, 0) == 1
    assert count_roots(chain, 3, 4, 1) == 0  # (3/2, 2)


def test_enclosure_ends_are_dyadic():
    enc = enclosure((-3, 4), F(3, 4), F(7, 8))
    assert (enc.lo_num, enc.hi_num, enc.exp) == (6, 7, 3)
    assert (enc.lo, enc.hi) == (F(3, 4), F(7, 8))
    # integer ends are reduced, so equal intervals compare equal
    assert RootEnclosure((-3, 4), 12, 14, 4) == enc
    assert enc.ends_at(5) == (24, 28)
    for lo, hi in ((F(1, 3), F(1, 2)), (F(1, 2), F(7, 10)), (F(1, 10**9), F(1))):
        with pytest.raises(PreconditionError, match="not dyadic"):
            enclosure((-3, 4), lo, hi)


def test_isolation_random_integer_roots():
    rng = random.Random(9)
    for _ in range(30):
        roots = sorted(rng.sample(range(-40, 40), rng.randint(1, 9)))
        p = poly_from_roots(roots)
        encs = isolate(p)
        assert len(encs) == len(roots)
        assert len({id(enc.poly) for enc in encs}) == 1
        for enc, want in zip(encs, roots):
            assert enc.lo <= want <= enc.hi
            tight = enc.refined(-20)  # 2^-20 <= 1e-6
            assert tight.hi - tight.lo <= F(1, 10**6)
            assert tight.lo <= want <= tight.hi


def test_isolation_with_float_guides():
    roots = [-5, -1, 0, 2, 7]
    p = poly_from_roots(roots)
    guide = [float(x) for x in np.roots(p[::-1]).real]
    encs = isolate(p, guide=guide)
    assert len(encs) == 5
    # garbage guides must not break certification
    encs = isolate(p, guide=[-100.0, 0.1, 0.2, 0.3, 99.0])
    assert len(encs) == 5


def test_exact_rational_roots_detected():
    encs = isolate([0, -5, 1])  # x(x - 5)
    assert len(encs) == 2
    refined = [e.refined(-10) for e in encs]  # 2^-10 <= 1/1000
    assert refined[0].lo <= 0 <= refined[0].hi
    assert refined[1].lo <= 5 <= refined[1].hi
    assert any(is_exact(e) for e in refined)


def test_multiple_root_raises():
    with pytest.raises(DegeneracyError):
        remainder_chain([1, -2, 1])  # (x-1)^2
    with pytest.raises(DegeneracyError):
        isolate([0, 0, 1])  # x^2


def test_sturm_chain_matches_the_primitive_chain():
    # x^5 - x: the remainder of x^5 - x by 5x^4 - 1 has degree 1, a
    # defective step; the others mix normal and defective steps, monic or not
    for p in (
        [0, -1, 0, 0, 0, 1],
        [0, -1, 0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0, 0, 0, -3, 0, 1],
        poly_from_roots([0, 1, F(1, 2), -1, 2]),
        poly_from_roots(range(-6, 7)),
        [-2, 0, 1],
        [3, 1],
        [7],
    ):
        assert chain_matches_oracle(p), p


def test_multiple_roots_raise_in_both_chains():
    p = poly_mul(poly_mul([-1, 1], [-1, 1]), [2, 1])  # (x - 1)^2 (x + 2)
    for chain in (remainder_chain, primitive_sturm_chain):
        with pytest.raises(DegeneracyError):
            chain(p)


sparse_coefficients = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5, -12, 40])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(sparse_coefficients, min_size=1, max_size=12), st.sampled_from([1, -1, 3]))
def test_sturm_chain_matches_the_primitive_chain_on_sparse_polynomials(low, lead):
    assert chain_matches_oracle(low + [lead])


wide_coefficients = st.one_of(
    st.just(0),
    st.integers(1, 2000).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits)),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.lists(wide_coefficients, min_size=1, max_size=24),
    st.lists(sparse_coefficients, min_size=1, max_size=24),
)
def test_one_pass_prem_normal_matches_two_division_steps(a, b):
    b = b[:-1] + [b[-1] or 1]
    a = (a + [0] * len(b))[: len(b)] + [a[-1] or 1]
    assert prem_normal(a, b) == two_pass_prem_normal(a, b)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_packed_product_matches_the_schoolbook_product(la, lb, data):
    a = data.draw(st.lists(wide_coefficients, min_size=la, max_size=la))
    b = data.draw(st.lists(wide_coefficients, min_size=lb, max_size=lb))
    assert rootfind.poly_mul(a, b) == poly_mul(a, b)


def test_packed_product_edge_cases():
    # zero factors, all-negative digits that borrow through every slot,
    # 2000-bit coefficients and a lone large negative leading coefficient
    n = 40
    zero, ones, minus = [0] * n, [1] * n, [-1] * n
    big = [(-1) ** i * (1 << 1999) for i in range(n)]
    lone = [0] * (n - 1) + [-(1 << 64)]
    for a, b in ((zero, big), ([0], [0]), (ones, minus), (minus, minus), (big, big), (minus, lone)):
        assert rootfind.poly_mul(a, b) == poly_mul(a, b)
        assert rootfind.poly_mul(b, a) == poly_mul(b, a)


def test_subresultant_division_is_checked_under_python_O():
    # a remainder that lc(a)^2 does not divide must raise, also without
    # asserts; the second step of the remainder chain of x^5 - 5x^3 + 4x
    # divides by 5^2
    code = (
        "from unittest import mock\n"
        "import rootfind_oracle\n"
        "prem = rootfind_oracle.prem_normal\n"
        "def off_by_one(a, b):\n"
        "    r = prem(a, b)\n"
        "    return [r[0] + 1] + r[1:]\n"
        "with mock.patch.object(rootfind_oracle, 'prem_normal', off_by_one):\n"
        "    try:\n"
        "        rootfind_oracle.remainder_chain([0, 4, 0, -5, 0, 1])\n"
        "    except rootfind_oracle.PrecisionError as exc:\n"
        "        print(exc)\n"
    )
    here = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)])),
    )
    assert (proc.returncode, proc.stdout) == (0, "subresultant division left a remainder\n")


def test_separate_orders_and_disjoins():
    a = isolate([-2, 0, 1])  # +-sqrt2
    b = isolate([-3, 0, 1])  # +-sqrt3
    out = separate(a + b)
    for x, y in zip(out, out[1:]):
        assert x.hi < y.lo


def test_compare_roots_equality_across_polynomials():
    sqrt2_a = isolate([-2, 0, 1])[1]
    sqrt2_b = isolate([-4, 0, 0, 0, 1])[1]
    sqrt3 = isolate([-3, 0, 1])[1]
    assert compare_roots(sqrt2_a, sqrt2_b) == 0
    assert compare_roots(sqrt2_a, sqrt3) == -1
    assert compare_roots(sqrt3, sqrt2_b) == 1


def test_compare_roots_sees_only_the_gcd_root_in_the_intersection():
    # the gcd (x - 1)(x^2 - 2) of both polynomials has its root 1 at
    # lo - (hi - lo)/1024, just outside the shared enclosure of sqrt2: the
    # sign change across the intersection is sqrt2's alone
    g = poly_mul([-1, 1], [-2, 0, 1])
    lo, hi = 1 + F(1, 2048), F(3, 2) + F(1, 2048)
    assert lo - (hi - lo) / 1024 == 1
    a = enclosure(g, lo, hi)
    b = enclosure(poly_mul(g, [5, 1]), lo, hi)
    assert compare_roots(a, b) == 0
    # the gcd has a second root 2^-10 + 2^-31 above the shared root 1, inside
    # the narrow enclosure but not in its intersection [1, 1] with the exact one
    s = 1 + F(1, 1 << 10) + F(1, 1 << 31)
    h = poly_from_roots([1, s])
    exact = enclosure(h, 1, 1)
    narrow = enclosure(poly_from_roots([1, s, -3]), 1 - F(1, 1 << 31), 1 + F(1, 1 << 31))
    assert compare_roots(exact, narrow) == 0
    assert compare_roots(narrow, exact) == 0


def test_compare_roots_exact_against_narrow_enclosure_of_another_root():
    y = 1 + F(1, 1 << 40)
    exact = enclosure((-1, 1), 1, 1)
    narrow = enclosure(poly_from_roots([y]), 1 - F(1, 1 << 31), 1 + F(1, 1 << 31))
    assert compare_roots(exact, narrow) == -1
    assert compare_roots(narrow, exact) == 1


def test_poly_gcd():
    p = poly_from_roots([1, 2, 3])
    q = poly_from_roots([2, 3, 4])
    g = poly_gcd(p, q)
    assert g == poly_from_roots([2, 3])
    assert poly_gcd([2, 0, 2], [3, 3]) == [1]


def test_sign_at():
    p = [-2, 0, 1]
    assert sign_at(p, 0, 1) == -1
    assert sign_at(p, 2, 1) == 1
    assert sign_at(p, 141421356, 100000000) == -1


# --- polynomial rings ---------------------------------------------------------


def test_rp_arithmetic():
    E, V = RP([0, 1]), RP.const(5)
    t = E * E - V * E - 2
    assert coeffs(t) == [F(-2), F(-5), F(1)]
    assert t.eval(F(0)) == -2
    assert t.eval(F(-7, 3)) == F(49, 9) + F(35, 3) - 2
    assert (t * F(1, 6)).eval(F(1, 2)) == (F(1, 4) - F(5, 2) - 2) / 6
    assert is_zero(t - t)
    half = RP.const(F(1, 2))
    assert coeffs(half + half) == [F(1)]
    assert (E * half * 2) == E


int_coefficients = st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=6)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    int_coefficients,
    int_coefficients,
    st.integers(-50, 50),
    st.sampled_from([F(1), F(1, 2), F(-7, 3)]),
)
def test_rp_integer_paths_match_fraction_coefficients(a, b, k, scale):
    # denominator-1 operands take the integer paths; a scaled copy the
    # general ones; both must give the coefficients of Fraction arithmetic
    def termwise(x, y, op):
        n = max(len(x), len(y))
        x, y = x + [0] * (n - len(x)), y + [0] * (n - len(y))
        return [op(F(u), F(v)) for u, v in zip(x, y)]

    product = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    A, B = RP(a), RP(b)
    for x, y, s in ((A, B, F(1)), (A * scale, B * scale, scale)):
        assert x + y == from_fractions(termwise(a, b, lambda u, v: (u + v) * s))
        assert x - y == from_fractions(termwise(a, b, lambda u, v: (u - v) * s))
        assert x * y == from_fractions([c * s * s for c in product])
        assert -x == from_fractions([-F(c) * s for c in a])
        assert x + k == k + x == from_fractions(termwise(a, [k], lambda u, v: u * s + v))
        assert x * k == k * x == from_fractions([c * s * k for c in a])
        assert k - x == from_fractions(termwise(a, [k], lambda u, v: v - u * s))
    for x in (A + B, A - B, A * B, -A, A + k, k - A, A * k):
        assert x.den == 1 and (len(x.num) == 1 or x.num[-1] != 0)


def test_bp_symbolic_arithmetic():
    E, V = symbolic_ring.E, symbolic_ring.V
    t = E * E - V * E - 2
    En, Vn = RP([0, 1]), RP.const(7)
    tn = En * En - Vn * En - 2
    # substitute V = 7 row by row: c[i][j] is the coefficient of E^i V^j
    subbed = [F(sum(c * 7**j for j, c in enumerate(row))) for row in t.c]
    assert subbed == coeffs(tn)
    assert (t * t - t * t).is_zero()
    assert V * V == BP([[0, 0, 1]])
    # products with large and negative coefficients against the schoolbook
    # convolution of the arrays
    rng = random.Random(3)
    for _ in range(40):
        a = [[rng.randint(-10**30, 10**30) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 6))]
        b = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 6))]
        out = [[0] * 9 for _ in range(11)]
        for i, ra in enumerate(a):
            for k, rb in enumerate(b):
                for j, x in enumerate(ra):
                    for l, y in enumerate(rb):
                        out[i + k][j + l] += x * y
        assert BP(a) * BP(b) == BP(out)
        assert BP(a) + BP(b) - BP(b) == BP(a)


# --- float-seeded grid certificates (property tests) --------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

rational_roots = st.lists(
    st.builds(F, st.integers(-300, 300), st.integers(1, 30)),
    min_size=1,
    max_size=8,
    unique=True,
)
widths = st.sampled_from([F(1, 2**10), F(1, 2**20), F(1, 10**6), F(1, 10**9)])
noise = st.floats(-1e-12, 1e-12)


def sign(p, x):
    return sign_at(p, x.numerator, x.denominator)


def check_certified(p, roots, encs):
    """One enclosure per root, sorted with disjoint interiors, each holding
    its root and, by a Sturm count, no other."""
    chain = remainder_chain(p)
    assert len(encs) == len(roots)
    for enc, root in zip(encs, sorted(roots)):
        assert enc.lo <= root <= enc.hi
        if is_exact(enc):
            assert sign(p, enc.lo) == 0
        else:
            assert sign(p, enc.lo) * sign(p, enc.hi) == -1
            assert count_roots(chain, enc.lo_num, enc.hi_num, enc.exp) == 1
    for a, b in zip(encs, encs[1:]):
        assert a.hi <= b.lo


@PROPERTY
@given(rational_roots, widths, st.data())
def test_grid_cells_certify_accurate_guesses(roots, width, data):
    p = poly_from_roots(roots)
    guide = [float(r) + data.draw(noise) for r in roots]
    with mock.patch.object(rootfind_oracle, "chain_bisection", side_effect=AssertionError):
        encs = isolate(p, guide=guide, width=width)
    check_certified(p, roots, encs)
    assert all(a.hi < b.lo for a, b in zip(encs, encs[1:]))
    assert all(enc.hi - enc.lo <= width for enc in encs)
    assert len({id(enc.poly) for enc in encs}) == 1


@PROPERTY
@given(
    rational_roots.filter(lambda r: len(r) >= 2),
    widths,
    st.lists(st.floats(-400, 400), max_size=9),
)
def test_merged_or_garbage_guesses_fall_back(roots, width, garbage):
    p = poly_from_roots(roots)
    merged = [float(roots[0])] * len(roots)
    fallback = mock.patch.object(
        rootfind_oracle, "chain_bisection", wraps=rootfind_oracle.chain_bisection
    )
    with fallback as spy:
        check_certified(p, roots, isolate(p, guide=merged, width=width))
    assert spy.call_count == 1
    check_certified(p, roots, isolate(p, guide=garbage, width=width))


@PROPERTY
@given(rational_roots, widths.filter(lambda w: w <= F(1, 2**20)), st.data())
def test_grid_cells_do_not_depend_on_last_bits_of_guesses(roots, width, data):
    # roots with denominators <= 30 lie >= 1/900 apart, so the grid spacing
    # is set by the width alone while each guess moves by a few ULPs
    p = poly_from_roots(roots)
    guide = [float(r) + data.draw(noise) for r in roots]
    moved = []
    for g in guide:
        toward = data.draw(st.sampled_from([-np.inf, np.inf]))
        for _ in range(data.draw(st.integers(1, 4))):
            g = float(np.nextafter(g, toward))
        moved.append(g)
    with mock.patch.object(rootfind_oracle, "chain_bisection", side_effect=AssertionError):
        encs = isolate(p, guide=guide, width=width)
        again = isolate(p, guide=moved, width=width)
    assert [(e.lo, e.hi) for e in encs] == [(e.lo, e.hi) for e in again]


def test_close_guesses_leave_the_other_roots_on_the_width_grid():
    # two roots 2^-20 apart make the guided grid finer than width; the root
    # far from them is widened back to its cell of the width grid, the one
    # that Sturm bisection and `refined` give it, while the close pair
    # keeps its finer cells
    width = F(1, 2**10)
    roots = [F(1, 10), F(1, 10) + F(1, 2**20), F(1, 2) + F(1, 3000)]
    p = poly_from_roots(roots)
    guided = isolate(p, guide=[float(r) for r in roots], width=width)
    bisected = [e.refined(grid_of(width)) for e in isolate(p, width=width)]
    assert guided[2] == bisected[2] and (guided[2].lo, guided[2].hi) == (F(512, 1024), F(513, 1024))
    assert all(e.hi - e.lo < width for e in guided[:2])
    check_certified(p, roots, guided)


@PROPERTY
@given(rational_roots, st.integers(-(2**12), 2**12), st.data())
def test_root_on_a_grid_point_is_exact(roots, k, data):
    width = F(1, 2**10)
    on_grid = k * width
    roots = [r for r in roots if abs(r - on_grid) > F(1, 30)] + [on_grid]
    p = poly_from_roots(roots)
    guide = [float(r) + data.draw(noise) for r in roots]
    encs = isolate(p, guide=guide, width=width)
    check_certified(p, roots, encs)
    assert any(is_exact(enc) and enc.lo == on_grid for enc in encs)


# --- integer loops against plain-Fraction references (property tests) --------
# Each reference is the Fraction form of the rule the integer loop runs, or an
# oracle of rootfind_oracle; both must return the same enclosures after the
# same exact signs at the same points.


def recording_sign_at(seen):
    def wrapped(p, num, den):
        seen.append(F(num, den))
        return sign_at(p, num, den)

    return mock.patch.object(rootfind, "sign_at", wrapped)


def refined_ref(enc, max_width, seen):
    """enc bisected at midpoints until it lies in one cell of the dyadic
    grid of spacing 2^floor(log2 max_width)."""
    h = F(2) ** grid_of(max_width)

    def wide(lo, hi):
        return math.ceil(hi / h) - math.floor(lo / h) > 1

    lo, hi = enc.lo, enc.hi
    if not wide(lo, hi):
        return enc

    def s(x):
        seen.append(x)
        return sign(enc.poly, x)

    s_lo = s(lo)
    while wide(lo, hi):
        m = (lo + hi) / 2
        s_m = s(m)
        if s_m == 0:
            return enclosure(enc.poly, m, m)
        if s_m == s_lo:
            lo = m
        else:
            hi = m
    return enclosure(enc.poly, lo, hi)


def separate_ref(encs, seen):
    out = list(encs)
    while True:
        out.sort(key=lambda r: (r.lo + r.hi, r.lo))
        changed = False
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            if a.hi >= b.lo and not (is_exact(a) and is_exact(b)):
                width = (a.hi - a.lo + b.hi - b.lo) / 4
                out[i] = refined_ref(a, width, seen)
                out[i + 1] = refined_ref(b, width, seen)
                changed = True
        if not changed:
            return sorted(out, key=lambda r: (r.lo, r.hi))


def grid_cells_ref(poly, guide, lo_all, hi_all, width, seen):
    approx = sorted(F(g) for g in guide)
    caps = [b - a for a, b in zip(approx, approx[1:])]
    if any(c == 0 for c in caps):
        return None
    m = min([c / 3 for c in caps] + [hi_all - lo_all, width])
    h = F(2) ** (m.numerator.bit_length() - m.denominator.bit_length())
    if h > m:
        h /= 2
    signs = {}

    def s(k):
        if k not in signs:
            seen.append(k * h)
            signs[k] = sign(poly, k * h)
        return signs[k]

    def cell(k):
        for j in (k, k + 1):
            if s(j) == 0:
                return enclosure(poly, j * h, j * h)
        if s(k) != s(k + 1):
            return enclosure(poly, k * h, (k + 1) * h)
        return None

    roots = []
    for g in approx:
        k = math.floor(g / h)
        enc = cell(k) or cell(k - 1 if g - k * h < (k + 1) * h - g else k + 1)
        if enc is None or enc.lo < lo_all or enc.hi > hi_all:
            return None
        roots.append(enc)
    roots.sort(key=lambda r: (r.lo, r.hi))
    if any(a.hi >= b.lo for a, b in zip(roots, roots[1:])):
        return None
    return roots


def ends(encs):
    return None if encs is None else [(e.lo, e.hi) for e in encs]


# enclosure ends are dyadic: roots with power-of-two denominators, and
# shares of the distance to a neighbouring root with power-of-two
# denominators
dyadic_roots = st.lists(
    st.builds(F, st.integers(-300, 300), st.sampled_from([1, 2, 4, 8, 16, 32])),
    min_size=1,
    max_size=8,
    unique=True,
)
shares = st.builds(
    lambda n, d: F(n % d or 1, d),
    st.integers(1, 2000),
    st.sampled_from([2, 4, 8, 16, 128, 1024]),
)
all_widths = st.sampled_from([F(1, 3), F(1, 2**10), F(1, 10**6), F(1, 2**30), F(1, 10**12)])
grids = st.integers(-42, 6)


@st.composite
def isolating_enclosures(draw):
    """Enclosures of every root of a polynomial with dyadic roots, each
    reaching a share of the way to the neighbouring roots (so neighbours
    may overlap), some exact: brackets on no grid."""
    roots = sorted(draw(dyadic_roots))
    p = tuple(poly_from_roots(roots))
    encs = []
    for i, r in enumerate(roots):
        if draw(st.integers(0, 5)) == 0:
            encs.append(enclosure(p, r, r))
            continue
        left = r - roots[i - 1] if i else F(1)
        right = roots[i + 1] - r if i + 1 < len(roots) else F(1)
        encs.append(enclosure(p, r - left * draw(shares), r + right * draw(shares)))
    return draw(st.permutations(encs))


@st.composite
def aligned_cells(draw):
    """The enclosures that isolation makes, around distinct rational roots,
    each on its own linear polynomial: a cell [k 2^c, (k + 1) 2^c] of a
    dyadic grid, a power-of-two window [-2^c, 2^c] (Sturm bisection's
    first), or [r, r] at a dyadic root; they nest in and chain across each
    other."""
    roots = st.builds(F, st.integers(-300, 300), st.sampled_from([1, 2, 4, 8, 32, 3, 5, 12, 1024]))
    encs = []
    for r in draw(st.lists(roots, min_size=1, max_size=8, unique=True)):
        p = (-r.numerator, r.denominator)
        h = F(2) ** draw(st.integers(-12, 9))
        lo = math.floor(r / h) * h
        if lo == r:
            encs.append(enclosure(p, r, r))
        elif abs(r) < h and draw(st.booleans()):
            encs.append(enclosure(p, -h, h))
        else:
            encs.append(enclosure(p, lo, lo + h))
    return draw(st.permutations(encs))


def cell_of(enc, grid):
    """The ends of enc and the grid spacing, all over 2^max(enc.exp, -grid)."""
    e = max(enc.exp, -grid)
    return (*enc.ends_at(e), e, 1 << (e + grid))


@PROPERTY
@given(aligned_cells(), grids)
def test_integer_refined_matches_fraction_bisection(encs, grid):
    # the grid point with the fewest bits inside a cell of a dyadic grid,
    # or inside a power-of-two window, is its midpoint: refined halves it
    # as the halving oracle and plain Fraction bisection do, down to one
    # cell of the grid (a window [-2^c, 2^c] on a grid of spacing at least
    # 2^(c + 1) lies across the grid point 0 and is halved once)
    for enc in encs:
        lo, hi, e, step = cell_of(enc, grid)
        steps = halvings(hi - lo, step) or int(-(-hi // step) - lo // step > 1)
        seen, halving, want = [], [], []
        with recording_sign_at(seen):
            got = enc.refined(grid)
        with recording_sign_at(halving):
            assert got == halved(enc, steps)
        assert ends([got]) == ends([refined_ref(enc, F(2) ** grid, want)])
        assert seen == halving == want


@PROPERTY
@given(isolating_enclosures(), grids, st.integers(0, 6))
def test_refined_is_the_grid_search_on_any_bracket(encs, grid, steps):
    for enc in encs:
        # a grid that divides the width exactly tests where the search stops
        for g in (grid, grid_of(enc.hi - enc.lo) - steps) if not is_exact(enc) else (grid,):
            lo, hi, e, step = cell_of(enc, g)
            seen, want = [], []
            with recording_sign_at(seen):
                got = enc.refined(g)
            with recording_sign_at(want):
                s_lo = rootfind.sign_at(enc.poly, enc.lo_num, 1 << enc.exp)
                assert got == grid_search(enc.poly, lo, hi, e, step, s_lo)
            # refined reads the sign at lo only when a grid point lies
            # strictly inside the bracket, that is when the search splits
            assert seen == (want if len(want) > 1 else [])
            assert got.lo <= got.hi and enc.lo <= got.lo and got.hi <= enc.hi
            assert is_exact(got) or got.hi - got.lo <= F(2) ** g


@PROPERTY
@given(aligned_cells())
def test_integer_separate_matches_fraction_separate(encs):
    seen, want = [], []
    with recording_sign_at(seen):
        got = separate(encs)
    assert ends(got) == ends(separate_ref(encs, want))
    assert seen == want


@st.composite
def nested_enclosures(draw):
    """Enclosures of distinct dyadic roots, each on its own linear
    polynomial, reaching any dyadic distance to either side: they nest in
    and chain across each other, some exact."""
    encs = []
    for r in draw(dyadic_roots):
        p = (-r.numerator, r.denominator)
        if draw(st.integers(0, 5)) == 0:
            encs.append(enclosure(p, r, r))
            continue
        left, right = (
            F(draw(st.integers(1, 4096)), draw(st.sampled_from([1, 8, 64, 1024])))
            for _ in range(2)
        )
        encs.append(enclosure(p, r - left, r + right))
    return draw(st.permutations(encs))


@PROPERTY
@given(nested_enclosures())
def test_separate_matches_resorting_every_pass(encs):
    seen, want = [], []
    with recording_sign_at(seen):
        got = separate(encs)
    with recording_sign_at(want):
        assert got == resorting_separate(encs)
    assert seen == want


def test_separate_sorts_everything_when_a_refined_run_crosses_its_neighbour():
    # [0, 10] around 17/2 and [4, 6] around 5 overlap, and [7, 8] around
    # 15/2 lies beyond [4, 6]; refining [0, 10] to its cell [8, 10] of the
    # grid of spacing 2 moves it past [7, 8], which only a sort of the
    # whole family puts in order
    encs = [
        enclosure((-17, 2), 0, 10),
        enclosure((-5, 1), 4, 6),
        enclosure((-15, 2), 7, 8),
    ]
    sorts = mock.patch.object(rootfind, "_sort_by_midpoint", wraps=rootfind._sort_by_midpoint)
    with sorts as spy:
        got = separate(encs)
    assert [len(call.args[0]) for call in spy.call_args_list].count(3) == 2
    assert got == resorting_separate(encs)
    assert all(a.hi < b.lo for a, b in zip(got, got[1:]))


@PROPERTY
@given(rational_roots, st.data())
def test_grid_tie_break_matches_fraction_rule(roots, data):
    # roots lie >= 1/900 apart, so the grid spacing is the width, and each
    # guess sits on the midpoint of the root's cell or of a cell next to it
    # (or one ULP off it)
    width = F(1, 2**20)
    p = tuple(poly_from_roots(roots))
    bound = rootfind.cauchy_bound(p)
    guide = []
    for r in roots:
        k = math.floor(r / width) + data.draw(st.sampled_from([-1, 0, 1]))
        g = float((k + F(1, 2)) * width)
        nudge = data.draw(st.sampled_from([0, -np.inf, np.inf]))
        guide.append(float(np.nextafter(g, nudge)) if nudge else g)
    seen, want = [], []
    with recording_sign_at(seen), recording_grid_signs(seen):
        got = rootfind._grid_cells(p, guide, bound, width)
    assert ends(got) == ends(grid_cells_ref(p, guide, -bound, bound, width, want))
    # the sweep also reads the upper end of a cell whose lower end is a root
    assert set(want) <= set(seen)


def recording_grid_signs(seen):
    """Record the grid points of every `_grid_signs` sweep."""
    sweep = rootfind._grid_signs

    def wrapped(poly, ks, e):
        seen.extend(k * F(2) ** e for k in ks)
        return sweep(poly, ks, e)

    return mock.patch.object(rootfind, "_grid_signs", wrapped)


def dyadic_floor(m):
    """The largest power of two at most m > 0."""
    h = F(2) ** (m.numerator.bit_length() - m.denominator.bit_length())
    return h / 2 if h > m else h


SMALLEST = 5e-324  # the smallest subnormal float
special_floats = st.sampled_from(
    [0.0, -0.0, SMALLEST, -SMALLEST, 3 * SMALLEST, 2.0**-1022]
    + [2.0**53, 2.0**53 + 2, -(2.0**60) - 2**8, 1e300, -1e308]
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False) | special_floats, st.integers(-140, 10))
def test_grid_cell_matches_the_fraction_floor_and_tie_rule(g, e):
    h = F(2) ** e
    y = F(g) / h
    try:
        exact = float(y) == y
    except OverflowError:
        exact = False
    got = rootfind.grid_cell(g, e)
    if not exact:  # g / 2^e overflows, or underflows past the last subnormal bit
        assert got is None
        return
    k = math.floor(y)
    assert got == (k, k + 1 if 2 * (F(g) - k * h) >= h else k - 1)


def test_grid_cell_at_the_float_limits():
    assert rootfind.grid_cell(1e300, -140) is None  # overflow
    assert rootfind.grid_cell(3 * SMALLEST, 1) is None  # 1.5 times the smallest subnormal
    assert rootfind.grid_cell(SMALLEST, 1) is None  # underflow to zero
    assert rootfind.grid_cell(2 * SMALLEST, 1) == (0, -1)
    assert rootfind.grid_cell(-2 * SMALLEST, 1) == (-1, 0)
    assert rootfind.grid_cell(-0.0, -140) == (0, -1)
    assert rootfind.grid_cell(2.0**53 + 2, 1) == (2**52 + 1, 2**52)
    assert rootfind.grid_cell(-2.5, 0) == (-3, -2)  # a tie goes to the cell above
    for g in (math.inf, -math.inf, math.nan):
        assert rootfind.grid_cell(g, 0) is None


@st.composite
def near_tie_guides(draw):
    """Sorted finite guesses whose smallest float gap is 3 * 2^g while the
    exact gap lies below it (a tiny guess a > 0 below b = 3 * 2^g), on it
    (a = 0) or above it (a < 0)."""
    g = draw(st.integers(-60, 20))
    a = math.ldexp(draw(st.sampled_from([-1.0, 0.0, 1.0])), g - draw(st.integers(1, 80)))
    rest = draw(st.lists(st.floats(-1e7, 1e7), max_size=2))
    return sorted([a, math.ldexp(3.0, g), *rest])


@PROPERTY
@given(
    near_tie_guides()
    | st.lists(st.floats(-1e300, 1e300) | special_floats, min_size=1, max_size=6).map(sorted),
    st.integers(1, 2**2000),
    # 2^2001 lies above every window, so the window alone caps the grid
    all_widths | st.just(F(2) ** 2001),
)
def test_grid_exponent_matches_the_exact_gaps(guesses, window, width):
    xs = [F(g) for g in guesses]
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    want = None
    if 0 not in gaps:
        caps = [F(window), *(min(gaps) / 3 for _ in gaps[:1]), width]
        want = dyadic_floor(min(caps))
    got = rootfind._grid_exponent(guesses, window, width)
    assert (got if got is None else F(2) ** got) == want


@PROPERTY
@given(rational_roots, st.lists(st.integers(-(2**40), 2**40), max_size=8), st.integers(-40, 40))
def test_grid_sweep_matches_single_point_signs(roots, ks, e):
    p = tuple(poly_from_roots(roots))
    assert rootfind._grid_signs(p, ks, e) == [sign(p, k * F(2) ** e) for k in ks]


def test_grid_exponent_rounds_no_gap_up_to_its_cap():
    # 0.75 - 2^-60 rounds to the float 0.75 = 3 * 2^-2, but a third of the
    # exact gap lies below 2^-2
    assert rootfind._grid_exponent([2.0**-60, 0.75], 2, F(2)) == -3
    assert rootfind._grid_exponent([0.0, 0.75], 2, F(2)) == -2
    # the one float gap overflows
    assert rootfind._grid_exponent([-1e308, 1e308], 2**2000, F(2**2000)) == 1022  # 2^1022 < 2e308 / 3
