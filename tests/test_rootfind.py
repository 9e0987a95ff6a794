import random
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohmoto import rootfind
from kohmoto.errors import DegeneracyError
from kohmoto.polyring import BP, RP, VP, ring_elements
from kohmoto.rootfind import (
    RootEnclosure,
    compare_roots,
    count_roots,
    isolate_roots,
    poly_gcd,
    separate,
    sign_at,
    sturm_chain,
)


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
    p = [-2, 0, 1]  # x^2 - 2
    chain = sturm_chain(p)
    assert count_roots(chain, F(-2), F(2)) == 2
    assert count_roots(chain, F(0), F(2)) == 1
    assert count_roots(chain, F(3, 2), F(2)) == 0


def test_isolation_random_integer_roots():
    rng = random.Random(9)
    for _ in range(30):
        roots = sorted(rng.sample(range(-40, 40), rng.randint(1, 9)))
        p = poly_from_roots(roots)
        encs = isolate_roots(p)
        assert len(encs) == len(roots)
        assert len({id(enc.poly) for enc in encs}) == 1
        for enc, want in zip(encs, roots):
            assert enc.lo <= want <= enc.hi
            tight = enc.refined(F(1, 10**6))
            assert tight.hi - tight.lo <= F(1, 10**6)
            assert tight.lo <= want <= tight.hi


def test_isolation_with_float_guides():
    roots = [-5, -1, 0, 2, 7]
    p = poly_from_roots(roots)
    guide = [float(x) for x in np.roots(p[::-1]).real]
    encs = isolate_roots(p, guide=guide)
    assert len(encs) == 5
    # garbage guides must not break certification
    encs = isolate_roots(p, guide=[-100.0, 0.1, 0.2, 0.3, 99.0])
    assert len(encs) == 5


def test_isolation_in_window():
    p = poly_from_roots([-3, 1, 4])
    encs = isolate_roots(p, window=(F(0), F(5)))
    assert len(encs) == 2


def test_exact_rational_roots_detected():
    encs = isolate_roots([0, -5, 1])  # x(x - 5)
    assert len(encs) == 2
    refined = [e.refined(F(1, 1000)) for e in encs]
    assert refined[0].lo <= 0 <= refined[0].hi
    assert refined[1].lo <= 5 <= refined[1].hi
    assert any(e.is_exact() for e in refined)


def test_multiple_root_raises():
    with pytest.raises(DegeneracyError):
        sturm_chain([1, -2, 1])  # (x-1)^2
    with pytest.raises(DegeneracyError):
        isolate_roots([0, 0, 1])  # x^2


def test_separate_orders_and_disjoins():
    a = isolate_roots([-2, 0, 1])  # +-sqrt2
    b = isolate_roots([-3, 0, 1])  # +-sqrt3
    out = separate(a + b)
    for x, y in zip(out, out[1:]):
        assert x.hi < y.lo


def test_compare_roots_equality_across_polynomials():
    sqrt2_a = isolate_roots([-2, 0, 1])[1]
    sqrt2_b = isolate_roots([-4, 0, 0, 0, 1])[1]
    sqrt3 = isolate_roots([-3, 0, 1])[1]
    assert compare_roots(sqrt2_a, sqrt2_b) == 0
    assert compare_roots(sqrt2_a, sqrt3) == -1
    assert compare_roots(sqrt3, sqrt2_b) == 1


def test_compare_roots_padding_avoids_gcd_roots():
    # (x - 1)(x^2 - 2) divides both polynomials, and the padded left end of
    # the joint window, lo - (hi - lo)/1024, is its root 1
    g = poly_mul([-1, 1], [-2, 0, 1])
    lo, hi = 1 + F(1, 2048), F(3, 2) + F(1, 2048)
    assert lo - (hi - lo) / 1024 == 1
    a = RootEnclosure(tuple(g), lo, hi)
    b = RootEnclosure(tuple(poly_mul(g, [5, 1])), lo, hi)
    assert compare_roots(a, b) == 0
    # the gcd has a second root 1/1024 + 2^-31 above the shared root 1: a
    # pad that does not shrink with the enclosures never excludes it
    s = 1 + F(1, 1 << 10) + F(1, 1 << 31)
    h = poly_from_roots([1, s])
    exact = RootEnclosure(tuple(h), F(1), F(1))
    narrow = RootEnclosure(
        tuple(poly_from_roots([1, s, -3])), 1 - F(1, 1 << 31), 1 + F(1, 1 << 31)
    )
    assert compare_roots(exact, narrow) == 0
    assert compare_roots(narrow, exact) == 0


def test_compare_roots_exact_against_narrow_enclosure_of_another_root():
    y = 1 + F(1, 1 << 40)
    exact = RootEnclosure((-1, 1), F(1), F(1))
    narrow = RootEnclosure(tuple(poly_from_roots([y])), 1 - F(1, 1 << 31), 1 + F(1, 1 << 31))
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
    assert sign_at(p, F(0)) == -1
    assert sign_at(p, F(2)) == 1
    assert sign_at(p, F(141421356, 100000000)) == -1


# --- polynomial rings ---------------------------------------------------------


def test_rp_arithmetic():
    E, V, const = ring_elements(F(5))
    t = E * E - V * E - 2
    assert t.coeffs() == [F(-2), F(-5), F(1)]
    assert t.eval(F(0)) == -2
    assert t.eval(F(-7, 3)) == F(49, 9) + F(35, 3) - 2
    assert (t * F(1, 6)).eval(F(1, 2)) == (F(1, 4) - F(5, 2) - 2) / 6
    assert (t - t).is_zero()
    half = RP.const(F(1, 2))
    assert (half + half).coeffs() == [F(1)]
    assert (E * half * 2) == E


def test_bp_symbolic_arithmetic():
    E, V, const = ring_elements(None)
    t = E * E - V * E - const(2)
    numeric = ring_elements(F(7))
    tn = numeric[0] * numeric[0] - numeric[1] * numeric[0] - 2
    # substitute V = 7 by expanding VP coefficients
    subbed = []
    for vp in t.c:
        val = sum(c * 7**i for i, c in enumerate(vp.c))
        subbed.append(F(val))
    assert subbed == tn.coeffs()
    assert (t * t - t * t).is_zero()
    assert BP([VP([0, 1])]) * BP([VP([0, 1])]) == BP([VP([0, 0, 1])])


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


def check_certified(p, roots, encs):
    """One enclosure per root, sorted with disjoint interiors, each holding
    its root and, by a Sturm count, no other."""
    chain = sturm_chain(p)
    assert len(encs) == len(roots)
    for enc, root in zip(encs, sorted(roots)):
        assert enc.lo <= root <= enc.hi
        if enc.is_exact():
            assert sign_at(p, enc.lo) == 0
        else:
            assert sign_at(p, enc.lo) * sign_at(p, enc.hi) == -1
            assert count_roots(chain, enc.lo, enc.hi) == 1
    for a, b in zip(encs, encs[1:]):
        assert a.hi <= b.lo


@PROPERTY
@given(rational_roots, widths, st.data())
def test_grid_cells_certify_accurate_guesses(roots, width, data):
    p = poly_from_roots(roots)
    guide = [float(r) + data.draw(noise) for r in roots]
    with mock.patch.object(rootfind, "_sturm_bisection", side_effect=AssertionError):
        encs = isolate_roots(p, guide=guide, width=width)
    check_certified(p, roots, encs)
    assert all(a.hi < b.lo for a, b in zip(encs, encs[1:]))
    assert all(enc.width <= width for enc in encs)
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
        rootfind, "_sturm_bisection", wraps=rootfind._sturm_bisection
    )
    with fallback as spy:
        check_certified(p, roots, isolate_roots(p, guide=merged, width=width))
    assert spy.call_count == 1
    check_certified(p, roots, isolate_roots(p, guide=garbage, width=width))


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
    with mock.patch.object(rootfind, "_sturm_bisection", side_effect=AssertionError):
        encs = isolate_roots(p, guide=guide, width=width)
        again = isolate_roots(p, guide=moved, width=width)
    assert [(e.lo, e.hi) for e in encs] == [(e.lo, e.hi) for e in again]


@PROPERTY
@given(rational_roots, st.integers(-(2**12), 2**12), st.data())
def test_root_on_a_grid_point_is_exact(roots, k, data):
    width = F(1, 2**10)
    on_grid = k * width
    roots = [r for r in roots if abs(r - on_grid) > F(1, 30)] + [on_grid]
    p = poly_from_roots(roots)
    guide = [float(r) + data.draw(noise) for r in roots]
    encs = isolate_roots(p, guide=guide, width=width)
    check_certified(p, roots, encs)
    assert any(enc.is_exact() and enc.lo == on_grid for enc in encs)
