import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohmoto import farey
from kohmoto.errors import PreconditionError
from kohmoto.farey import (
    FareyPoint as P,
    QuadraticIrrational,
    cf_eval,
    cf_forms,
    compare_points,
    emergence_level,
    farey_distance,
    farey_neighbors,
    format_dyadic,
    format_rational,
    mediant,
    simplest_rational_between,
)

from farey_helpers import farey_neighbors_stern_brocot, farey_set, simplest_rational_unit_steps

GOLDEN = QuadraticIrrational.from_digits([0, 0], [1])  # (sqrt(5)-1)/2


# --- oracles -----------------------------------------------------------------


def oracle_distance(alpha: F, beta: F, max_level: int = 80) -> F:
    """Farey distance straight from the interval definition: largest level m
    at which both points sit strictly inside one gap of the m-Farey set."""
    if alpha == beta:
        return F(0)
    if alpha in (F(0), F(1)) or beta in (F(0), F(1)):
        return F(1)
    best = None
    for m in range(1, max_level + 1):
        grid = farey_set(m)
        common = False
        for lo, hi in zip(grid, grid[1:]):
            if lo < alpha < hi and lo < beta < hi:
                common = True
                break
        if common:
            best = F(1, m + 1)
        else:
            return best
    raise AssertionError("oracle exhausted its level budget")


def oracle_simplest(lo: P, hi: P, max_level: int = 64):
    """First rational met when scanning Farey levels; smaller value on a tie."""
    for m in range(1, max_level + 1):
        hits = [
            s
            for s in farey_set(m)
            if compare_points(lo, P.exact(s)) <= 0 and compare_points(P.exact(s), hi) <= 0
        ]
        if hits:
            return min(hits)
    raise AssertionError("oracle exhausted its level budget")


def rand_rational(rng, max_den):
    q = rng.randint(1, max_den)
    p = rng.randint(0, q)
    return F(p, q)


def rand_point(rng, max_den) -> P:
    r = rand_rational(rng, max_den)
    kind = rng.choice(["exact", "plus", "minus"])
    if kind == "plus" and r < 1:
        return P.plus(r)
    if kind == "minus" and r > 0:
        return P.minus(r)
    return P.exact(r)


# --- mediant / neighbors -----------------------------------------------------


def test_mediant_examples():
    assert mediant(F(1, 3), F(1, 2)) == F(2, 5)
    assert mediant(F(0), F(1)) == F(1, 2)
    assert mediant(F(1, 2), F(1)) == F(2, 3)


def test_mediant_first_between_neighbors():
    for m in range(1, 12):
        grid = farey_set(m)
        for lo, hi in zip(grid, grid[1:]):
            s = mediant(lo, hi)
            k = emergence_level(lo, hi)
            assert s.denominator == k
            between = [x for x in farey_set(k) if lo < x < hi]
            assert between == [s]
            assert not [x for x in farey_set(k - 1) if lo < x < hi]


def test_neighbor_examples():
    assert farey_neighbors(F(2, 3), 3) == (F(1, 2), F(1))
    assert farey_neighbors(F(1, 2), 2) == (F(0), F(1))
    assert farey_neighbors(F(1, 2), 3) == (F(1, 3), F(2, 3))
    assert farey_neighbors(F(0), 7) == (None, F(1, 7))
    assert farey_neighbors(F(1), 7) == (F(6, 7), None)


def test_neighbors_against_enumeration_and_stern_brocot():
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(1, 25)
        grid = farey_set(m)
        i = rng.randrange(len(grid))
        r = grid[i]
        want = (grid[i - 1] if i else None, grid[i + 1] if i + 1 < len(grid) else None)
        assert farey_neighbors(r, m) == want
        assert farey_neighbors_stern_brocot(r, m) == want


def test_neighbors_at_large_levels_match_the_unit_step_walk():
    # the closed-form cascade against one mediant per step, where the
    # cascade takes up to m / q steps
    rng = random.Random(19)
    for _ in range(60):
        m = rng.randint(2, 20000)
        q = rng.randint(1, min(m, 40))
        r = F(rng.choice([p for p in range(q + 1) if math.gcd(p, q) == 1]), q)
        assert farey_neighbors(r, m) == farey_neighbors_stern_brocot(r, m), (r, m)


def test_neighbor_determinant_and_gap_bounds():
    for m in range(1, 16):
        grid = farey_set(m)
        for lo, hi in zip(grid, grid[1:]):
            assert hi.numerator * lo.denominator - lo.numerator * hi.denominator == 1
            assert abs(hi - lo) >= F(1, m * m)
            assert abs(hi - lo) <= F(1, m)


def test_neighbors_reject_non_member():
    with pytest.raises(PreconditionError):
        farey_neighbors(F(2, 3), 2)


def test_emergence_level_examples():
    assert emergence_level(F(1, 3), F(1, 2)) == 5
    assert emergence_level(F(0), F(1, 7)) == 8
    assert emergence_level(F(0), F(1)) == 2
    with pytest.raises(PreconditionError):
        emergence_level(F(1, 4), F(3, 4))


# --- continued fractions -----------------------------------------------------


def test_cf_forms_examples():
    assert cf_forms(F(1, 2)) == ((0, 0, 2), (0, 0, 1, 1))
    assert cf_forms(F(2, 3)) == ((0, 0, 1, 2), (0, 0, 1, 1, 1))
    assert cf_forms(F(7, 9)) == ((0, 0, 1, 3, 2), (0, 0, 1, 3, 1, 1))
    assert cf_forms(F(0)) == ((0, 0), (0, 0))
    assert cf_forms(F(1)) == ((0, 0, 1), (0, 0, 1))


def test_cf_eval_examples():
    assert cf_eval([0, 0, 2]) == F(1, 2)
    assert cf_eval([0, 0, 1, 3, 2]) == F(7, 9)
    assert cf_eval([0, 0]) == F(0)
    with pytest.raises(PreconditionError):
        cf_eval([1, 2])
    with pytest.raises(PreconditionError):
        cf_eval([0, 0, 1, 0, 2])


def test_cf_round_trip_all_denominators_up_to_200():
    for q in range(1, 201):
        for p in range(0, q + 1):
            if math.gcd(p, q) != 1:
                continue
            r = F(p, q)
            short, long = cf_forms(r)
            assert cf_eval(short) == r
            assert cf_eval(long) == r
            if 0 < r < 1:
                assert short[-1] >= 2
                assert long[-1] == 1


# --- simplest rational and the metric ----------------------------------------


def test_simplest_rational_examples():
    assert simplest_rational_between(P.exact(F(1, 2)), P.exact(F(3, 5))) == F(1, 2)
    assert simplest_rational_between(P.plus(F(0)), P.exact(F(2, 5))) == F(1, 3)
    assert simplest_rational_between(P.exact(F(3, 8)), P.exact(F(2, 5))) == F(2, 5)
    with pytest.raises(PreconditionError):
        simplest_rational_between(P.exact(F(1, 2)), P.exact(F(1, 2)))


def test_simplest_rational_oracle():
    rng = random.Random(11)
    for _ in range(200):
        x, y = rand_point(rng, 9), rand_point(rng, 9)
        c = compare_points(x, y)
        if c == 0:
            continue
        if c > 0:
            x, y = y, x
        assert simplest_rational_between(x, y) == oracle_simplest(x, y)


def _point_pool() -> list[P]:
    """Exact and one-sided points of small denominators and near the ends,
    where the walk makes long runs, and quadratic irrationals."""
    rats = set(farey_set(7)) | {F(1, n) for n in (97, 500, 2001)} | {F(n - 1, n) for n in (98, 1500)}
    rats |= {F(3, 7) + F(1, 2000), F(5, 13) - F(1, 999)}
    rats = sorted(rats)
    pool = [P.exact(r) for r in rats]
    pool += [P.plus(r) for r in rats if r < 1] + [P.minus(r) for r in rats if r > 0]
    for pre, per in (([0, 0], [1]), ([0, 0], [2]), ([0, 0, 2, 1], [3, 1]), ([0, 0, 300], [1]),
                     ([0, 0, 1, 450], [2, 7]), ([0, 0, 3], [1, 200])):
        pool.append(P.irrational(QuadraticIrrational.from_digits(pre, per)))
    return pool


def test_simplest_rational_matches_the_unit_step_walk():
    pool = _point_pool()
    rng = random.Random(29)
    pairs = 0
    for x, y in itertools.combinations(pool, 2):
        if rng.random() > 0.25:
            continue
        c = compare_points(x, y)
        if c == 0:
            continue
        if c > 0:
            x, y = y, x
        assert simplest_rational_between(x, y) == simplest_rational_unit_steps(x, y), (x, y)
        pairs += 1
    assert pairs > 800


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.sampled_from(_point_pool()), st.integers(1, 10**6), st.integers(-1, 1), st.integers(1, 3), st.data()
)
def test_point_against_a_ratio_matches_the_fraction_form(x, m, nudge, scale, data):
    # a probe n/m of the walk is compared by cross-multiplication, here
    # also unreduced; the Fraction form reduces it.  Half the probes lie
    # next to the point.
    near = round((float(x.irr) if x.kind == "irrational" else x.r) * m) + nudge
    n = min(max(near, 0), m) if data.draw(st.booleans()) else data.draw(st.integers(0, m))
    assert farey._cmp_point_ratio(x, scale * n, scale * m) == compare_points(x, P.exact(F(n, m)))


def test_distance_examples():
    for n in range(2, 11):
        assert farey_distance(P.plus(F(0)), P.exact(F(1, n))) == F(1, n)
    assert farey_distance(P.exact(F(0)), P.exact(F(3, 7))) == F(1)
    assert farey_distance(P.exact(F(1)), P.exact(F(2, 5))) == F(1)
    assert farey_distance(F(1, 2), F(2, 3)) == F(1, 2)
    assert farey_distance(P.exact(F(1, 2)), P.exact(F(1, 2))) == F(0)


def test_distance_one_sided_limit_levels():
    # d(r_k, r-) = 1/(k*q + q') with q' the denominator of the truncated
    # long form; checked for several interior rationals.
    for r in (F(2, 3), F(1, 2), F(3, 5), F(7, 9)):
        short, long = cf_forms(r)
        qprev = cf_eval(long[:-1]).denominator
        for k in range(2, 8):
            rk = cf_eval(long + (k,))
            dist = farey_distance(P.exact(rk), P.minus(r) if rk < r else P.plus(r))
            assert dist == F(1, k * r.denominator + qprev)
            assert rk.denominator == k * r.denominator + qprev


def test_distance_brute_force_oracle_small_denominators():
    rats = farey_set(8)
    for a in rats:
        for b in rats:
            assert farey_distance(a, b) == oracle_distance(a, b)


def test_distance_range_and_euclidean_domination():
    rng = random.Random(23)
    for _ in range(300):
        x, y = rand_point(rng, 20), rand_point(rng, 20)
        d = farey_distance(x, y)
        if compare_points(x, y) == 0:
            assert d == 0
            continue
        assert d.numerator == 1
        assert abs(x.r - y.r) <= 2 * d


def test_ultrametric_inequality():
    rng = random.Random(37)
    pts = [rand_point(rng, 20) for _ in range(40)]
    for _ in range(400):
        x, y, z = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert farey_distance(x, y) <= max(farey_distance(x, z), farey_distance(z, y))


def test_isolated_rationals():
    for m in range(1, 9):
        for alpha in farey_set(m):
            q = alpha.denominator
            for beta in farey_set(m + 3):
                if beta == alpha:
                    continue
                assert farey_distance(alpha, beta) >= F(1, m + 1)
            # close approach realizes exactly 1/q
            for n in (50, 51, 97):
                for sgn in (1, -1):
                    beta = alpha + F(sgn, n * 173)
                    if 0 < beta < 1 and 0 < alpha < 1:
                        assert farey_distance(alpha, beta) == F(1, q)


def test_compare_points_examples():
    assert compare_points(P.minus(F(1, 2)), P.exact(F(1, 2))) < 0
    assert compare_points(P.exact(F(1, 2)), P.plus(F(1, 2))) < 0
    assert compare_points(P.plus(F(1, 3)), P.exact(F(2, 5))) < 0
    assert compare_points(P.exact(F(1, 2)), P.exact(F(1, 2))) == 0
    with pytest.raises(PreconditionError):
        P.plus(F(1))
    with pytest.raises(PreconditionError):
        P.minus(F(0))


def test_quadratic_irrational_golden_mean():
    g = GOLDEN
    # convergents of the golden mean alternate around it
    convergents = [F(1, 2), F(2, 3), F(3, 5), F(5, 8), F(8, 13)]
    below = True
    for c in convergents:
        side = compare_points(P.irrational(g), P.exact(c))
        assert side == (1 if below else -1)
        below = not below
    assert g.floor_times(10) == 6
    silver = QuadraticIrrational.from_digits([0, 0], [2])  # sqrt(2) - 1
    assert compare_points(P.irrational(silver), P.irrational(g)) < 0
    assert compare_points(P.irrational(g), P.irrational(g)) == 0
    with pytest.raises(PreconditionError):
        QuadraticIrrational.from_digits([0, 0], [])
    with pytest.raises(PreconditionError):
        QuadraticIrrational.from_digits([0, 1], [1])


def test_distance_to_convergents_of_an_irrational():
    # a convergent is the simplest rational between itself and the limit
    g = P.irrational(GOLDEN)
    convergents = []
    p2, q2, p1, q1 = 1, 0, 0, 1
    for _ in range(12):  # golden-mean digits are all 1
        p2, q2, p1, q1 = p1, q1, p1 + p2, q1 + q2
        convergents.append(F(p1, q1))
    for conv in convergents[2:]:
        assert farey_distance(g, P.exact(conv)) == F(1, conv.denominator)


def test_point_parsing_round_trip():
    for text in ["2/3", "2/3+", "2/3-", "0/1+", "cf:[0,0]per[1]", "cf:[0,0,2,1]per[3,1]"]:
        assert str(P.parse(text)) == text


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(-64, 64),
        st.integers(1, 2000).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits)),
        st.tuples(st.integers(-9, 9), st.integers(0, 300)).map(lambda t: t[0] << t[1]),
    ),
    st.integers(0, 300),
)
def test_dyadic_format_matches_the_reduced_fraction(num, exp):
    assert format_dyadic(num, exp) == format_rational(F(num, 1 << exp))
