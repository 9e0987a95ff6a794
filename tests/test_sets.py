import random
from bisect import bisect_left
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kohmoto.errors import PreconditionError, PrecisionError
from kohmoto.rootfind import RootEnclosure
from kohmoto.sets import (
    EnclosedSet,
    _directed,
    hausdorff_spectra,
    intersect,
    lebesgue,
    normalize,
)
from kohmoto.spectra import defect_spectrum, spectrum_periodic

from set_helpers import (
    covers_at_resolution,
    directed_hausdorff,
    enclosed_set,
    from_intervals,
    hausdorff_exact,
)
from set_oracle import (
    bisect_directed,
    copying_from_spectrum,
    normalizing_intersection,
    per_spot_hausdorff,
    sorting_normalize,
)


def test_normalize_and_intersect():
    xs = normalize([(F(3), F(4)), (F(0), F(1)), (F(1), F(2))])
    assert xs == ((F(0), F(2)), (F(3), F(4)))
    ys = intersect(xs, ((F(1), F(7, 2)),))
    assert ys == ((F(1), F(2)), (F(3), F(7, 2)))
    assert from_intervals(ys).measure() == (F(3, 2), F(3, 2))


def test_hausdorff_hand_examples():
    assert hausdorff_exact([(F(-2), F(2))], [(F(3), F(7))]) == 5
    assert hausdorff_exact([(F(0), F(1))], [(F(0), F(1)), (F(2), F(2))]) == 1
    a = [(F(0), F(1)), (F(5), F(6))]
    assert hausdorff_exact(a, a) == 0
    with pytest.raises(PreconditionError):
        hausdorff_exact([], [(F(0), F(1))])
    left = ((F(0), F(1)), (F(2), F(3)))
    right = ((F(10), F(11)), (F(20), F(21)))
    # a entirely left, then entirely right, of b
    assert directed_hausdorff(left, right) == 10
    assert directed_hausdorff(right, left) == 18
    assert hausdorff_exact(left, right) == 18
    # one interval of a covers three gap midpoints of b; the widest gap is
    # the middle one, so neither end of the bisected range holds the peak
    b = ((F(0), F(1)), (F(3), F(4)), (F(10), F(11)), (F(12), F(13)))
    assert directed_hausdorff(((F(-1, 2), F(27, 2)),), b) == 3
    assert directed_hausdorff(((F(3, 2), F(23, 2)),), b) == 3
    assert directed_hausdorff(((F(2), F(2)), (F(23, 2), F(13))), b) == 1
    # a gap midpoint exactly at an endpoint of a
    b = ((F(0), F(1)), (F(5), F(6)))
    assert directed_hausdorff(((F(3), F(4)),), b) == 2
    assert directed_hausdorff(((F(2), F(3)),), b) == 2
    assert directed_hausdorff(((F(3), F(3)),), b) == 2
    assert directed_hausdorff(((F(-1), F(0)), (F(3), F(3))), b) == 2


def test_hausdorff_grid_oracle_with_spots():
    rng = random.Random(3)

    def rand_set():
        n = rng.randint(1, 4)
        iv = []
        x = F(rng.randint(-20, 0), 8)
        for _ in range(n):
            w = F(rng.randint(1, 30), 16)
            iv.append((x, x + w))
            x = x + w + F(rng.randint(1, 25), 8)
        points = [x + F(1, 4)] if rng.random() < 0.6 else []
        return from_intervals(iv, points), normalize(iv + [(p, p) for p in points])

    def grid_dh(a, b, step=1 / 512):
        def pts(iv):
            out = []
            for lo, hi in iv:
                lo, hi = float(lo), float(hi)
                k = 0
                while lo + k * step < hi:
                    out.append(lo + k * step)
                    k += 1
                out.append(hi)
            return out

        def nearest(x, ys):
            # ys is sorted, so the nearest point is one of x's two neighbours
            i = bisect_left(ys, x)
            return min(abs(x - y) for y in ys[max(i - 1, 0) : i + 1])

        pa, pb = sorted(pts(a)), sorted(pts(b))
        da = max(nearest(x, pb) for x in pa)
        db = max(nearest(x, pa) for x in pb)
        return max(da, db)

    for _ in range(40):
        (ea, ta), (eb, tb) = rand_set(), rand_set()
        lo, hi = ea.hausdorff(eb)
        exact = hausdorff_exact(ta, tb)
        assert lo <= exact <= hi
        assert abs(grid_dh(ta, tb) - float(exact)) <= 1 / 128


def test_enclosure_widens_with_sloppy_spots():
    # an uncertain isolated point must still give a two-sided bound
    a = from_intervals([(F(0), F(1))])
    spot = (F(2), F(2) + F(1, 1024))
    b = enclosed_set([((F(0), F(0)), (F(1), F(1)))], [spot])
    lo, hi = a.hausdorff(b)
    assert lo <= 1 <= hi
    assert hi - lo <= F(1, 512)
    # each spot's lower bound gives up only its own half-width, not the
    # widest spot's: the narrow far spot pins the lower end exactly
    narrow = (F(10), F(10) + F(1, 2**20))
    b = enclosed_set([((F(0), F(0)), (F(1), F(1)))], [spot, narrow])
    assert a.hausdorff(b) == (9, 9 + F(1, 2**20))


def test_intersection_measure_enclosure():
    # inner (0, 1) in outer (-1/128, 1 + 1/128); inner (1/2, 2) in outer
    # (1/2 - 1/64, 2)
    a = enclosed_set([((F(-1, 128), F(0)), (F(1), F(1) + F(1, 128)))])
    b = enclosed_set([((F(1, 2) - F(1, 64), F(1, 2)), (F(2), F(2)))])
    c = a.intersection(b)
    mlo, mhi = c.measure()
    assert mlo == F(1, 2) and mhi == F(1, 2) + F(1, 64) + F(1, 128)


def test_spectra_level_helpers():
    V, tol = F(5), F(1, 10**9)
    s0 = spectrum_periodic(F(0), V, tol)
    s1 = spectrum_periodic(F(1), V, tol)
    lo, hi = hausdorff_spectra(s0, s1)
    assert lo <= 5 <= hi and hi - lo < F(1, 10**7)
    assert lebesgue(s0) == (F(4), F(4))
    d0 = defect_spectrum(F(0), "plus", V, tol)
    assert lebesgue(d0) == lebesgue(s0)
    # adding the defect point moves the spectrum by less than a band width
    dlo, dhi = hausdorff_spectra(s0, d0)
    assert dlo > 3 and dhi < 4  # the impurity eigenvalue sits sqrt(29)-2 away


def test_covers_at_resolution():
    big = from_intervals([(F(0), F(10))])
    small = from_intervals([(F(1), F(2)), (F(5), F(6))])
    assert covers_at_resolution(big, small)
    assert not covers_at_resolution(small, big)


# --- enclosures against sampled true sets (property tests) ------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

rationals = st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 4, 8]))
fractions_of_unit = st.builds(F, st.integers(0, 8), st.just(8))


def brute_directed(a, b):
    """sup over a of the distance to b, from every endpoint of a and every
    gap midpoint of b that a contains, each against every interval of b."""
    xs = [x for lo, hi in a for x in (lo, hi)]
    for (_, hi1), (lo2, _) in zip(b, b[1:]):
        m = (hi1 + lo2) / 2
        xs += [m for lo, hi in a if lo <= m <= hi]
    return max(min(max(F(0), lo - x, x - hi) for lo, hi in b) for x in xs)


unions = st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6).map(
    lambda xs: normalize((min(x, y), max(x, y)) for x, y in xs)
)


@PROPERTY
@given(unions, unions)
def test_directed_hausdorff_matches_brute_force(a, b):
    assert directed_hausdorff(a, b) == brute_directed(a, b)


@st.composite
def enclosed_with_truth(draw):
    """An EnclosedSet from spectrum-like data, and one true set inside it:
    each band's ends lie in their enclosures, each spot holds one point."""
    bands, spots, truth = [], [], []
    for _ in range(draw(st.integers(0, 3))):
        v0, v1, v2, v3 = sorted(draw(st.lists(rationals, min_size=4, max_size=4)))
        # the ends' enclosures either leave a certified inner part or overlap
        lo, hi = ((v0, v1), (v2, v3)) if draw(st.booleans()) else ((v0, v2), (v1, v3))
        x = lo[0] + (lo[1] - lo[0]) * draw(fractions_of_unit)
        y_lo = max(x, hi[0])
        y = y_lo + (hi[1] - y_lo) * draw(fractions_of_unit)
        bands.append((lo, hi))
        truth.append((x, y))
    for _ in range(draw(st.integers(0, 3))):
        s = draw(rationals)
        w = F(draw(st.integers(1, 9)), 64)
        x = s + w * draw(fractions_of_unit)
        spots.append((s, s + w))
        truth.append((x, x))
    es = enclosed_set(bands, spots)
    assume(es.inner or es.spots)
    return es, truth


@PROPERTY
@given(enclosed_with_truth(), enclosed_with_truth())
def test_hausdorff_enclosure_holds_sampled_true_sets(a, b):
    (ea, true_a), (eb, true_b) = a, b
    lo, hi = ea.hausdorff(eb)
    assert 0 <= lo <= hausdorff_exact(true_a, true_b) <= hi
    assert (lo, hi) == eb.hausdorff(ea)


def hausdorff_ref(x, y):
    """The formulas of `EnclosedSet.hausdorff` in Fractions, with the
    brute-force directed distance."""

    def directed(a, b):
        return brute_directed(a, b) if a else F(0)

    def fractions(es):
        d = 1 << es.exp
        parts = (es.inner, es.outer, es.spots)
        return SimpleNamespace(
            **{
                name: [(F(lo, d), F(hi, d)) for lo, hi in part]
                for name, part in zip(("inner", "outer", "spots"), parts)
            }
        )

    x, y = fractions(x), fractions(y)
    hi = lo = F(0)
    for a, b in ((x, y), (y, x)):
        members = sorting_normalize(list(b.inner) + [((s + t) / 2,) * 2 for s, t in b.spots])
        slack = max(((t - s) / 2 for s, t in b.spots), default=F(0))
        hi = max(hi, directed(a.outer, members) + slack)
        lo = max(lo, directed(a.inner, b.outer))
        for s, t in a.spots:
            lo = max(lo, directed([((s + t) / 2,) * 2], b.outer) - (t - s) / 2)
    return min(lo, hi), hi


@PROPERTY
@given(enclosed_with_truth(), enclosed_with_truth())
def test_integer_hausdorff_matches_fraction_formulas(a, b):
    (ea, _), (eb, _) = a, b
    assert ea.hausdorff(eb) == hausdorff_ref(ea, eb)


# --- the linear sweeps against the bisecting oracles ------------------------
# Small integer ends make touching, nested and degenerate intervals common.

ints = st.integers(-24, 24)
int_pairs = st.tuples(ints, ints).map(sorted).map(tuple)
int_unions = st.lists(int_pairs, max_size=7).map(normalize)
nonempty_int_unions = st.lists(int_pairs, min_size=1, max_size=7).map(normalize)


@st.composite
def integer_sets(draw, spots=True):
    """An EnclosedSet on small integer ends: a non-empty outer union, an
    inner union inside it, spots inside and outside the bands, and an
    exponent of its own."""
    outer = draw(nonempty_int_unions)
    inner = intersect(outer, draw(int_unions))
    spot_list = draw(st.lists(int_pairs, max_size=4)) if spots else []
    return EnclosedSet(inner, normalize([*outer, *spot_list]), tuple(sorted(spot_list)), draw(st.integers(0, 3)))


def outcome(f, *args):
    """What f returns, or the type of what it raises."""
    try:
        return f(*args)
    except (PreconditionError, PrecisionError) as exc:
        return type(exc)


@PROPERTY
@given(int_unions, nonempty_int_unions)
def test_directed_sweep_matches_bisection(a, b):
    # doubled ends give the bisecting oracle integer gap midpoints
    def doubled(u):
        return [(2 * lo, 2 * hi) for lo, hi in u]

    assert _directed(a, b) == bisect_directed(doubled(a), doubled(b))


@PROPERTY
@given(st.lists(st.tuples(rationals, rationals), max_size=8))
def test_normalize_matches_sorting_oracle(intervals):
    assert normalize(intervals) == sorting_normalize(intervals)
    assert normalize(iter(intervals)) == sorting_normalize(intervals)


@PROPERTY
@given(int_unions, int_unions)
def test_intersect_of_normalized_unions_is_normalized(a, b):
    out = intersect(a, b)
    assert out == normalize(out)
    assert all(hi1 < lo2 for (_, hi1), (lo2, _) in zip(out, out[1:]))


@PROPERTY
@given(integer_sets(), integer_sets())
def test_hausdorff_matches_per_spot_oracle(x, y):
    assert outcome(x.hausdorff, y) == outcome(per_spot_hausdorff, x, y)


@PROPERTY
@given(integer_sets(spots=False), integer_sets(spots=False))
def test_intersection_matches_normalizing_oracle(x, y):
    assert x.intersection(y) == normalizing_intersection(x, y)
    assert x.intersection(x) == x


dyadic = st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 4, 8, 16]))


@st.composite
def spectrum_data(draw):
    """Band edge and spot enclosures with dyadic ends at mixed exponents."""
    bands = []
    for _ in range(draw(st.integers(0, 4))):
        v = sorted(draw(st.lists(dyadic, min_size=4, max_size=4)))
        bands.append(((v[0], v[1]), (v[2], v[3])) if draw(st.booleans()) else ((v[0], v[2]), (v[1], v[3])))
    spots = [tuple(sorted(draw(st.lists(dyadic, min_size=2, max_size=2)))) for _ in range(draw(st.integers(0, 3)))]
    return SimpleNamespace(
        bands=[(RootEnclosure((), *lo), RootEnclosure((), *hi)) for lo, hi in bands],
        defects=[RootEnclosure((), *spot) for spot in spots],
    )


@PROPERTY
@given(spectrum_data())
def test_from_spectrum_matches_copying_oracle(spec):
    assert EnclosedSet.from_spectrum(spec) == copying_from_spectrum(spec)


CASES = {
    # name: (x, y) as (inner, outer, spots, exp)
    "touching and degenerate": (
        ((0, 2), (3, 3), (4, 6)), ((0, 2), (3, 3), (4, 6)), (), 0,
        ((2, 2), (5, 9)), ((1, 3), (5, 9)), (), 1,
    ),
    "spot inside a band": (
        ((0, 10),), ((-1, 11),), (), 2,
        ((0, 3),), ((0, 3), (5, 6)), ((5, 6),), 2,
    ),
    "spot outside every band": (
        ((0, 10),), ((0, 10),), (), 0,
        ((0, 4),), ((0, 4), (30, 33)), ((30, 33),), 0,
    ),
    "single intervals": (((1, 5),), ((0, 6),), (), 3, ((8, 9),), ((7, 9),), (), 0),
    "unequal exponents": (
        ((0, 4), (8, 12)), ((-1, 5), (7, 13)), ((20, 21),), 0,
        ((1, 70),), ((0, 72),), ((100, 101), (130, 133)), 3,
    ),
    "nested spots": (
        ((0, 1),), ((0, 1), (9, 30)), ((9, 30), (10, 11)), 1,
        ((4, 8), (24, 40)), ((4, 8), (24, 40)), (), 1,
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_hausdorff_hand_cases_match_per_spot_oracle(name):
    data = CASES[name]
    x, y = EnclosedSet(*data[:4]), EnclosedSet(*data[4:])
    assert x.hausdorff(y) == per_spot_hausdorff(x, y) == y.hausdorff(x)
