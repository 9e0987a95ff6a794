import random
from bisect import bisect_left
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kohmoto.errors import PreconditionError
from kohmoto.sets import (
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


def merge_ref(intervals):
    out = []
    for lo, hi in sorted(iv for iv in intervals if iv[0] <= iv[1]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


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
        members = merge_ref(list(b.inner) + [((s + t) / 2,) * 2 for s, t in b.spots])
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
