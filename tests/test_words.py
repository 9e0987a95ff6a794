import math
import random
from fractions import Fraction as F

import pytest

from kohmoto.errors import PreconditionError
from kohmoto.farey import (
    FareyPoint as P,
    QuadraticIrrational,
    cf_forms,
    farey_distance,
    farey_neighbors,
)
from kohmoto.words import (
    Configuration,
    complexity,
    defect_config,
    dictionary,
    limit_configuration,
    mechanical_word,
    orbit_inclusion,
    period_word,
    sk_words,
    subshift_distance,
)

from farey_helpers import farey_set

GOLDEN = QuadraticIrrational.from_digits([0, 0], [1])


def cyclic_rotations(w):
    return {w[i:] + w[:i] for i in range(len(w))}


def reduced_rationals(max_q):
    for q in range(1, max_q + 1):
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1:
                yield F(p, q)


# --- mechanical words ---------------------------------------------------------


def test_mechanical_word_examples():
    assert mechanical_word(F(2, 3), 0, 2) == "011"
    assert mechanical_word(F(0), -3, 3) == "0000000"
    assert mechanical_word(F(1), -3, 3) == "1111111"
    assert mechanical_word(F(1, 2), 0, 3) == "0101"


def test_mechanical_word_periodicity():
    for r in reduced_rationals(12):
        q = r.denominator
        w = mechanical_word(r, -2 * q, 2 * q)
        assert all(w[i] == w[i + q] for i in range(len(w) - q))


def test_mechanical_word_irrational_matches_nearby_rationals():
    # the golden-mean word agrees with its convergents on safe windows
    w = mechanical_word(GOLDEN, 1, 30)
    for conv in (F(13, 21), F(21, 34), F(34, 55)):
        assert mechanical_word(conv, 1, 30)[:12] == w[:12]


# --- word ladders and periods --------------------------------------------------


def test_sk_words_examples():
    assert sk_words([0, 0, 1, 3, 2]) == ["1", "0", "1", "1110", "111011101"]
    assert sk_words([0, 0, 2]) == ["1", "0", "01"]
    assert sk_words([0, 0, 1, 1, 1]) == ["1", "0", "1", "10", "101"]


def test_sk_word_lengths_match_denominators():
    for r in reduced_rationals(40):
        if r in (0, 1):
            continue
        short, long = cf_forms(r)
        assert len(sk_words(short)[-1]) == r.denominator
        assert len(sk_words(long)[-1]) == r.denominator


def test_period_word_examples_and_rotation_equivalence():
    assert period_word(F(2, 3)) == "110"
    assert period_word(F(0)) == "0"
    assert period_word(F(1)) == "1"
    assert period_word(F(7, 9)) == "111011101"
    for r in reduced_rationals(30):
        w = period_word(r)
        q = r.denominator
        assert mechanical_word(r, 0, q - 1) in cyclic_rotations(w)
        short, long = cf_forms(r)
        assert sk_words(long)[-1] in cyclic_rotations(w)


# --- defect configurations ------------------------------------------------------


def test_defect_config_examples():
    assert defect_config(F(0), "plus") == Configuration.defect("0", "1")
    assert defect_config(F(1), "minus") == Configuration.defect("1", "0")
    assert defect_config(F(2, 3), "plus") == Configuration.defect("110", "1")
    assert defect_config(F(2, 3), "minus") == Configuration.defect("101", "10")
    assert defect_config(F(1, 2), "minus") == Configuration.defect("01", "0")
    assert defect_config(F(1, 2), "plus") == Configuration.defect("10", "1")
    assert defect_config(F(7, 9), "plus") == Configuration.defect("111011110", "11101")
    assert defect_config(F(7, 9), "minus") == Configuration.defect("111011101", "1110")
    with pytest.raises(PreconditionError):
        defect_config(F(0), "minus")
    with pytest.raises(PreconditionError):
        defect_config(F(1), "plus")


def test_defect_impurity_depends_on_farey_neighbors():
    # the impurity word is the period word of one q-Farey neighbor
    for r in reduced_rationals(10):
        if r in (0, 1):
            continue
        lower, upper = farey_neighbors(r, r.denominator)
        for side in ("plus", "minus"):
            v = defect_config(r, side).impurity
            assert len(v) in (lower.denominator, upper.denominator)
            assert v in (
                period_word(lower),
                period_word(upper),
                *cyclic_rotations(period_word(lower)),
                *cyclic_rotations(period_word(upper)),
            )


def test_defect_limit_oracle():
    # dictionaries of the one-sided limits equal the stabilized dictionaries
    # of the periodic approximants along the matching CF direction
    for r in reduced_rationals(9):
        short, long = cf_forms(r)
        n = len(short) - 2
        for side in ("plus", "minus"):
            if (r, side) in ((F(0), "minus"), (F(1), "plus")):
                continue
            if r == 0:
                ext = short
            elif r == 1:
                ext = short
            else:
                use_short = (side == "plus") == (n % 2 == 0)
                ext = short if use_short else long
            cfg = defect_config(r, side)
            for length in (8, 16, 24):
                want = dictionary(cfg, length).words
                k = 3
                while True:
                    approx = Configuration.periodic(sk_words(ext + (k,))[-1])
                    got = dictionary(approx, length).words
                    nxt = dictionary(
                        Configuration.periodic(sk_words(ext + (k + 1,))[-1]), length
                    ).words
                    if got == nxt:
                        break
                    k += 1
                    assert k < 40
                assert got == want


# --- dictionaries and complexity -------------------------------------------------


def test_dictionary_examples():
    assert dictionary(Configuration.periodic("011"), 2).words == {"01", "11", "10"}
    assert dictionary(Configuration.periodic("0"), 5).words == {"00000"}
    assert dictionary(Configuration.defect("0", "1"), 2).words == {"00", "01", "10"}


def test_complexity_laws():
    for r in reduced_rationals(12):
        q = r.denominator
        cfg = Configuration.periodic(period_word(r))
        for n in range(1, 3 * q + 1):
            want = q if n >= q else n + 1
            assert complexity(cfg, n) == want
    for n in range(1, 13):
        assert complexity(GOLDEN, n) == n + 1


def test_complexity_of_defects():
    for r in reduced_rationals(12):
        q = r.denominator
        for side in ("plus", "minus"):
            if (r, side) in ((F(0), "minus"), (F(1), "plus")):
                continue
            cfg = defect_config(r, side)
            for n in range(1, 3 * q + 1):
                assert complexity(cfg, n) == n + 1


def test_dictionary_interval_equivalence():
    # slices of length m agree iff the two rotations share an open gap of
    # the m-Farey set
    rationals = [r for r in reduced_rationals(10) if 0 < r < 1]
    rng = random.Random(5)
    for _ in range(250):
        alpha, beta = rng.choice(rationals), rng.choice(rationals)
        if alpha == beta:
            continue
        m = rng.randint(1, 12)
        grid = farey_set(m)
        common = any(lo < alpha < hi and lo < beta < hi for lo, hi in zip(grid, grid[1:]))
        agree = (
            dictionary(Configuration.periodic(period_word(alpha)), m).words
            == dictionary(Configuration.periodic(period_word(beta)), m).words
        )
        assert agree == common


def test_distinct_farey_numbers_have_distinct_slices():
    for m in range(1, 11):
        slices = [
            frozenset(dictionary(Configuration.periodic(period_word(r)), m).words)
            for r in farey_set(m)
        ]
        assert len(set(slices)) == len(slices)


# --- subshift metric -----------------------------------------------------------


def test_subshift_distance_examples():
    assert subshift_distance(Configuration.periodic("0"), Configuration.periodic("1"), 8) == (
        F(1),
        True,
    )
    # value settled by the dictionary oracle; matches the Farey distance of 1/2, 2/3
    d, certified = subshift_distance(
        Configuration.periodic("01"), Configuration.periodic("011"), 16
    )
    assert certified and d == farey_distance(F(1, 2), F(2, 3)) == F(1, 2)
    c = defect_config(F(2, 3), "plus")
    assert subshift_distance(c, c, 4) == (F(0), True)


def test_subshift_distance_uncertified_cutoff():
    # distinct presentations of one subshift can only be bounded, not separated
    a = Configuration.periodic("01")
    b = Configuration.periodic("10")
    d, certified = subshift_distance(a, b, 12)
    assert not certified and d == F(1, 13)


def test_orbit_inclusion_examples():
    sub = Configuration.periodic("110")
    sup = defect_config(F(2, 3), "plus")
    assert orbit_inclusion(sub, sup, 12)
    assert not orbit_inclusion(sup, sub, 12)
    assert orbit_inclusion(sup, sup, 6)
    strict = any(
        dictionary(sub, n).words < dictionary(sup, n).words for n in range(1, 13)
    )
    assert strict


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


def test_isometry_between_farey_and_dictionary_metric():
    rng = random.Random(77)
    pts = _random_points(rng, 46, 30)
    pts += [P.irrational(GOLDEN), P.irrational(QuadraticIrrational.from_digits([0, 0], [2]))]
    checked = 0
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            d, certified = subshift_distance(
                limit_configuration(x), limit_configuration(y), 64
            )
            want = farey_distance(x, y)
            if want == 0:
                assert d == 0 or not certified
                continue
            assert certified and d == want
            checked += 1
    assert checked >= 200
