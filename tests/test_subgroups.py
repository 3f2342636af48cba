import random

import pytest

from conftest import P2, P3, random_series
from xadic import (ExplicitSet, LaurentSeries, MultiplesOf, PowersOfTwo,
                   member, parse_series, reindex_powers_of_two)


def S(prime, text):
    return parse_series(prime, text)


def test_powers_of_two_set():
    s = PowersOfTwo()
    assert [e for e in range(-2, 17) if s.contains(e)] == [1, 2, 4, 8, 16]


def test_multiples_set():
    s = MultiplesOf(3)
    assert s.contains(0) and s.contains(9) and not s.contains(5)
    assert not s.contains(-3)
    with pytest.raises(ValueError):
        MultiplesOf(0)


def test_explicit_set():
    s = ExplicitSet([1, 2, 4], bound=10)
    assert s.contains(2) and not s.contains(3) and not s.contains(-1)
    with pytest.raises(ValueError):
        ExplicitSet([11], bound=10)


def test_member_examples():
    v = member(S(P2, "X^1 + X^2 + X^4 + X^8"), PowersOfTwo())
    assert v.status == "member_exact"
    v = member(S(P2, "X^3"), PowersOfTwo())
    assert v.status == "non_member"
    assert v.witness_exponent == 3 and v.witness_coefficient == 1
    v = member(S(P3, "1 + X^2 + X^4"), MultiplesOf(2))
    assert v.status == "member_exact"


def test_member_precision_and_negatives():
    v = member(S(P2, "X^2 + O(X^9)"), PowersOfTwo())
    assert v.status == "member_at_precision" and v.precision == 9
    v = member(S(P2, "X^-4"), MultiplesOf(2))
    assert v.status == "non_member" and v.witness_exponent == -4
    # lowest offender is reported
    v = member(S(P3, "X^2 + X^3 + X^5"), MultiplesOf(2))
    assert v.witness_exponent == 3


def test_member_explicit_set_past_bound_is_no_witness():
    s = ExplicitSet([1, 2, 4], bound=10)
    v = member(S(P2, "X^1 + X^12"), s)
    assert v.status == "member_at_precision" and v.precision == 10
    v = member(S(P2, "X^1 + X^12 + O(X^14)"), s)
    assert v.status == "member_at_precision" and v.precision == 10
    v = member(S(P2, "X^1 + O(X^8)"), s)
    assert v.status == "member_at_precision" and v.precision == 8
    # below the bound the set still decides
    v = member(S(P2, "X^3 + X^12"), s)
    assert v.status == "non_member" and v.witness_exponent == 3
    assert member(S(P2, "X^1 + X^4"), s).status == "member_exact"


def test_reindex_examples():
    assert reindex_powers_of_two(S(P2, "1 + X^1 + X^2")) == \
        S(P2, "X^1 + X^2 + X^4")
    z = LaurentSeries.zero(P2)
    assert reindex_powers_of_two(z) == z
    with pytest.raises(ValueError):
        reindex_powers_of_two(S(P2, "X^-1"))


def test_reindex_precision_and_cap():
    f = S(P2, "1 + X^3 + O(X^5)")
    out = reindex_powers_of_two(f)
    assert out.precision == 32 and out.support == (1, 8)
    with pytest.raises(ValueError):
        reindex_powers_of_two(S(P2, "1 + X^25"))  # 2^25 beyond default cap
    big = reindex_powers_of_two(S(P2, "1 + X^25"), cap=1 << 26)
    assert big.support == (1, 1 << 25)


def test_reindex_additive_and_member():
    rng = random.Random(3)
    for _ in range(50):
        prime = rng.choice((P2, P3))
        g1 = random_series(rng, prime, lo=0, hi=12, forms="et")
        g2 = random_series(rng, prime, lo=0, hi=12, forms="et")
        r1, r2 = reindex_powers_of_two(g1), reindex_powers_of_two(g2)
        assert reindex_powers_of_two(g1 + g2) == r1 + r2
        assert member(r1, PowersOfTwo()).is_member


def test_reindex_injective_on_truncations():
    rng = random.Random(9)
    for forms, precision in (("e", None), ("t", 10)):
        seen = {}
        for _ in range(100):
            g = random_series(rng, P3, lo=0, hi=10, forms=forms)
            if precision is not None:
                g = g.truncate(precision)
            image = reindex_powers_of_two(g)
            if image in seen:
                assert seen[image] == g
            seen[image] = g


def test_support_union_closure():
    rng = random.Random(15)
    for target in (PowersOfTwo(), MultiplesOf(3)):
        for _ in range(50):
            keep = [e for e in range(16) if target.contains(e)]
            f = LaurentSeries(P3, {e: rng.randrange(0, 3) for e in keep})
            g = LaurentSeries(P3, {e: rng.randrange(0, 3) for e in keep})
            assert member(f + g, target).is_member
