import random

import pytest

from conftest import P2, P3, random_disk_point, random_nonzero
from xadic import AnalyticMap, LaurentSeries, PrecisionError, parse_series


def S(prime, text):
    return parse_series(prime, text)


def test_from_series_promotion():
    f = S(P2, "X^1 + X^2 + O(X^6)")
    m = AnalyticMap.from_series(f)
    assert m.zprec == 6
    assert m.support == (1, 2)
    assert m.coefficient(1) == S(P2, "1")
    assert m.coefficient(3).is_exact_zero
    with pytest.raises(PrecisionError):
        m.coefficient(6)
    with pytest.raises(PrecisionError):
        AnalyticMap.from_series(LaurentSeries.unknown(P2, 4))
    with pytest.raises(ValueError):
        AnalyticMap.from_series(S(P2, "X^-1"))


def test_evaluate_matches_series_compose():
    rng = random.Random(5)
    for _ in range(40):
        prime = rng.choice((P2, P3))
        f = random_nonzero(rng, prime, lo=0, hi=9, forms="et")
        z0 = random_disk_point(rng, prime)
        assert AnalyticMap.from_series(f).evaluate(z0) == f.compose(z0)


def test_series_coefficient_evaluation():
    # z |-> X^2 z^2 + z^4 at z0 = X: X^4 + X^4
    m = AnalyticMap(P2, {2: S(P2, "X^2"), 4: 1})
    assert m.evaluate(S(P2, "X^1")).is_exact_zero
    m3 = AnalyticMap(P3, {2: S(P3, "X^2"), 4: 1})
    assert m3.evaluate(S(P3, "X^1")) == S(P3, "2*X^4")


def test_unknown_constant_at_exact_zero():
    zero = LaurentSeries.zero(P2)
    assert LaurentSeries.unknown(P2, 0)(zero) == LaurentSeries.unknown(P2, 0)
    m = AnalyticMap(P3, {}, zprec=0)
    assert m.evaluate(LaurentSeries.zero(P3)) == LaurentSeries.unknown(P3, 0)
    # from z^1 on the unknown tail vanishes at the exact zero
    m = AnalyticMap(P3, {0: S(P3, "2 + X^1")}, zprec=1)
    assert m.evaluate(LaurentSeries.zero(P3)) == S(P3, "2 + X^1")
    assert S(P2, "1 + X^1 + O(X^3)")(zero) == S(P2, "1")


def test_derivative_with_series_coefficients():
    m = AnalyticMap(P3, {3: S(P3, "X^1"), 4: S(P3, "2")})
    d = m.derivative()
    assert d.support == (3,)
    assert d.coefficient(3) == S(P3, "2")  # 4 * 2 = 8 = 2 mod 3


def test_taylor_shift_map():
    m = AnalyticMap(P2, {2: 1})
    shifted = m.taylor_shift(S(P2, "X^1"))
    assert shifted.coefficient(0) == S(P2, "X^2")
    assert shifted.coefficient(1).is_exact_zero
    assert shifted.coefficient(2) == S(P2, "1")


def test_taylor_shift_folds_tail_precision():
    m = AnalyticMap.from_series(S(P2, "X^1 + O(X^4)"))
    shifted = m.taylor_shift(S(P2, "X^2"))
    # unknown z^4-tail contributes O(X^(2*(4-i))) to coefficient i
    c0 = shifted.coefficient(0)
    assert c0.precision == 8 and c0.support == (2,)
    c1 = shifted.coefficient(1)
    assert c1.precision == 6 and c1.coefficient(0) == 1


def test_qth_root_reinterprets_coefficients():
    m = AnalyticMap(P2, {2: S(P2, "1 + X^3"), 4: 1}, zprec=7)
    r = m.qth_root(2)
    assert r.support == (1, 2)
    assert r.coefficient(1) == S(P2, "1 + X^3")  # same stored data
    assert r.zprec == 4  # ceil(7/2)
    with pytest.raises(ValueError):
        AnalyticMap(P2, {3: 1}).qth_root(2)
    # a partially-known coefficient off the grid blocks the root
    bad = AnalyticMap(P2, {2: 1, 1: LaurentSeries.unknown(P2, 3)})
    with pytest.raises(PrecisionError):
        bad.qth_root(2)


def test_rescale_argument():
    m = AnalyticMap(P2, {1: S(P2, "X^-2"), 3: 1})
    r = m.rescale_argument(2)
    assert r.coefficient(1) == S(P2, "1")
    assert r.coefficient(3) == S(P2, "X^6")


def test_integrality_enforced():
    m = AnalyticMap(P2, {1: S(P2, "X^-1")})
    with pytest.raises(ValueError):
        m.evaluate(S(P2, "X^1"))
    with pytest.raises(ValueError):
        m.taylor_shift(S(P2, "X^1"))
