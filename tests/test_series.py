import random
from fractions import Fraction

import pytest

from conftest import (P2, P3, P5, assert_agree, random_disk_point,
                      random_nonzero, random_series)
from xadic import (LaurentSeries, ParseError, PrecisionError, Valuation,
                   parse_series)


def S(prime, text):
    return parse_series(prime, text)


# -- construction and shapes ---------------------------------------------------

def test_forms():
    zero = LaurentSeries.zero(P2)
    assert zero.is_exact_zero and zero.is_exact
    exact = S(P2, "1 + X^3")
    assert exact.is_exact and not exact.is_exact_zero
    trunc = S(P2, "X^1 + O(X^5)")
    assert trunc.precision == 5 and trunc.support == (1,)
    indet = S(P2, "0 + O(X^4)")
    assert indet.is_indeterminate and indet.precision == 4


def test_canonicalization():
    f = LaurentSeries(P3, {0: 3, 1: 4, 2: 0, 9: 1}, precision=5)
    assert f.support == (1,)  # 3 = 0 mod 3, exponent 9 beyond precision
    assert f.coefficient(1) == 1
    with pytest.raises(PrecisionError):
        f.coefficient(5)


# -- addition ------------------------------------------------------------------

def test_add_examples():
    assert S(P2, "X^1 + X^2") + S(P2, "X^2 + X^3") == S(P2, "X^1 + X^3")
    assert S(P3, "1 + O(X^4)") + S(P3, "2 + X^1 + O(X^6)") == \
        S(P3, "X^1 + O(X^4)")
    f = S(P2, "X^-1 + X^4 + O(X^9)")
    assert f + LaurentSeries.zero(P2) == f


def test_mul_examples():
    assert S(P2, "1 + X^1") * S(P2, "1 + X^1") == S(P2, "1 + X^2")
    assert S(P3, "X^-1") * S(P3, "X^1") == S(P3, "1")
    f = S(P2, "1 + X^1 + O(X^3)")
    assert f * f == S(P2, "1 + X^2 + O(X^3)")


def test_mul_precision_rule():
    f = S(P2, "X^2 + O(X^7)")
    g = S(P2, "X^3 + O(X^5)")
    assert (f * g).precision == min(7 + 3, 5 + 2)
    assert (f * g).support == (5,)
    # exact zero absorbs even all-unknown factors
    assert LaurentSeries.zero(P2) * S(P2, "0 + O(X^2)") == \
        LaurentSeries.zero(P2)
    # unknown times unknown adds the bounds
    u = S(P2, "0 + O(X^2)") * S(P2, "0 + O(X^3)")
    assert u.is_indeterminate and u.precision == 5


def test_inverse():
    assert S(P3, "X^1").inverse() == S(P3, "X^-1")
    inv = S(P2, "1 + X^1").inverse(precision=5)
    assert inv == S(P2, "1 + X^1 + X^2 + X^3 + X^4 + O(X^5)")
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(P2).inverse()
    with pytest.raises(PrecisionError):
        S(P2, "0 + O(X^3)").inverse()


def test_inverse_roundtrip_random():
    rng = random.Random(11)
    one = LaurentSeries.one(P3)
    for _ in range(100):
        f = random_nonzero(rng, P3, forms="et")
        g = f.inverse(precision=20)
        assert_agree(f * g, one, "f * inv(f)")
        if f.precision is not None:
            v = f.support[0]
            assert g.precision == min(f.precision - 2 * v, 20)


def test_derivative_examples():
    assert S(P3, "X^3").derivative() == LaurentSeries.zero(P3)
    assert S(P2, "X^1 + X^2 + X^3").derivative() == S(P2, "1 + X^2")
    assert S(P5, "X^-1 + O(X^4)").derivative() == S(P5, "4*X^-2 + O(X^3)")


def test_derivative_leibniz_random():
    rng = random.Random(13)
    for _ in range(50):
        f = random_series(rng, P5, forms="et")
        g = random_series(rng, P5, forms="et")
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert_agree(lhs, rhs, "Leibniz")


def test_derivative_of_pth_power_vanishes():
    rng = random.Random(17)
    for prime in (P2, P3):
        for _ in range(20):
            f = random_series(rng, prime, lo=0, forms="e")
            d = (f ** prime.p).derivative()
            assert d.is_exact_zero


def test_frobenius_additivity():
    rng = random.Random(19)
    for prime in (P2, P3, P5):
        for _ in range(50):
            f = random_series(rng, prime)
            g = random_series(rng, prime)
            assert_agree((f + g) ** prime.p, f ** prime.p + g ** prime.p,
                         "Frobenius")


# -- composition / evaluation --------------------------------------------------

def test_compose_examples():
    assert S(P2, "X^2").compose(S(P2, "X^1 + X^2")) == S(P2, "X^2 + X^4")
    f = S(P3, "1 + 2*X^2 + X^5")
    assert f.compose(S(P3, "X^1")) == f
    assert S(P2, "X^1 + X^2").evaluate(S(P2, "X^3")) == S(P2, "X^3 + X^6")
    c = S(P5, "3")
    assert c.evaluate(S(P5, "X^2 + X^3")) == c


def test_compose_errors():
    with pytest.raises(ValueError):
        S(P2, "X^-1").compose(S(P2, "X^1"))
    with pytest.raises(ValueError):
        S(P2, "X^1").compose(S(P2, "1 + X^1"))  # argument not in the disk


def _naive_subst(f, g):
    """Independent polynomial substitution via plain dict arithmetic."""
    p = f.prime.p

    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % p
        return {e: c for e, c in out.items() if c}

    gd = {e: g.coefficient(e) for e in g.support}
    acc = {}
    for k in sorted(f.support):
        # recompute g^k from scratch; slow but independent
        power = {0: 1}
        for _ in range(k):
            power = mul(power, gd)
        c = f.coefficient(k)
        for e, v in power.items():
            acc[e] = (acc.get(e, 0) + c * v) % p
    return LaurentSeries(f.prime, acc)


def test_compose_matches_naive_substitution():
    rng = random.Random(23)
    for _ in range(50):
        prime = rng.choice((P2, P3))
        f = random_nonzero(rng, prime, lo=0, hi=7, max_terms=4, forms="e")
        g = random_disk_point(rng, prime)
        assert f.compose(g) == _naive_subst(f, g)


def test_compose_associativity():
    rng = random.Random(29)
    for _ in range(50):
        prime = rng.choice((P2, P3, P5))
        f = random_nonzero(rng, prime, lo=0, hi=6, max_terms=3, forms="e")
        g = random_disk_point(rng, prime)
        h = random_disk_point(rng, prime)
        assert f.compose(g.compose(h)) == f.compose(g).compose(h)


def test_eval_agrees_with_compose_at_monomials():
    rng = random.Random(31)
    for _ in range(30):
        f = random_nonzero(rng, P3, lo=0, hi=9, forms="et")
        n = rng.randrange(1, 5)
        z0 = LaurentSeries.monomial(P3, n)
        assert f.evaluate(z0) == f.compose(z0)


def test_eval_lipschitz():
    rng = random.Random(37)
    for _ in range(50):
        prime = rng.choice((P2, P3))
        f = random_nonzero(rng, prime, lo=0, hi=10, forms="e")
        z0 = random_disk_point(rng, prime)
        z1 = random_disk_point(rng, prime)
        dz = z0 - z1
        if dz.is_exact_zero:
            continue
        dv = (f.evaluate(z0) - f.evaluate(z1))._val_lb()
        if dv is not None:
            assert dv >= dz._val_lb()


def test_precision_monotonicity():
    rng = random.Random(41)
    for _ in range(50):
        f = random_nonzero(rng, P3, forms="et")
        g = random_nonzero(rng, P3, forms="et")
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            full = op(f, g)
            cut = op(f.truncate(6), g)
            assert_agree(full, cut, "truncated input")


def test_truncated_views_agree_with_ground_truth():
    # interval soundness: any coefficient an operation claims on truncated
    # views of exact inputs must match the exact computation
    rng = random.Random(97)
    for _ in range(300):
        prime = rng.choice((P2, P3, P5))
        f = random_nonzero(rng, prime, forms="e")
        g = random_nonzero(rng, prime, forms="e")
        fv = f.truncate(rng.randrange(-2, 9))
        gv = g.truncate(rng.randrange(-2, 9))
        assert_agree(fv + gv, f + g, "add view")
        assert_agree(fv * gv, f * g, "mul view")
        assert_agree(fv.derivative(), f.derivative(), "derivative view")
        if fv.support:
            assert_agree(fv.inverse(precision=12), f.inverse(precision=30),
                         "inverse view")
        q = prime.p
        assert_agree(fv.frobenius_embed(q).qth_root(q),
                     f.frobenius_embed(q).qth_root(q), "root view")
        fm = random_nonzero(rng, prime, lo=0, hi=9, forms="e")
        fmv = fm.truncate(rng.randrange(1, 9))
        z0 = random_disk_point(rng, prime)
        assert_agree(fmv.compose(z0), fm.compose(z0), "compose view")
        nterms = min(3, fmv.precision)
        for a, b in zip(fmv.taylor_shift(z0, terms=nterms),
                        fm.taylor_shift(z0, terms=nterms)):
            assert_agree(a, b, "taylor view")


# -- Taylor shift --------------------------------------------------------------

def test_taylor_shift_identity_center():
    f = S(P3, "1 + 2*X^2 + X^4")
    shift = f.taylor_shift(LaurentSeries.zero(P3))
    assert shift == [S(P3, "1"), LaurentSeries.zero(P3), S(P3, "2"),
                     LaurentSeries.zero(P3), S(P3, "1")]


def test_taylor_shift_frobenius_square():
    c0, c1, c2 = S(P2, "X^2").taylor_shift(S(P2, "X^1"))
    assert c0 == S(P2, "X^2")
    assert c1.is_exact_zero
    assert c2 == S(P2, "1")


def test_taylor_shift_low_coefficients_match_eval():
    rng = random.Random(43)
    for _ in range(100):
        prime = rng.choice((P2, P3, P5))
        f = random_nonzero(rng, prime, lo=0, hi=10, forms="et")
        z0 = random_disk_point(rng, prime)
        cs = f.taylor_shift(z0, terms=2)
        assert cs[0] == f.evaluate(z0)
        assert cs[1] == f.derivative().evaluate(z0)


def test_taylor_shift_precision_limit():
    f = S(P2, "X^1 + O(X^3)")
    with pytest.raises(PrecisionError):
        f.taylor_shift(S(P2, "X^1"), terms=5)


# -- exponent surgery ----------------------------------------------------------

def test_frobenius_embed():
    assert S(P2, "X^1 + X^3").frobenius_embed(2) == S(P2, "X^2 + X^6")
    assert S(P2, "1").frobenius_embed(2) == S(P2, "1")
    f = S(P3, "X^-1 + X^2 + O(X^5)")
    assert f.frobenius_embed(9) == S(P3, "X^-9 + X^18 + O(X^45)")
    with pytest.raises(ValueError):
        S(P2, "X^1").frobenius_embed(6)


def test_frobenius_embed_is_ring_homomorphism():
    rng = random.Random(47)
    for _ in range(50):
        prime = rng.choice((P2, P3))
        q = prime.p ** rng.randrange(1, 3)
        f = random_series(rng, prime)
        g = random_series(rng, prime)
        assert (f * g).frobenius_embed(q) == \
            f.frobenius_embed(q) * g.frobenius_embed(q)
        assert (f + g).frobenius_embed(q) == \
            f.frobenius_embed(q) + g.frobenius_embed(q)


def test_qth_root():
    assert S(P2, "X^2 + X^6").qth_root(2) == S(P2, "X^1 + X^3")
    assert S(P2, "1").qth_root(2) == S(P2, "1")
    with pytest.raises(ValueError):
        S(P2, "X^3").qth_root(2)
    with pytest.raises(ValueError):
        S(P3, "X^3").qth_root(2)


def test_qth_root_roundtrip():
    rng = random.Random(53)
    for prime in (P2, P3):
        for _ in range(100):
            q = prime.p ** rng.randrange(1, 3)
            base = random_nonzero(rng, prime, forms="et")
            f = base.frobenius_embed(q)
            root = f.qth_root(q)
            assert_agree(root ** q, f, "qth_root roundtrip")


# -- valuation and absolute value ----------------------------------------------

def test_valuation_examples():
    assert S(P2, "X^3 + X^5").valuation() == Valuation.finite(3)
    assert LaurentSeries.zero(P2).valuation() == Valuation.infinite()
    assert S(P2, "0 + O(X^4)").valuation() == Valuation.at_least(4)
    assert S(P2, "X^-2").abs_value() == Fraction(4)
    assert S(P3, "X^2 + O(X^7)").abs_value() == Fraction(1, 9)
    assert LaurentSeries.zero(P3).abs_value() == 0


def test_valuation_multiplicative():
    rng = random.Random(59)
    for _ in range(200):
        prime = rng.choice((P2, P3, P5))
        f = random_nonzero(rng, prime, forms="e")
        g = random_nonzero(rng, prime, forms="e")
        assert (f * g).valuation().value == \
            f.valuation().value + g.valuation().value


def test_ultrametric_inequality():
    rng = random.Random(61)
    for _ in range(100):
        f = random_nonzero(rng, P3, forms="e")
        g = random_nonzero(rng, P3, forms="e")
        s = f + g
        vf, vg = f.valuation().value, g.valuation().value
        if s.is_exact_zero:
            continue
        assert s.valuation().value >= min(vf, vg)
        if vf != vg:
            assert s.valuation().value == min(vf, vg)


# -- ring axioms at matched precision -------------------------------------------

def test_ring_axioms_random():
    rng = random.Random(67)
    for _ in range(200):
        prime = rng.choice((P2, P3, P5))
        f = random_series(rng, prime)
        g = random_series(rng, prime)
        h = random_series(rng, prime)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert_agree(f * (g + h), f * g + f * h, "distributivity")


# -- comparison ----------------------------------------------------------------

def test_compare_three_valued():
    f = S(P2, "X^1 + O(X^5)")
    g = S(P2, "X^1 + X^6 + O(X^8)")
    cmp = f.compare(g)
    assert cmp.verdict == "equal_at_precision" and cmp.precision == 5
    h = S(P2, "X^1 + X^3 + O(X^5)")
    cmp = f.compare(h)
    assert cmp.verdict == "unequal" and cmp.witness_exponent == 3
    assert S(P2, "X^1").compare(S(P2, "X^1")).verdict == "equal"


# -- grammar -------------------------------------------------------------------

def test_parse_examples():
    f = S(P3, "1 + 2*X^3 + X^5 + O(X^9)")
    assert f.coefficient(0) == 1 and f.coefficient(3) == 2
    assert f.coefficient(5) == 1 and f.precision == 9
    assert S(P2, "0") == LaurentSeries.zero(P2)
    assert S(P2, "0 + O(X^4)") == LaurentSeries.unknown(P2, 4)
    assert S(P2, "X^-2 + X^0") == LaurentSeries(P2, {-2: 1, 0: 1})
    assert S(P5, "7") == S(P5, "2")
    assert S(P5, "-1*X^2") == S(P5, "4*X^2")
    assert S(P2, "X^1 + X^1") == LaurentSeries.zero(P2)  # duplicates sum


def test_parse_errors():
    for bad in ("", "X", "1 +", "O(X^3) + 1", "X^1.5", "2*X", "x^2", "1 - X^1"):
        with pytest.raises(ParseError):
            parse_series(P2, bad)

    for past in ("X^1 + O(X^1)", "X^5 + O(X^3)", "2*X^4 + O(X^4)",
                 "0*X^4 + O(X^4)"):
        with pytest.raises(ParseError):
            parse_series(P3, past)


def test_print_canonical():
    assert str(S(P3, "2*X^3 + 1 + X^5")) == "1 + 2*X^3 + X^5"
    assert str(LaurentSeries.zero(P2)) == "0"
    assert str(LaurentSeries.unknown(P2, 4)) == "O(X^4)"
    assert str(S(P2, "X^-3 + 1 + O(X^2)")) == "X^-3 + 1 + O(X^2)"


def test_parse_print_roundtrip_random():
    rng = random.Random(71)
    for _ in range(200):
        prime = rng.choice((P2, P3, P5))
        f = random_series(rng, prime)
        assert parse_series(prime, str(f)) == f
