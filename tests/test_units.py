import random

import pytest

from conftest import P2, P3, P5, P7, assert_agree, random_unit
from xadic import (LaurentSeries, PadicInt, PrecisionError, closure_enum,
                   decompose, padic_pow, parse_series)


def S(prime, text):
    return parse_series(prime, text)


def test_decompose_examples():
    d = decompose(S(P3, "2*X^2 + 2*X^3"))
    assert d.leading == 2 and d.exponent == 2
    assert d.principal == S(P3, "1 + X^1")
    d = decompose(S(P2, "1"))
    assert d.leading == 1 and d.exponent == 0 and d.principal == S(P2, "1")


def test_decompose_roundtrip():
    rng = random.Random(21)
    for _ in range(100):
        prime = rng.choice((P2, P3, P5))
        coeffs = {rng.randrange(-5, 8): rng.randrange(1, prime.p)
                  for _ in range(rng.randrange(1, 6))}
        f = LaurentSeries(prime, coeffs,
                          None if rng.random() < 0.5 else 12)
        if not f.support:
            continue
        d = decompose(f)
        assert d.principal.coefficient(0) == 1
        assert d.recompose() == f


def test_decompose_errors():
    with pytest.raises(ZeroDivisionError):
        decompose(LaurentSeries.zero(P2))
    with pytest.raises(PrecisionError):
        decompose(LaurentSeries.unknown(P2, 3))


def test_padic_pow_basics():
    u = S(P5, "1 + 2*X^1 + X^4")
    assert padic_pow(u, 0) == S(P5, "1")
    inv = padic_pow(S(P2, "1 + X^1"), -1, precision=6)
    assert inv == S(P2, "1 + X^1 + X^2 + X^3 + X^4 + X^5 + O(X^6)")
    with pytest.raises(ValueError):
        padic_pow(S(P2, "X^1 + X^2"), 2)  # not principal


def test_padic_pow_prime_power_exponent_exact():
    for k in range(5):
        out = padic_pow(S(P3, "1 + X^2"), 3 ** k)
        assert out == S(P3, f"1 + X^{2 * 3 ** k}")


def test_padic_pow_contraction_law():
    rng = random.Random(25)
    for _ in range(50):
        prime = rng.choice((P2, P3, P5))
        u = random_unit(rng, prime)
        k = rng.randrange(0, 7)
        w = (u - LaurentSeries.one(prime)).valuation().value
        out = padic_pow(u, prime.p ** k) - LaurentSeries.one(prime)
        assert out.valuation().value == prime.p ** k * w


def test_padic_pow_homomorphism():
    rng = random.Random(27)
    for _ in range(100):
        prime = rng.choice((P2, P3))
        u = random_unit(rng, prime)
        s, t = rng.randrange(0, 80), rng.randrange(0, 80)
        assert_agree(padic_pow(u, s + t), padic_pow(u, s) * padic_pow(u, t),
                     "unit power homomorphism")


def test_padic_pow_iterated_exponents():
    rng = random.Random(29)
    for _ in range(30):
        prime = rng.choice((P2, P3))
        u = random_unit(rng, prime, exact=True)
        s, t = rng.randrange(0, 12), rng.randrange(0, 12)
        assert_agree(padic_pow(u, s * t), padic_pow(padic_pow(u, s), t),
                     "iterated exponents")


def test_padic_pow_truncated_exponent():
    u = S(P2, "1 + X^3")
    t = PadicInt(P2, 3, 2)  # 3 mod 4; cap = 4 * 3 = 12
    out = padic_pow(u, t)
    assert out.precision == 12
    assert_agree(out, padic_pow(u, 3).truncate(12), "lift independence")
    # all lifts of the exponent agree below the cap
    for lift in (3, 7, 11):
        assert_agree(padic_pow(u, lift).truncate(12), out, "lift")
    with pytest.raises(PrecisionError):
        padic_pow(u, t, precision=20)
    # exponent 0 mod 2^k of the exact unit 1 gives exact 1
    assert padic_pow(S(P2, "1"), PadicInt(P2, 0, 3)) == S(P2, "1")


def test_closure_enum_level_and_flags():
    report = closure_enum(P3, 2, 7)
    assert report.level == 2
    assert len(report.residues) == 9
    assert report.all_supported and report.all_distinct
    report = closure_enum(P2, 3, 4)
    assert report.level == 1
    assert set(report.residues) == {S(P2, "1 + O(X^4)"),
                                    S(P2, "1 + X^3 + O(X^4)")}
    report = closure_enum(P5, 3, 3)
    assert report.level == 0
    assert report.residues == (S(P5, "1 + O(X^3)"),)


def test_closure_enum_matches_naive_powers():
    # independent oracle: repeated truncated multiplication
    u = S(P3, "1 + X^2")
    acc = S(P3, "1")
    naive = []
    for _ in range(9):
        naive.append(acc.truncate(7))
        acc = (acc * u).truncate(7)
    assert list(closure_enum(P3, 2, 7).residues) == naive


def test_closure_enum_matches_padic_pow():
    for prime in (P2, P3, P7):
        for ell in (e for e in (2, 3, 5) if e % prime.p):
            for precision in (1, 4, 13):
                u = LaurentSeries.monomial(prime, ell) + LaurentSeries.one(prime)
                report = closure_enum(prime, ell, precision)
                expected = tuple(
                    padic_pow(u, t, precision=precision).truncate(precision)
                    for t in range(prime.p ** report.level))
                assert report.residues == expected


def test_closure_group_closed_under_product():
    for prime, ell, n in ((P3, 2, 7), (P2, 3, 4)):
        residues = set(closure_enum(prime, ell, n).residues)
        for a in residues:
            for b in residues:
                assert (a * b).truncate(n) in residues


def test_closure_validation():
    with pytest.raises(ValueError):
        closure_enum(P2, 4, 5)  # not coprime
    with pytest.raises(ValueError):
        closure_enum(P2, 1, 5)
    with pytest.raises(ValueError):
        closure_enum(P2, 3, 0)
