"""Property tests for the series product and inverse kernels.

The dict loop is the oracle: a product taken by Kronecker substitution must
equal it in every coefficient and in precision.  Each product is computed
twice, once with every operand pair forced onto each path.
"""

import contextlib
import math
import random

import pytest

from xadic import DEFAULT_PRECISION, LaurentSeries, Prime
from xadic import series as series_mod

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

PRIMES = (2, 3, 7, 2147483647)
#: term counts around the dense threshold, plus small and larger ones
SIZES = (0, 1, 2, 31, 32, 33, 40, 64, 97)


@contextlib.contextmanager
def forced_path(dense: bool):
    """Send every product through one path: dense (Kronecker) or sparse."""
    saved = series_mod._DENSE_TERMS, series_mod._DENSE_SPREAD
    series_mod._DENSE_TERMS, series_mod._DENSE_SPREAD = \
        (1, math.inf) if dense else (math.inf, 0)
    try:
        yield
    finally:
        series_mod._DENSE_TERMS, series_mod._DENSE_SPREAD = saved


@st.composite
def operands(draw, p, wide=False):
    """A series with valuation in [-8, 8]: mostly nonzero coefficients, a
    few holes, exact or truncated (possibly below its own top term), and
    for ``wide`` one extra term far above the rest."""
    v = draw(st.integers(-8, 8))
    size = draw(st.sampled_from(SIZES) | st.integers(0, 100))
    coeffs = draw(st.lists(st.integers(1, p - 1), min_size=size,
                           max_size=size))
    holes = set(draw(st.lists(st.integers(0, max(size - 1, 0)),
                              max_size=size // 4 + 1)))
    d = {v + i: c for i, c in enumerate(coeffs) if i not in holes}
    if wide:
        d[v + draw(st.integers(10 ** 3, 10 ** 4))] = draw(
            st.integers(1, p - 1))
    precision = None
    if draw(st.booleans()):
        precision = v + draw(st.integers(0, size + 8))
    return LaurentSeries(Prime(p), d, precision)


@st.composite
def pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    wide = draw(st.sampled_from((None, 0, 1)))
    f = draw(operands(p, wide=wide == 0))
    g = draw(operands(p, wide=wide == 1))
    return f, g


def product_precision(f, g):
    """The documented rule min(prec(f)+v(g), prec(g)+v(f)), None = exact."""
    if f.is_exact_zero or g.is_exact_zero:
        return None
    vf = f.support[0] if f.support else f.precision
    vg = g.support[0] if g.support else g.precision
    bounds = [n + v for n, v in ((f.precision, vg), (g.precision, vf))
              if n is not None]
    return min(bounds) if bounds else None


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_dense_product_equals_dict_product(fg):
    f, g = fg
    with forced_path(dense=True):
        dense = f * g
    with forced_path(dense=False):
        sparse = f * g
    assert dense._coeffs == sparse._coeffs
    assert dense.precision == sparse.precision == product_precision(f, g)
    assert f * g == sparse
    assert g * f == sparse


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(operands))
def test_dense_square_equals_dict_square(f):
    with forced_path(dense=True):
        dense = f * f
    with forced_path(dense=False):
        sparse = f * f
    assert dense == sparse


def test_path_choice():
    P = Prime(7)
    compact = LaurentSeries(P, {e: 1 + e % 6 for e in range(40)}, 40)
    wide = LaurentSeries(P, {e * 25_000: 1 + e % 6 for e in range(40)})
    short = LaurentSeries(P, {e: 1 + e % 6 for e in range(31)}, 31)
    calls = []
    kernel = series_mod._mul_dense

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    series_mod._mul_dense = spy
    try:
        for f, g, dense in ((compact, compact, True),
                            (compact, wide, True),  # cut to 40 terms
                            (wide, wide, False),
                            (wide, wide.truncate(40), False),
                            (compact, short, False)):
            calls.clear()
            product = f * g
            assert bool(calls) == dense, (f, g)
            assert product._coeffs == series_mod._mul_sparse(
                f._coeffs, g._coeffs, product.precision, 7)
    finally:
        series_mod._mul_dense = kernel


@pytest.mark.parametrize("bulk", (True, False))
def test_kronecker_slot_widths(bulk, monkeypatch):
    """Slots of 1 to 9 bytes give the schoolbook product, both through the
    bulk array reads and through the int.to_bytes loop."""
    if not bulk:
        monkeypatch.setattr(series_mod, "_NATIVE", {})
    rng = random.Random(5)
    widths = set()
    for p in (2, 7, 251, 65521, 16777213, 2147483647):
        for n in (1, 40, 300):
            a = [rng.randrange(p) for _ in range(n)]
            b = [rng.randrange(p) for _ in range(n + 3)]
            ref = [0] * (2 * n + 2)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    ref[i + j] = (ref[i + j] + x * y) % p
            assert series_mod._kmul(a, b, None, p) == ref
            assert series_mod._kmul(a, b, n, p) == ref[:n]
            widths.add(-(-(n * (p - 1) ** 2).bit_length() // 8))
    assert set(range(1, 10)) <= widths


def test_dense_product_matches_sympy():
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    for p in PRIMES:
        P = Prime(p)
        a = [(7 * i * i + 3) % p or 1 for i in range(70)]
        b = [(5 * i + 11) % p or 1 for i in range(45)]
        f = LaurentSeries(P, dict(enumerate(a)))
        g = LaurentSeries(P, dict(enumerate(b)))
        with forced_path(dense=True):
            h = f * g
        # galoistools lists run from the leading coefficient down
        ref = galoistools.gf_mul(a[::-1], b[::-1], p, ZZ)[::-1]
        assert h == LaurentSeries(P, dict(enumerate(ref)))


@st.composite
def invertibles(draw):
    p = draw(st.sampled_from(PRIMES))
    f = draw(operands(p))
    assume(f.support)
    requested = draw(st.none() | st.integers(-12, 140))
    return f, requested


def old_inverse_precision(f, requested):
    """Natural precision N - 2v, capped by the requested precision, with at
    least the leading coefficient resolved; exact monomials invert
    exactly."""
    v = f.support[0]
    if f.is_exact and len(f.support) == 1:
        return requested
    caps = [n for n in (None if f.is_exact else f.precision - 2 * v,
                        requested) if n is not None]
    return max(min(caps) if caps else DEFAULT_PRECISION, 1 - v)


@settings(max_examples=200, deadline=None)
@given(invertibles())
def test_inverse_precision_and_product(fr):
    f, requested = fr
    inv = f.inverse(precision=requested)
    assert inv.precision == old_inverse_precision(f, requested)
    product = f * inv
    one = LaurentSeries.one(f.prime)
    assert product == one.truncate(product.precision)
    if inv.precision is not None:
        # every coefficient the inverse claims is pinned by f * inv = 1
        assert product.precision >= inv.precision + f.support[0]
