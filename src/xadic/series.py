"""Precision-tracked formal Laurent series over a prime field.

A series is a sparse map from integer exponents to nonzero residues mod p,
together with an optional precision bound N read as an O(X^N) error term:
coefficients below N are exactly the stored ones, everything from N on is
unknown.  ``precision None`` means the stored support is the whole series.
Four shapes fall out of the pair (support, precision):

* exact zero   -- no terms, no O-term
* exact        -- terms only
* truncated    -- terms plus O(X^N); the leading term is known
* all unknown  -- O(X^N) alone, i.e. only "divisible by X^N" is known

Binary operations propagate precision by min-style rules stated on each
method; results never claim more than the inputs justify, and coefficient
queries beyond the bound raise PrecisionError instead of guessing.
Equality questions are answered three-valued through :meth:`compare`.

The variable name is never consulted: an exponent-rescaled copy of the
field (used when extracting q-th roots, q a power of p) lives in the same
representation via :meth:`frobenius_embed` / :meth:`qth_root`.

The element grammar used by the command line is implemented here::

    series := term ("+" term)* ["+" "O(X^" int ")"]
    term   := coeff ["*" "X^" int] | "X^" int
    coeff  := integer (reduced mod p)

Exponents may be negative.  Printing is canonical: ascending exponents,
reduced nonzero coefficients, no O-term on exact series.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import ParseError, PrecisionError
from .ff import FpElement, Prime

#: Fallback absolute precision for operations whose exact result would be an
#: infinite series (inverting a non-monomial exact series, negative powers).
DEFAULT_PRECISION = 64

#: A product takes the Kronecker path when both operands have at least this
#: many terms ...
_DENSE_TERMS = 32
#: ... and each spans at most this many times its term count below the
#: result precision; other products take the dict loop.
_DENSE_SPREAD = 4

#: array typecodes that read and write Kronecker slots of 1, 2, 4 or 8
#: bytes in bulk; empty unless native byte order matches the little-endian
#: ``int.to_bytes`` layout
_NATIVE = ({array(code).itemsize: code for code in "BHIQ"}
           if sys.byteorder == "little" else {})


def _pmin(a: int | None, b: int | None) -> int | None:
    """None-aware min, None meaning +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _padd(a: int | None, b: int) -> int | None:
    return None if a is None else a + b


def _mul_sparse(a: dict[int, int], b: dict[int, int], prec: int | None,
                p: int) -> dict[int, int]:
    """Coefficients of the product below ``prec`` by the pairwise loop."""
    d: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if prec is not None and e >= prec:
                continue
            d[e] = (d.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in d.items() if c}


def _spans_dense(d: dict[int, int], v: int, n: int | None) -> bool:
    """Whether the coefficient list of d from X^v below X^(v+n) (no cut
    for n None) is at most _DENSE_SPREAD times as long as d has terms."""
    if n is not None and n <= _DENSE_SPREAD * len(d):
        return True
    return max(d) - v < _DENSE_SPREAD * len(d)


def _dense_list(d: dict[int, int], v: int, n: int | None) -> list[int]:
    """Coefficients of X^-v * d below X^n (all of them for n None)."""
    size = max(d) - v + 1
    if n is not None:
        size = min(size, n)
    out = [0] * size
    for e, c in d.items():
        if e - v < size:
            out[e - v] = c
    return out


def _mul_dense(a: dict[int, int], b: dict[int, int], va: int, vb: int,
               n: int | None, p: int) -> dict[int, int]:
    """Coefficients of the product below X^(va+vb+n) by Kronecker
    substitution; va, vb are the operands' valuations."""
    ca = _dense_list(a, va, n)
    cb = ca if b is a else _dense_list(b, vb, n)
    shift = va + vb
    return {i + shift: c for i, c in enumerate(_kmul(ca, cb, n, p)) if c}


def _kmul(a: list[int], b: list[int], n: int | None, p: int) -> list[int]:
    """The first n coefficients (all for n None) of the product of two
    coefficient lists, reduced mod p.

    Kronecker substitution: each list becomes one integer with a slot of
    ``width`` bytes per coefficient, wide enough that no coefficient of the
    exact integer product overflows its slot, so one big-int multiply does
    the whole convolution.
    """
    width = -(-(min(len(a), len(b)) * (p - 1) ** 2).bit_length() // 8)
    x = _pack(a, width)
    y = x if b is a else _pack(b, width)
    size = len(a) + len(b) - 1
    raw = (x * y).to_bytes(size * width, "little")
    if n is not None and n < size:
        size = n
    code = _NATIVE.get(width)
    if code is not None:
        vals = array(code)
        vals.frombytes(raw[:size * width])
    else:
        vals = (int.from_bytes(raw[i:i + width], "little")
                for i in range(0, size * width, width))
    return [c % p for c in vals]


def _pack(coeffs: list[int], width: int) -> int:
    code = _NATIVE.get(width)
    if code is not None:
        data = array(code, coeffs).tobytes()
    else:
        data = b"".join(c.to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(data, "little")


def binomial_mod(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p by Lucas' theorem."""
    if k < 0 or k > n:
        return 0
    r = 1
    while k:
        np_, kp = n % p, k % p
        if kp > np_:
            return 0
        r = r * math.comb(np_, kp) % p
        n //= p
        k //= p
    return r


@dataclass(frozen=True)
class Valuation:
    """X-adic valuation: a known integer, +infinity, or a lower bound.

    ``kind`` is one of "finite", "infinite" (the exact zero series) or
    "at_least" (an all-unknown series, which only promises v >= value).
    """

    kind: str
    value: int | None = None

    @classmethod
    def finite(cls, v: int) -> Valuation:
        return cls("finite", v)

    @classmethod
    def infinite(cls) -> Valuation:
        return cls("infinite", None)

    @classmethod
    def at_least(cls, n: int) -> Valuation:
        return cls("at_least", n)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self) -> str:
        if self.kind == "finite":
            return str(self.value)
        if self.kind == "infinite":
            return "+inf"
        return f">={self.value}"


@dataclass(frozen=True)
class Comparison:
    """Three-valued equality verdict between two series.

    "equal" is certain (both exact, same support).  "equal_at_precision"
    means all commonly-known coefficients agree but nothing can be said
    past ``precision``.  "unequal" carries the first differing exponent.
    """

    verdict: str
    precision: int | None = None
    witness_exponent: int | None = None


class LaurentSeries:
    """An element of the Laurent series field over F_p, at finite or exact
    precision.  Instances are immutable; all operations return new values."""

    __slots__ = ("prime", "_coeffs", "_prec")

    def __init__(self, prime: Prime, coeffs: Mapping[int, int] | None = None,
                 precision: int | None = None):
        p = prime.p
        d: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(e, int):
                    raise TypeError("exponents must be ints")
                c = int(c) % p
                if c and (precision is None or e < precision):
                    d[e] = c
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "_coeffs", d)
        object.__setattr__(self, "_prec", precision)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    @classmethod
    def _new(cls, prime: Prime, coeffs: dict[int, int],
             precision: int | None) -> LaurentSeries:
        """Trusted constructor for results already in canonical form: int
        exponents below ``precision``, residues in 1..p-1.  Takes ownership
        of ``coeffs``."""
        self = object.__new__(cls)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_prec", precision)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prime: Prime) -> LaurentSeries:
        return cls._new(prime, {}, None)

    @classmethod
    def one(cls, prime: Prime) -> LaurentSeries:
        return cls._new(prime, {0: 1}, None)

    @classmethod
    def monomial(cls, prime: Prime, exponent: int, coeff: int = 1,
                 precision: int | None = None) -> LaurentSeries:
        return cls(prime, {exponent: coeff}, precision)

    @classmethod
    def unknown(cls, prime: Prime, precision: int) -> LaurentSeries:
        """The all-unknown series O(X^precision)."""
        return cls(prime, None, precision)

    # -- shape -------------------------------------------------------------

    @property
    def precision(self) -> int | None:
        return self._prec

    @property
    def is_exact(self) -> bool:
        return self._prec is None

    @property
    def is_exact_zero(self) -> bool:
        return self._prec is None and not self._coeffs

    @property
    def is_indeterminate(self) -> bool:
        return self._prec is not None and not self._coeffs

    @property
    def support(self) -> tuple[int, ...]:
        """Exponents of the known nonzero coefficients, ascending."""
        return tuple(sorted(self._coeffs))

    def coefficient(self, exponent: int) -> int:
        """Residue at X^exponent; raises PrecisionError past the bound."""
        if self._prec is not None and exponent >= self._prec:
            raise PrecisionError(
                f"coefficient at X^{exponent} not determined (O(X^{self._prec}))")
        return self._coeffs.get(exponent, 0)

    def fp_coefficient(self, exponent: int) -> FpElement:
        return FpElement(self.coefficient(exponent), self.prime)

    def _val_lb(self) -> int | None:
        """Valuation lower bound: None means +infinity (exact zero)."""
        if self._coeffs:
            return min(self._coeffs)
        return self._prec

    def valuation(self) -> Valuation:
        if self._coeffs:
            return Valuation.finite(min(self._coeffs))
        if self._prec is None:
            return Valuation.infinite()
        return Valuation.at_least(self._prec)

    def abs_value(self) -> Fraction:
        """|f| = p^(-v).  The exact zero has |f| = 0; for an all-unknown
        series this is the upper bound p^(-N)."""
        v = self._val_lb()
        if v is None:
            return Fraction(0)
        p = self.prime.p
        return Fraction(1, p ** v) if v >= 0 else Fraction(p ** (-v))

    # -- structural helpers --------------------------------------------------

    def _require_same_prime(self, other: LaurentSeries) -> None:
        if not isinstance(other, LaurentSeries):
            raise TypeError(f"expected LaurentSeries, got {type(other).__name__}")
        if other.prime != self.prime:
            raise ValueError(
                f"modulus mismatch: {self.prime.p} vs {other.prime.p}")

    def truncate(self, precision: int | None) -> LaurentSeries:
        """Weaken to O(X^precision) (no-op when already weaker)."""
        if precision is None or (self._prec is not None
                                 and self._prec <= precision):
            return self
        return LaurentSeries._new(
            self.prime,
            {e: c for e, c in self._coeffs.items() if e < precision},
            precision)

    def shifted(self, k: int) -> LaurentSeries:
        """Multiply by X^k (exponent translation)."""
        if k == 0:
            return self
        if not isinstance(k, int):
            raise TypeError("exponents must be ints")
        return LaurentSeries._new(self.prime,
                                  {e + k: c for e, c in self._coeffs.items()},
                                  _padd(self._prec, k))

    def scaled(self, c: int | FpElement) -> LaurentSeries:
        """Multiply by the scalar c.  Scaling by 0 gives the exact zero."""
        c = int(c) % self.prime.p
        if c == 0:
            return LaurentSeries.zero(self.prime)
        if c == 1:
            return self
        p = self.prime.p
        return LaurentSeries._new(
            self.prime, {e: v * c % p for e, v in self._coeffs.items()},
            self._prec)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        """Coefficientwise sum; precision = min of the operands'."""
        self._require_same_prime(other)
        prec = _pmin(self._prec, other._prec)
        p = self.prime.p
        d = dict(self._coeffs)
        for e, c in other._coeffs.items():
            c = (d.get(e, 0) + c) % p
            if c:
                d[e] = c
            else:
                d.pop(e, None)
        if prec is not None and (self._prec != prec or other._prec != prec):
            # the more precise operand knows terms the sum does not
            d = {e: c for e, c in d.items() if e < prec}
        return LaurentSeries._new(self.prime, d, prec)

    def __neg__(self) -> LaurentSeries:
        return self.scaled(self.prime.p - 1)

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        return self + (-other)

    def __mul__(self, other: LaurentSeries) -> LaurentSeries:
        """Cauchy product; precision = min(prec(f)+v(g), prec(g)+v(f)).

        Dense operands (see ``_DENSE_TERMS``) are multiplied by Kronecker
        substitution, all others by the dict loop; both give the same
        coefficients.
        """
        self._require_same_prime(other)
        if self.is_exact_zero or other.is_exact_zero:
            return LaurentSeries.zero(self.prime)
        a, b = self._coeffs, other._coeffs
        va, vb = self._val_lb(), other._val_lb()
        prec = _pmin(_padd(self._prec, vb), _padd(other._prec, va))
        p = self.prime.p
        if len(a) >= _DENSE_TERMS and len(b) >= _DENSE_TERMS:
            n = None if prec is None else prec - va - vb
            if _spans_dense(a, va, n) and _spans_dense(b, vb, n):
                return LaurentSeries._new(
                    self.prime, _mul_dense(a, b, va, vb, n, p), prec)
        return LaurentSeries._new(self.prime, _mul_sparse(a, b, prec, p),
                                  prec)

    def __pow__(self, exponent: int) -> LaurentSeries:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = LaurentSeries.one(self.prime)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def inverse(self, precision: int | None = None) -> LaurentSeries:
        """Multiplicative inverse.

        The leading coefficient must be known and nonzero.  For a series
        truncated at N with valuation v the result carries its natural
        precision N - 2v.  For exact input the inverse is exact when the
        input is a monomial and otherwise an infinite series, computed to
        the requested absolute ``precision`` (DEFAULT_PRECISION if omitted).
        An explicit ``precision`` always caps the result.  The coefficients
        come from Newton iteration on the Kronecker product.
        """
        if not self._coeffs:
            if self._prec is None:
                raise ZeroDivisionError("cannot invert the zero series")
            raise PrecisionError(
                f"cannot invert a series only known to be O(X^{self._prec})")
        p = self.prime.p
        v = min(self._coeffs)
        lc_inv = pow(self._coeffs[v], -1, p)
        if len(self._coeffs) == 1 and self._prec is None:
            out = LaurentSeries.monomial(self.prime, -v, lc_inv)
            return out.truncate(precision)
        natural = _padd(self._prec, -v)
        requested = None if precision is None else precision + v
        rp = _pmin(natural, requested)
        if rp is None:
            rp = DEFAULT_PRECISION + v
        rp = max(rp, 1)  # always resolve at least the leading coefficient
        # u = X^-v * self / lc = 1 + (valuation >= 1), cut to rp terms
        u = [0] * rp
        for e, c in self._coeffs.items():
            if e - v < rp:
                u[e - v] = c * lc_inv % p
        # Newton: if u*b = 1 mod X^m then b*(2 - u*b) inverts u mod X^2m
        b = [1]
        while len(b) < rp:
            m = len(b)
            k = min(2 * m, rp)
            err = _kmul(u[:k], b, k, p)[m:]  # u*b = 1 + X^m * err mod X^k
            b += [-c % p for c in _kmul(b[:k - m], err, k - m, p)]
        coeffs = {i - v: c * lc_inv % p for i, c in enumerate(b) if c}
        return LaurentSeries._new(self.prime, coeffs, rp - v)

    def __truediv__(self, other: LaurentSeries) -> LaurentSeries:
        self._require_same_prime(other)
        return self * other.inverse()

    def derivative(self) -> LaurentSeries:
        """Termwise k*a_k at exponent k-1, with k reduced mod p."""
        p = self.prime.p
        d = {e - 1: c * e % p for e, c in self._coeffs.items() if e % p}
        return LaurentSeries._new(self.prime, d, _padd(self._prec, -1))

    # -- substitution --------------------------------------------------------

    def compose(self, argument: LaurentSeries) -> LaurentSeries:
        """Substitute ``argument`` for the variable.

        The receiver is read as a disk map (so it must have no negative
        exponents) and the argument must have valuation >= 1.  Precision
        follows the termwise min rules plus an O(X^(N*v(arg))) tail when
        the receiver is truncated at N.
        """
        self._require_same_prime(argument)
        _check_disk_map(self)
        _check_disk_argument(argument)
        return _evaluate_terms(self.prime, self._coeffs.items(), self._prec,
                               argument)

    def evaluate(self, point: LaurentSeries) -> LaurentSeries:
        """Value at a point of the open unit disk; same rules as compose."""
        return self.compose(point)

    __call__ = evaluate

    def taylor_shift(self, center: LaurentSeries,
                     terms: int | None = None) -> list[LaurentSeries]:
        """Re-expansion coefficients c_i with f(center + h) = sum c_i h^i.

        c_0 = f(center), c_1 = f'(center).  Computed by binomial
        re-expansion with binomials taken mod p.  For a series truncated
        at N only the first N coefficients are determined; asking for more
        raises PrecisionError.
        """
        self._require_same_prime(center)
        _check_disk_map(self)
        _check_disk_argument(center)
        out = _taylor_terms(self.prime, self._coeffs.items(), self._prec,
                            center)
        if terms is None:
            if self._prec is not None:
                terms = self._prec
            else:
                terms = max(self._coeffs) + 1 if self._coeffs else 1
        elif self._prec is not None and terms > self._prec:
            raise PrecisionError(
                f"only {self._prec} shift coefficients are determined "
                f"(O(z^{self._prec}) tail)")
        zero = LaurentSeries.zero(self.prime)
        return [out.get(i, zero) for i in range(terms)]

    # -- characteristic-p exponent surgery ------------------------------------

    def frobenius_embed(self, q: int) -> LaurentSeries:
        """Multiply every exponent by q = p^n, n >= 1 (coefficients kept).

        Over the prime field this is the q-th power map; read with the
        rescaled absolute value it embeds the field into its index-q
        extension downstairs.  Precision scales to q*N.
        """
        q = _check_prime_power(self.prime, q)
        return LaurentSeries._new(
            self.prime, {e * q: c for e, c in self._coeffs.items()},
            None if self._prec is None else self._prec * q)

    def qth_root(self, q: int) -> LaurentSeries:
        """The unique g with g^q = f, for q = p^n.

        Requires every known nonzero coefficient to sit at an exponent
        divisible by q; coefficient roots are the coefficients themselves
        over the prime field.  Precision drops to floor(N/q).
        """
        q = _check_prime_power(self.prime, q)
        for e in self._coeffs:
            if e % q:
                raise ValueError(
                    f"support not contained in {q}Z: exponent {e}")
        return LaurentSeries(self.prime,
                             {e // q: c for e, c in self._coeffs.items()},
                             None if self._prec is None else self._prec // q)

    # -- comparison ----------------------------------------------------------

    def compare(self, other: LaurentSeries) -> Comparison:
        self._require_same_prime(other)
        prec = _pmin(self._prec, other._prec)
        exps = set(self._coeffs) | set(other._coeffs)
        for e in sorted(exps):
            if prec is not None and e >= prec:
                break
            if self._coeffs.get(e, 0) != other._coeffs.get(e, 0):
                return Comparison("unequal", witness_exponent=e)
        if prec is None:
            return Comparison("equal")
        return Comparison("equal_at_precision", precision=prec)

    def agrees_with(self, other: LaurentSeries) -> bool:
        """True unless the two series provably differ."""
        return self.compare(other).verdict != "unequal"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.prime == other.prime and self._prec == other._prec
                and self._coeffs == other._coeffs)

    def __hash__(self) -> int:
        return hash((self.prime.p, self._prec,
                     frozenset(self._coeffs.items())))

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"X^{e}")
            else:
                parts.append(f"{c}*X^{e}")
        if self._prec is not None:
            parts.append(f"O(X^{self._prec})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self} mod {self.prime.p}>"


# -- shared substitution machinery (also backs maps with series coefficients) --

Coefficient = Union[int, LaurentSeries]


def _check_disk_map(f: LaurentSeries) -> None:
    lb = f._val_lb()
    if lb is not None and lb < 0:
        raise ValueError(
            "series with negative exponents cannot act as a map on the "
            "open unit disk; normalize first")


def _check_disk_argument(z0: LaurentSeries) -> None:
    lb = z0._val_lb()
    if lb is not None and lb < 1:
        raise ValueError("argument must lie in the open unit disk "
                         "(valuation >= 1)")


def _term(coeff: Coefficient, zpow: LaurentSeries) -> LaurentSeries:
    if isinstance(coeff, int):
        return zpow.scaled(coeff)
    return coeff * zpow


def _evaluate_terms(prime: Prime, items: Iterable[tuple[int, Coefficient]],
                    zprec: int | None, z0: LaurentSeries) -> LaurentSeries:
    """Sum coeff_k * z0^k plus the O(z^zprec) tail bound."""
    acc = LaurentSeries.zero(prime)
    zpow = LaurentSeries.one(prime)
    last = 0
    for k, coeff in sorted(items, key=lambda kv: kv[0]):
        if k != last:
            zpow = zpow * z0 ** (k - last)
            last = k
        acc = acc + _term(coeff, zpow)
    if zprec is not None:
        lb = z0._val_lb()
        if lb is not None:
            acc = acc.truncate(zprec * lb)
        elif zprec <= 0:
            # at the exact zero the unknown tail is a_0 itself when zprec is
            # 0; from z^1 on it vanishes
            acc = acc.truncate(0)
    return acc


def _taylor_terms(prime: Prime, items: Iterable[tuple[int, Coefficient]],
                  zprec: int | None,
                  z0: LaurentSeries) -> dict[int, LaurentSeries]:
    """Coefficients of f(z0 + h) as a map in h, indexed by h-exponent.

    When the map is truncated at zprec, the unknown tail contributes
    O(X^((zprec-i)*v(z0))) to every c_i; those bounds are folded in, so
    absent indices below zprec really are exact zeros.
    """
    p = prime.p
    items = sorted(items, key=lambda kv: kv[0])
    maxk = items[-1][0] if items else 0
    zpows = [LaurentSeries.one(prime)]
    for _ in range(maxk):
        zpows.append(zpows[-1] * z0)
    out: dict[int, LaurentSeries] = {}
    zero = LaurentSeries.zero(prime)
    for k, coeff in items:
        for i in range(k + 1):
            b = binomial_mod(k, i, p)
            if not b:
                continue
            t = _term(coeff, zpows[k - i]).scaled(b)
            out[i] = out.get(i, zero) + t
    if zprec is not None:
        lb = z0._val_lb()
        if lb is not None:
            for i in range(zprec):
                out[i] = out.get(i, zero).truncate((zprec - i) * lb)
    return {i: c for i, c in out.items() if not c.is_exact_zero}


def _check_prime_power(prime: Prime, q: int) -> int:
    if not isinstance(q, int) or q < prime.p:
        raise ValueError(f"{q} is not a positive power of {prime.p}")
    m = q
    while m % prime.p == 0:
        m //= prime.p
    if m != 1:
        raise ValueError(f"{q} is not a positive power of {prime.p}")
    return q


# -- text grammar ------------------------------------------------------------

_TERM_COEFF_X = re.compile(r"^(-?\d+)\*X\^(-?\d+)$")
_TERM_X = re.compile(r"^X\^(-?\d+)$")
_TERM_CONST = re.compile(r"^(-?\d+)$")
_TERM_ORDER = re.compile(r"^O\(X\^(-?\d+)\)$")


def parse_series(prime: Prime, text: str) -> LaurentSeries:
    """Parse the series grammar; inverse of ``str`` on canonical output."""
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ParseError("empty series")
    tokens = compact.split("+")
    coeffs: dict[int, int] = {}
    precision: int | None = None
    for pos, tok in enumerate(tokens):
        if not tok:
            raise ParseError(f"empty term in {text!r}")
        m = _TERM_ORDER.match(tok)
        if m:
            if pos != len(tokens) - 1:
                raise ParseError("O(...) must be the last term")
            precision = int(m.group(1))
            continue
        m = _TERM_COEFF_X.match(tok)
        if m:
            c, e = int(m.group(1)), int(m.group(2))
        else:
            m = _TERM_X.match(tok)
            if m:
                c, e = 1, int(m.group(1))
            else:
                m = _TERM_CONST.match(tok)
                if m:
                    c, e = int(m.group(1)), 0
                else:
                    raise ParseError(f"bad term {tok!r}")
        coeffs[e] = coeffs.get(e, 0) + c
    if precision is not None and coeffs and max(coeffs) >= precision:
        raise ParseError(
            f"term X^{max(coeffs)} at or past the O(X^{precision}) term")
    return LaurentSeries(prime, coeffs, precision)
