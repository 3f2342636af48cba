"""The unit group of the series field: decomposition and p-adic powers.

Every invertible series factors uniquely as scalar * X^v * principal part,
where the principal part starts with constant term 1.  Principal units
carry an action of the p-adic integers: u^t is well defined for t known
mod p^k because u^(p^k) = 1 + (u-1)^(p^k) in characteristic p, so all
integer lifts of t agree mod X^(p^k * v(u-1)).  The same identity gives
base-p exponentiation that never multiplies more than p-1 dense factors
per digit.

``closure_enum`` lists the finite-level image of the cyclic-closure of
1 + X^ell modulo X^N: exactly p^k residues at the minimal level k with
ell * p^k >= N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PrecisionError
from .ff import FpElement, Prime
from .padic import PadicInt
from .series import LaurentSeries, _pmin
from .subgroups import MultiplesOf, member


@dataclass(frozen=True)
class UnitDecomposition:
    """leading * X^exponent * principal, with principal = 1 + higher terms."""

    leading: FpElement
    exponent: int
    principal: LaurentSeries

    def recompose(self) -> LaurentSeries:
        return self.principal.shifted(self.exponent).scaled(self.leading)


def decompose(z: LaurentSeries) -> UnitDecomposition:
    """Split a unit into scalar, monomial and principal factors."""
    if z.is_exact_zero:
        raise ZeroDivisionError("the zero series is not a unit")
    if z.is_indeterminate:
        raise PrecisionError(
            f"cannot decompose a series only known to be O(X^{z.precision})")
    v = z.support[0]
    lead = z.coefficient(v)
    inv = pow(lead, -1, z.prime.p)
    principal = z.shifted(-v).scaled(inv)
    return UnitDecomposition(FpElement(lead, z.prime), v, principal)


def _check_principal(u: LaurentSeries) -> None:
    if u.is_indeterminate or u.is_exact_zero:
        raise ValueError("not a principal unit: leading term unknown or zero")
    sup = u.support
    if sup[0] != 0 or u.coefficient(0) != 1 or (len(sup) > 1 and sup[1] < 1):
        raise ValueError("not a principal unit: expected 1 + (valuation >= 1)")


def _power_nonneg(u: LaurentSeries, t: int,
                  precision: int | None) -> LaurentSeries:
    """u^t for t >= 0 via base-p digits and exponent-scaling p-th powers."""
    p = u.prime.p
    acc = LaurentSeries.one(u.prime)
    block = u
    while t:
        t, d = divmod(t, p)
        for _ in range(d):
            acc = (acc * block).truncate(precision)
        if t:
            block = block.frobenius_embed(p).truncate(precision)
    return acc


def padic_pow(u: LaurentSeries, t: PadicInt | int,
              precision: int | None = None) -> LaurentSeries:
    """Raise a principal unit to a p-adic exponent.

    Exact exponents give the exact (or naturally precision-limited) power;
    negative exponents go through the inverse, which for exact u is
    computed to ``precision`` (or the module default).  For an exponent
    known mod p^k the result is the common value of all lifts, so its
    precision is capped at p^k * v(u-1); requesting more than the cap
    raises.
    """
    _check_principal(u)
    if isinstance(t, int):
        t = PadicInt(u.prime, t)
    if t.prime != u.prime:
        raise ValueError(f"modulus mismatch: {u.prime.p} vs {t.prime.p}")

    if t.precision is None:
        if t.value < 0:
            base = u.inverse(precision=precision)
            return _power_nonneg(base, -t.value, precision)
        return _power_nonneg(u, t.value, precision)

    h = u - LaurentSeries.one(u.prime)
    cap: int | None
    if h.is_exact_zero:
        cap = None  # u == 1 exactly: every lift gives 1
    else:
        cap = u.prime.p ** t.precision * h._val_lb()
    if precision is not None and cap is not None and precision > cap:
        raise PrecisionError(
            f"exponent known mod {u.prime.p}^{t.precision} determines the "
            f"power only mod X^{cap}, requested X^{precision}")
    target = _pmin(cap, precision)
    return _power_nonneg(u, t.value, target).truncate(target)


@dataclass(frozen=True)
class ClosureReport:
    """Finite-level snapshot of the closed group generated by 1 + X^ell.

    ``residues`` lists (1+X^ell)^t mod X^precision for t = 0 .. p^level - 1,
    where level is minimal with ell * p^level >= precision; at that level
    the powers exhaust all residues of the closure.
    """

    ell: int
    precision: int
    level: int
    residues: tuple[LaurentSeries, ...] = field(repr=False)
    all_supported: bool
    all_distinct: bool


def closure_enum(prime: Prime, ell: int, precision: int) -> ClosureReport:
    """Enumerate the closure of 1 + X^ell modulo X^precision."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if ell % prime.p == 0:
        raise ValueError(f"ell={ell} must be coprime to p={prime.p}")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    level = 0
    while ell * prime.p ** level < precision:
        level += 1
    u = LaurentSeries.monomial(prime, ell) + LaurentSeries.one(prime)
    # residue t is u^t mod X^precision, built from residue t-1
    acc = LaurentSeries.one(prime).truncate(precision)
    residues = [acc]
    for _ in range(1, prime.p ** level):
        acc = (acc * u).truncate(precision)
        residues.append(acc)
    supported = all(member(r, MultiplesOf(ell)).is_member for r in residues)
    distinct = len(set(residues)) == len(residues)
    return ClosureReport(ell=ell, precision=precision, level=level,
                         residues=tuple(residues), all_supported=supported,
                         all_distinct=distinct)
