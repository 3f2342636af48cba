"""Support-defined additive subgroups and membership certificates.

A subgroup is described by the set of exponents its elements may use:
powers of two, multiples of a fixed integer, or an explicit finite list.
Membership testing returns a verdict object rather than a bare boolean,
so that a negative answer always carries a checkable witness (the
offending exponent and its nonzero coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import LaurentSeries, _pmin

#: Hard default for the exponent blow-up of reindexing (2^k grows fast).
REINDEX_CAP = 1 << 20


class ExponentSet:
    """A decidable predicate on exponents, authoritative below ``bound``
    (everywhere when ``bound`` is None)."""

    bound: int | None = None

    def contains(self, exponent: int) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class PowersOfTwo(ExponentSet):
    """{2^j : j >= 0} = {1, 2, 4, ...}; note exponent 0 is excluded."""

    def contains(self, exponent: int) -> bool:
        return exponent >= 1 and exponent & (exponent - 1) == 0

    def describe(self) -> str:
        return "powers-of-two"

    def __eq__(self, other) -> bool:
        return isinstance(other, PowersOfTwo)

    def __hash__(self) -> int:
        return hash("PowersOfTwo")


class MultiplesOf(ExponentSet):
    """{ell*k : k >= 0}; exponent 0 is included."""

    def __init__(self, ell: int):
        if not isinstance(ell, int) or ell < 1:
            raise ValueError("ell must be a positive integer")
        self.ell = ell

    def contains(self, exponent: int) -> bool:
        return exponent >= 0 and exponent % self.ell == 0

    def describe(self) -> str:
        return f"multiples-of-{self.ell}"

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiplesOf) and other.ell == self.ell

    def __hash__(self) -> int:
        return hash(("MultiplesOf", self.ell))


class ExplicitSet(ExponentSet):
    """A finite, sorted exponent list, authoritative below ``bound``."""

    def __init__(self, exponents, bound: int):
        self.exponents = frozenset(exponents)
        self.bound = bound
        if any(e >= bound for e in self.exponents):
            raise ValueError("listed exponents must lie below the bound")

    def contains(self, exponent: int) -> bool:
        return exponent in self.exponents

    def describe(self) -> str:
        listing = ",".join(str(e) for e in sorted(self.exponents))
        return f"explicit[{listing}]<{self.bound}"


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a support test.

    status is "member_exact", "member_at_precision" or "non_member"; a
    non-member verdict records the offending exponent (guaranteed outside
    the set) and the nonzero coefficient stored there.
    """

    status: str
    precision: int | None = None
    witness_exponent: int | None = None
    witness_coefficient: int | None = None

    @property
    def is_member(self) -> bool:
        return self.status != "non_member"


def member(f: LaurentSeries, s: ExponentSet) -> MembershipVerdict:
    """Test whether every known nonzero coefficient sits inside the set.

    Scans ascending, so the recorded witness is the lowest offender.
    Exact membership is only claimed for exact series.  A known term at or
    past the set's ``bound`` is never a witness: the verdict then holds
    only at precision min(f.precision, bound).
    """
    precision = f.precision
    for e in f.support:
        if s.bound is not None and e >= s.bound:
            precision = _pmin(precision, s.bound)
            break
        if not s.contains(e):
            return MembershipVerdict("non_member", witness_exponent=e,
                                     witness_coefficient=f.coefficient(e))
    if precision is None:
        return MembershipVerdict("member_exact")
    return MembershipVerdict("member_at_precision", precision=precision)


def reindex_powers_of_two(g: LaurentSeries,
                          cap: int = REINDEX_CAP) -> LaurentSeries:
    """Move the coefficient at exponent k to exponent 2^k.

    Additive and injective on power series; input must have no negative
    exponents.  The output precision is 2^N capped at ``cap``; a known
    coefficient that would land at or beyond the cap raises instead of
    being dropped silently.
    """
    lb = g._val_lb()
    if lb is not None and lb < 0:
        raise ValueError("cannot reindex a series with negative exponents")
    out_prec: int | None = None
    if g.precision is not None:
        out_prec = min(2 ** g.precision, cap)
    coeffs = {}
    for k in g.support:
        target = 2 ** k
        if target >= cap or (out_prec is not None and target >= out_prec):
            raise ValueError(
                f"reindexed exponent 2^{k} exceeds the cap {cap}; "
                "raise the cap explicitly to proceed")
        coeffs[target] = g.coefficient(k)
    return LaurentSeries(g.prime, coeffs, out_prec)
