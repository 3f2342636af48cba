"""Reference arithmetic for the benchmark's output checks.

Nothing here imports xadic: a series is a plain ``{exponent: residue}`` dict
plus a precision bound (``None`` = exact), or a dense list of residues for
the large dense-kernel checks.  The algorithms are the textbook ones (list
convolution, Horner, binary powering) so they share no code path with the
library they check.
"""

from __future__ import annotations

import re

# -- dense lists (dense_arith) -------------------------------------------------


def dense(coeffs: dict[int, int], n: int) -> list[int]:
    """The coefficients at exponents 0..n-1 as a list."""
    out = [0] * n
    for e, c in coeffs.items():
        if 0 <= e < n:
            out[e] = c
    return out


def list_mul(a: list[int], b: list[int], p: int, n: int) -> list[int]:
    """Plain convolution of two coefficient lists, truncated to n terms."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            m = n - i
            seg = b[:m]
            out[i:i + len(seg)] = [x + ai * y for x, y in
                                   zip(out[i:i + len(seg)], seg)]
    return [c % p for c in out]


def list_pow(u: list[int], t: int, p: int, n: int) -> list[int]:
    """u**t truncated to n terms by binary powering (t >= 0)."""
    result = [1] + [0] * (n - 1)
    base = u[:n] + [0] * (n - len(u))
    while t:
        if t & 1:
            result = list_mul(result, base, p, n)
        t >>= 1
        if t:
            base = list_mul(base, base, p, n)
    return result


def list_compose(f: list[int], z: dict[int, int], p: int, n: int) -> list[int]:
    """f(z) truncated to n terms by Horner's rule; z has valuation >= 1."""
    acc = [0] * n
    for a in reversed(f):
        nxt = [0] * n
        for e, c in z.items():
            if e < n:
                nxt[e:] = [x + c * y for x, y in zip(nxt[e:], acc[:n - e])]
        nxt[0] += a
        acc = [x % p for x in nxt]
    return acc


# -- sparse dicts (certify, cli_batch) ----------------------------------------


def valuation(d: dict[int, int]) -> int | None:
    return min(d) if d else None


def dict_mul(a: dict[int, int], b: dict[int, int], p: int,
             bound: int | None) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if bound is None or e < bound:
                out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def dict_add(a: dict[int, int], b: dict[int, int], p: int,
             scale: int = 1) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        out[e] = (out.get(e, 0) + scale * c) % p
    return {e: c for e, c in out.items() if c}


def dict_eval(f: dict[int, int], z: dict[int, int], p: int,
              bound: int | None) -> dict[int, int]:
    """sum f_k z^k over the known terms of f, truncated below bound."""
    acc: dict[int, int] = {}
    zpow = {0: 1}
    last = 0
    for k in sorted(f):
        for _ in range(k - last):
            zpow = dict_mul(zpow, z, p, bound)
        last = k
        acc = dict_add(acc, zpow, p, f[k])
    return acc


def agrees_below(claimed: dict[int, int], truth: dict[int, int],
                 bound: int | None) -> bool:
    """Every coefficient below bound (all of them when None) matches."""
    exps = set(claimed) | set(truth)
    return all(claimed.get(e, 0) == truth.get(e, 0) for e in exps
               if bound is None or e < bound)


def is_power_of_two(e: int) -> bool:
    return e >= 1 and e & (e - 1) == 0


# -- text grammar -------------------------------------------------------------

_TERM = re.compile(r"^(?:(-?\d+)\*)?X\^(-?\d+)$|^(-?\d+)$")
_ORDER = re.compile(r"^O\(X\^(-?\d+)\)$")


def fmt(coeffs: dict[int, int], prec: int | None) -> str:
    """Canonical series text: ascending terms, then the O-term."""
    parts = []
    for e in sorted(coeffs):
        c = coeffs[e]
        if e == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"X^{e}")
        else:
            parts.append(f"{c}*X^{e}")
    if prec is not None:
        parts.append(f"O(X^{prec})")
    return " + ".join(parts) if parts else "0"


def parse(text: str, p: int) -> tuple[dict[int, int], int | None]:
    """Read canonical series text back; raises ValueError on anything else."""
    coeffs: dict[int, int] = {}
    prec = None
    for tok in text.replace(" ", "").split("+"):
        m = _ORDER.match(tok)
        if m:
            prec = int(m.group(1))
            continue
        m = _TERM.match(tok)
        if not m or prec is not None:
            raise ValueError(f"unexpected term {tok!r} in {text!r}")
        if m.group(3) is not None:
            c, e = int(m.group(3)), 0
        else:
            c, e = int(m.group(1) or 1), int(m.group(2))
        coeffs[e] = (coeffs.get(e, 0) + c) % p
    return {e: c for e, c in coeffs.items() if c}, prec
