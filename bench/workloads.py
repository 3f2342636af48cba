"""The benchmark's three seeded workloads.

Each workload is a closed loop with one client: the next call starts when
the previous one returned.  Work is generated in passes; pass k is a pure
function of (workload, seed, k), so the same seed gives the same inputs.

Every pass holds the same slots: ``mix`` fixes how many calls of each kind
it makes, and slot j of a kind always has the same size (a log-uniform grid
over the kind's range, offset per kind so kinds do not share sizes), prime,
shape and every other parameter that sets the amount of work (exponent
digits, ell, the shape of a point).  The seed and pass draw the rest --
coefficients, which exponents a support uses, the order of the calls.  So all
passes do the same amount of work and their timings can be compared: run.py
reports medians over passes, which a burst of load from outside the process
moves far less than a run total does.  (With seeded sizes, the few largest
calls decided most of a run's time and its peak memory, and medians moved
by 20% between seeds.)

Only the generated inputs reach the library, built through its public
constructors.  Every call's output is checked against :mod:`oracle` (or,
for certificates, re-verified) outside the timed region.

Per op the check yields one of five statuses:

* ``ok``        -- checked answer
* ``undecided`` -- a documented non-answer: PrecisionError / exit 3,
                   ZeroAtPrecision / exit 2
* ``lost``      -- a CLI input line that never ran because an earlier line
                   ended the batch with the documented exit 3 (the known
                   ``--series-file`` abort): no answer, but no failure
* ``error``     -- an undocumented exception, or a CLI output line lost
                   any other way
* ``wrong``     -- the output failed its check
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from pathlib import Path

import oracle

clock = time.perf_counter_ns


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def _coprime(p: int, j: int, lo: int = 2, hi: int = 12) -> int:
    """The j-th (cyclically) integer in [lo, hi) coprime to p."""
    ells = [e for e in range(lo, hi) if math.gcd(e, p) == 1]
    return ells[j % len(ells)]


class Item:
    """One timed call: its generated spec, its built inputs and the call."""

    __slots__ = ("spec", "call", "inputs")

    def __init__(self, spec, call=None, inputs=None):
        self.spec = spec
        self.call = call
        self.inputs = inputs


class Workload:
    """Shared pass planning and single-call timing."""

    name = ""
    #: (kind, calls of that kind per pass)
    mix: tuple[tuple[str, int], ...] = ()

    def __init__(self, xadic, seed: int, smoke: bool, workdir: Path):
        self.x = xadic
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def plan(self, k: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{self.seed}:pass:{k}")
        specs = []
        for n, (kind, count) in enumerate(self.mix):
            for j in range(count):
                u = (j + (n + 0.5) / len(self.mix)) / count
                specs.append(self.spec(kind, j, u, rng))
        rng.shuffle(specs)
        return specs

    def warmup(self) -> list[dict]:
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        kind = self.mix[0][0]
        return [self.spec(kind, 0, 0.0, rng)]

    def build(self, specs: list[dict]) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item) -> tuple[int, list[int | None], object]:
        """Time one call; returns its duration (ns), per-op latencies (ns,
        None for an op that never ran) and the result or the exception it
        raised."""
        call = item.call
        t0 = clock()
        try:
            result = call()
        except Exception as exc:  # judged by check(), outside the timing
            dt = clock() - t0
            return dt, [dt], exc
        dt = clock() - t0
        return dt, [dt], result

    def check(self, item: Item, payload) -> list[tuple[str, str | None]]:
        raise NotImplementedError

    def observe(self, tracer, payload) -> None:
        """Feed workload-level counters of one traced call to the tracer."""

    def cleanup(self) -> None:
        pass


def _exc_cause(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:80]}"


# -- dense_arith --------------------------------------------------------------


class DenseArith(Workload):
    """Dense truncated operands (about 90% of coefficients nonzero),
    p in {2, 7}, sizes log-uniform in [64, 1024] terms."""

    name = "dense_arith"
    mix = (("mul", 16), ("inverse", 8), ("compose", 2), ("pow_exact", 4),
           ("pow_mod", 4), ("closure", 4))

    def _size(self, u: float) -> int:
        return _log_uniform(u, 8, 24) if self.smoke else \
            _log_uniform(u, 64, 1024)

    @staticmethod
    def _dense(rng, p, n, start=0):
        return [rng.randrange(1, p) if i >= start and rng.random() < 0.9
                else 0 for i in range(n)]

    def spec(self, kind, i, u, rng):
        p = (2, 7)[i % 2]
        n = self._size(u)
        s = {"kind": kind, "p": p, "n": n}
        if kind == "mul":
            s["a"] = self._dense(rng, p, n)
            s["b"] = self._dense(rng, p, n)
        elif kind == "inverse":
            s["a"] = self._dense(rng, p, n)
            s["a"][0] = rng.randrange(1, p)
        elif kind == "compose":
            s["a"] = self._dense(rng, p, n)
            s["z"] = {1: rng.randrange(1, p), 2 + i // 2 % 2:
                      rng.randrange(1, p)}
        elif kind in ("pow_exact", "pow_mod"):
            s["a"] = self._dense(rng, p, n, start=1)
            s["a"][0] = 1
            s["a"][1] = rng.randrange(1, p)
            # two or three nonzero base-p digits: the cost of the power is
            # a few dense multiplies, not a long chain.  A nonzero last
            # digit keeps the result precision at n.
            if kind == "pow_exact":
                s["t"] = 1 + p + p * p if i // 2 % 2 else 1 + p ** 3
            else:
                s["k"] = max(2, round(math.log(n, p)) - i // 2 % 2)
                s["t"] = 1 + min(p - 1, 2) * p
        elif kind == "closure":
            s["ell"] = (3, 5)[i // 2 % 2]
        return s

    def build(self, specs):
        x = self.x
        items = []
        for s in specs:
            P = x.Prime(s["p"])
            n = s["n"]
            item = Item(s)
            if "a" in s:
                a = x.LaurentSeries(P, {e: c for e, c in enumerate(s["a"])
                                        if c}, n)
            kind = s["kind"]
            if kind == "mul":
                b = x.LaurentSeries(P, {e: c for e, c in enumerate(s["b"])
                                        if c}, n)
                item.call = lambda a=a, b=b: a * b
            elif kind == "inverse":
                item.call = lambda a=a: a.inverse()
            elif kind == "compose":
                z = x.LaurentSeries(P, s["z"])
                item.call = lambda a=a, z=z: a.compose(z)
            elif kind == "pow_exact":
                item.call = lambda a=a, t=s["t"]: x.padic_pow(a, t)
            elif kind == "pow_mod":
                t = x.PadicInt(P, s["t"], s["k"])
                item.call = lambda a=a, t=t: x.padic_pow(a, t)
            else:
                item.call = (lambda P=P, ell=s["ell"], n=n:
                             x.closure_enum(P, ell, n))
            items.append(item)
        return items

    def check(self, item, payload):
        s = item.spec
        if isinstance(payload, Exception):
            return [("error", _exc_cause(payload))]
        try:
            good = getattr(self, "_check_" + s["kind"].split("_")[0])(
                s, payload)
        except Exception as exc:  # a malformed result fails its check
            return [("wrong", "check raised " + _exc_cause(exc))]
        return [("ok", None) if good else ("wrong", f"{s['kind']} mismatch")]

    @staticmethod
    def _known(r, n):
        return oracle.dense({e: r.coefficient(e) for e in r.support}, n)

    def _check_mul(self, s, r):
        p, n = s["p"], s["n"]
        a, b = s["a"], s["b"]
        va = next((i for i, c in enumerate(a) if c), n)
        vb = next((i for i, c in enumerate(b) if c), n)
        prec = min(n + vb, n + va)
        return (r.precision == prec and
                self._known(r, prec) == oracle.list_mul(a, b, p, prec))

    def _check_inverse(self, s, r):
        p, n = s["p"], s["n"]
        if r.precision != n or min(r.support, default=0) < 0:
            return False
        one = oracle.list_mul(s["a"], self._known(r, n), p, n)
        return one == [1] + [0] * (n - 1)

    def _check_compose(self, s, r):
        p, n = s["p"], s["n"]
        return (r.precision == n and self._known(r, n) ==
                oracle.list_compose(s["a"], s["z"], p, n))

    def _check_pow(self, s, r):
        p, n, t = s["p"], s["n"], s["t"]
        # u^(p^j) = u(X^(p^j)) in characteristic p, so a truncated u fixes
        # u^t to n * p^(v_p(t)); an exponent known mod p^k caps it at p^k
        prec = n
        while t % p == 0:
            prec, t = prec * p, t // p
        if s["kind"] == "pow_mod":
            prec = min(prec, p ** s["k"])
        return (r.precision == prec and self._known(r, prec) ==
                oracle.list_pow(s["a"], s["t"], p, prec))

    def _check_closure(self, s, r):
        p, n, ell = s["p"], s["n"], s["ell"]
        level = 0
        while ell * p ** level < n:
            level += 1
        return (r.level == level and len(r.residues) == p ** level
                and r.all_supported and r.all_distinct)


# -- certify ------------------------------------------------------------------


class Certify(Workload):
    """Disk maps of degree < 64 over p in {2, 3, 7} through the certificate
    engines; about 4% of calls are index_gap_demo at p in {5, 7}."""

    name = "certify"
    mix = (("tight", 32), ("pdiv", 32), ("series", 16), ("plain", 16),
           ("index_gap", 4))

    def spec(self, kind, i, u, rng):
        if kind == "index_gap":
            p = (5, 7)[i % 2]
            return {"kind": kind, "p": p, "gen": 2 + i // 2 % 2}
        p = (2, 3, 7)[i % 3]
        target = ("pow2", "mult")[(i // 3) % 2]
        deg = 4 + int(u * (24 if self.smoke else 60))
        s = {"kind": kind, "p": p, "target": target,
             "ell": _coprime(p, i // 6)}
        if kind == "series":
            s["coeffs"] = self._series_coeffs(rng, p, deg)
            s["zprec"] = deg if i % 2 else None
            return s
        if kind == "plain":
            exps = rng.sample(range(deg), max(2, deg // 2))
            prec = None
        elif kind == "pdiv":
            q = p * p if i % 2 and p < 7 else p
            multiples = range(0, deg + q, q)
            exps = rng.sample(multiples, min(len(multiples),
                                             rng.randrange(1, 4))) + [q]
            prec = None
        else:  # tight: the O-term sits just past the first or second
            # nonconstant term, so the map is barely resolved
            step = p if i % 2 else 1
            exps = rng.sample(range(0, deg + step, step),
                              max(1, deg // (3 * step))) + [2 * step]
            body = sorted({e for e in exps if e >= 1})
            prec = body[min(len(body) - 1, (i // 2) % 2)] + 1
        s["series"] = {e: rng.randrange(1, p) for e in exps}
        s["prec"] = prec
        return s

    @staticmethod
    def _series_coeffs(rng, p, deg):
        """Coefficient series for an AnalyticMap: a few terms around a
        small (possibly negative) valuation, half of them truncated."""
        out = {}
        for k in rng.sample(range(deg), min(deg, rng.randrange(2, 6))) + [1]:
            v = rng.randrange(-3, 4)
            exps = rng.sample(range(v, v + 6), rng.randrange(1, 4))
            prec = v + 6 + rng.randrange(3) if rng.random() < 0.5 else None
            out[k] = ({e: rng.randrange(1, p) for e in exps}, prec)
        return out

    def warmup(self):
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        return [self.spec("plain", 1, 0.5, rng)]

    def build(self, specs):
        x = self.x
        items = []
        for s in specs:
            P = x.Prime(s["p"])
            if s["kind"] == "index_gap":
                call = (lambda P=P, g=s["gen"]: x.index_gap_demo(P, g))
                items.append(Item(s, call))
                continue
            if s["kind"] == "series":
                f = x.AnalyticMap(P, {k: x.LaurentSeries(P, d, prec)
                                      for k, (d, prec) in s["coeffs"].items()},
                                  s["zprec"])
            else:
                f = x.LaurentSeries(P, s["series"], s["prec"])
            if s["target"] == "pow2":
                call = (lambda f=f: x.certify_powers_of_two(f))
            else:
                call = (lambda f=f, ell=s["ell"]:
                        x.certify_multiples_of(f, ell))
            items.append(Item(s, call, f))
        return items

    @staticmethod
    def _has_known_nonconstant(s):
        if s["kind"] == "series":
            zp = s["zprec"]
            return any(k >= 1 and d and (zp is None or k < zp)
                       for k, (d, _) in s["coeffs"].items())
        return any(e >= 1 and (s["prec"] is None or e < s["prec"])
                   for e in s["series"])

    def check(self, item, payload):
        x, s = self.x, item.spec
        if isinstance(payload, x.PrecisionError):
            return [("undecided", "PrecisionError")]
        if isinstance(payload, Exception):
            return [("error", _exc_cause(payload))]
        try:
            if s["kind"] == "index_gap":
                good = (payload.inclusion_verified
                        and payload.ambient_index > payload.zp_index)
                return [("ok", None) if good else ("wrong", "index gap")]
            trace, report = payload
            if isinstance(report, x.ZeroAtPrecision):
                if self._has_known_nonconstant(s):
                    return [("wrong", "zero_at_precision on a nonzero map")]
                return [("undecided", "ZeroAtPrecision")]
            trace2, g = x.normalize(item.inputs)
            if s["target"] == "pow2":
                good = (x.verify_powers_of_two(g, report) and not
                        oracle.is_power_of_two(report.offending_exponent))
            else:
                good = (x.verify_multiples_of(g, report)
                        and report.offending_valuation % s["ell"] != 0)
            good = good and trace2 == trace
        except Exception as exc:  # a malformed report fails its check
            return [("wrong", "check raised " + _exc_cause(exc))]
        return [("ok", None) if good else ("wrong", "certificate rejected")]


# -- cli_batch ----------------------------------------------------------------


class _LineClock(io.TextIOBase):
    """A stdout stand-in that timestamps every completed line."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps: list[int] = []
        self._buf = ""

    def writable(self):
        return True

    def write(self, s):
        self._buf += s
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            self.stamps.append(clock())
            self.lines.append(line)
        return len(s)


_EVAL_KEYS = {"series", "at", "value"}
_MEMBER_KEYS = {"verdict", "precision", "witness_exponent",
                "witness_coefficient", "series", "set"}
_WITNESS_BASE = {"kind", "p", "target", "series", "normalization", "verdict"}
_LEMMA31_KEYS = _WITNESS_BASE | {"leading_index", "leading_x_shift", "n",
                                 "point", "offending_exponent", "evaluated",
                                 "sound"}
_THM14_KEYS = _WITNESS_BASE | {"branch", "root_level", "q",
                               "derivative_index", "base_point", "tau",
                               "shift", "delta", "offending_valuation",
                               "sound"}


class CliBatch(Workload):
    """In-process ``xadic.cli.main`` calls on seeded ``--series-file``
    batches; every input line is one op."""

    name = "cli_batch"
    mix = (("eval", 6), ("member", 6), ("lemma31", 6), ("thm14", 6))
    #: line shapes per batch: (shape, lines of it)
    shapes = (("exact", 7), ("loose", 5), ("tight", 4), ("pdiv", 4),
              ("pdiv_tight", 4), ("constant", 1))

    def __init__(self, *args):
        super().__init__(*args)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._files: list[Path] = []

    def _line(self, rng, p, shape, deg, negative):
        lo = -3 if negative else 0
        if shape == "constant":
            return {0: rng.randrange(1, p)}, 1
        step = p if shape.startswith("pdiv") else 1
        exps = rng.sample(range(0, deg, step), max(1, deg // (3 * step)))
        exps.append(step * rng.randrange(1, 3))
        if negative:
            exps.append(rng.randrange(lo, 0))
        d = {e: rng.randrange(1, p) for e in exps}
        if shape in ("exact", "pdiv"):
            return d, None
        top = max(d) + 1
        return d, top + (rng.randrange(4, 9) if shape == "loose" else 0)

    def spec(self, kind, i, u, rng):
        p = (2, 3, 5, 7)[i % 4]
        deg = 4 + int(u * 20)
        lines = []
        for shape, count in self.shapes:
            for _ in range(1 if self.smoke else count):
                lines.append(self._line(rng, p, shape, deg,
                                        kind == "member"))
        rng.shuffle(lines)
        s = {"kind": kind, "p": p, "lines": lines}
        if kind == "eval":
            s["at"] = {1: rng.randrange(1, p), 2 + i % 3: rng.randrange(1, p)}
        elif kind == "member":
            s["set"] = "H" if i % 2 else f"ell:{2 + i % 5}"
        elif kind == "thm14":
            s["ell"] = _coprime(p, i)
        return s

    def build(self, specs):
        items = []
        for n, s in enumerate(specs):
            if n == len(self._files):
                self._files.append(self.workdir / f"batch-{n}.txt")
            path = self._files[n]
            path.write_text("".join(oracle.fmt(d, prec) + "\n"
                                    for d, prec in s["lines"]),
                            encoding="utf-8")
            argv = ["--p", str(s["p"])]
            kind = s["kind"]
            if kind in ("lemma31", "thm14"):
                argv += ["witness", kind]
            else:
                argv.append(kind)
            argv += ["--series-file", str(path)]
            if kind == "eval":
                argv += ["--at", oracle.fmt(s["at"], None)]
            elif kind == "member":
                argv += ["--set", s["set"]]
            elif kind == "thm14":
                argv += ["--ell", str(s["ell"])]
            items.append(Item(s, inputs=argv))
        return items

    def run(self, item):
        out, err = _LineClock(), io.StringIO()
        main = self.x.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = main(item.inputs)
            except SystemExit as exc:  # main documents return codes
                code = exc.code
            except Exception as exc:  # undocumented: judged by check()
                code = exc
            t1 = clock()
        lats: list[int | None] = []
        prev = t0
        for stamp in out.stamps:
            lats.append(stamp - prev)
            prev = stamp
        missing = len(item.spec["lines"]) - len(lats)
        if missing > 0:
            # the line that stopped the batch ran until main returned; the
            # rest never ran
            lats.append(t1 - prev)
            lats += [None] * (missing - 1)
        return t1 - t0, lats[:len(item.spec["lines"])], (code, out.lines,
                                                         err.getvalue())

    def check(self, item, payload):
        code, lines, err = payload
        s = item.spec
        statuses = []
        for text, (d, prec) in zip(lines, s["lines"]):
            try:
                statuses.append(self._check_line(s, json.loads(text), d, prec))
            except Exception as exc:  # malformed line fails its check
                statuses.append(("wrong", "line check raised "
                                 + _exc_cause(exc)))
        missing = len(s["lines"]) - len(lines)
        lost = ("error", f"lost line: batch ended with exit {code}")
        if isinstance(code, Exception):
            lost = ("error", _exc_cause(code))
            if missing <= 0:
                statuses[-1] = lost
        elif code == 3 and missing > 0 and "insufficient precision" in err:
            statuses.append(("undecided", "exit 3"))
            missing -= 1
            lost = ("lost", "batch aborted by exit 3")
        statuses += [lost] * missing
        if missing < 0:
            statuses[len(s["lines"]) - 1:] = [("wrong", "extra output")]
        return statuses

    def _check_line(self, s, out, d, prec):
        p, kind = s["p"], s["kind"]
        text = oracle.fmt(d, prec)
        if kind == "eval":
            if set(out) != _EVAL_KEYS or out["series"] != text:
                return ("wrong", "eval keys")
            val, vprec = oracle.parse(out["value"], p)
            if vprec != prec:  # the point has valuation 1
                return ("wrong", "eval precision")
            truth = oracle.dict_eval(d, s["at"], p, vprec)
            good = oracle.agrees_below(val, truth, vprec)
            return ("ok", None) if good else ("wrong", "eval value")
        if kind == "member":
            if set(out) != _MEMBER_KEYS or out["series"] != text:
                return ("wrong", "member keys")
            return ("ok", None) if out == self._member(s, d, prec, text) \
                else ("wrong", "member verdict")
        if out.get("verdict") == "zero_at_precision":
            known = any(e >= 1 for e in d)
            if set(out) != _WITNESS_BASE | {"precision"} or known:
                return ("wrong", "zero_at_precision")
            return ("undecided", "exit 2")
        keys = _LEMMA31_KEYS if kind == "lemma31" else _THM14_KEYS
        if set(out) != keys or out["sound"] is not True \
                or out["verdict"] != "non_member" or out["series"] != text:
            return ("wrong", f"{kind} keys")
        body = {e: c for e, c in d.items() if e >= 1}
        if kind == "lemma31":
            n, off = out["n"], out["offending_exponent"]
            val, vprec = oracle.parse(out["evaluated"], p)
            truth = {e * n: c for e, c in body.items()}
            good = (not oracle.is_power_of_two(off) and val.get(off)
                    and (vprec is None or vprec > off)
                    and oracle.agrees_below(val, truth, vprec))
        else:
            off = out["offending_valuation"]
            val, vprec = oracle.parse(out["delta"], p)
            z0 = {int(out["base_point"].split("^")[1]): 1}
            z1 = oracle.dict_add(z0, {out["shift"]: 1}, p)
            truth = oracle.dict_add(oracle.dict_eval(body, z1, p, vprec),
                                    oracle.dict_eval(body, z0, p, vprec),
                                    p, -1)
            good = (off % s["ell"] != 0 and oracle.valuation(val) == off
                    and oracle.agrees_below(val, truth, vprec))
        return ("ok", None) if good else ("wrong", f"{kind} certificate")

    @staticmethod
    def _member(s, d, prec, text):
        spec = s["set"]
        ell = None if spec == "H" else int(spec[4:])
        out = {"verdict": "member_exact" if prec is None
               else "member_at_precision", "precision": prec,
               "witness_exponent": None, "witness_coefficient": None,
               "series": text, "set": spec}
        for e in sorted(d):
            inside = oracle.is_power_of_two(e) if ell is None else \
                (e >= 0 and e % ell == 0)
            if not inside:
                out.update(verdict="non_member", precision=None,
                           witness_exponent=e, witness_coefficient=d[e])
                break
        return out

    def warmup(self):
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        s = self.spec("eval", 0, 0.5, rng)
        s["lines"] = s["lines"][:1]
        return [s]

    def observe(self, tracer, payload):
        tracer.add("cli.lines_out", len(payload[1]))

    def cleanup(self):
        for path in self._files:
            path.unlink(missing_ok=True)
        self.workdir.rmdir()


WORKLOADS = {w.name: w for w in (DenseArith, Certify, CliBatch)}
