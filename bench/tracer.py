"""Layer tracing for the benchmark, applied from outside the package.

``Tracer.install`` wraps the public functions and methods of every
``xadic.*`` module at run time and rebinds each module attribute that held
an original, so calls through names imported into another module
(``from .series import parse_series``) are traced as well.  The layers are
the package's modules; ``PRIVATE`` names the one private helper traced too.

A timed call records a span -- name, start, end, parent span, op id -- in
memory; :meth:`Tracer.write` saves them when the run ends.  A span's self
time is its duration minus the time its child spans cover.  The wrappers'
own bookkeeping is charged to no span: a parent discounts a child's whole
wrapper time, not only the child's measured duration.  A span directly
inside a span of the same name is timed but not counted again as a call.

The hottest tiny calls (constructors, equality and hashing, coefficient
lookups, set predicates and everything in ``ff``) are counted, not timed,
so wrapper cost does not swamp the self time around them.

An exception counts against a layer (``<layer>.errors``) when it leaves
that layer for a caller in another layer or for the benchmark itself.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array
from bisect import bisect_left
from functools import update_wrapper
from pathlib import Path

#: span names for functions whose own name says little or that share a role
RENAME = {
    "__mul__": "mul", "__add__": "add", "__sub__": "sub", "__neg__": "neg",
    "__pow__": "pow", "__truediv__": "div", "__str__": "format",
    "__repr__": "repr", "__init__": "new", "__eq__": "eq", "__hash__": "hash",
    "parse_series": "parse",
    "witness_powers_of_two": "search", "witness_multiples_of": "search",
    "verify_powers_of_two": "verify", "verify_multiples_of": "verify",
    "certify_powers_of_two": "certify", "certify_multiples_of": "certify",
    "_taylor_terms": "taylor_shift",
}

#: private helpers that are traced too: the Taylor re-expansion core in
#: series, which AnalyticMap.taylor_shift (what the witness engines call)
#: and LaurentSeries.taylor_shift both delegate to
PRIVATE = {"xadic.series": ("_taylor_terms",)}

#: calls counted but not timed
COUNT_ONLY = {
    "series.new", "series.eq", "series.hash", "series.coefficient",
    "series.fp_coefficient", "series.valuation", "series.finite",
    "series.infinite", "series.at_least", "series.zero", "series.one",
    "series.monomial", "series.unknown", "analytic.new", "analytic.eq",
    "analytic.hash", "analytic.coefficient", "subgroups.contains",
    "subgroups.describe",
}
COUNT_ONLY_LAYERS = {"ff"}

#: operands with at least this many terms make a multiply "dense"
DENSE_TERMS = 32

_SKIP = {"__setattr__", "__init_subclass__", "__new__"}


class Tracer:
    def __init__(self, counters=()):
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.timed: list[bool] = []
        self.errors: dict[str, int] = {}
        self.extra = dict.fromkeys(counters, 0)
        self.mul_pairs = self.mul_useful = self.mul_dense_pairs = 0
        self.next_id = 0
        # frames: [span id, ns covered by children, layer, name id]
        self._stack: list[list] = [[-1, 0, None, -1]]
        self.cols = {"id": array("q"), "name": array("H"),
                     "start_ns": array("q"), "end_ns": array("q"),
                     "parent": array("q"), "op": array("q")}

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name: str, layer: str, timed: bool) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.timed.append(timed)
        self.errors.setdefault(layer, 0)
        return len(self.names) - 1

    def _counter(self, fn, nid: int, layer: str):
        tr, calls, errors, stack = self, self.calls, self.errors, self._stack

        def wrapper(*args, **kwargs):
            if tr.enabled:
                calls[nid] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    if stack[-1][2] != layer:
                        errors[layer] += 1
                    raise
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, nid: int, layer: str, post=None):
        tr, calls, errors, stack = self, self.calls, self.errors, self._stack
        self_ns = self.self_ns
        c = self.cols
        c_id, c_name, c_start, c_end, c_parent, c_op = (
            c["id"].append, c["name"].append, c["start_ns"].append,
            c["end_ns"].append, c["parent"].append, c["op"].append)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            t_in = clock()
            parent = stack[-1]
            sid = tr.next_id
            tr.next_id = sid + 1
            frame = [sid, 0, layer, nid]
            stack.append(frame)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                if not ok and parent[2] != layer:
                    errors[layer] += 1
                self_ns[nid] += t1 - t0 - frame[1]
                if parent[3] != nid:  # a call nested in its own name is
                    calls[nid] += 1   # part of the same operation
                c_id(sid)
                c_name(nid)
                c_start(t0)
                c_end(t1)
                c_parent(parent[0])
                c_op(tr.op)
                if ok and post is not None:
                    post(args, result)
                parent[1] += clock() - t_in
            return result
        return wrapper

    def _mul_post(self, args, result) -> None:
        """Pairs attempted, pairs below the result precision, dense pairs."""
        sa, sb = args[0].support, args[1].support
        pairs = len(sa) * len(sb)
        self.mul_pairs += pairs
        prec = result.precision
        if prec is None:
            self.mul_useful += pairs
        else:
            self.mul_useful += sum(bisect_left(sb, prec - e) for e in sa)
        if len(sa) >= DENSE_TERMS and len(sb) >= DENSE_TERMS:
            self.mul_dense_pairs += pairs

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the loaded ``xadic.*``
        modules and rebind the names that held the originals."""
        mods = sorted((n, m) for n, m in sys.modules.items()
                      if n.startswith("xadic."))
        wrapped: dict[int, tuple] = {}

        def wrap(fn, layer):
            hit = wrapped.get(id(fn))
            if hit is not None:
                return hit[1]
            op = RENAME.get(fn.__name__, fn.__name__)
            name = f"{layer}.{op}"
            if layer in COUNT_ONLY_LAYERS or name in COUNT_ONLY:
                w = self._counter(fn, self._name_id(name, layer, False), layer)
            else:
                post = self._mul_post if name == "series.mul" else None
                w = self._span(fn, self._name_id(name, layer, True), layer,
                               post)
            update_wrapper(w, fn)
            wrapped[id(fn)] = (fn, w)
            return w

        def own(fn, filename):
            return (isinstance(fn, types.FunctionType)
                    and fn.__code__.co_filename == filename)

        for modname, mod in mods:
            layer = modname.rsplit(".", 1)[1]
            filename = mod.__file__
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and attr not in PRIVATE.get(modname,
                                                                    ()):
                    continue
                if own(obj, filename):
                    setattr(mod, attr, wrap(obj, layer))
                elif isinstance(obj, type) and obj.__module__ == modname:
                    for mattr, val in list(vars(obj).items()):
                        dunder = mattr.startswith("__") and mattr.endswith("__")
                        if mattr in _SKIP or (mattr.startswith("_")
                                              and not dunder):
                            continue
                        kind = type(val)
                        fn = val.__func__ if kind in (staticmethod,
                                                      classmethod) else val
                        if not own(fn, filename):
                            continue
                        w = wrap(fn, layer)
                        setattr(obj, mattr, w if fn is val else kind(w))

        for modname, mod in mods + [("xadic", sys.modules["xadic"])]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def add(self, counter: str, n: int) -> None:
        self.extra[counter] = self.extra.get(counter, 0) + n

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: ``<layer>.<op>.calls``/``.self_s``,
        ``<layer>.calls``/``.self_s``/``.errors`` and the multiply ratios."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = self.layers[nid]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + \
                self.calls[nid]
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + \
                self.calls[nid]
            if self.timed[nid]:
                s = self.self_ns[nid] / 1e9
                out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + s
                out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + s
        for layer, n in self.errors.items():
            out[f"{layer}.errors"] = n
        out.update(self.extra)
        pairs = self.mul_pairs
        out["series.mul.pairs"] = pairs
        out["series.mul.useful_frac"] = self.mul_useful / pairs if pairs else 0.0
        out["series.mul.dense_pairs_frac"] = \
            self.mul_dense_pairs / pairs if pairs else 0.0
        return out

    def write(self, directory: Path) -> None:
        """Save the spans as one little-endian column file each, plus
        ``spans.json`` naming the columns and the span names."""
        directory.mkdir(parents=True, exist_ok=True)
        for col, arr in self.cols.items():
            with open(directory / f"{col}.bin", "wb") as fh:
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
        header = {"spans": len(self.cols["id"]), "clock": "perf_counter_ns",
                  "columns": {c: a.typecode for c, a in self.cols.items()},
                  "names": self.names}
        (directory / "spans.json").write_text(json.dumps(header),
                                              encoding="utf-8")
