"""One workload in one fresh interpreter; started by run.py.

``--mode setup`` stops once the first timed op is ready and reports the
set-up time; ``--mode run`` goes on to the closed loop.  With ``--trace 1``
the loop runs untraced for a quarter of the budget, then the tracer is
installed and the same passes are replayed from the same seed, which gives
the per-layer numbers and the tracing overhead on identical work.

The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402

#: every run times at least this many ops, so p90 has >= 20 samples past it
MIN_OPS = 200
SMOKE_MIN_OPS = 10
#: the reference loop's duration on an uncontended core of the machine the
#: baseline was recorded on (see README.md, "Calibration")
REF_NS = 550_000
#: reference samples per pass, spread evenly through it
REF_SAMPLES = 5


def _load():
    import xadic
    import xadic.cli  # noqa: F401  (cli_batch calls it; set-up pays for it)
    if Path(xadic.__file__).resolve().parent != ROOT / "src" / "xadic":
        raise SystemExit(f"imported xadic from {xadic.__file__}, "
                         f"not from {ROOT / 'src'}")
    import workloads
    return xadic, workloads


_REF_BIG = ({e: 1 + e % 6 for e in range(64)},
            {e: 1 + 3 * e % 6 for e in range(64)})
_REF_SMALL = [{e: 1 + e % 4 for e in range(k, k + 4)} for k in range(8)]


def reference_ns() -> int:
    """Time a fixed pure-Python workload shaped like the library's: one
    64-term dict product and forty 4-term ones folded into a sum."""
    t0 = time.perf_counter_ns()
    oracle.dict_mul(*_REF_BIG, 7, None)
    acc: dict[int, int] = {}
    for i in range(40):
        acc = oracle.dict_add(acc, oracle.dict_mul(
            _REF_SMALL[i % 8], _REF_SMALL[i * 3 % 8], 7, 30), 7)
    return time.perf_counter_ns() - t0


class Tally:
    """Statuses of one phase, and per pass its throughput and latency
    percentiles, calibrated.

    On a shared machine, co-tenants slow every process down by up to 2x in
    periods that last from a second to a minute.  Each pass therefore also
    times the reference loop a few times; the pass's times are scaled by
    REF_NS / (median reference time), i.e. expressed in seconds of a core
    running at the reference speed.  Passes hold the same work, and the run
    reports medians over passes.  The uncalibrated figures are kept for the
    report."""

    def __init__(self):
        self.status = Counter()
        self.causes = Counter()
        self.timed_ns = 0
        self.cal_ns = 0.0
        self.samples = 0
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.speed: list[float] = []
        self.p50: list[float] = []
        self.p90: list[float] = []
        self._lat: list[int] = []
        self._done = 0
        self._ns = 0

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    def record(self, dur, lats, statuses) -> None:
        self._ns += dur
        for lat, (status, cause) in zip(lats, statuses):
            self.status[status] += 1
            if cause and status != "ok":
                self.causes[f"{status}: {cause}"] += 1
            if status in ("ok", "undecided"):
                self._done += 1
                if lat is not None:
                    self._lat.append(lat)

    def end_pass(self, ref_ns: float) -> None:
        """Ops that ended in an answer or a documented non-answer, per
        calibrated second of timed time; latency percentiles of those ops
        (calibrated ms)."""
        scale = REF_NS / ref_ns
        self.speed.append(scale)
        self.timed_ns += self._ns
        self.cal_ns += self._ns * scale
        self.raw_rates.append(self._done / (self._ns / 1e9))
        self.rates.append(self.raw_rates[-1] / scale)
        if len(self._lat) >= 2:
            q = statistics.quantiles(self._lat, n=10, method="inclusive")
            self.p50.append(q[4] * scale / 1e6)
            self.p90.append(q[8] * scale / 1e6)
        self.samples += len(self._lat)
        self._lat, self._done, self._ns = [], 0, 0


def run_passes(wl, first, budget_ns, min_ops, tally, tracer=None,
               passes=None):
    """Run whole passes until the timed budget and min_ops are both met
    (or exactly ``passes`` passes); returns the number of passes run."""
    k, items = 0, first
    while True:
        gc.collect()
        every = -(-len(items) // (REF_SAMPLES - 1))
        refs = [reference_ns()]
        for n, item in enumerate(items, 1):
            if tracer is not None:
                tracer.op += 1
                tracer.enabled = True
            dur, lats, payload = wl.run(item)
            if tracer is not None:
                tracer.enabled = False
                wl.observe(tracer, payload)
            tally.record(dur, lats, wl.check(item, payload))
            if n % every == 0 or n == len(items):
                refs.append(reference_ns())
        tally.end_pass(statistics.median(refs))
        k += 1
        if passes is not None:
            if k == passes:
                return k
        elif tally.timed_ns >= budget_ns and tally.attempted >= min_ops:
            return k
        items = wl.build(wl.plan(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    xadic, workloads = _load()
    out_dir = ROOT / ".bench_out"
    wl = workloads.WORKLOADS[args.workload](
        xadic, args.seed, args.smoke,
        out_dir / f"{args.workload}-{os.getpid()}")
    try:
        return _run(args, wl, out_dir)
    finally:
        wl.cleanup()


def _run(args, wl, out_dir: Path) -> int:
    # set-up time runs from the parent's spawn to the first timed op, less
    # the benchmark's own random generation of the inputs (plan/warmup)
    t0 = time.monotonic_ns()
    specs = wl.warmup()
    gen_ns = time.monotonic_ns() - t0
    warm = [(item, wl.run(item)) for item in wl.build(specs)]
    t0 = time.monotonic_ns()
    specs = wl.plan(0)
    gen_ns += time.monotonic_ns() - t0
    first = wl.build(specs)
    setup_ns = time.monotonic_ns() - args.spawned_ns - gen_ns
    # calibrated like the passes, from reference samples taken right after
    setup_s = setup_ns * REF_NS / statistics.median(
        reference_ns() for _ in range(REF_SAMPLES)) / 1e9
    warm_tally = Tally()
    for item, (dur, lats, payload) in warm:
        warm_tally.record(dur, lats, wl.check(item, payload))
    result = {"setup_s": setup_s, "warmup": dict(warm_tally.status)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    budget = int(args.seconds * 1e9)
    min_ops = SMOKE_MIN_OPS if args.smoke else MIN_OPS
    tally = Tally()
    if args.trace:
        from tracer import Tracer
        untraced = Tally()
        passes = run_passes(wl, first, budget // 4, 1, untraced)
        # replay the same passes traced: the overhead compares identical work
        tracer = Tracer(counters=("cli.lines_out",))
        tracer.install()
        run_passes(wl, wl.build(wl.plan(0)), 0, 0, tally, tracer, passes)
        layers = tracer.metrics()
        layers["trace_overhead_frac"] = tally.cal_ns / untraced.cal_ns - 1
        result["layers"] = layers
        trace_dir = out_dir / f"trace-{args.workload}"
        tracer.write(trace_dir)
        result["trace_dir"] = str(trace_dir.relative_to(ROOT))
        result["passes"] = passes
    else:
        result["passes"] = run_passes(wl, first, budget, min_ops, tally)
        result["latency_samples"] = tally.samples
        result["ops_per_s"] = statistics.median(tally.rates)
        result["op_p50_ms"] = statistics.median(tally.p50)
        result["op_p90_ms"] = statistics.median(tally.p90)
        result["raw_ops_per_s"] = statistics.median(tally.raw_rates)
        result["speed_scale"] = statistics.median(tally.speed)
    result["status"] = dict(tally.status)
    result["causes"] = dict(tally.causes.most_common(8))
    result["attempted"] = tally.attempted
    result["timed_s"] = tally.timed_ns / 1e9
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
