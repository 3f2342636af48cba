"""xadic benchmark: one command for every metric of one workload.

    python3 bench/run.py --workload dense_arith --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there, so nothing needs installing.  Each workload runs in fresh
interpreters (``worker.py``).  With ``--trace 0`` the end-to-end metrics
named in ``BENCHMARK.json`` are printed; set-up time is the median of
several fresh starts.  With ``--trace 1`` a separate run installs the
layer tracer and prints the per-layer metrics instead, and the spans are
written under ``.bench_out/``.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a readable report and the run's metadata.  ``--smoke`` shrinks the inputs
for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: fresh interpreters started only to time set-up, besides the measuring one
SETUP_PROBES = 8
#: a worker that has not finished by then is stopped
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _spawn(args, mode: str) -> dict:
    cmd = [sys.executable, "-I", str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({mode}) exceeded {WORKER_TIMEOUT_S} s")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def _metadata() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "xadic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=20)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def _end_to_end(args) -> tuple[dict, dict, dict]:
    """The measuring run, its end-to-end metrics and the report extras."""
    setups = [_spawn(args, "setup")["setup_s"]
              for _ in range(1 if args.smoke else SETUP_PROBES)]
    run = _spawn(args, "run")
    setups.append(run["setup_s"])
    status = run["status"]
    attempted = run["attempted"]
    failed = status.get("error", 0) + status.get("wrong", 0)
    undecided = status.get("undecided", 0)
    lost = status.get("lost", 0)
    values = {
        "ops_per_s": run["ops_per_s"],
        "op_p50_ms": run["op_p50_ms"],
        "op_p90_ms": run["op_p90_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_frac": 1 - failed / attempted,
        "decided_frac": 1 - (failed + undecided + lost) / attempted,
    }
    report = {"failed_frac": failed / attempted,
              "undecided_frac": undecided / attempted,
              "lost_frac": lost / attempted,
              "latency_samples": run["latency_samples"],
              "setup_samples": len(setups), "passes": run["passes"],
              "timed_s": run["timed_s"],
              "uncalibrated_ops_per_s": run["raw_ops_per_s"],
              "speed_scale": run["speed_scale"]}
    return run, values, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "xadic" / "__init__.py").is_file():
        print(f"bench: no xadic sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            run = _spawn(args, "run")
            values = run["layers"]
            report = {"passes": run["passes"], "timed_s": run["timed_s"],
                      "spans_dir": run["trace_dir"]}
            declared = spec["per_layer"]
        else:
            run, values, report = _end_to_end(args)
            declared = spec["end_to_end"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"bench: worker did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    status = run["status"]
    failed = status.get("error", 0) + status.get("wrong", 0)
    correct = (status.get("wrong", 0) == 0
               and run["warmup"].get("wrong", 0) == 0)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    for name, value in report.items():
        print(f"  {name:36s} {value}")
    print(f"  status {json.dumps(status)}")
    for cause, n in run["causes"].items():
        print(f"    {n:6d} x {cause}")
    print("meta " + json.dumps(_metadata()))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
