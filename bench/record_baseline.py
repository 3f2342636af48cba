"""Run every workload on several seeds and record the results in
``bench/baseline.json``: per metric the median, quartiles and spread
(interquartile range over median), the failure and lost-line fractions
with their causes, and one traced run's per-layer metrics.

    python3 bench/record_baseline.py --seeds 1-10

Takes about ten minutes with the run length in BENCHMARK.json.  The
held-out seed in the file is not run here; it is reserved for confirming
a later claim on inputs that were not used while the change was written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

HELD_OUT_SEED = 9173


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=180)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["meta"] = json.loads(next(ln for ln in lines if
                                  ln.startswith("meta "))[5:])
    out["causes"] = {}
    out["lost"] = 0
    for ln in lines:
        if ln.strip().startswith("status "):
            out["lost"] = json.loads(ln.strip()[7:]).get("lost", 0)
        head, sep, cause = ln.strip().partition(" x ")
        if sep and head.isdigit():
            out["causes"][cause] = int(head)
    return out


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help='e.g. "1-10"')
    ap.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]
    record = {"seeds": seeds, "held_out_seed": HELD_OUT_SEED,
              "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            runs.append(_run(name, seed, seconds, 0))
            print(name, seed, {k: round(v["value"], 5) for k, v in
                               runs[-1]["metrics"].items()}, flush=True)
        traced = _run(name, seeds[0], seconds, 1)
        causes: dict[str, int] = {}
        for r in runs:
            for cause, n in r["causes"].items():
                causes[cause] = causes.get(cause, 0) + n
        record["meta"] = runs[-1]["meta"]
        record["workloads"][name] = {
            "why": w["why"],
            "op_mix": dict(workloads.WORKLOADS[name].mix),
            "metrics": {m["name"]: _summary([r["metrics"][m["name"]]["value"]
                                             for r in runs])
                        for m in spec["end_to_end"]},
            "failed_frac": _summary([r["failed"] / r["attempted"]
                                     for r in runs]),
            "lost_frac": _summary([r["lost"] / r["attempted"]
                                   for r in runs]),
            "correct": all(r["correct"] for r in runs),
            "causes_over_all_runs": causes,
            "per_layer_seed_%d" % seeds[0]: {
                k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                              encoding="utf-8")
    for name, w in record["workloads"].items():
        for m, s in w["metrics"].items():
            print(f"{name:12s} {m:14s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
