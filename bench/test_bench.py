"""The benchmark's own tests: a smoke run of every workload, traced and
untraced, must emit every metric BENCHMARK.json names, with its unit.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in declared)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "certify", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_oracle_products_agree():
    rng = random.Random(5)
    for p in (2, 3, 7):
        a = [rng.randrange(p) for _ in range(20)]
        b = [rng.randrange(p) for _ in range(15)]
        da = {i: c for i, c in enumerate(a) if c}
        db = {i: c for i, c in enumerate(b) if c}
        n = 25
        assert oracle.list_mul(a, b, p, n) == \
            oracle.dense(oracle.dict_mul(da, db, p, n), n)
        z = {1: 1, 2: p - 1}
        assert oracle.list_compose(a, z, p, n) == \
            oracle.dense(oracle.dict_eval(da, z, p, n), n)
        assert oracle.list_pow(a, 5, p, n) == oracle.list_mul(
            oracle.list_pow(a, 2, p, n), oracle.list_pow(a, 3, p, n), p, n)


def test_oracle_text_round_trip():
    for coeffs, prec in (({}, None), ({0: 2, 3: 1, -2: 4}, 9), ({}, 4)):
        assert oracle.parse(oracle.fmt(coeffs, prec), 5) == (coeffs, prec)
