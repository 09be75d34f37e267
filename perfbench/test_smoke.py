"""Smoke test of the benchmark itself, on tiny workload sizes: every
metric that BENCHMARK.json names is printed with its unit, counts repeat
for a fixed seed, and the launcher refuses to run without the package
sources."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    result = _result(_bench(workload, trace))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in printed.items()}
    for name, metric in printed.items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_counts_repeat_for_a_fixed_seed():
    first, second = (_result(_bench("k2-mixed", 1))["metrics"]
                     for _ in range(2))
    counts = [name for name, metric in first.items()
              if metric["unit"] == "count"]
    assert "priors.log_prior_calls" in counts
    assert {n: first[n]["value"] for n in counts} == {
        n: second[n]["value"] for n in counts}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("bvm-ref", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
