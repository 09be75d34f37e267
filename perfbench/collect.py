"""Run the benchmark over several seeds and write one BENCH_*.json file.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/BENCH_x.json

For each workload: one untraced run per seed (the end-to-end metrics, with
their median, quartiles and spread = (Q3 - Q1) / median over the seeds),
then one traced run at the first seed (the per-layer metrics). The
provenance of the first run is kept. A perf change cites two such files,
one per commit, taken on the same host.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import configs

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(
        next(line for line in lines if line.startswith("provenance "))
        .split(" ", 1)[1])
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = _seeds(args.seeds)
    doc: dict = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in configs.WORKLOADS:
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        doc.setdefault("provenance", runs[0]["provenance"])
        end_to_end = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median,) * 3)
            end_to_end[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": values}
        traced = _run(workload, seeds[0], seconds, 1)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": end_to_end,
            "per_layer_seed": seeds[0],
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
        print(workload, {n: round(m["spread"], 3)
                         for n, m in end_to_end.items()}, flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
