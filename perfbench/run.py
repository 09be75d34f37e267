"""Benchmark of hawkes-bvm: run one workload, check its outputs and print
its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it finds ``src/hawkes_bvm`` next
to its own directory and exits with code 2, printing no result, when the
package is not there. The workload's configs are generated from
``--seed``.

Each job runs in a fresh single process with the BLAS/OpenMP thread pools
pinned to 1, so that no BLAS or OpenMP thread pool competes with the
measured process. Jobs of the same config run back to
back while the next one is expected to end within ``--seconds`` (at least
one job), alternating with fresh processes that stop after set-up until
there are enough set-up samples; each metric is the median over the run's
samples. With ``--trace 1`` one more job runs with spans around the
package's public calls (see tracing.py), and the per-layer metrics come
from it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The lines before it give the run's provenance and a readable summary.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# every run must end within 180 s; stop launching work well before that
TIME_LIMIT_S = 160.0
MIN_SETUP_SAMPLES = {"full": 3, "smoke": 1}
THREAD_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def _declared_units() -> tuple[dict, dict]:
    """Metric name -> unit, end-to-end and per-layer, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class RunError(Exception):
    """The run cannot produce a result."""


def _spawn(args, work_dir: str, deadline: float, *, trace=False,
           setup_only=False) -> dict:
    """Run one worker process to completion, in a fresh output directory
    that is removed afterwards, and return its JSON line."""
    out_dir = tempfile.mkdtemp(dir=work_dir)
    try:
        return _run_worker(args, out_dir, deadline, trace, setup_only)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run_worker(args, out_dir, deadline, trace, setup_only) -> dict:
    env = dict(os.environ, **THREAD_PIN)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale,
           "--out", out_dir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time limit reached before the run finished")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded the time limit: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker failed (exit {proc.returncode}):\n"
                       f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def provenance(args, libs: dict) -> dict:
    """Where and on what the numbers were taken; ``libs`` comes from a
    worker, which has numpy and scipy imported."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **libs,
        "thread_pin": THREAD_PIN,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def measure(args, work_dir: str) -> tuple[dict, str, dict]:
    """All processes of one run; returns the result object, a summary and
    the library versions a worker saw."""
    deadline = time.monotonic() + TIME_LIMIT_S
    min_setups = MIN_SETUP_SAMPLES[args.scale]
    # Jobs run while the next one is expected to end within --seconds, so
    # that a run lasts about as long on a slow host as on a fast one; set-up
    # probes alternate with jobs so that both sample the whole run.
    jobs, setups = [], []
    start = time.monotonic()
    step = 0.0
    while not jobs or time.monotonic() - start + step <= args.seconds:
        began = time.monotonic()
        jobs.append(_spawn(args, work_dir, deadline))
        setups.append(jobs[-1]["setup_s"])
        if len(setups) < min_setups:
            setups.append(_spawn(args, work_dir, deadline,
                                 setup_only=True)["setup_s"])
        step = time.monotonic() - began
    while len(setups) < min_setups:
        setups.append(_spawn(args, work_dir, deadline,
                             setup_only=True)["setup_s"])
    traced = (_spawn(args, work_dir, deadline, trace=True) if args.trace
              else None)

    measured = jobs + ([traced] if traced else [])
    attempted = sum(job["attempted"] for job in measured)
    failed = sum(job["failed"] for job in measured)
    reasons = [r for job in measured for r in job["reasons"]]
    end_to_end = {
        "wall_s": statistics.median(job["wall_s"] for job in jobs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
    }
    end_to_end_units, per_layer_units = _declared_units()
    values, units = end_to_end, end_to_end_units
    if traced:
        accept = traced["accept"]
        values = {
            **traced["layers"],
            "failed_frac": failed / attempted,
            "mcmc.accept_nu": accept.get("nu", 0.0),
            "mcmc.accept_theta": accept.get("theta", 0.0),
            "mcmc.accept_jump": accept.get("jump", 0.0),
            "harness.output_bytes": traced["output_bytes"],
            "trace.overhead_s": traced["wall_s"] - end_to_end["wall_s"],
        }
        units = per_layer_units
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    summary = (
        f"{args.workload} seed {args.seed}: wall_s "
        f"{end_to_end['wall_s']:.4f} s (median of {len(jobs)} jobs), "
        f"setup_s {end_to_end['setup_s']:.4f} s (median of {len(setups)}), "
        f"peak_rss_mb {end_to_end['peak_rss_mb']:.1f}, failed_frac "
        f"{failed / attempted:.4g} ({failed}/{attempted})")
    summary += "\n  wall_s samples: " + " ".join(
        f"{job['wall_s']:.4f}" for job in jobs)
    summary += "\n  setup_s samples: " + " ".join(f"{v:.4f}" for v in setups)
    for reason in reasons[:20]:
        summary += f"\n  failure: {reason}"
    return result, summary, jobs[0]["libs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=configs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=configs.SCALES, default="full",
                        help="'smoke' runs tiny sizes for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hawkes_bvm",
                                       "__init__.py")):
        print(f"hawkes_bvm sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result, summary, libs = measure(args, work_dir)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("provenance " + json.dumps(provenance(args, libs), sort_keys=True))
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
