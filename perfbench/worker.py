"""One job of one workload in a fresh process; prints one JSON line.

Started by run.py, which passes the monotonic clock reading taken just
before the process was spawned, so that set-up time covers interpreter
start, the imports of numpy, scipy and hawkes_bvm, config generation and
config parsing. With ``--setup-only`` the process stops there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True,
                        help="checkout root holding src/hawkes_bvm")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import numpy
    import scipy

    import configs
    import jobs

    prepared = {
        stage: jobs.prepare(stage, configs.config_text(cfg), args.out)
        for stage, cfg in configs.make_configs(
            args.workload, args.seed, args.scale).items()}
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()
    results = {}
    start = time.perf_counter()
    for stage, (config_path, config) in prepared.items():
        os.makedirs(os.path.join(args.out, stage))
        results[stage] = jobs.STAGES[stage][0](
            config_path, config, os.path.join(args.out, stage), args.scale)
    wall_s = time.perf_counter() - start
    layers = tracer.layer_metrics() if tracer is not None else {}

    outcomes = []
    for stage, (_, config) in prepared.items():
        check = jobs.STAGES[stage][1]
        try:
            outcomes.append(check(f"{args.workload}/{stage}", config,
                                  os.path.join(args.out, stage), args.scale,
                                  results[stage]))
        except Exception as exc:  # noqa: BLE001 - unreadable output
            failed = jobs.Outcome(jobs.operations(stage, config))
            failed.fail(None, f"{stage} output check raised {exc!r}")
            outcomes.append(failed)

    blas = numpy.show_config("dicts")["Build Dependencies"]["blas"]
    libs = {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}
    output_bytes = sum(os.path.getsize(os.path.join(folder, name))
                       for folder, _, names in os.walk(args.out)
                       for name in names if not name.endswith(".cfg"))
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(len(o.failed) for o in outcomes),
        "reasons": [r for o in outcomes for r in o.reasons],
        # acceptance of the bvm stage's chains, the stage every workload has
        "accept": outcomes[0].accept,
        "output_bytes": output_bytes,
        "libs": libs,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
