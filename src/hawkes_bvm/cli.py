"""Command-line interface: simulate | infer | palm | bvm."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .harness import (compute_efficiency, emit_outputs, job_seeds,
                      load_config, run_experiment)
from .mcmc import run_chain
from .palm import save_palm
from .simulate import simulate_thinning
from .stream import atomic_write

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkes-bvm",
        description="Hawkes-process BvM verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("simulate", "simulate one event stream and write events.csv"),
            ("infer", "simulate data and run one MCMC chain"),
            ("palm", "run the Palm/efficiency pipeline and report V0"),
            ("bvm", "run the full BvM experiment")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the config seed")
        p.add_argument("--threads", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        overrides = {name: getattr(args, name) for name in ("seed", "threads")
                     if getattr(args, name) is not None}
        config = dataclasses.replace(config, **overrides)
        out_dir = args.out or config.out_dir
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "simulate":
            stream = simulate_thinning(config.f0, config.horizons[0],
                                       seed=config.seed)
            atomic_write(os.path.join(out_dir, "events.csv"),
                         stream.to_csv())
            print(f"wrote {len(stream)} events to {out_dir}/events.csv")
        elif args.command == "infer":
            horizon = config.horizons[0]
            # the stream of `simulate` at the same seed; the chain on
            # random bits of its own
            stream = simulate_thinning(config.f0, horizon,
                                       seed=config.seed)
            draws = run_chain(stream, horizon, config.prior,
                              iters=config.mcmc_iters,
                              burn_in=config.mcmc_burn_in,
                              thin=config.mcmc_thin,
                              seed=job_seeds(config.seed)[1],
                              p_j=config.p_j)
            atomic_write(os.path.join(out_dir, "draws.csv"),
                         draws.to_csv())
            atomic_write(os.path.join(out_dir, "chain.json"),
                         draws.summary_json())
            print(f"wrote {len(draws)} draws to {out_dir}/draws.csv")
        elif args.command == "palm":
            eff = compute_efficiency(config)
            save_palm(eff["palm"], os.path.join(out_dir, "palm.json"))
            summary = {
                "v0": eff["v0"], "psi0": eff["psi0"],
                "residual": eff["residual"],
                "converged": eff["converged"],
            }
            atomic_write(os.path.join(out_dir, "efficiency.json"),
                         json.dumps(summary, indent=2))
            print(f"V0 = {eff['v0']:.6g} "
                  f"(residual {eff['residual']:.2e})")
            if not eff["converged"]:
                return EXIT_NUMERIC
        else:
            report = run_experiment(config)
            emit_outputs(report, out_dir)
            cov = report["coverage"].get("0.90", {}).get("coverage")
            print(f"coverage90 = {cov}, V0 = {report['v0']:.6g}")
            ok = [r["ok"] for r in report["replications"]]
            if not (report["palm_converged"] and any(ok)):
                return EXIT_NUMERIC
    except (FloatingPointError, OverflowError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
