"""Workloads of the hawkes-bvm benchmark and the configs they hand the
program.

A workload's job runs one or more stages in order, each a command or
pipeline of the package with its own config. Each config is generated from
the benchmark seed, which becomes the config's ``seed``; the program sees
only the configs. This module imports nothing from ``hawkes_bvm``, so the
launcher can check its arguments without paying for the package import.
"""

from __future__ import annotations

# criterion-7 reference experiment (tests/test_acceptance.py), R cut to 2
_REF = {
    "K": "1", "A": "1.0", "m": "1", "nu": "1.0", "h": "0.5",
    "functional": "linear 1 1",
    "T": "2000", "R": "2",
    "mcmc_iters": "20000", "mcmc_thin": "5", "p_j": "0.2",
    "prior_basis": "histogram", "prior_jmax": "8",
    "prior_theta": "shifted-exponential", "prior_kappa": "0.0",
    "prior_rate": "2.0",
    "palm_cells": "16", "palm_anchors": "2000", "palm_points": "4000",
    "lan_tsim": "2000", "lan_points": "20000",
    "bias_dims": "4 8 16",
    "threads": "1",
}

_K2_TRUTH = {
    "K": "2", "A": "1.0", "m": "2", "nu": "0.6 0.4",
    "h": "0.4 0.2 0.1 0.05 0.15 0.1 0.3 0.2",
    "functional": "linear 1 2",
}

# Every histogram dimension of this ReLU truth has a negative cell, so the
# chain's proposals take the exact path whatever the seed. With a truth
# whose coarse histograms are nonnegative (h = -0.4 0.5 0.3 0.1), some seeds
# keep the chain on the cached path, and with prior_sigma 0.5 some prior
# draws start a chain that never leaves a region of nonpositive intensity;
# the chain's time then varies sixfold across seeds.
_RELU = {
    "K": "1", "A": "1.0", "m": "4", "kind": "relu", "nu": "1.0",
    "h": "-0.4 -0.2 0.3 0.1",
    "T": "300", "mcmc_iters": "50", "mcmc_thin": "5", "p_j": "0.2",
    "prior_basis": "histogram", "prior_jmax": "8",
    "prior_theta": "gaussian", "prior_sigma": "0.3",
    "threads": "1",
}

# workload -> stage -> config. k2-mixed keeps the K=2 bvm stage short
# (T=15000, 400 iterations, thinned by 2 so that each chain keeps the 100
# draws the KS distance needs), so that its whole job stays near 20-25 s.
_FULL = {
    "bvm-ref": {"bvm": dict(_REF)},
    "k2-mixed": {
        "bvm": {**_REF, **_K2_TRUTH, "T": "15000", "mcmc_iters": "400",
                "mcmc_thin": "2"},
        "efficiency": {
            **_REF, **_K2_TRUTH,
            "palm_cells": "32", "palm_anchors": "4000",
            "palm_points": "8000", "lan_tsim": "8000", "lan_points": "80000",
        },
        "infer": dict(_RELU),
    },
}

# tiny sizes for the benchmark's own smoke test: every layer still runs
_SMALL_PALM = {"palm_anchors": "300", "palm_points": "400",
               "lan_tsim": "300", "lan_points": "800"}
_SMOKE = {
    "bvm-ref": {"bvm": {**_SMALL_PALM, "T": "300", "R": "1",
                        "mcmc_iters": "600"}},
    "k2-mixed": {
        "bvm": {**_SMALL_PALM, "T": "400", "R": "1", "mcmc_iters": "600",
                "mcmc_thin": "5"},
        "efficiency": dict(_SMALL_PALM),
        "infer": {"T": "60", "mcmc_iters": "20"},
    },
}

WORKLOADS = tuple(_FULL)
SCALES = ("full", "smoke")

# the infer stage runs this many short chains, one infer command each: a
# chain's cost depends on its seed (how often proposals leave the exact path
# or stop at a nonpositive intensity), and a job averages over them
INFER_CHAINS = 8

# sieve dimensions of the efficiency stage's bias and its Volterra grid
BIAS_DIMS = (4, 8, 16)
VOLTERRA_NODES = {"full": 1024, "smoke": 128}


def make_configs(workload: str, seed: int, scale: str = "full") -> dict:
    """Stage name -> config dict (string values, as in a config file) of
    one job, in the order the stages run."""
    if workload not in _FULL:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    out = {}
    for stage, cfg in _FULL[workload].items():
        cfg = dict(cfg)
        if scale == "smoke":
            cfg.update(_SMOKE[workload][stage])
        cfg["seed"] = str(int(seed))
        out[stage] = cfg
    return out


def config_text(cfg: dict) -> str:
    """Render a config dict in the flat ``key = value`` file format."""
    return "".join(f"{k} = {v}\n" for k, v in sorted(cfg.items()))
