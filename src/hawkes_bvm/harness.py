"""Config-driven experiment harness: simulation, inference, efficiency
computation and BvM verification with reproducible file outputs."""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from ._special import ndtr
from .functionals import (FunctionalSpec, _check_indices, eval_functional,
                          parse_functional, riesz_representor)
from .grids import Direction
from .likelihood import LanEstimator
from .mcmc import (equal_tailed_interval, ess, posterior_functional,
                   run_chain)
from .model import ModelParams
from .palm import (bias_term, efficient_estimate, estimate_palm,
                   info_operator_invert, optimal_variance)
from .priors import PriorSpec
from .simulate import simulate_thinning
from .stream import atomic_write


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment; values stay strings."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed for one BvM experiment."""

    f0: ModelParams
    functional: FunctionalSpec
    prior: PriorSpec
    horizons: tuple
    replications: int
    mcmc_iters: int
    mcmc_burn_in: int | None
    mcmc_thin: int
    p_j: float
    palm_cells: int
    palm_anchors: int
    palm_points: int
    palm_horizon: float | None
    palm_batches: int
    invert_tol: float
    bias_dims: tuple
    lan_tsim: float
    lan_points: int
    seed: int
    threads: int
    out_dir: str
    raw: dict = field(default_factory=dict, compare=False)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _model_from_config(cfg: dict) -> ModelParams:
    if "model_file" in cfg:
        with open(cfg["model_file"]) as fh:
            return ModelParams.from_json(fh.read())
    K = int(cfg.get("K", "1"))
    A = float(cfg.get("A", "1.0"))
    m = int(cfg.get("m", "1"))
    kind = cfg.get("kind", "linear")
    nu = np.array([float(v) for v in cfg.get("nu", "1.0").split()])
    h_vals = np.array([float(v) for v in cfg.get("h", "0.0").split()])
    if h_vals.size != K * K * m:
        raise ValueError("h must list K*K*m cell values")
    return ModelParams(nu, h_vals.reshape(K, K, m), A, kind)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(parse_config_text(fh.read()))


def config_from_dict(cfg: dict) -> ExperimentConfig:
    f0 = _model_from_config(cfg)
    prior = PriorSpec(
        K=f0.K,
        basis_kind=cfg.get("prior_basis", "histogram"),
        c1=float(cfg.get("prior_c1", "1.0")),
        J_max=int(cfg.get("prior_jmax", "32")),
        theta_family=cfg.get("prior_theta", "shifted-exponential"),
        kappa=float(cfg.get("prior_kappa", "0.0")),
        rate=float(cfg.get("prior_rate", "1.0")),
        sigma=float(cfg.get("prior_sigma", "1.0")),
        nu_shape=float(cfg.get("prior_nu_shape", "2.0")),
        nu_rate=float(cfg.get("prior_nu_rate", "1.0")),
        link=cfg.get("prior_link", "identity"),
        support_end=f0.support_end,
    )
    burn = cfg.get("mcmc_burn_in")
    config = ExperimentConfig(
        f0=f0,
        functional=parse_functional(cfg.get("functional", "background 1")),
        prior=prior,
        horizons=tuple(float(v) for v in cfg.get("T", "2000").split()),
        replications=int(cfg.get("R", "100")),
        mcmc_iters=int(cfg.get("mcmc_iters", "20000")),
        mcmc_burn_in=int(burn) if burn is not None else None,
        mcmc_thin=int(cfg.get("mcmc_thin", "5")),
        p_j=float(cfg.get("p_j", "0.2")),
        palm_cells=int(cfg.get("palm_cells", "16")),
        palm_anchors=int(cfg.get("palm_anchors", "2000")),
        palm_points=int(cfg.get("palm_points", "4000")),
        palm_horizon=(float(cfg["palm_horizon"])
                      if "palm_horizon" in cfg else None),
        palm_batches=int(cfg.get("palm_batches", "20")),
        invert_tol=float(cfg.get("invert_tol", "1e-8")),
        bias_dims=tuple(int(v)
                        for v in cfg.get("bias_dims", "8").split()),
        lan_tsim=float(cfg.get("lan_tsim", "2000")),
        lan_points=int(cfg.get("lan_points", "20000")),
        seed=int(cfg.get("seed", "0")),
        threads=int(cfg.get("threads", "1")),
        out_dir=cfg.get("out_dir", "out"),
        raw=dict(cfg),
    )
    if config.replications < 1:
        raise ValueError("R must be >= 1")
    _check_indices(config.functional, f0.K)
    for name in ("mcmc_iters", "mcmc_thin", "palm_cells", "palm_points",
                 "palm_batches", "lan_points"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    if config.palm_anchors < config.palm_batches:
        # every Palm batch needs at least one anchor of each mark
        raise ValueError("palm_anchors must be >= palm_batches")
    if config.mcmc_burn_in is not None and config.mcmc_burn_in < 0:
        raise ValueError("mcmc_burn_in must be >= 0")
    if any(j < 1 or config.palm_cells % j for j in config.bias_dims):
        raise ValueError("each bias_dims entry must be >= 1 and divide "
                         "palm_cells")
    for t in config.horizons + (config.lan_tsim,):
        if not 0.0 < t < np.inf:
            raise ValueError("T and lan_tsim must be positive and finite")
    if config.palm_horizon is not None and not (
            0.0 < config.palm_horizon < np.inf):
        raise ValueError("palm_horizon must be positive and finite")
    if not 0.0 <= config.p_j <= 1.0:
        raise ValueError("p_j must be in [0, 1]")
    return config


def bvm_distance(posterior_samples: np.ndarray, center: float,
                 horizon: float, v0: float) -> float:
    """KS distance between the centered-scaled posterior sample and
    N(0, V0). KS bounds the bounded-Lipschitz metric up to constants and
    has a tractable null, so it stands in for d_BL here."""
    samples = np.asarray(posterior_samples, dtype=float)
    if v0 <= 0:
        raise ValueError("V0 must be positive")
    if samples.size < 100:
        raise ValueError("need at least 100 posterior samples")
    z = np.sqrt(horizon) * (samples - center)
    # the two-sided statistic of scipy's `kstest(z, "norm", args=(0.0,
    # sqrt(v0)))`, step for step, without its p-value
    x = np.sort(z)
    n = x.size
    cdf = np.array([ndtr(v) for v in ((x - 0.0) / np.sqrt(v0)).tolist()])
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(d_plus if d_plus > d_minus else d_minus)


def compute_efficiency(config: ExperimentConfig) -> dict:
    """Palm pipeline: representor, least favourable direction, V0."""
    f0, fspec = config.f0, config.functional
    if config.palm_cells % f0.n_cells:
        raise ValueError("palm_cells must refine the model grid")
    factor = config.palm_cells // f0.n_cells
    palm = estimate_palm(
        f0, config.palm_cells, n_anchors=config.palm_anchors,
        n_points=config.palm_points, n_batches=config.palm_batches,
        seed=np.random.SeedSequence(config.seed).spawn(1)[0],
        horizon=config.palm_horizon)
    psi2 = riesz_representor(fspec, f0).refine(factor)
    psi_l, residual, converged = info_operator_invert(
        palm, psi2, tol=config.invert_tol)
    v0 = optimal_variance(psi_l, psi2)
    return {"palm": palm, "psi_2": psi2, "psi_L": psi_l,
            "residual": residual, "converged": converged, "v0": v0,
            "psi0": eval_functional(fspec, f0),
            "f0_fine": ModelParams(
                f0.nu, np.repeat(f0.h, factor, axis=2),
                f0.support_end, f0.kind)}


def job_seeds(seed: int) -> tuple[np.random.SeedSequence, int]:
    """The stream's and the chain's seeds of a job seeded `seed`: the two
    children spawned from SeedSequence(seed), the chain's drawn as a
    nonnegative int. The chain never reads the random bits that
    simulated its data, whether the stream comes from the first child (a
    replication) or from `seed` itself (`infer`)."""
    sim_seed, chain_seed = np.random.SeedSequence(seed).spawn(2)
    return sim_seed, int(chain_seed.generate_state(1)[0] // 2)


def _replication(config: ExperimentConfig, f0_fine: ModelParams,
                 psi_l: Direction, psi0: float, v0: float, horizon: float,
                 seed: int) -> dict:
    """One (horizon, replication) cell; module-level for pickling."""
    sim_seed, chain_seed = job_seeds(seed)
    try:
        stream = simulate_thinning(config.f0, horizon, seed=sim_seed)
        draws = run_chain(stream, horizon, config.prior,
                          iters=config.mcmc_iters,
                          burn_in=config.mcmc_burn_in, thin=config.mcmc_thin,
                          seed=chain_seed, p_j=config.p_j, warn=False)
        post = posterior_functional(draws, config.functional)
        samples = post["samples"]
        center = efficient_estimate(psi0, f0_fine, psi_l, stream, horizon)
        if samples.size >= 100:
            ks = bvm_distance(samples, center, horizon, v0)
        else:
            ks = None  # too few draws for a meaningful KS distance
        lo, hi = post["ci"]
        lo95, hi95 = equal_tailed_interval(samples, 0.95)
        return {
            "ok": True, "horizon": horizon,
            "psi_hat": center,
            "post_mean": post["mean"], "post_sd": post["sd"],
            "ci90": [lo, hi], "ci95": [lo95, hi95],
            "covered90": bool(lo <= psi0 <= hi),
            "covered95": bool(lo95 <= psi0 <= hi95),
            "ks": ks,
            # ESS of the functional's draws; ess needs at least 10
            "ess": ess(samples) if samples.size >= 10 else None,
            "acceptance": draws.acceptance,
            "samples": samples.tolist(),
        }
    except Exception as exc:  # noqa: BLE001 - replication isolation
        return {"ok": False, "horizon": horizon, "reason": repr(exc)}


def run_experiment(config: ExperimentConfig) -> dict:
    """Full BvM study; returns the report dictionary."""
    efficiency = compute_efficiency(config)
    psi_l = efficiency["psi_L"]
    v0, psi0 = efficiency["v0"], efficiency["psi0"]
    seq = np.random.SeedSequence(config.seed + 1)
    cells = [(horizon, int(child.generate_state(1)[0] // 2))
             for horizon in config.horizons
             for child in seq.spawn(config.replications)]
    replicate = functools.partial(_replication, config,
                                  efficiency["f0_fine"], psi_l, psi0, v0)
    if config.threads > 1:
        import multiprocessing as mp
        with mp.Pool(config.threads) as pool:
            results = pool.starmap(replicate, cells)
    else:
        results = [replicate(*cell) for cell in cells]

    # projection bias at the requested sieve dimensions
    lan = LanEstimator(efficiency["f0_fine"], t_sim=config.lan_tsim,
                       n_points=config.lan_points,
                       seed=np.random.SeedSequence(config.seed + 2))
    f_dir = Direction(config.f0.nu, efficiency["f0_fine"].h,
                      config.f0.support_end)
    bias = {}
    for j in config.bias_dims:
        dirs = _sieve_directions(config.f0.K, j, config.palm_cells,
                                 config.f0.support_end)
        bj, se, flagged = bias_term(dirs, f_dir, psi_l, lan)
        bias[str(j)] = {"value": bj, "se": se, "ridge": flagged}

    report = {
        "config_hash": config.config_hash(),
        "functional": config.functional.describe(),
        "psi0": psi0,
        "v0": v0,
        "v0_hash": hashlib.sha256(repr(v0).encode()).hexdigest()[:12],
        "palm_residual": efficiency["residual"],
        "palm_converged": efficiency["converged"],
        "bias": bias,
        "replications": results,
        "metric_note": ("KS distance reported; it bounds the "
                        "bounded-Lipschitz metric up to constants"),
    }
    report["coverage"] = coverage_table(report)
    ok = [r for r in results if r["ok"]]
    report["mean_sd_sqrtT"] = report["median_ks"] = None
    if ok:
        sds = np.array([r["post_sd"] for r in ok])
        ts = np.array([r["horizon"] for r in ok])
        report["mean_sd_sqrtT"] = float(np.mean(sds * np.sqrt(ts)))
        ks_vals = [r["ks"] for r in ok if r["ks"] is not None]
        report["median_ks"] = (float(np.median(ks_vals))
                               if ks_vals else None)
    return report


def _sieve_directions(K: int, j: int, n_cells: int,
                      support_end: float) -> list[Direction]:
    """Directions spanning the (nu, histogram-j) sieve on the operator
    grid: unit rate vectors plus bin indicators per interaction slot."""
    bins = np.repeat(np.eye(j), n_cells // j, axis=1)
    dirs = [Direction(np.eye(K)[k], np.zeros((K, K, n_cells)), support_end)
            for k in range(K)]
    for l in range(K):
        for k in range(K):
            for b in range(j):
                g = np.zeros((K, K, n_cells))
                g[l, k] = bins[b]
                dirs.append(Direction(np.zeros(K), g, support_end))
    return dirs


def coverage_table(report: dict) -> dict:
    """Empirical coverage of the 90 % and 95 % credible intervals that
    every replication records, with binomial standard errors."""
    ok = [r for r in report["replications"] if r["ok"]]
    out = {}
    for level, key in (("0.90", "covered90"), ("0.95", "covered95")):
        hits = np.array([r[key] for r in ok], dtype=float)
        n = hits.size
        if n == 0:
            out[level] = {"coverage": None, "se": None, "n": 0}
            continue
        p = float(hits.mean())
        out[level] = {
            "coverage": p,
            "se": float(np.sqrt(max(p * (1 - p), 1e-12) / n)),
            "n": int(n),
        }
    return out


def emit_outputs(report: dict, out_dir: str) -> None:
    """Write report.json, replications.csv, posterior_<r>.csv and
    plots.gp."""
    os.makedirs(out_dir, exist_ok=True)

    slim = {k: v for k, v in report.items() if k != "replications"}
    slim["replications"] = [
        {k: v for k, v in r.items() if k != "samples"}
        for r in report["replications"]]
    path = os.path.join(out_dir, "report.json")
    atomic_write(path, json.dumps(slim, indent=2))

    lines = ["replication,horizon,ok,psi_hat,post_mean,post_sd,"
             "ci90_lo,ci90_hi,covered90,ks"]
    for i, r in enumerate(report["replications"]):
        if r["ok"]:
            ks_str = repr(r["ks"]) if r["ks"] is not None else ""
            lines.append(
                f"{i},{r['horizon']},1,{r['psi_hat']!r},"
                f"{r['post_mean']!r},{r['post_sd']!r},"
                f"{r['ci90'][0]!r},{r['ci90'][1]!r},"
                f"{int(r['covered90'])},{ks_str}")
        else:
            lines.append(f"{i},{r['horizon']},0,,,,,,,")
    path = os.path.join(out_dir, "replications.csv")
    atomic_write(path, "\n".join(lines) + "\n")

    for i, r in enumerate(report["replications"]):
        if not r["ok"]:
            continue
        body = "psi\n" + "\n".join(repr(v) for v in r["samples"]) + "\n"
        path = os.path.join(out_dir, f"posterior_{i}.csv")
        atomic_write(path, body)

    v0 = report["v0"]
    ok = [i for i, r in enumerate(report["replications"]) if r["ok"]]
    gp = f"""# gnuplot script: posterior vs the BvM normal limit
set terminal pngcairo size 900,400
set output 'bvm.png'
set datafile separator ','
set multiplot layout 1,{1 + bool(ok)}
"""
    if ok:
        first = report["replications"][ok[0]]
        gp += f"""set title 'centered-scaled posterior vs N(0, V0)'
T = {first['horizon']!r}
psi_hat = {first['psi_hat']!r}
n = {len(first['samples'])}
binwidth = 0.2
bin(x) = binwidth*floor(x/binwidth) + binwidth/2.0
normal(x) = exp(-x*x/(2*{v0!r}))/sqrt(2*pi*{v0!r})
plot 'posterior_{ok[0]}.csv' skip 1 \\
     using (bin(sqrt(T)*($1 - psi_hat))):(1.0/(n*binwidth)) \\
     smooth freq with boxes title 'posterior density', \\
     normal(x) with lines title 'N(0,V0)'
"""
    gp += """set title 'coverage (column 9 of replications.csv)'
plot 'replications.csv' skip 1 using 1:9 with points title 'covered'
unset multiplot
"""
    path = os.path.join(out_dir, "plots.gp")
    atomic_write(path, gp)
