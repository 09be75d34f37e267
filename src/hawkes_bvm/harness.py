"""Config-driven experiment harness: simulation, inference, efficiency
computation and BvM verification with reproducible file outputs."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .functionals import (FunctionalSpec, _check_indices, config_number,
                          eval_functional, parse_functional,
                          riesz_representor)
from .grids import Direction
from .likelihood import LanEstimator
from .mcmc import (equal_tailed_interval, ess, median, posterior_functional,
                   run_chain)
from .model import ModelParams
from .palm import (PALM_MIN_ANCHORS, bias_term, efficient_estimate,
                   estimate_palm, info_operator_invert, optimal_variance)
from .priors import PriorSpec
from .simulate import simulate_thinning
from .stream import atomic_write


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment; values stay strings;
    a key may be given once."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"line {lineno}: key {key!r} given twice")
        out[key] = val.strip()
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
    bias_dims: tuple
    lan_tsim: float
    lan_points: int
    seed: int
    threads: int
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        # also run on the config that CLI overrides make with `replace`
        if not self.horizons:
            raise ValueError("T must list at least one horizon")
        if self.replications < 1:
            raise ValueError("R must be >= 1")
        for name in ("mcmc_iters", "mcmc_thin", "palm_cells", "palm_points",
                     "lan_points", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _check_indices(self.functional, self.f0.K)
        if self.palm_anchors < PALM_MIN_ANCHORS:
            # the Palm path is sized for palm_anchors anchors; one too
            # short is found only after it is simulated
            raise ValueError(f"palm_anchors must be >= {PALM_MIN_ANCHORS}")
        if self.mcmc_burn_in is not None and self.mcmc_burn_in < 0:
            raise ValueError("mcmc_burn_in must be >= 0")
        if any(j < 1 or self.palm_cells % j for j in self.bias_dims):
            raise ValueError("each bias_dims entry must be >= 1 and divide "
                             "palm_cells")
        for t in self.horizons + (self.lan_tsim,):
            if not 0.0 < t < np.inf:
                raise ValueError("T and lan_tsim must be positive and finite")
        if not 0.0 <= self.p_j <= 1.0:
            raise ValueError("p_j must be in [0, 1]")

    def config_hash(self) -> str:
        """sha256 prefix of the keys but `threads`, with the run's seed."""
        keys = {k: v for k, v in self.raw.items() if k != "threads"}
        blob = json.dumps(dict(keys, seed=str(self.seed)), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


# every config key the program reads but `model_file`, with its default;
# the inline model keys are read also beside a model file, which wins
_DEFAULTS = {
    "K": "1", "A": "1.0", "m": "1", "kind": "linear", "nu": "1.0",
    "h": "0.0", "prior_basis": "histogram", "prior_c1": "1.0",
    "prior_jmax": "32", "prior_theta": "shifted-exponential",
    "prior_kappa": "0.0", "prior_rate": "1.0", "prior_sigma": "1.0",
    "prior_nu_shape": "2.0", "prior_nu_rate": "1.0",
    "prior_link": "identity", "functional": "background 1", "T": "2000",
    "R": "100", "mcmc_iters": "20000", "mcmc_burn_in": None,
    "mcmc_thin": "5", "p_j": "0.2", "palm_cells": "16",
    "palm_anchors": "2000", "palm_points": "4000", "bias_dims": "8",
    "lan_tsim": "2000", "lan_points": "20000", "seed": "0", "threads": "1",
}


def _model_from_config(cfg: dict, model_file: str | None) -> ModelParams:
    if model_file is not None:
        with open(model_file) as fh:
            return ModelParams.from_json(fh.read())
    K, m = (config_number(key, cfg[key], int) for key in ("K", "m"))
    A = config_number("A", cfg["A"])
    if K < 1 or m < 1:
        raise ValueError(f"{'K' if K < 1 else 'm'} must be >= 1")
    if not 0.0 < A < math.inf:
        raise ValueError("A must be positive and finite")
    nu = np.array([config_number("nu", v) for v in cfg["nu"].split()])
    if nu.size != K:
        raise ValueError("nu must list K rates")
    h_vals = np.array([config_number("h", v) for v in cfg["h"].split()])
    if h_vals.size != K * K * m:
        raise ValueError("h must list K*K*m cell values")
    return ModelParams(nu, h_vals.reshape(K, K, m), A, cfg["kind"])


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(parse_config_text(fh.read()))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Pops the keys it reads from a copy; refuses any left, then converts."""
    rest = dict(raw)
    model_file = rest.pop("model_file", None)
    cfg = {key: rest.pop(key, default) for key, default in _DEFAULTS.items()}
    if rest:
        raise ValueError(f"unknown config keys: {', '.join(sorted(rest))}")
    f0 = _model_from_config(cfg, model_file)

    def num(key: str, kind: type = float):
        return config_number(key, cfg[key], kind)
    prior = PriorSpec(
        K=f0.K, basis_kind=cfg["prior_basis"], c1=num("prior_c1"),
        J_max=num("prior_jmax", int), theta_family=cfg["prior_theta"],
        kappa=num("prior_kappa"), rate=num("prior_rate"),
        sigma=num("prior_sigma"), nu_shape=num("prior_nu_shape"),
        nu_rate=num("prior_nu_rate"), link=cfg["prior_link"],
        support_end=f0.support_end)
    burn = cfg["mcmc_burn_in"]
    return ExperimentConfig(
        f0=f0, functional=parse_functional(cfg["functional"]), prior=prior,
        horizons=tuple(config_number("T", v) for v in cfg["T"].split()),
        replications=num("R", int),
        mcmc_iters=num("mcmc_iters", int),
        mcmc_burn_in=num("mcmc_burn_in", int) if burn is not None else None,
        mcmc_thin=num("mcmc_thin", int), p_j=num("p_j"),
        palm_cells=num("palm_cells", int),
        palm_anchors=num("palm_anchors", int),
        palm_points=num("palm_points", int),
        bias_dims=tuple(config_number("bias_dims", v, int)
                        for v in cfg["bias_dims"].split()),
        lan_tsim=num("lan_tsim"), lan_points=num("lan_points", int),
        seed=num("seed", int), threads=num("threads", int), raw=dict(raw))


_SQRT1_2 = math.sqrt(0.5)


def normal_cdf(a: float) -> float:
    """The standard normal CDF at a, from the C library's erfc."""
    return 0.5 * math.erfc(-a * _SQRT1_2)


def bvm_distance(posterior_samples: np.ndarray, center: float,
                 horizon: float, v0: float) -> float:
    """KS distance between the centered-scaled posterior sample and
    N(0, V0). It stands in for the bounded-Lipschitz metric d_BL and
    tends to 0 with it, but bounds it only with tail control: d_BL <=
    (2 + 2M) KS + the mass both laws put outside [-M, M], for any M."""
    samples = np.asarray(posterior_samples, dtype=float)
    if v0 <= 0:
        raise ValueError("V0 must be positive")
    if samples.size < 100:
        raise ValueError("need at least 100 posterior samples")
    z = np.sqrt(horizon) * (samples - center)
    # the two-sided statistic of scipy's `kstest` of z against the CDF
    # normal_cdf((z - 0.0) / sqrt(v0)), step for step, without its p-value
    x = np.sort(z)
    n = x.size
    cdf = np.array([normal_cdf(v)
                    for v in ((x - 0.0) / np.sqrt(v0)).tolist()])
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
        n_points=config.palm_points,
        seed=np.random.SeedSequence(config.seed).spawn(1)[0])
    psi2 = riesz_representor(fspec, f0).refine(factor)
    psi_l, residual, converged = info_operator_invert(palm, psi2)
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
            "samples": samples,
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

    return {
        "config_hash": config.config_hash(),
        "functional": config.functional.describe(),
        "psi0": psi0,
        "v0": v0,
        "v0_hash": hashlib.sha256(repr(v0).encode()).hexdigest()[:12],
        "palm_residual": efficiency["residual"],
        "palm_converged": efficiency["converged"],
        "bias": bias,
        "replications": results,
        "metric_note": ("KS distance reported; it bounds the bounded-"
                        "Lipschitz metric only with tail control: d_BL <= "
                        "(2 + 2M) KS + both laws' mass outside [-M, M]"),
        **summarise(results),
    }


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


def summarise(records: list[dict]) -> dict:
    """One pass over the replication records: the empirical coverage of
    the 90 % and 95 % credible intervals with binomial standard errors,
    the mean posterior sd * sqrt(T) and the median KS distance, over the
    ok records; null when none is ok."""
    ok = [r for r in records if r["ok"]]
    n = len(ok)
    coverage = {}
    for level, key in (("0.90", "covered90"), ("0.95", "covered95")):
        p = (float(np.array([r[key] for r in ok], dtype=float).mean())
             if ok else None)
        coverage[level] = {
            "coverage": p,
            "se": float(np.sqrt(max(p * (1 - p), 1e-12) / n)) if ok else None,
            "n": n,
        }
    sds = np.array([r["post_sd"] for r in ok])
    ts = np.array([r["horizon"] for r in ok])
    ks_vals = [r["ks"] for r in ok if r["ks"] is not None]
    return {
        "coverage": coverage,
        "mean_sd_sqrtT": float(np.mean(sds * np.sqrt(ts))) if ok else None,
        "median_ks": median(ks_vals) if ks_vals else None,
    }


# the columns of replications.csv; a failed record holds none of the
# columns after `ok`, so its row leaves them empty
_CSV_COLUMNS = ("replication", "horizon", "ok", "psi_hat", "post_mean",
                "post_sd", "ci90_lo", "ci90_hi", "covered90", "ks")


def _csv_field(value) -> str:
    if value is None:
        return ""
    return str(int(value)) if isinstance(value, bool) else repr(value)


def emit_outputs(report: dict, out_dir: str) -> None:
    """Write report.json, replications.csv, posterior_<r>.csv and
    plots.gp."""
    os.makedirs(out_dir, exist_ok=True)
    records = report["replications"]
    ok = [i for i, r in enumerate(records) if r["ok"]]

    slim = {k: v for k, v in report.items() if k != "replications"}
    slim["replications"] = [
        {k: v for k, v in r.items() if k != "samples"} for r in records]
    path = os.path.join(out_dir, "report.json")
    atomic_write(path, json.dumps(slim, indent=2))

    lines = [",".join(_CSV_COLUMNS)]
    for i, r in enumerate(records):
        lo, hi = r.get("ci90", (None, None))
        values = dict(r, replication=i, ci90_lo=lo, ci90_hi=hi)
        lines.append(",".join(_csv_field(values.get(c)) for c in _CSV_COLUMNS))
    path = os.path.join(out_dir, "replications.csv")
    atomic_write(path, "\n".join(lines) + "\n")

    for i in ok:
        samples = np.asarray(records[i]["samples"], dtype=float)
        body = "\n".join(map(repr, samples.tolist()))
        path = os.path.join(out_dir, f"posterior_{i}.csv")
        atomic_write(path, f"psi\n{body}\n")

    v0 = report["v0"]
    gp = f"""# gnuplot script: posterior vs the BvM normal limit
set terminal pngcairo size 900,400
set output 'bvm.png'
set datafile separator ','
set multiplot layout 1,{1 + bool(ok)}
"""
    if ok:
        first = records[ok[0]]
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
