"""The job each workload runs through the public API of ``hawkes_bvm``,
and the checks on the files it writes.

A job runs its stages in order and ends with its last output file
written; the checks run after it, outside the timed span and the trace.
Stages count operations: one replication in ``bvm``, one pipeline step in
``efficiency`` and one chain in ``infer``. An operation fails when it
raises, reports ``ok: false`` or fails an output check; a check on the
whole of a ``bvm`` stage (V0, psi0, the operator inversion, the bias) fails
all of its replications. Chain-level values are checked only structurally, because a
change that alters the summation order may legitimately change draws.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stdout

import numpy as np

# the traced run patches names inside these modules, so calls go through
# the module attributes
from hawkes_bvm import (Direction, LanEstimator, cli, harness,
                        histogram_basis, load_config, palm, volterra)

from configs import BIAS_DIMS, INFER_CHAINS, VOLTERRA_NODES

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


class Outcome:
    """Operations attempted and failed by one stage, with reasons."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed: set = set()
        self.reasons: list[str] = []
        self.accept: dict = {}

    def fail(self, op, reason: str) -> None:
        """Mark operation ``op`` (an index, or None for all) as failed."""
        self.failed.update(range(self.attempted) if op is None else [op])
        self.reasons.append(reason)


def _close(value: float, expected: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rel * abs(
        expected)


def _check_v0(outcome: Outcome, key: str, seed: int, scale: str,
              v0: float, psi0: float, op=None) -> None:
    """V0 must repeat the value recorded at the seed commit for this seed,
    or lie within the stated band around the seed-0 value for a seed the
    table lacks; psi0 is exact. At smoke scale V0 need only be finite and
    positive."""
    if not (math.isfinite(v0) and v0 > 0):
        outcome.fail(op, f"V0 not positive and finite: {v0!r}")
        return
    if scale != "full":
        return
    ref = REFERENCE[key]
    if not _close(psi0, ref["psi0"], 1e-12):
        outcome.fail(op, f"psi0 {psi0!r} != {ref['psi0']!r}")
    table = ref["v0_by_seed"]
    if str(seed) in table:
        expected, rel = table[str(seed)], REFERENCE["v0_rel_tol_same_seed"]
    else:
        expected, rel = table["0"], REFERENCE["v0_rel_tol_other_seed"]
    if not _close(v0, expected, rel):
        outcome.fail(op, f"V0 {v0!r} not within {rel} of {expected!r}")


def _run_cli(command: str, config_path: str, out_dir: str,
             *extra: str) -> dict:
    try:
        with redirect_stdout(io.StringIO()):
            return {"exit": cli.main([command, "--config", config_path,
                                      "--out", out_dir, *extra])}
    except Exception as exc:  # noqa: BLE001 - a crash fails the job
        return {"error": repr(exc)}


def _check_exit(outcome: Outcome, command: str, run: dict, op=None) -> bool:
    if "error" in run:
        outcome.fail(op, f"{command} raised {run['error']}")
    elif run["exit"] != 0:
        outcome.fail(op, f"{command} exit code {run['exit']}")
    return "error" not in run and run["exit"] == 0


def run_bvm(config_path, config, out_dir, scale) -> dict:
    """The ``bvm`` command: efficiency, replications, bias, output files."""
    return _run_cli("bvm", config_path, out_dir)


def check_bvm(key, config, out_dir, scale, run) -> Outcome:
    n_rep = operations("bvm", config)
    outcome = Outcome(n_rep)
    if not _check_exit(outcome, "bvm", run):
        return outcome
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    _check_v0(outcome, key, config.seed, scale, report["v0"],
              report["psi0"])
    if not report["palm_converged"]:
        outcome.fail(None, "operator inversion did not converge")
    for dim, entry in report["bias"].items():
        if not (math.isfinite(entry["value"]) and math.isfinite(entry["se"])):
            outcome.fail(None, f"bias at dimension {dim} not finite")
    reps = report["replications"]
    if len(reps) != n_rep:
        outcome.fail(None, f"{len(reps)} replications, expected {n_rep}")
    rates = {"nu": [], "theta": [], "jump": []}
    for i, rep in enumerate(reps[:n_rep]):
        if not rep["ok"]:
            outcome.fail(i, f"replication {i}: {rep['reason']}")
            continue
        numbers = [rep["psi_hat"], rep["post_mean"], rep["post_sd"],
                   *rep["ci90"], *rep["ci95"]]
        if not all(math.isfinite(v) for v in numbers):
            outcome.fail(i, f"replication {i}: non-finite summary")
        elif not (rep["post_sd"] > 0 and rep["ci90"][0] <= rep["ci90"][1]):
            outcome.fail(i, f"replication {i}: degenerate posterior")
        if rep["ks"] is not None and not 0.0 <= rep["ks"] <= 1.0:
            outcome.fail(i, f"replication {i}: KS {rep['ks']!r}")
        if scale == "full" and rep["ks"] is None:
            outcome.fail(i, f"replication {i}: too few draws for KS")
        if not os.path.exists(os.path.join(out_dir, f"posterior_{i}.csv")):
            outcome.fail(i, f"posterior_{i}.csv missing")
        for name in rates:
            if math.isfinite(rep["acceptance"][name]):
                rates[name].append(rep["acceptance"][name])
    for name in ("replications.csv", "plots.gp"):
        if not os.path.exists(os.path.join(out_dir, name)):
            outcome.fail(None, f"{name} missing")
    outcome.accept = {k: float(np.mean(v)) for k, v in rates.items() if v}
    return outcome


def _chain_seeds(config) -> list[int]:
    return [config.seed * INFER_CHAINS + i for i in range(INFER_CHAINS)]


def run_infer(config_path, config, out_dir, scale) -> list:
    """The ``infer`` command once per chain seed: simulate the path and
    run one chain."""
    runs = []
    for i, seed in enumerate(_chain_seeds(config)):
        chain_dir = os.path.join(out_dir, f"chain_{i}")
        os.makedirs(chain_dir)
        runs.append(_run_cli("infer", config_path, chain_dir,
                             "--seed", str(seed)))
    return runs


def check_infer(key, config, out_dir, scale, runs) -> Outcome:
    """Every draw must lie in the model class, and the draw count must
    follow from iterations, burn-in and thinning."""
    outcome = Outcome(operations("infer", config))
    spec, iters = config.prior, config.mcmc_iters
    burn = (config.mcmc_burn_in if config.mcmc_burn_in is not None
            else iters // 5)
    expected = len(range(burn, iters, config.mcmc_thin))
    dims = set(spec.admissible_dims().tolist())
    for op, run in enumerate(runs):
        if not _check_exit(outcome, "infer", run, op):
            continue
        chain_dir = os.path.join(out_dir, f"chain_{op}")
        with open(os.path.join(chain_dir, "chain.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(chain_dir, "draws.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != expected or summary["n_draws"] != expected:
            outcome.fail(op, f"chain {op}: {len(rows)} draws, "
                             f"expected {expected}")
        for row in rows:
            fields = row.split(",")
            J = int(fields[1])
            nu = np.array([float(v) for v in fields[2:2 + spec.K]])
            theta = np.array([float(v)
                              for v in fields[2 + spec.K].split(";")])
            if J not in dims or theta.size != spec.K * spec.K * J:
                outcome.fail(op, f"chain {op} draw {fields[0]}: "
                                 f"bad dimension {J}")
                continue
            h = spec.theta_to_h(J, theta.reshape(spec.K, spec.K, J))
            if not spec.in_model_class(nu, h):
                outcome.fail(op, f"chain {op} draw {fields[0]} outside "
                                 "the model class")
    return outcome


def _sieve_directions(K: int, j: int, n_cells: int,
                      support_end: float) -> list:
    """Unit rate vectors plus histogram-j bin indicators per interaction
    slot, on the operator grid (the sieve of the ``bvm`` bias stage)."""
    row = np.repeat(histogram_basis(j, support_end).matrix,
                    n_cells // j, axis=1)
    dirs = []
    for k in range(K):
        dirs.append(Direction(np.eye(K)[k], np.zeros((K, K, n_cells)),
                              support_end))
    for l in range(K):
        for k in range(K):
            for b in range(j):
                g = np.zeros((K, K, n_cells))
                g[l, k] = row[b]
                dirs.append(Direction(np.zeros(K), g, support_end))
    return dirs


_PIPELINE = ("efficiency", "save_palm", "lan", "bias", "volterra")


def run_efficiency(config_path, config, out_dir, scale) -> dict:
    """Palm tensors and operator inverse, the Palm file, the LAN
    estimator, the sieve bias and the Volterra pair density; the summary
    goes to efficiency.json. A stage that raises ends the pipeline."""
    f0, A = config.f0, config.f0.support_end
    summary: dict = {"completed": 0}
    try:
        eff = harness.compute_efficiency(config)
        summary.update(v0=eff["v0"], psi0=eff["psi0"],
                       residual=eff["residual"], converged=eff["converged"])
        summary["completed"] = 1
        palm.save_palm(eff["palm"], os.path.join(out_dir, "palm.json"))
        summary["completed"] = 2
        lan = LanEstimator(eff["f0_fine"], t_sim=config.lan_tsim,
                           n_points=config.lan_points,
                           seed=np.random.SeedSequence(config.seed + 2))
        summary["lan_lam0_min"] = float(lan.lam0.min())
        summary["completed"] = 3
        f_dir = Direction(f0.nu, eff["f0_fine"].h, A)
        summary["bias"] = {}
        for j in BIAS_DIMS:
            dirs = _sieve_directions(f0.K, j, config.palm_cells, A)
            value, se, _ = palm.bias_term(dirs, f_dir, eff["psi_L"], lan)
            summary["bias"][str(j)] = {"value": value, "se": se}
        summary["completed"] = 4
        density = volterra.solve_moment_density(f0, VOLTERRA_NODES[scale])
        summary["volterra_nodes"] = int(density.node_times.size)
        summary["volterra_max_abs"] = float(np.abs(density.upsilon).max())
        summary["completed"] = 5
    except Exception as exc:  # noqa: BLE001 - a crash fails the rest
        summary["error"] = repr(exc)
    with open(os.path.join(out_dir, "efficiency.json"), "w") as fh:
        json.dump(summary, fh)
    return {}


def check_efficiency(key, config, out_dir, scale, run) -> Outcome:
    outcome = Outcome(operations("efficiency", config))
    with open(os.path.join(out_dir, "efficiency.json")) as fh:
        summary = json.load(fh)
    for op in range(summary["completed"], len(_PIPELINE)):
        outcome.fail(op, f"{_PIPELINE[op]} not run: {summary.get('error')}")
    done = summary["completed"]
    if done > 0:
        _check_v0(outcome, key, config.seed, scale, summary["v0"],
                  summary["psi0"], op=0)
        if not summary["converged"]:
            outcome.fail(0, "operator inversion did not converge")
    if done > 1:
        saved = palm.load_palm(os.path.join(out_dir, "palm.json"))
        if saved.n_cells != config.palm_cells or saved.K != config.f0.K:
            outcome.fail(1, "palm.json does not round-trip")
    if done > 2 and not (math.isfinite(summary["lan_lam0_min"])
                         and summary["lan_lam0_min"] > 0):
        outcome.fail(2, "LAN intensities not positive and finite")
    if done > 3:
        for j, entry in summary["bias"].items():
            if not (math.isfinite(entry["value"])
                    and math.isfinite(entry["se"])):
                outcome.fail(3, f"bias at dimension {j} not finite")
    if done > 4 and not math.isfinite(summary["volterra_max_abs"]):
        outcome.fail(4, "Volterra solution not finite")
    return outcome


def operations(stage: str, config) -> int:
    """Operations one stage attempts."""
    if stage == "bvm":
        return config.replications * len(config.horizons)
    return len(_PIPELINE) if stage == "efficiency" else INFER_CHAINS


# stage -> (run, check)
STAGES = {"bvm": (run_bvm, check_bvm),
          "efficiency": (run_efficiency, check_efficiency),
          "infer": (run_infer, check_infer)}


def prepare(stage: str, config_text: str, out_dir: str):
    """Write and parse one stage's config: the set-up before the job."""
    path = os.path.join(out_dir, f"{stage}.cfg")
    with open(path, "w") as fh:
        fh.write(config_text)
    return path, load_config(path)
