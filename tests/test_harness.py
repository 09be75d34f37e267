import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats

from hawkes_bvm.cli import main as cli_main
from hawkes_bvm.harness import (bvm_distance, config_from_dict,
                                coverage_table, emit_outputs, job_seeds,
                                load_config, parse_config_text,
                                run_experiment)
from hawkes_bvm.palm import load_palm


BASE_CFG = {
    "K": "1", "A": "1.0", "m": "1", "nu": "1.0", "h": "0.5",
    "functional": "background 1",
    "T": "120", "R": "2",
    "mcmc_iters": "300", "mcmc_thin": "2",
    "prior_jmax": "4", "prior_theta": "shifted-exponential",
    "prior_rate": "2.0",
    "palm_cells": "4", "palm_anchors": "300", "palm_points": "1500",
    "lan_tsim": "300", "lan_points": "3000",
    "bias_dims": "1", "seed": "3",
}


def test_parse_config_text():
    text = "a = 1  # trailing comment\n# full comment\n\nb=x y z\n"
    cfg = parse_config_text(text)
    assert cfg == {"a": "1", "b": "x y z"}
    with pytest.raises(ValueError):
        parse_config_text("no equals sign\n")


def test_config_from_dict_defaults_and_values():
    config = config_from_dict(dict(BASE_CFG))
    assert config.f0.K == 1
    assert config.f0.h[0, 0, 0] == 0.5
    assert config.horizons == (120.0,)
    assert config.replications == 2
    assert config.prior.J_max == 4
    assert config.seed == 3
    assert config.p_j == 0.2  # default
    assert config.functional.kind == "background"


@pytest.mark.parametrize("dims", ["3", "0", "4 3"])
def test_config_rejects_bias_dims_before_any_work(dims):
    # each entry must be >= 1 and divide palm_cells = 4; the bias stage
    # runs last, so a bad entry found there wastes the whole run
    with pytest.raises(ValueError, match="bias_dims"):
        config_from_dict(dict(BASE_CFG, bias_dims=dims))


@pytest.mark.parametrize("functional", ["linear 1 3", "background 2",
                                        "squared_l2 2 1"])
def test_config_rejects_functional_mark_before_any_work(functional):
    # K = 1; the index was checked only after the Palm stage had run
    with pytest.raises(ValueError, match="functional mark index"):
        config_from_dict(dict(BASE_CFG, functional=functional))


def test_config_rejects_fewer_palm_anchors_than_batches():
    # an anchorless batch would enter the pooled Palm means as zeros
    with pytest.raises(ValueError, match="palm_anchors"):
        config_from_dict(dict(BASE_CFG, palm_anchors="10",
                              palm_batches="20"))
    config_from_dict(dict(BASE_CFG, palm_anchors="20", palm_batches="20"))


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
def test_config_rejects_bad_palm_horizon(value):
    # the thinning simulator stops only past the horizon: an infinite one
    # ran to the 50M-event budget
    with pytest.raises(ValueError, match="palm_horizon"):
        config_from_dict(dict(BASE_CFG, palm_horizon=value))


def test_config_seed_override_priority(tmp_path):
    config = config_from_dict(dict(BASE_CFG, seed="99"))
    assert config.seed == 99
    # the CLI's --seed beats the config's seed
    events = {}
    for name, seed, flags in (("flag", "99", ["--seed", "7"]),
                              ("seed7", "7", []), ("seed99", "99", [])):
        (tmp_path / name).mkdir()
        path = _write_cfg(tmp_path / name, {"seed": seed})
        out = tmp_path / name / "sim"
        assert cli_main(["simulate", "--config", path, "--out", str(out),
                         *flags]) == 0
        events[name] = (out / "events.csv").read_bytes()
    assert events["flag"] == events["seed7"] != events["seed99"]


def test_config_hash_tracks_content():
    a = config_from_dict(dict(BASE_CFG))
    changed = dict(BASE_CFG, seed="4")
    b = config_from_dict(changed)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == config_from_dict(dict(BASE_CFG)).config_hash()


def test_config_model_file(tmp_path):
    from hawkes_bvm.model import ModelParams
    p = ModelParams(np.array([2.0]), np.array([[[0.3]]]), 1.0)
    path = tmp_path / "model.json"
    path.write_text(p.to_json())
    cfg = dict(BASE_CFG)
    cfg.pop("nu"), cfg.pop("h")
    cfg["model_file"] = str(path)
    config = config_from_dict(cfg)
    assert config.f0.nu[0] == 2.0


def test_config_rejects_bad_h_length():
    cfg = dict(BASE_CFG, m="2")  # h still lists one value
    with pytest.raises(ValueError):
        config_from_dict(cfg)


def test_bvm_distance_exact_normal():
    rng = np.random.default_rng(0)
    T, v0, center = 400.0, 2.0, 1.3
    samples = center + rng.normal(0.0, np.sqrt(v0 / T), size=10_000)
    assert bvm_distance(samples, center, T, v0) < 0.02


def test_bvm_distance_point_mass():
    samples = np.full(200, 0.7)
    assert bvm_distance(samples, 0.7, 100.0, 1.0) == pytest.approx(0.5)


def test_bvm_distance_detects_wrong_variance():
    rng = np.random.default_rng(1)
    T, v0 = 400.0, 1.0
    samples = rng.normal(0.0, 2.0 * np.sqrt(v0 / T), size=10_000)
    assert bvm_distance(samples, 0.0, T, v0) > 0.15


_TIED = [0.1] * 40 + [-0.3] * 35 + [0.1] * 25  # n = 100 on two values


@given(st.integers(100, 400).flatmap(lambda n: st.lists(
           st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, 0.25])),
           min_size=n, max_size=n)),
       st.floats(-1.0, 1.0), st.floats(1.0, 1e4), st.floats(1e-4, 1e2))
@example([0.0] * 100, 0.0, 100.0, 1.0)
@example(_TIED, 0.1, 400.0, 0.5)
@example([float(v) for v in np.linspace(-2.0, 2.0, 100)], 0.0, 1.0, 2.0)
@example([0.2] * 60 + [math.nan] + [0.5] * 39, 0.3, 50.0, 1.0)
def test_bvm_distance_equals_scipy_kstest(samples, center, horizon, v0):
    samples = np.array(samples)
    z = np.sqrt(horizon) * (samples - center)
    expect = stats.kstest(z, "norm", args=(0, np.sqrt(v0))).statistic
    got = bvm_distance(samples, center, horizon, v0)
    if math.isnan(expect):
        assert math.isnan(got)
    else:
        assert got == expect


def test_bvm_distance_guards():
    with pytest.raises(ValueError):
        bvm_distance(np.zeros(200), 0.0, 100.0, 0.0)
    with pytest.raises(ValueError):
        bvm_distance(np.zeros(50), 0.0, 100.0, 1.0)


def _fake_report():
    reps = []
    for i in range(10):
        reps.append({
            "ok": True, "horizon": 100.0, "psi_hat": 1.0,
            "post_mean": 1.0, "post_sd": 0.1,
            "ci90": [0.9, 1.1], "ci95": [0.85, 1.15],
            "covered90": i < 9, "covered95": True,
            "ks": 0.05 if i % 2 == 0 else None,
            "acceptance": {}, "samples": [1.0, 1.1, 0.9],
        })
    reps.append({"ok": False, "horizon": 100.0, "reason": "x"})
    return {"config_hash": "abc", "functional": "nu_1", "psi0": 1.0,
            "v0": 2.0, "v0_hash": "def", "palm_residual": 0.0,
            "palm_converged": True, "bias": {}, "replications": reps}


def test_coverage_table_counts():
    cov = coverage_table(_fake_report())
    assert cov["0.90"]["coverage"] == pytest.approx(0.9)
    assert cov["0.90"]["n"] == 10
    assert cov["0.95"]["coverage"] == 1.0
    expect_se = np.sqrt(0.9 * 0.1 / 10)
    assert cov["0.90"]["se"] == pytest.approx(expect_se)


def test_coverage_table_empty():
    cov = coverage_table({"replications": []})
    assert cov["0.90"]["coverage"] is None


def test_emit_outputs_files(tmp_path):
    report = _fake_report()
    report["coverage"] = coverage_table(report)
    out = str(tmp_path / "out")
    emit_outputs(report, out)
    assert os.path.exists(os.path.join(out, "report.json"))
    doc = json.loads(open(os.path.join(out, "report.json")).read())
    assert "samples" not in doc["replications"][0]
    lines = open(os.path.join(out, "replications.csv")).read().splitlines()
    assert len(lines) == 12
    assert lines[-1].endswith(",,")  # failed row has empty fields
    assert lines[2].endswith(",")  # ks None leaves the field empty
    post0 = open(os.path.join(out, "posterior_0.csv")).read().splitlines()
    assert post0[0] == "psi" and len(post0) == 4
    assert os.path.exists(os.path.join(out, "plots.gp"))
    # the failed replication gets no posterior file
    assert not os.path.exists(os.path.join(out, "posterior_10.csv"))


def test_emit_outputs_plots_the_first_ok_posterior(tmp_path):
    report = _fake_report()
    report["replications"].insert(0, {"ok": False, "horizon": 100.0,
                                      "reason": "x"})
    report["coverage"] = coverage_table(report)
    emit_outputs(report, str(tmp_path / "some"))
    gp = (tmp_path / "some" / "plots.gp").read_text()
    assert "'posterior_1.csv'" in gp and "posterior_0" not in gp
    assert (tmp_path / "some" / "posterior_1.csv").exists()
    # with no ok replication there is no histogram panel
    report["replications"] = [r for r in report["replications"]
                              if not r["ok"]]
    emit_outputs(report, str(tmp_path / "none"))
    gp = (tmp_path / "none" / "plots.gp").read_text()
    assert "posterior_" not in gp and "layout 1,1" in gp


def test_emit_outputs_plots_the_centered_scaled_posterior(tmp_path):
    report = _fake_report()
    first = report["replications"][0]
    first.update(horizon=400.0, psi_hat=0.5, samples=[0.4, 0.5, 0.55, 0.6])
    report["coverage"] = coverage_table(report)
    emit_outputs(report, str(tmp_path))
    gp = (tmp_path / "plots.gp").read_text().splitlines()
    # replications.csv is comma-separated: column 9 exists only so
    assert "set datafile separator ','" in gp
    # z = sqrt(T)*(psi - psi_hat) from the first ok replication, binned
    # as a density over its 4 draws
    assert {"T = 400.0", "psi_hat = 0.5", "n = 4"} <= set(gp)
    plot = " ".join(gp[gp.index("binwidth = 0.2"):])
    assert "using (bin(sqrt(T)*($1 - psi_hat))):(1.0/(n*binwidth))" in plot


def _strict_json(path):
    def reject(name):
        raise ValueError(f"{path.name} holds {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_run_experiment_smoke_and_determinism():
    config = config_from_dict(dict(BASE_CFG))
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    assert r1["v0"] == r2["v0"]
    assert r1["v0_hash"] == r2["v0_hash"]
    assert all(r["ok"] for r in r1["replications"])
    a = [r["psi_hat"] for r in r1["replications"]]
    b = [r["psi_hat"] for r in r2["replications"]]
    assert a == b
    assert r1["v0"] > 0
    assert "1" in r1["bias"]
    assert r1["palm_converged"]


def test_replications_csv_fields_are_numbers(tmp_path):
    config = config_from_dict(dict(BASE_CFG, mcmc_iters="200"))
    report = run_experiment(config)
    assert all(r["ok"] for r in report["replications"])
    emit_outputs(report, str(tmp_path))
    lines = (tmp_path / "replications.csv").read_text().splitlines()
    assert len(lines) == 1 + config.replications
    for line in lines[1:]:
        for value in line.split(","):
            if value:
                float(value)


def test_replication_reports_ess():
    report = run_experiment(config_from_dict(dict(BASE_CFG)))
    for r in report["replications"]:
        assert r["ok"]
        assert np.isfinite(r["ess"]) and 0 < r["ess"]
    # 40 iterations, burn-in 8, thin 5: 7 draws, too few for an ESS
    short = run_experiment(config_from_dict(
        dict(BASE_CFG, mcmc_iters="40", mcmc_thin="5")))
    assert [r["ess"] for r in short["replications"]] == [None, None]


def test_compute_efficiency_poisson_oracle():
    # background functional in the Poisson model: V0 = nu (1 + nu A)
    from hawkes_bvm.harness import compute_efficiency
    cfg = dict(BASE_CFG, nu="2.0", h="0.0", palm_anchors="800",
               palm_points="4000")
    config = config_from_dict(cfg)
    eff = compute_efficiency(config)
    assert eff["converged"]
    assert eff["v0"] == pytest.approx(6.0, rel=0.10)


def _write_cfg(tmp_path, extra=None):
    cfg = dict(BASE_CFG)
    if extra:
        cfg.update(extra)
    text = "\n".join(f"{k} = {v}" for k, v in cfg.items()) + "\n"
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_load_config_file(tmp_path):
    path = _write_cfg(tmp_path)
    config = load_config(path)
    assert config.replications == 2


def test_cli_simulate(tmp_path):
    path = _write_cfg(tmp_path)
    out = str(tmp_path / "sim")
    assert cli_main(["simulate", "--config", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "events.csv"))


def test_cli_infer(tmp_path):
    path = _write_cfg(tmp_path, {"mcmc_iters": "200"})
    out = str(tmp_path / "inf")
    assert cli_main(["infer", "--config", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "draws.csv"))
    assert os.path.exists(os.path.join(out, "chain.json"))


def test_cli_infer_chain_does_not_reuse_the_stream_bits(tmp_path):
    # infer simulates simulate's stream at the config seed; its chain
    # draws from a spawned child, not from the generator of the data
    path = _write_cfg(tmp_path, {"mcmc_iters": "200"})
    out = tmp_path / "inf"
    assert cli_main(["infer", "--config", path, "--out", str(out)]) == 0
    chain_seed = json.loads((out / "chain.json").read_text())["seed"]
    assert chain_seed == job_seeds(3)[1]
    data_bits = np.random.default_rng(3).bit_generator.random_raw(8)
    chain_bits = np.random.default_rng(chain_seed).bit_generator.random_raw(8)
    assert not np.intersect1d(data_bits, chain_bits).size


def test_cli_bad_config_exit_code(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    assert cli_main(["simulate", "--config", missing]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("functional = cubic 1\n")
    assert cli_main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2


def test_cli_bad_model_exit_code(tmp_path):
    path = _write_cfg(tmp_path, {"h": "1.5"})  # supercritical
    assert cli_main(["simulate", "--config", path,
                     "--out", str(tmp_path / "o2")]) == 2


def test_cli_bvm_report_identical_across_threads(tmp_path):
    path = _write_cfg(tmp_path, {"mcmc_iters": "200"})
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"bvm{threads}"
        assert cli_main(["bvm", "--config", path, "--out", str(out),
                         "--threads", threads]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert all(r["ok"] for r in json.loads(reports[0])["replications"])


def test_cli_bvm_exit_code_when_inversion_not_converged(tmp_path):
    # a zero tolerance is never met: the outputs are written, exit code 3
    path = _write_cfg(tmp_path, {"mcmc_iters": "200", "R": "1",
                                 "invert_tol": "0"})
    out = tmp_path / "bvm"
    assert cli_main(["bvm", "--config", path, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["palm_converged"] is False
    assert all(r["ok"] for r in report["replications"])


@pytest.mark.parametrize("tol, code", [("1e-8", 0), ("0", 3)])
def test_cli_palm_writes_palm_and_efficiency(tmp_path, tol, code):
    # a zero tolerance is never met: both files are written, exit code 3
    path = _write_cfg(tmp_path, {"bias_dims": "4", "invert_tol": tol})
    out = tmp_path / "palm"
    assert cli_main(["palm", "--config", path, "--out", str(out)]) == code
    saved = load_palm(str(out / "palm.json"))
    assert (saved.K, saved.n_cells) == (1, 4)
    summary = _strict_json(out / "efficiency.json")
    assert summary["converged"] is (code == 0)
    assert math.isfinite(summary["v0"]) and summary["v0"] > 0


# palm_cells = 3 does not refine the m = 2 model grid. compute_efficiency
# rejects it, not config_from_dict: simulate and infer never read
# palm_cells, and an infer config with m = 3 and the default palm_cells of
# 16 must still run.
_COARSE_PALM_GRID = {"m": "2", "h": "0.5 0.2", "palm_cells": "3",
                     "bias_dims": "1"}


def test_cli_palm_cells_checked_only_where_read(tmp_path, capsys):
    path = _write_cfg(tmp_path, dict(_COARSE_PALM_GRID, mcmc_iters="100"))
    assert cli_main(["palm", "--config", path,
                     "--out", str(tmp_path / "palm")]) == 2
    assert "must refine the model grid" in capsys.readouterr().err
    assert cli_main(["infer", "--config", path,
                     "--out", str(tmp_path / "inf")]) == 0


def test_cli_infer_chain_json_strict_without_jump_proposals(tmp_path):
    path = _write_cfg(tmp_path, {"mcmc_iters": "100", "p_j": "0"})
    out = tmp_path / "inf"
    assert cli_main(["infer", "--config", path, "--out", str(out)]) == 0
    summary = _strict_json(out / "chain.json")
    assert summary["acceptance"]["jump"] is None
    assert summary["acceptance"]["nu"] > 0


def test_cli_bvm_report_strict_without_jump_proposals(tmp_path):
    path = _write_cfg(tmp_path, {"mcmc_iters": "200", "R": "1",
                                 "p_j": "0"})
    out = tmp_path / "bvm"
    assert cli_main(["bvm", "--config", path, "--out", str(out)]) == 0
    report = _strict_json(out / "report.json")
    assert report["replications"][0]["acceptance"]["jump"] is None


def test_cli_bvm_report_strict_when_no_replication_ok(tmp_path):
    # a burn-in as long as the chain leaves no draws: every replication
    # fails, and the outputs are still written (exit code 3)
    path = _write_cfg(tmp_path, {"mcmc_iters": "50", "mcmc_burn_in": "50"})
    out = tmp_path / "bvm"
    assert cli_main(["bvm", "--config", path, "--out", str(out)]) == 3
    report = _strict_json(out / "report.json")
    assert not any(r["ok"] for r in report["replications"])
    assert report["mean_sd_sqrtT"] is None
    assert report["median_ks"] is None
    assert "posterior_" not in (out / "plots.gp").read_text()


@pytest.mark.parametrize("extra", [
    {"prior_theta": "gaussian", "prior_sigma": "0"},
    {"prior_nu_rate": "0"},
    {"prior_rate": "0"},
    {"mcmc_thin": "0"},
])
def test_cli_infer_bad_prior_or_thin_exit_code(tmp_path, extra):
    path = _write_cfg(tmp_path, {"mcmc_iters": "100", **extra})
    assert cli_main(["infer", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("extra", [
    {"palm_batches": "0"},
    {"palm_cells": "0"},
    {"palm_points": "0"},
    {"lan_points": "0"},
    {"T": "0"},
    {"lan_tsim": "0"},
    {"p_j": "1.5"},
    {"R": "0"},
    {"R": "-1"},
    {"mcmc_iters": "0"},
    {"mcmc_burn_in": "-5"},
    {"bias_dims": "3"},  # does not divide palm_cells = 4
    {"bias_dims": "0"},
    {"prior_basis": "haar", "prior_jmax": "1"},  # no admissible dimension
    {"prior_c1": "nan"},
    _COARSE_PALM_GRID,
])
def test_cli_bvm_bad_efficiency_or_horizon_exit_code(tmp_path, extra):
    path = _write_cfg(tmp_path, extra)
    assert cli_main(["bvm", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
