import json
import os

import numpy as np
import pytest

from hawkes_bvm.cli import main as cli_main
from hawkes_bvm.harness import (bvm_distance, config_from_dict,
                                coverage_table, emit_outputs, load_config,
                                parse_config_text, run_experiment)


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


def test_config_seed_override_priority(monkeypatch):
    monkeypatch.setenv("HAWKES_SEED", "99")
    config = config_from_dict(dict(BASE_CFG))
    assert config.seed == 99
    config = config_from_dict(dict(BASE_CFG), seed_override=7)
    assert config.seed == 7


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


def test_coverage_table_reads_the_key_of_each_level():
    report = _fake_report()
    for i, r in enumerate(report["replications"][:10]):
        r["covered80"] = i < 7
    cov = coverage_table(report, (0.80, 0.90))
    assert cov["0.80"]["coverage"] == pytest.approx(0.7)
    assert cov["0.90"]["coverage"] == pytest.approx(0.9)
    with pytest.raises(ValueError):
        coverage_table(_fake_report(), (0.80,))


def test_coverage_table_empty():
    cov = coverage_table({"replications": []})
    assert cov["0.90"]["coverage"] is None


def test_emit_outputs_files(tmp_path):
    report = _fake_report()
    report["coverage"] = coverage_table(report)
    out = str(tmp_path / "out")
    written = emit_outputs(report, out)
    assert os.path.exists(os.path.join(out, "report.json"))
    doc = json.loads(open(os.path.join(out, "report.json")).read())
    assert "samples" not in doc["replications"][0]
    lines = open(os.path.join(out, "replications.csv")).read().splitlines()
    assert len(lines) == 12
    assert lines[-1].endswith(",,")  # failed row has empty fields
    assert lines[2].endswith(",")  # ks None leaves the field empty
    post0 = open(os.path.join(out, "posterior_0.csv")).read().splitlines()
    assert post0[0] == "psi" and len(post0) == 4
    assert any(p.endswith("plots.gp") for p in written)
    # the failed replication gets no posterior file
    assert not os.path.exists(os.path.join(out, "posterior_10.csv"))


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
