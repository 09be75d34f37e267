import json
import os
import subprocess
import sys
import textwrap

import hawkes_bvm

# names deleted from the package because only tests called them
DELETED = ("GridFunction", "OperatorImage", "apply_palm_zeta",
           "info_operator_apply_batched", "intensity_at",
           "lan_inner_product", "max_window_count", "palm_cache_key",
           "project_L2")


def test_public_names_resolve_once_and_exclude_deleted():
    names = hawkes_bvm.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hawkes_bvm, name) is not None
    assert not any(hasattr(hawkes_bvm, name) for name in DELETED)


# a fresh interpreter imports the package and runs a small `bvm` job
# (histogram prior, gaussian coefficients, enough draws for the KS
# distance), then reports the slow scipy subpackages it loaded
_IMPORT_PROBE = textwrap.dedent("""
    import sys
    import hawkes_bvm
    from hawkes_bvm.cli import main
    code = main(["bvm", "--config", sys.argv[1], "--out", sys.argv[2],
                 "--threads", "1"])
    slow = [m for m in ("scipy.stats", "scipy.signal") if m in sys.modules]
    print(code, *slow)
""")


def test_bvm_job_never_imports_scipy_stats_or_signal(tmp_path):
    cfg = tmp_path / "bvm.cfg"
    cfg.write_text(
        "K = 1\nA = 1.0\nm = 1\nnu = 1.0\nh = 0.5\n"
        "functional = background 1\nT = 120\nR = 1\n"
        "mcmc_iters = 500\nmcmc_thin = 2\nprior_basis = histogram\n"
        "prior_jmax = 4\nprior_theta = gaussian\nprior_sigma = 0.3\n"
        "palm_cells = 4\npalm_anchors = 300\npalm_points = 1500\n"
        "lan_tsim = 300\nlan_points = 3000\nbias_dims = 1\nseed = 3\n")
    src = os.path.dirname(os.path.dirname(hawkes_bvm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(cfg),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    # the job prints its summary first; the probe's line comes last
    assert out.stdout.splitlines()[-1].split() == ["0"]
    # the job drew from the prior and computed a KS distance
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(r["ks"] is not None for r in report["replications"])
