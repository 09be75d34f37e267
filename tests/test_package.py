import json
import os
import subprocess
import sys
import textwrap

import pytest

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


# a fresh interpreter imports the package and runs each command on a small
# config of every prior family (histogram and Haar bases; gaussian and
# shifted-exponential coefficients), listing the scipy modules loaded
# after the import and after each command
_IMPORT_PROBE = textwrap.dedent("""
    import json
    import os
    import sys

    def scipy_modules():
        return [m for m in sys.modules if m.partition(".")[0] == "scipy"]

    import hawkes_bvm
    from hawkes_bvm.cli import main
    loaded = {"import": scipy_modules()}
    codes = {}
    for i, run in enumerate(sys.argv[2:]):
        command, config = run.split("=")
        codes[run] = main([command, "--config", config, "--out",
                           os.path.join(sys.argv[1], str(i)),
                           "--threads", "1"])
        loaded[run] = scipy_modules()
    print(json.dumps({"codes": codes, "loaded": loaded}))
""")

_SMALL_CONFIG = (
    "K = 1\nA = 1.0\nm = 1\nnu = 1.0\nh = 0.5\n"
    "functional = background 1\nT = 120\nR = 1\n"
    "mcmc_iters = 500\nmcmc_thin = 2\nprior_jmax = 4\n"
    "palm_cells = 4\npalm_anchors = 300\npalm_points = 1500\n"
    "lan_tsim = 300\nlan_points = 3000\nbias_dims = 1\nseed = 3\n")


def test_import_and_commands_load_no_scipy(tmp_path):
    gauss, haar = tmp_path / "gauss.cfg", tmp_path / "haar.cfg"
    gauss.write_text(_SMALL_CONFIG + "prior_basis = histogram\n"
                     "prior_theta = gaussian\nprior_sigma = 0.3\n")
    haar.write_text(_SMALL_CONFIG + "prior_basis = haar\n")
    runs = [f"{c}={gauss}" for c in ("simulate", "infer", "palm", "bvm")]
    runs += [f"{c}={haar}" for c in ("infer", "bvm")]
    src = os.path.dirname(os.path.dirname(hawkes_bvm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "out"), *runs],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    # the commands print their summaries first; the probe's line is last
    probe = json.loads(out.stdout.splitlines()[-1])
    assert probe["codes"] == {run: 0 for run in runs}
    assert probe["loaded"] == {run: [] for run in ["import", *runs]}
    # the bvm jobs drew from the prior and computed KS distances
    for i in (3, 5):
        report = json.loads(
            (tmp_path / "out" / str(i) / "report.json").read_text())
        assert all(r["ks"] is not None for r in report["replications"])


# a signed ReLU kernel: its chain evaluates the likelihood on the exact
# path, whose compensator sweeps the event pieces (`sweep_pieces`)
_RELU_CONFIG = (_SMALL_CONFIG.replace("m = 1\n", "m = 4\n")
                .replace("h = 0.5\n", "h = -0.4 -0.2 0.3 0.1\nkind = relu\n")
                + "prior_theta = gaussian\nprior_sigma = 0.3\n")


# numpy submodules that a command must not import: numpy.ma (1.2 MB of
# memory; np.quantile, np.median and a plain 1-d np.unique import it) and,
# since ess takes direct lagged products, numpy.fft on the K = 1 bvm path
# (with its efficiency stage and bias terms)
@pytest.mark.parametrize("command, config, modules", [
    ("bvm", _SMALL_CONFIG.replace("bias_dims = 1", "bias_dims = 1 4"),
     ["numpy.fft", "numpy.ma"]),
    ("infer", _RELU_CONFIG, ["numpy.ma"]),
    ("palm", _SMALL_CONFIG, ["numpy.ma"])],
    ids=["bvm-k1", "infer-relu", "palm"])
def test_command_leaves_numpy_modules_unimported(tmp_path, command, config,
                                                 modules):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    probe = textwrap.dedent("""
        import json
        import sys

        from hawkes_bvm.cli import main
        code = main([sys.argv[1], "--config", sys.argv[2], "--out",
                     sys.argv[3], "--threads", "1"])
        print(json.dumps({"code": code, "loaded": [
            m for m in sys.argv[4:] if m in sys.modules]}))
    """)
    src = os.path.dirname(os.path.dirname(hawkes_bvm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe, command, str(path),
         str(tmp_path / "out"), *modules],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == {"code": 0,
                                                       "loaded": []}
    if command == "bvm":
        # the run took an ESS, a credible interval, the median KS
        # distance and decided both ridge flags
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["replications"][0]["ess"] > 0
        assert report["median_ks"] is not None
        assert sorted(report["bias"]) == ["1", "4"]
