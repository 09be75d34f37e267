"""Golden digests: the exact bytes of chains, simulated streams and
`bvm` outputs.

Each digest is the sha256 of a fixed run's output: the `to_csv()` and
`summary_json()` of a chain on the four cases of
`test_chain_draws_equal_reference_evaluation`, the raw bytes of the
event times and marks of `simulate_thinning` for a K = 1, a K = 2 and a
ReLU truth, the first two also on the finer grids the benchmark's LAN
estimators simulate on, a K = 2 ReLU truth and a K = 1 ReLU truth whose
lane clamps, the same bytes of `simulate_cluster` for the K = 1 and
K = 2 linear truths, and every file the CLI
writes for small configs: `bvm` (`report.json`, `replications.csv`,
`plots.gp` and each `posterior_<r>.csv`) on three K = 1 configs, one
K = 2 and the criterion-7 experiment cut short, `palm` (`palm.npz`,
`efficiency.json`) converged and not, at K = 1 and K = 2, and `infer`
(`draws.csv`, `chain.json`) at K = 1, K = 2, with the Haar/softplus
prior and on a ReLU truth. A change that must
leave every draw, stream and output file as it was is checked against
them.

The digests depend on numpy's arithmetic and random streams, so the
numpy and Python versions they were recorded with are kept beside them.
A deliberate change of the draws, or a new numpy, means recording them
again: `PYTHONPATH=src python tests/test_golden_draws.py` prints the
table to paste below, and to stderr each key whose digest changed and
each key added or missing, to list with the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

from hawkes_bvm import harness
from hawkes_bvm.cli import main as cli_main
from hawkes_bvm.likelihood import linear_intensity
from hawkes_bvm.mcmc import run_chain
from hawkes_bvm.model import ModelParams
from hawkes_bvm.palm import info_operator_invert
from hawkes_bvm.simulate import simulate_cluster, simulate_thinning
from test_acceptance import _BVM_CFG
from test_harness import BASE_CFG
from test_mcmc import _data, _haar_case, _k2_case, _relu_case, _spec

RECORDED_WITH = {"numpy": "2.4.6", "python": "3.11"}

DIGESTS = {
    "chain/k1-histogram":
        "92684d0a02dccf6e4f7a3e0944069cb4c180e4cb0270b0492e40403f96db4eeb",
    "chain/k2-histogram":
        "ed8dae0f9657502f77f7da1dfffa5020c4b3e966f179a4a9108ab8bba8fec64b",
    "chain/relu-gaussian":
        "e00e13c75944f88bdeba36f9da2efce2592062239076a4df9c895ddc4f914fb8",
    "chain/haar-softplus":
        "a67de99fbc1c8cf1f5e3f51e3a23f9306466a787fdd9f9e076b7bbf19c6ae973",
    "stream/k1-linear":
        "76411727fe4ca219b675de3176bc0270351ce77cc94020e67b2d24282f33adb6",
    "stream/k2-linear":
        "3fa5b6e06fe6eb1240b95623d1e67bf786d7492a56bde6b73279aa2e4506df69",
    "stream/k1-relu":
        "bff21920f68dad998e54f5aea8091b970e649ac4d0cf2d65fb4e4dea965d5ed3",
    # a kernel refined within its cells keeps every bound and intensity,
    # so these two streams are those of the coarse truths above
    "stream/k1-linear-m16":
        "76411727fe4ca219b675de3176bc0270351ce77cc94020e67b2d24282f33adb6",
    "stream/k2-linear-m32":
        "3fa5b6e06fe6eb1240b95623d1e67bf786d7492a56bde6b73279aa2e4506df69",
    "stream/k2-relu":
        "bd169be2454292316c4b5eb82b6f0bfe984000925e4ef1449d16738e2b79de30",
    "stream/k1-relu-clamp":
        "7c3387402a9180c40619192073c46bcc6de16569ebf441aacfaa8d8a129e7c47",
    "cluster/k1-linear":
        "c597fffb935ee1b8cd3c0bd998e60681f3acb081594e909751e79878fb939dd4",
    "cluster/k2-linear":
        "03e3eae3f1b0457f3f4c194456294fbc1bdfc39b6d24bab26eb57bab0654d2a9",
    "bvm/two-horizons/plots.gp":
        "7dd2fe1caf95889a0306dd5ba6d8d0fb4ee549aba385cb4f85a41b14e93a997f",
    "bvm/two-horizons/posterior_0.csv":
        "4115b7c59cb00cbb71337b5d39d289054e1c5bf29b83909a029ede706668ed32",
    "bvm/two-horizons/posterior_1.csv":
        "abf9f7a09c154221730582d49b10b97f8994eea7936da8b36c9277d03de565b6",
    "bvm/two-horizons/posterior_2.csv":
        "2e07f6e35802bd9c5fcac8dd9a9514cfd998180396c308b5e4627b900ebacbb1",
    "bvm/two-horizons/posterior_3.csv":
        "1491032d5407e56aef4eae265573fab494ac8af6be9c6522f48c57aa4e03c147",
    "bvm/two-horizons/replications.csv":
        "a3e2191d4638a43bd9d55bf88d02b05ce276ed91406775ae427f4ebe7a5c0cc8",
    "bvm/two-horizons/report.json":
        "289749fc87df92b5f28f3dc7926e8afeb6dbc3e52543627631cbfee8564dbdec",
    "bvm/few-draws/plots.gp":
        "97c6e98f6e202fa7f6d910d59c968284bef50dab41434acc229ae0f3e4a720ca",
    "bvm/few-draws/posterior_0.csv":
        "e6545d048ea856e85f51f8656d35445778b36ddb61db4befbec0b6e6898b4553",
    "bvm/few-draws/posterior_1.csv":
        "c4e46f7150c5d4bca3057fabaf0e6e48b26ab654cef2656ca5fbf356fb487f53",
    "bvm/few-draws/posterior_2.csv":
        "d3c9c4ab4ca32ebb847afd0e2edbf35469d1dcec9fd3c8691f6c066bdcec5351",
    "bvm/few-draws/posterior_3.csv":
        "7e52a16a05bd53a2599b1c431be490a599e6de4d51fa150b1e229ec4ccba4723",
    "bvm/few-draws/replications.csv":
        "f66b4be7b9bbd7ad9ce37a61bc712143cb5dd92b27c68f8a661b8ba11e8cfd68",
    "bvm/few-draws/report.json":
        "59bceb2d175d1d1b87fbff6e284e9397d51b9073b072ecfc83ce2329c828eb02",
    "bvm/all-failed/plots.gp":
        "cd222bcc134042b31de9d57fc935d9a7bad8a2811f4bebb490882a77258416c4",
    "bvm/all-failed/replications.csv":
        "547b5d6b0cfb6b77d06adcb98dcf83d80ae7270453537134fc5ffa5ffd9f2cd9",
    "bvm/all-failed/report.json":
        "6814d4ec7fcf4bc186b0366285a146a1fd77768291ebacd610f223117604c66a",
    "bvm/k2-two-horizons/plots.gp":
        "1beed45b908aa8384adfa451456035c6b4b9a7bbcc55f2e6c269146aa851af34",
    "bvm/k2-two-horizons/posterior_0.csv":
        "b2378efd8e07207bade4443365100f8f75fb2f60255cf9a3b1ab5aedf5aa524b",
    "bvm/k2-two-horizons/posterior_1.csv":
        "2c93a56ce5f090832942ab20bd2c43b8a6b0157546a6167299482c8860762d4e",
    "bvm/k2-two-horizons/replications.csv":
        "846e5ce9502b8a11081ecc5983646775e885335f69f6431b15b89a638693b4a5",
    "bvm/k2-two-horizons/report.json":
        "288c2f9d75dbd3df8e919c4d2e489493bc60e60a38f23681275487531af0476d",
    "bvm/criterion-7/plots.gp":
        "49f1a87e5b26e9603d1ddb69919bfee5f2c34bfe25a4b5b3396b0f4e66f3feba",
    "bvm/criterion-7/posterior_0.csv":
        "eb364784d768a82157916c1ff5460258bdacc3ae78e681a323aee824e4814f60",
    "bvm/criterion-7/posterior_1.csv":
        "aed1e26ac02bb467c5aee76c495015c6c15c8112b02bba6cbe3abfa4790c0392",
    "bvm/criterion-7/posterior_2.csv":
        "b7313f435c96c4687ebf22653ff841bfc4eeda04efe22e7428a76222e91e940d",
    "bvm/criterion-7/replications.csv":
        "a5f84d5fa391cf5943d647dfcd5e1d5919886c2e579e632f7bea820054358eb0",
    "bvm/criterion-7/report.json":
        "79ec1c5699817fdbecffb150e2b7986162374b4577ea100267e5e2df46baf294",
    "palm/k1/efficiency.json":
        "92a8768c8f53e27243d403ab5e25d127f59ac633c4977d38bcff94955f81a52d",
    "palm/k1/palm.npz":
        "dbd726ceb329c579c0bfff00144a0087f6c71e9907966c065af2552b1291d7a7",
    "palm/k1-not-converged/efficiency.json":
        "df68c485b03de5ca2390cb6d773eb01212398f5ed2e8e229a6090b3f5a1754b4",
    "palm/k1-not-converged/palm.npz":
        "dbd726ceb329c579c0bfff00144a0087f6c71e9907966c065af2552b1291d7a7",
    "palm/k2/efficiency.json":
        "d403f0551ebba420cdafdbf24c2d9769a017944361cced853960a12807631bde",
    "palm/k2/palm.npz":
        "5115d20e1e85251bf1fb4b527b0ab8f26458d28cd435e50f7a8ed9e920bb1839",
    "infer/k1/chain.json":
        "45cef2dc70a7c3e6a3dec4c37e9170e59bfa0ca49a029f15d8d1de1581ddf9e1",
    "infer/k1/draws.csv":
        "a9f6b86ac3c24b9084b322f10e264c1d1ddbdba82e207943ca22eede765b16f4",
    "infer/k2/chain.json":
        "025af698ef941f4b010c06a6188375b9bbc0cb7835008ea1e0f3e8627a9b1e2e",
    "infer/k2/draws.csv":
        "dd634aa09c404883071fb9c1694a3034c7be1cd4ea50c64ebc298aede33d919e",
    "infer/haar-softplus/chain.json":
        "ebf1955386d74ed294eb0fd58874793737b2795df0a45bc18a4bc21ef552ebbf",
    "infer/haar-softplus/draws.csv":
        "72fd4dfffa959cd670db77f68348f5cb332b9272669e424090c09326e8fc9a71",
    "infer/relu/chain.json":
        "f30da6a4aa5a13d8fb07c72c993178cde2fa77ca334ed051837b3d7886aea16f",
    "infer/relu/draws.csv":
        "920d6998e2b810dc348d7f23612b05be8263ddd8458883e3e6904ae6d11505fa",
}

_CHAINS = {
    "k1-histogram": lambda: (*_data(T=200.0), _spec(), 400),
    "k2-histogram": _k2_case,
    "relu-gaussian": _relu_case,
    "haar-softplus": _haar_case,
}

_TRUTHS = {
    # the criterion-7 truth, the k2-mixed benchmark truth and the
    # ReLU truth of the chain case above
    "k1-linear": (ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0),
                  500.0),
    "k2-linear": (ModelParams(
        np.array([0.6, 0.4]),
        np.array([0.4, 0.2, 0.1, 0.05, 0.15, 0.1, 0.3, 0.2]).reshape(2, 2, 2),
        1.0), 300.0),
    "k1-relu": (ModelParams(np.array([1.0]),
                            np.array([[[-0.4, -0.2, 0.3, 0.1]]]), 1.0,
                            "relu"), 300.0),
    # the grids the benchmark's LAN estimators simulate on: the
    # criterion-7 truth refined to 16 cells and the k2-mixed truth
    # refined to 32 cells
    "k1-linear-m16": (ModelParams(np.array([1.0]), np.full((1, 1, 16), 0.5),
                                  1.0), 500.0),
    "k2-linear-m32": (ModelParams(
        np.array([0.6, 0.4]),
        np.repeat(np.array([0.4, 0.2, 0.1, 0.05, 0.15, 0.1, 0.3, 0.2])
                  .reshape(2, 2, 2), 16, axis=2), 1.0), 300.0),
    # two mark-1 events within 0.5 push mark 2 below zero: its lane clamps
    "k2-relu": (ModelParams(
        np.array([1.0, 0.5]),
        np.array([0.3, 0.2, -0.45, 0.1, 0.2, 0.4, 0.1, -0.3]).reshape(2, 2, 2),
        1.0, "relu"), 300.0),
    # two events within a quarter of A take 1.8 from nu = 1: the lane
    # clamps
    "k1-relu-clamp": (ModelParams(np.array([1.0]),
                                  np.array([[[-0.9, 0.6, 0.6, 0.1]]]), 1.0,
                                  "relu"), 300.0),
}

# the truths of _TRUTHS that `simulate_cluster` also pins
_CLUSTER_TRUTHS = ("k1-linear", "k2-linear")


# the k2-mixed benchmark truth and a functional that crosses the marks
_K2 = {"K": "2", "m": "2", "nu": "0.6 0.4",
       "h": "0.4 0.2 0.1 0.05 0.15 0.1 0.3 0.2",
       "functional": "linear 1 2"}

# command -> case -> (changes to the small config of test_harness.py, the
# tolerance of the operator inverse, or None for its default, and the
# exit code)
_CLI_CASES = {
    "bvm": {
        # 120 draws per replication: KS and ESS are set
        "two-horizons": ({"T": "120 240"}, None, 0),
        # 40 draws: too few for KS (null), enough for ESS
        "few-draws": ({"T": "120 240", "mcmc_iters": "100"}, None, 0),
        # a burn-in as long as the chain: every replication fails, and
        # the outputs are still written
        "all-failed": ({"T": "120 240", "mcmc_burn_in": "300"}, None, 3),
        # the K = 2 Palm tensors, LAN Gram, bias and W_T
        "k2-two-horizons": (dict(_K2, T="120 240", R="1", mcmc_iters="200"),
                            None, 0),
        # the criterion-7 experiment at T = 2000, cut to three chains of
        # 4000 iterations (640 draws each) on one process
        "criterion-7": (dict(_BVM_CFG, R="3", mcmc_iters="4000",
                             threads="1"), None, 0),
    },
    "palm": {
        "k1": ({}, None, 0),
        # a zero tolerance is never met: both files are written
        "k1-not-converged": ({}, 0.0, 3),
        "k2": (_K2, None, 0),
    },
    "infer": {
        "k1": ({"mcmc_iters": "200"}, None, 0),
        "k2": (dict(_K2, mcmc_iters="150"), None, 0),
        "haar-softplus": ({"m": "4", "h": "0.6 0.3 0.1 0.0", "T": "60",
                           "mcmc_iters": "150", "prior_basis": "haar",
                           "prior_jmax": "8", "prior_theta": "gaussian",
                           "prior_sigma": "0.3", "prior_link": "softplus"},
                          None, 0),
        "relu": ({"m": "4", "kind": "relu", "h": "-0.4 -0.2 0.3 0.1",
                  "T": "60", "mcmc_iters": "80", "prior_jmax": "8",
                  "prior_theta": "gaussian", "prior_sigma": "0.3"},
                 None, 0),
    },
}


# the acceptance warnings each `infer` case's short chain emits, as
# patterns of their messages; every other case emits none
_INFER_WARNINGS = {
    "k2": [r"jump acceptance rate 0\.00 "],
    "haar-softplus": [r"jump acceptance rate 0\.00 "],
    "relu": [r"theta acceptance rate 0\.06 ", r"jump acceptance rate 0\.06 "],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _chain_digest(case: str) -> str:
    stream, T, spec, sweeps = _CHAINS[case]()
    # half the sweeps adapt the scales; every later state is kept
    draws = run_chain(stream, T, spec, iters=sweeps, burn_in=sweeps // 2,
                      thin=1, seed=23, p_j=0.5, warn=False)
    return _sha((draws.to_csv() + draws.summary_json()).encode())


def _stream_digest(truth: str, simulate=simulate_thinning) -> str:
    params, horizon = _TRUTHS[truth]
    stream = simulate(params, horizon, seed=41)
    return _sha(stream.times.tobytes() + stream.marks.tobytes())


def _cli_digests(command: str, case: str) -> tuple[int, dict]:
    """The exit code of `command` on the case's config, and the digest of
    each file it wrote, keyed `<command>/<case>/<file name>`."""
    changes, tol, _ = _CLI_CASES[command][case]
    cfg = dict(BASE_CFG, **changes)
    # the case's tolerance replaces the one the caller passes
    invert = (mock.patch.object(
        harness, "info_operator_invert",
        lambda palm, target, **_: info_operator_invert(palm, target, tol=tol))
        if tol is not None else contextlib.nullcontext())
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        with invert, contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([command, "--config", path, "--out", out])
        digests = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests[f"{command}/{case}/{name}"] = _sha(fh.read())
    return code, digests


def _running_with() -> dict:
    return {"numpy": np.__version__,
            "python": ".".join(platform.python_version_tuple()[:2])}


def _check(name: str, digest: str) -> None:
    if digest != DIGESTS[name]:
        pytest.fail(
            f"{name}: sha256 {digest} differs from the recorded "
            f"{DIGESTS[name]}. Recorded with {RECORDED_WITH}, running with "
            f"{_running_with()}. If the change of bytes is intended (or "
            "numpy changed), record the digests again with "
            "`PYTHONPATH=src python tests/test_golden_draws.py`.")


@pytest.mark.parametrize("case", list(_CHAINS))
def test_chain_draws_match_golden_digest(case):
    _check(f"chain/{case}", _chain_digest(case))


@pytest.mark.parametrize("truth", list(_TRUTHS))
def test_thinning_stream_matches_golden_digest(truth):
    _check(f"stream/{truth}", _stream_digest(truth))


@pytest.mark.parametrize("truth", _CLUSTER_TRUTHS)
def test_cluster_stream_matches_golden_digest(truth):
    _check(f"cluster/{truth}", _stream_digest(truth, simulate_cluster))


def test_clamp_truth_goes_below_zero():
    # the pinned k1-relu-clamp stream exercises the clamp: its linear
    # intensity is negative somewhere
    params, horizon = _TRUTHS["k1-relu-clamp"]
    stream = simulate_thinning(params, horizon, seed=41)
    grid = np.arange(0.0, horizon, params.cell_width / 16)
    lam = linear_intensity(stream, grid, params.nu, params.h,
                           params.support_end)
    assert lam.min() < 0.0


def _check_cli(command: str, case: str) -> None:
    code, digests = _cli_digests(command, case)
    assert code == _CLI_CASES[command][case][2]
    # the same files, no more and no fewer
    assert sorted(digests) == sorted(
        name for name in DIGESTS if name.startswith(f"{command}/{case}/"))
    for name, digest in digests.items():
        _check(name, digest)


@pytest.mark.parametrize("case", list(_CLI_CASES["bvm"]))
def test_bvm_outputs_match_golden_digests(case):
    _check_cli("bvm", case)


@pytest.mark.parametrize("case", list(_CLI_CASES["palm"]))
def test_palm_outputs_match_golden_digests(case):
    _check_cli("palm", case)


@pytest.mark.parametrize("case", list(_CLI_CASES["infer"]))
def test_infer_outputs_match_golden_digests(case):
    with contextlib.ExitStack() as expected:
        for pattern in _INFER_WARNINGS.get(case, []):
            expected.enter_context(pytest.warns(UserWarning, match=pattern))
        _check_cli("infer", case)


if __name__ == "__main__":
    warnings.simplefilter("ignore")  # a chain's acceptance warnings
    print(f"RECORDED_WITH = {_running_with()!r}")
    table = {f"chain/{case}": _chain_digest(case) for case in _CHAINS}
    table.update((f"stream/{truth}", _stream_digest(truth))
                 for truth in _TRUTHS)
    table.update((f"cluster/{truth}", _stream_digest(truth, simulate_cluster))
                 for truth in _CLUSTER_TRUTHS)
    for command, cases in _CLI_CASES.items():
        for case in cases:
            table.update(_cli_digests(command, case)[1])
    for name, digest in table.items():
        print(f'    "{name}": "{digest}",')
    # what differs from DIGESTS, for the change log
    for name in sorted(table.keys() | DIGESTS.keys()):
        if name not in DIGESTS:
            print(f"added: {name}", file=sys.stderr)
        elif name not in table:
            print(f"missing: {name}", file=sys.stderr)
        elif table[name] != DIGESTS[name]:
            print(f"changed: {name}", file=sys.stderr)
    sys.exit(0)
