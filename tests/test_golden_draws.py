"""Golden digests: the exact bytes of chains, simulated streams and
`bvm` outputs.

Each digest is the sha256 of a fixed run's output: the `to_csv()` and
`summary_json()` of a chain on the four cases of
`test_chain_draws_equal_reference_evaluation`, the raw bytes of the
event times and marks of `simulate_thinning` for a K = 1, a K = 2 and a
ReLU truth, the first two also on the finer grids the benchmark's LAN
estimators simulate on, and a K = 2 ReLU truth, and every file the `bvm`
command writes (`report.json`, `replications.csv`, `plots.gp` and each
`posterior_<r>.csv`) for three small configs. A change that must leave
every draw, stream and output file as it was is checked against them.

The digests depend on numpy's arithmetic and random streams, so the
numpy and Python versions they were recorded with are kept beside them.
A deliberate change of the draws, or a new numpy, means recording them
again: `PYTHONPATH=src python tests/test_golden_draws.py` prints the
table to paste below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

from hawkes_bvm.cli import main as cli_main
from hawkes_bvm.mcmc import run_chain
from hawkes_bvm.model import ModelParams
from hawkes_bvm.simulate import simulate_thinning
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
        "a1d5cef630b8e4d9fd6b7c638f37a31f1beeee68adeda4ae11a3b49828aa4c68",
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
        "4420ef399fe90f28ccf3678c6863857f6cca755936a9eceb4dd22837012c706e",
    "bvm/all-failed/plots.gp":
        "cd222bcc134042b31de9d57fc935d9a7bad8a2811f4bebb490882a77258416c4",
    "bvm/all-failed/replications.csv":
        "547b5d6b0cfb6b77d06adcb98dcf83d80ae7270453537134fc5ffa5ffd9f2cd9",
    "bvm/all-failed/report.json":
        "52277be3122ef4acaadcc2c06f142ee42519f1f579abe6a81d9a40e321e4bc60",
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
}


# the small config of test_harness.py on two horizons, and the exit code
# `bvm` returns on it
_BVM_CASES = {
    # 120 draws per replication: KS and ESS are set
    "two-horizons": ({"T": "120 240"}, 0),
    # 40 draws: too few for KS (null), enough for ESS
    "few-draws": ({"T": "120 240", "mcmc_iters": "100"}, 0),
    # a burn-in as long as the chain: every replication fails, and the
    # outputs are still written
    "all-failed": ({"T": "120 240", "mcmc_burn_in": "300"}, 3),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _chain_digest(case: str) -> str:
    stream, T, spec, sweeps = _CHAINS[case]()
    # half the sweeps adapt the scales; every later state is kept
    draws = run_chain(stream, T, spec, iters=sweeps, burn_in=sweeps // 2,
                      thin=1, seed=23, p_j=0.5, warn=False)
    return _sha((draws.to_csv() + draws.summary_json()).encode())


def _stream_digest(truth: str) -> str:
    params, horizon = _TRUTHS[truth]
    stream = simulate_thinning(params, horizon, seed=41)
    return _sha(stream.times.tobytes() + stream.marks.tobytes())


def _bvm_digests(case: str) -> tuple[int, dict]:
    """The exit code of `bvm` on the case's config, and the digest of
    each file it wrote, keyed `bvm/<case>/<file name>`."""
    cfg = dict(BASE_CFG, **_BVM_CASES[case][0])
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "bvm.cfg"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["bvm", "--config", path, "--out", out])
        digests = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests[f"bvm/{case}/{name}"] = _sha(fh.read())
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


@pytest.mark.parametrize("case", list(_BVM_CASES))
def test_bvm_outputs_match_golden_digests(case):
    code, digests = _bvm_digests(case)
    assert code == _BVM_CASES[case][1]
    # the same files, no more and no fewer
    assert sorted(digests) == sorted(
        name for name in DIGESTS if name.startswith(f"bvm/{case}/"))
    for name, digest in digests.items():
        _check(name, digest)


if __name__ == "__main__":
    print(f"RECORDED_WITH = {_running_with()!r}")
    for case in _CHAINS:
        print(f'    "chain/{case}": "{_chain_digest(case)}",')
    for truth in _TRUTHS:
        print(f'    "stream/{truth}": "{_stream_digest(truth)}",')
    for case in _BVM_CASES:
        for name, digest in _bvm_digests(case)[1].items():
            print(f'    "{name}": "{digest}",')
    sys.exit(0)
