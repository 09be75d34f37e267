"""Golden digests: the exact bytes of chains and simulated streams.

Each digest is the sha256 of a fixed run's output: the `to_csv()` and
`summary_json()` of a chain on the four cases of
`test_chain_draws_equal_reference_evaluation`, and the raw bytes of the
event times and marks of `simulate_thinning` for a K = 1, a K = 2 and a
ReLU truth. A change that must leave every draw and stream as it was
is checked against them.

The digests depend on numpy's arithmetic and random streams, so the
numpy and Python versions they were recorded with are kept beside them.
A deliberate change of the draws, or a new numpy, means recording them
again: `PYTHONPATH=src python tests/test_golden_draws.py` prints the
table to paste below.
"""

from __future__ import annotations

import hashlib
import platform
import sys

import numpy as np
import pytest

from hawkes_bvm.mcmc import run_chain
from hawkes_bvm.model import ModelParams
from hawkes_bvm.simulate import simulate_thinning
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


if __name__ == "__main__":
    print(f"RECORDED_WITH = {_running_with()!r}")
    for case in _CHAINS:
        print(f'    "chain/{case}": "{_chain_digest(case)}",')
    for truth in _TRUTHS:
        print(f'    "stream/{truth}": "{_stream_digest(truth)}",')
    sys.exit(0)
