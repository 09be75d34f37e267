import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hawkes_bvm.mcmc import (ChainState, PosteriorTarget, Scales, _Expansion,
                             ess, mcmc_step, merge_coefficients,
                             project_bins, run_chain, posterior_functional,
                             split_coefficients)
from hawkes_bvm.functionals import FunctionalSpec
from hawkes_bvm.likelihood import LikelihoodCache, log_likelihood
from hawkes_bvm.model import ModelParams
from hawkes_bvm.priors import PriorSpec, log_prior
from hawkes_bvm.simulate import simulate_thinning
from hawkes_bvm.stream import EventStream
from test_priors import _prior_case, _rate, _same_float
from test_window_design import _loop_loglik


def _data(T=300.0, seed=30):
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    return simulate_thinning(p, T, seed=seed), T


def _spec(**kw):
    defaults = dict(K=1, J_max=4, theta_family="shifted-exponential",
                    kappa=0.0, rate=2.0, support_end=1.0)
    defaults.update(kw)
    return PriorSpec(**defaults)


def test_split_merge_exact_round_trip():
    rng = np.random.default_rng(0)
    theta = rng.normal(size=(2, 2, 4))
    u = rng.normal(size=(2, 2, 4))
    child = split_coefficients(theta, u)
    parent, rec_u = merge_coefficients(child)
    assert np.allclose(parent, theta, rtol=0, atol=1e-15)
    assert np.allclose(rec_u, u, rtol=0, atol=1e-15)


def test_merge_then_split_identity():
    rng = np.random.default_rng(1)
    child = rng.normal(size=(1, 1, 6))
    parent, u = merge_coefficients(child)
    assert np.allclose(split_coefficients(parent, u), child,
                       rtol=0, atol=1e-15)


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _coefficient_pair(draw):
    K = draw(st.integers(1, 3))
    J = draw(st.integers(1, 5))
    return (draw(arrays(float, (K, K, J), elements=_finite)),
            draw(arrays(float, (K, K, J), elements=_finite)))


def _rounding(x, y):
    """A few ulps of |x| + |y|, and one subnormal step, which halving an
    odd multiple of the smallest subnormal loses."""
    info = np.finfo(float)
    return 4 * info.eps * (np.abs(x) + np.abs(y)) + info.smallest_subnormal


_SUBNORMAL = (np.full((1, 1, 1), 5e-324), np.zeros((1, 1, 1)))


@given(_coefficient_pair())
@example(_SUBNORMAL)
def test_merge_after_split_is_identity(pair):
    theta, u = pair
    parent, rec_u = merge_coefficients(split_coefficients(theta, u))
    tol = _rounding(theta, u)
    assert np.all(np.abs(parent - theta) <= tol)
    assert np.all(np.abs(rec_u - u) <= tol)


@given(_coefficient_pair())
@example(_SUBNORMAL)
def test_split_after_merge_is_identity(pair):
    a, b = pair
    child = np.empty(a.shape[:2] + (2 * a.shape[2],))
    child[:, :, 0::2], child[:, :, 1::2] = a, b
    parent, u = merge_coefficients(child)
    back = split_coefficients(parent, u)
    tol = _rounding(a, b)
    assert np.all(np.abs(back[:, :, 0::2] - a) <= tol)
    assert np.all(np.abs(back[:, :, 1::2] - b) <= tol)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jump_kind_draw_equals_rng_choice(seed):
    # mcmc_step draws the jump kind with rng.integers(2); it returns the
    # value rng.choice(["step", "scale"]) returns and leaves the same
    # generator state, so the chains' draws are those of rng.choice
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    for _ in range(2000):
        assert a.choice(["step", "scale"]) == ("step", "scale")[
            b.integers(2)]
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_draw_equals_rng_uniform(seed):
    # the sweep draws its uniforms (acceptance, p_j, step direction,
    # scale up/down) with rng.random(); uniform() is 0 + 1 * random(), so
    # the values and the generator state are those of rng.uniform()
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    for _ in range(2000):
        assert a.uniform() == b.random()
    assert a.bit_generator.state == b.bit_generator.state


def test_project_bins_exact_cases():
    theta = np.array([[[1.0, 3.0, 5.0, 7.0]]])
    down = project_bins(theta, 2)
    assert np.allclose(down, [[[2.0, 6.0]]])
    up = project_bins(down, 4)
    assert np.allclose(up, [[[2.0, 2.0, 6.0, 6.0]]])
    # non-dyadic: 2 bins -> 3 bins via the lcm-6 refinement
    mixed = project_bins(np.array([[[0.0, 6.0]]]), 3)
    assert np.allclose(mixed, [[[0.0, 3.0, 6.0]]])


def test_project_bins_is_projection():
    # projecting twice onto the same partition changes nothing
    rng = np.random.default_rng(2)
    theta = rng.normal(size=(1, 1, 6))
    once = project_bins(theta, 3)
    assert np.allclose(project_bins(once, 3), once)


def test_posterior_target_matches_direct_likelihood():
    stream, T = _data()
    spec = _spec()
    target = PosteriorTarget(stream, T, spec)
    nu = np.array([0.9])
    theta = np.array([[[0.4, 0.2]]])
    h = spec.theta_to_h(2, theta)
    direct = log_likelihood(ModelParams(nu, h, 1.0), stream, T)
    assert target.log_lik(nu, _Expansion(spec, 2, theta)) == pytest.approx(
        direct, rel=1e-10)


def test_posterior_target_relu_compensator():
    # after the events at 1.0 and 1.1 the linear intensity 1 - 2 * 0.6 is
    # negative on (1.1, 2.0]; the ReLU compensator counts 0 there
    stream = EventStream(np.array([1.0, 1.1, 3.0]), np.array([1, 1, 1]),
                         -1.0, 4.0)
    target = PosteriorTarget(stream, 4.0, _spec(
        J_max=1, theta_family="gaussian", sigma=0.3))
    expect = np.log(0.4) - (1.0 + 0.04 + 0.04 + 0.9 + 0.4)
    ex = _Expansion(target.spec, 1, np.array([[[-0.6]]]))
    assert target.log_lik(np.array([1.0]), ex) == (
        pytest.approx(expect, rel=1e-12))


def test_chain_deterministic():
    stream, T = _data(T=100.0)
    spec = _spec()
    a = run_chain(stream, T, spec, iters=300, seed=5, warn=False)
    b = run_chain(stream, T, spec, iters=300, seed=5, warn=False)
    assert a.js == b.js
    assert all(np.array_equal(x, y) for x, y in zip(a.nus, b.nus))
    c = run_chain(stream, T, spec, iters=300, seed=6, warn=False)
    assert a.js != c.js or not np.array_equal(a.nus[0], c.nus[0])


def test_draw_count_and_no_invalid_states():
    stream, T = _data(T=100.0)
    spec = _spec()
    iters, burn_in, thin = 500, 100, 5
    draws = run_chain(stream, T, spec, iters=iters, burn_in=burn_in,
                      thin=thin, seed=7, warn=False)
    assert len(draws) == (iters - burn_in + thin - 1) // thin
    for i in range(len(draws)):
        assert spec.in_model_class(draws.nus[i], draws.h_values(i))
        assert draws.js[i] in spec.admissible_dims()


def test_identical_proposal_always_accepted():
    # a degenerate proposal equal to the state has log-ratio 0
    stream, T = _data(T=50.0)
    spec = _spec()
    target = PosteriorTarget(stream, T, spec)
    rng = np.random.default_rng(8)
    state = ChainState.initial(target, rng)
    from hawkes_bvm.mcmc import _try_accept
    new, ok = _try_accept(target, state, state.nu,
                          _Expansion(spec, state.J, state.theta), 0.0, rng)
    assert ok
    assert new.log_lik == state.log_lik


def test_chain_builds_one_expansion_per_proposal(monkeypatch):
    # each coefficient or dimension proposal expands its (J, theta) once,
    # and a rate move reuses the state's expansion, however many
    # proposals in a row were rejected
    stream, T, spec, _ = _k2_case()
    target = PosteriorTarget(stream, T, spec)
    rng = np.random.default_rng(18)
    state = ChainState.initial(target, rng)
    counts = {"built": 0, "excite": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_Expansion, "__init__",
                        counted("built", _Expansion.__init__))
    monkeypatch.setattr(LikelihoodCache, "excite",
                        counted("excite", LikelihoodCache.excite))
    proposals = 0
    scales = Scales()
    for _ in range(300):
        state, acc = mcmc_step(state, target, rng, scales)
        proposals += acc["theta_n"] + acc["jump_n"]
    assert counts["built"] <= proposals
    assert counts["excite"] <= counts["built"]


def test_posterior_concentrates_near_truth():
    stream, T = _data(T=400.0, seed=31)
    spec = _spec(J_max=4)
    draws = run_chain(stream, T, spec, iters=3000, seed=9, warn=False)
    nus = np.array([n[0] for n in draws.nus])
    rhos = np.array([draws.h_values(i).sum() / draws.js[i]
                     for i in range(len(draws))])
    assert abs(nus.mean() - 1.0) < 0.35
    assert abs(rhos.mean() - 0.5) < 0.25


def test_haar_chain_runs_and_stays_admissible():
    stream, T = _data(T=100.0)
    spec = _spec(basis_kind="haar", J_max=8, theta_family="gaussian",
                 sigma=0.3, link="softplus")
    draws = run_chain(stream, T, spec, iters=400, seed=10, warn=False)
    assert set(draws.js) <= {2, 4, 8}
    for i in range(0, len(draws), 10):
        assert spec.in_model_class(draws.nus[i], draws.h_values(i))


def test_l2_distance_hand_computed():
    stream, T = _data(T=50.0)
    spec = _spec()
    draws = run_chain(stream, T, spec, iters=200, seed=11, warn=False)
    f0 = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    i = 0
    h = draws.h_values(i)
    w = 1.0 / h.shape[2]
    expect = np.sqrt((draws.nus[i][0] - 1.0) ** 2
                     + w * np.sum((h - 0.5) ** 2))
    assert draws.l2_distance(i, f0) == pytest.approx(expect, rel=1e-12)


def test_csv_round_trip_of_draws():
    stream, T = _data(T=50.0)
    draws = run_chain(stream, T, _spec(), iters=200, seed=12, warn=False)
    text = draws.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "iter,J,nu_1,theta"
    assert len(lines) == len(draws) + 1
    i = len(draws) // 2
    parts = lines[i + 1].split(",")
    assert int(parts[1]) == draws.js[i]
    assert float(parts[2]) == draws.nus[i][0]
    theta = np.array([float(v) for v in parts[3].split(";")])
    assert np.array_equal(theta, draws.thetas[i].ravel())


def test_posterior_functional_summary():
    stream, T = _data(T=100.0)
    draws = run_chain(stream, T, _spec(), iters=400, seed=13, warn=False)
    out = posterior_functional(draws, FunctionalSpec("background", k=1))
    assert out["ci"][0] <= out["mean"] <= out["ci"][1]
    assert out["samples"].size == len(draws)
    assert out["sd"] > 0


def test_ess_iid():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(4000)
    assert ess(x) == pytest.approx(4000, rel=0.2)


def test_ess_constant():
    assert ess(np.full(100, 3.0)) == 100


def test_ess_ar1():
    # AR(1) with phi = 0.5: ESS/n = (1-phi)/(1+phi) = 1/3
    rng = np.random.default_rng(15)
    n = 40_000
    x = np.empty(n)
    x[0] = 0.0
    eps = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = 0.5 * x[i - 1] + eps[i]
    assert ess(x) / n == pytest.approx(1.0 / 3.0, rel=0.25)


def test_ess_needs_samples():
    with pytest.raises(ValueError):
        ess(np.arange(5.0))


def test_jump_moves_change_dimension():
    stream, T = _data(T=200.0, seed=32)
    spec = _spec(J_max=4)
    draws = run_chain(stream, T, spec, iters=4000, seed=16, p_j=0.5,
                      warn=False)
    assert len(set(draws.js)) > 1


def test_chain_starts_at_finite_likelihood():
    # this prior's first draw (Haar, identity link) has an event with
    # nonpositive intensity; a chain started there accepted no move
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    stream, T = simulate_thinning(p, 300.0, seed=2), 300.0
    spec = _spec(basis_kind="haar", J_max=8, theta_family="gaussian",
                 sigma=0.3)
    state = ChainState.initial(PosteriorTarget(stream, T, spec),
                               np.random.default_rng(3))
    assert np.isfinite(state.log_lik)
    draws = run_chain(stream, T, spec, iters=300, seed=3, warn=False)
    assert draws.acceptance["nu"] > 0 and draws.acceptance["theta"] > 0


def test_chain_start_raises_when_no_draw_is_finite():
    stream, T = _data(T=50.0)

    class _NoLikelihood(PosteriorTarget):
        def log_lik(self, nu, ex):
            return -np.inf

    with pytest.raises(RuntimeError, match="finite likelihood"):
        ChainState.initial(_NoLikelihood(stream, T, _spec()),
                           np.random.default_rng(0))


class _ReferenceTarget(PosteriorTarget):
    """The evaluation without expansions or row deduplication: log_prior
    on every proposal and, for a nonnegative kernel, nu + X @ h with the
    full count matrix X (one row per event) and the compensator weights W
    built by brute-force loops; other kernels take the loop reference
    of the ReLU likelihood. Counts its -inf likelihoods."""

    def __init__(self, stream, horizon, spec):
        super().__init__(stream, horizon, spec)
        self._full = {}
        self.lik_rejections = 0

    def _design(self, m):
        if m not in self._full:
            K, A, T = self.spec.K, self.spec.support_end, self.horizon
            times, marks = self.stream.times, self.stream.marks
            X = []
            for k in range(K):
                ev = times[(times > 0) & (times <= T) & (marks == k + 1)]
                Xk = np.zeros((ev.size, K * m))
                for i, t in enumerate(ev):
                    for s, l in zip(times, marks):
                        if t - A <= s < t:
                            cell = min(int((t - s) / (A / m)), m - 1)
                            Xk[i, (l - 1) * m + cell] += 1.0
                X.append(Xk)
            W = np.zeros(K * m)
            for s, l in zip(times, marks):
                for c in range(m):
                    lo, hi = (min(max(s + j * A / m, 0.0), T)
                              for j in (c, c + 1))
                    W[(l - 1) * m + c] += hi - lo
            self._full[m] = X, W
        return self._full[m]

    def log_pri(self, nu, ex):
        return log_prior(nu, ex.J, ex.theta, self.spec)

    def log_lik(self, nu, ex):
        h = self.spec.theta_to_h(ex.J, ex.theta)
        if h.min() >= 0.0:
            K, m = self.spec.K, h.shape[2]
            X, W = self._design(m)
            hf = h.transpose(0, 2, 1).reshape(K * m, K)
            total = 0.0
            for k in range(K):
                lam = nu[k] + X[k] @ hf[:, k]
                if lam.size and lam.min() <= 0.0:
                    return -np.inf
                total += float(np.log(lam).sum())
                total -= float(nu[k] * self.horizon + W @ hf[:, k])
            return total
        params = ModelParams(nu, h, self.spec.support_end, "relu")
        value = _loop_loglik(params, self.stream, self.horizon)
        self.lik_rejections += value == -np.inf
        return value


def _k2_case():
    h = np.array([0.4, 0.2, 0.1, 0.05, 0.15, 0.1, 0.3, 0.2]).reshape(2, 2, 2)
    f0 = ModelParams(np.array([0.6, 0.4]), h, 1.0)
    return simulate_thinning(f0, 100.0, seed=33), 100.0, _spec(K=2), 150


def _relu_case():
    f0 = ModelParams(np.array([1.0]), np.array([[[-0.4, -0.2, 0.3, 0.1]]]),
                     1.0, "relu")
    spec = _spec(J_max=8, theta_family="gaussian", sigma=0.3)
    return simulate_thinning(f0, 60.0, seed=34), 60.0, spec, 80


def _haar_case():
    # a decaying truth: on the constant one a Haar chain accepts almost
    # no dimension move
    f0 = ModelParams(np.array([1.0]), np.array([[[0.6, 0.3, 0.1, 0.0]]]),
                     1.0)
    spec = _spec(basis_kind="haar", J_max=8, theta_family="gaussian",
                 sigma=0.3, link="softplus")
    return simulate_thinning(f0, 60.0, seed=35), 60.0, spec, 150


@pytest.mark.parametrize("case", [
    lambda: (*_data(T=200.0), _spec(), 400),
    _k2_case,
    _relu_case,
    _haar_case,
], ids=["k1-histogram", "k2-histogram", "relu-gaussian", "haar-softplus"])
def test_chain_draws_equal_reference_evaluation(case):
    stream, T, spec, sweeps = case()
    paths, accepted = [], []
    for cls in (_ReferenceTarget, PosteriorTarget):
        target = cls(stream, T, spec)
        rng = np.random.default_rng(17)
        state = ChainState.initial(target, rng)
        scales = Scales()
        path, acc_total = [], {}
        for _ in range(sweeps):
            state, acc = mcmc_step(state, target, rng, scales, p_j=0.5)
            path.append(state)
            for key, n in acc.items():
                acc_total[key] = acc_total.get(key, 0) + n
        paths.append(path)
        accepted.append(acc_total)
        # Gaussian coefficients reach nonpositive intensities unless a
        # softplus link keeps the kernel positive
        if (cls is _ReferenceTarget and spec.theta_family == "gaussian"
                and spec.link == "identity"):
            assert target.lik_rejections > 0
    assert accepted[0] == accepted[1]
    assert accepted[0]["nu"] and accepted[0]["theta"] and accepted[0]["jump"]
    for ref, new in zip(*paths):
        assert ref.J == new.J
        assert np.array_equal(ref.nu, new.nu)
        assert np.array_equal(ref.theta, new.theta)


@settings(max_examples=300)
@given(_prior_case(), st.data())
def test_log_pri_equals_log_prior_bit_for_bit(case, data):
    # the expansion-owned terms plus the rates' terms are log_prior's
    # value, -inf included, inside and outside the admissible dimensions
    spec, J, theta = case
    if data.draw(st.booleans()):
        # J off the admissible dimensions; Haar keeps J_max >= 2
        spec = dataclasses.replace(spec, J_max=max(J - 1, 2))
    with np.errstate(all="ignore"):
        ex = _Expansion(spec, J, theta)
        floors = ex.hneg_sup if ex.hneg_sup is not None else [0.0] * spec.K
        nu = np.array([_rate(data, f) for f in floors])
        target = PosteriorTarget(EventStream(np.array([]), np.array([]),
                                             -1.0, 1.0), 1.0, spec)
        assert _same_float(target.log_pri(nu, ex),
                           log_prior(nu, J, theta, spec))


def test_chain_calls_the_names_that_tools_patch(monkeypatch):
    # perfbench's tracer counts sweeps by patching mcmc.mcmc_step and
    # likelihood evaluations by patching LikelihoodCache.log_likelihood;
    # criterion 6a and the reference-evaluation test override
    # PosteriorTarget.log_lik and log_pri. Each must stay a call.
    import hawkes_bvm.mcmc as mcmc_mod
    counts = {"sweep": 0, "accept": 0, "log_pri": 0, "finite_pri": 0,
              "log_lik": 0, "cached": 0, "start": 0}

    def counted(key, fn, on_value=None):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            value = fn(*args, **kwargs)
            if on_value is not None and value != -np.inf:
                counts[on_value] += 1
            return value
        return wrapper

    monkeypatch.setattr(mcmc_mod, "mcmc_step",
                        counted("sweep", mcmc_mod.mcmc_step))
    monkeypatch.setattr(mcmc_mod, "sample_prior",
                        counted("start", mcmc_mod.sample_prior))
    monkeypatch.setattr(mcmc_mod, "_try_accept",
                        counted("accept", mcmc_mod._try_accept))
    monkeypatch.setattr(PosteriorTarget, "log_pri",
                        counted("log_pri", PosteriorTarget.log_pri,
                                "finite_pri"))
    monkeypatch.setattr(PosteriorTarget, "log_lik",
                        counted("log_lik", PosteriorTarget.log_lik))
    monkeypatch.setattr(LikelihoodCache, "log_likelihood",
                        counted("cached", LikelihoodCache.log_likelihood))
    stream, T, spec, _ = _k2_case()
    iters = 120
    run_chain(stream, T, spec, iters=iters, seed=3, warn=False)
    assert counts["sweep"] == iters
    # the start calls log_lik once per prior draw, and log_pri once when
    # the likelihood is finite; each proposal then calls log_pri, and
    # log_lik when the prior is finite
    assert counts["log_pri"] == counts["accept"] + 1
    assert counts["log_lik"] == counts["start"] + counts["finite_pri"] - 1
    assert counts["cached"] == counts["log_lik"]
    assert counts["accept"] >= iters * (spec.K + spec.K ** 2)
