"""Acceptance suite: one test per criterion, at the stated tolerances.

Criterion 2a checks the Volterra solver against the closed form of the
two-sided (covariance-density) equation on the reference model,
Upsilon = 2 on (0, 1], and against its half-line mass. The function
exp(0.5 t) is not that solution: it is mu R(t), with R = h + h * R the
one-sided (causal) resolvent, which ignores the coupling to negative
lags through Upsilon(-t) = Upsilon(t)^T.
"""

import numpy as np
import pytest
from scipy import stats

from hawkes_bvm.grids import Direction
from hawkes_bvm.harness import (_sieve_directions, compute_efficiency,
                                config_from_dict, run_experiment)
from hawkes_bvm.likelihood import (LanEstimator, grad_loglik_nu,
                                   log_likelihood)
from hawkes_bvm.mcmc import PosteriorTarget, run_chain
from hawkes_bvm.model import ModelParams, stationary_rates
from hawkes_bvm.palm import (PalmEstimates, bias_term, info_operator_apply,
                             info_operator_invert)
from hawkes_bvm.priors import PriorSpec
from hawkes_bvm.simulate import simulate_cluster, simulate_thinning
from hawkes_bvm.stream import EventStream
from hawkes_bvm.volterra import empirical_pair_density, solve_moment_density


def _reference():
    return ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)


# -- criterion 1: Poisson operator oracle ---------------------------------

def test_criterion_1_poisson_operator_oracle():
    m = 8
    w = 1.0 / m
    palm = PalmEstimates.poisson(np.array([1.0]), 1.0, m)
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = Direction(rng.normal(size=1), rng.normal(size=(1, 1, m)), 1.0)
        # nu = 1: a = p = 1, D = C = w, so
        # xi' = xi + int g and g'(c) = xi + g(c) + int g
        int_g = w * d.g.sum()
        out = info_operator_apply(palm, d)
        assert abs(out.xi[0] - (d.xi[0] + int_g)) < 1e-10
        assert np.max(np.abs(out.g - (d.xi[0] + d.g + int_g))) < 1e-10
        rec, residual, converged = info_operator_invert(palm, out)
        assert converged
        assert residual < 1e-6


# -- criterion 2: Volterra oracle ------------------------------------------

def test_criterion_2a_volterra_stated_closed_form():
    # Reference model nu = 1, h = 0.5 on [0, 1], so mu = 2 and ||h|| = 0.5.
    # For t in (0, 1] the two-sided equation reads
    #   c(t) = 1 + 0.5 * int_{t-1}^{t} c(s) ds,  c even,
    # and involves only c on (-1, 1). On bounded functions of (0, 1] the
    # right-hand side is a contraction with constant 0.5, whose unique
    # fixed point is the constant 2 (at t = 1 too: h is 0.5 on the closed
    # cell). Palm check: the intensity at 0+ given the anchor is
    # 1 + 0.5 * (1 + int_0^1 m) = 3 = m(0+) = mu + 2 / mu. The one-sided
    # resolvent mu R(t) = exp(0.5 t) fails it (2.82 != 2.5).
    n_grid = 512
    dens = solve_moment_density(_reference(), n_grid=n_grid)
    ts = dens.node_times[(dens.node_times > 0) & (dens.node_times <= 1.0)]
    got = np.array([dens.upsilon_at(t)[0, 0] for t in ts])
    closed_form = np.full_like(ts, 2.0)
    assert np.max(np.abs(got - closed_form)) < 1e-4
    # Half-line mass: int_R Upsilon = mu / (1 - ||h||)^2 - mu and Upsilon
    # is even, so int_0^inf Upsilon = (8 - 2) / 2 = 3 (the one-sided
    # resolvent gives 2). The trapezoid sum is O(delta) off because of
    # the kernel's jump at t = 1.
    mu, norm_h = 2.0, 0.5
    mass = 0.5 * (mu / (1.0 - norm_h) ** 2 - mu)
    u = dens.upsilon[:, 0, 0]
    trapezoid = np.sum(0.5 * (u[1:] + u[:-1]) * np.diff(dens.node_times))
    assert abs(trapezoid - mass) < 2.0 / n_grid


def test_criterion_2b_volterra_matches_simulation():
    f0 = _reference()
    dens = solve_moment_density(f0, n_grid=512)
    # ~1e5 events: stationary rate 2, so T = 5e4
    T = 50_000.0
    s = simulate_thinning(f0, T, seed=2)
    assert len(s) > 90_000
    edges, m_hat, se = empirical_pair_density(s, 1, 2.0, 8, 0.0, T - 2.0)
    mids = 0.5 * (edges[:-1] + edges[1:])
    truth = np.array([dens.m_at(1, 1, t) for t in mids])
    z = (m_hat[0, 0] - truth) / se[0, 0]
    assert np.max(np.abs(z)) < 3.0


# -- criterion 3: stationary-rate cross-check -----------------------------

def test_criterion_3_stationary_rates_both_simulators():
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = 0.4
    h[:, :, 1] = 0.2
    f0 = ModelParams(np.array([1.0, 0.5]), h, 1.0)  # r(rho) = 0.6
    mu = stationary_rates(f0)
    T = 5000.0
    for sim, seed in ((simulate_thinning, 0), (simulate_cluster, 100)):
        s = sim(f0, T, seed=seed)
        for k in (1, 2):
            rate = np.sum((s.times > 0) & (s.marks == k)) / T
            assert abs(rate - mu[k - 1]) / mu[k - 1] < 0.03


# -- criterion 4: likelihood analytics ------------------------------------

def test_criterion_4_likelihood_analytics():
    # Poisson hand case
    p_pois = ModelParams(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)
    s = EventStream(np.array([0.3, 0.8]), np.array([1, 1]), -1.0, 1.5)
    assert log_likelihood(p_pois, s, 1.5) == pytest.approx(-1.5, abs=1e-12)
    # single-event kernel hand case
    p = _reference()
    expect = np.log(1.5) - (1.5 + 0.5 * 1.7)
    assert log_likelihood(p, s, 1.5) == pytest.approx(expect, abs=1e-12)
    # gradient vs finite differences, 1e-6 relative
    f0 = _reference()
    data = simulate_thinning(f0, 200.0, seed=3)
    grad = grad_loglik_nu(f0, data, 200.0)
    eps = 1e-5
    up = ModelParams(f0.nu + eps, f0.h, 1.0)
    dn = ModelParams(f0.nu - eps, f0.h, 1.0)
    fd = (log_likelihood(up, data, 200.0)
          - log_likelihood(dn, data, 200.0)) / (2 * eps)
    assert abs(grad[0] - fd) / abs(fd) < 1e-6


# -- criterion 5: LAN norm equivalence ------------------------------------

def test_criterion_5_lan_norm_equivalence():
    m = 32
    f0 = ModelParams(np.array([1.0]), np.full((1, 1, m), 0.5), 1.0)
    est = LanEstimator(f0, t_sim=2000.0, n_points=20_000, seed=5)
    rng = np.random.default_rng(6)
    dirs = [Direction(rng.normal(size=1), rng.normal(size=(1, 1, m)), 1.0)
            for _ in range(50)]
    gram, _ = est.gram(dirs)
    ratios = np.array([gram[i, i] / dirs[i].l2_inner(dirs[i])
                       for i in range(50)])
    assert np.all(ratios > 0)
    assert ratios.max() / ratios.min() < 1e3


# -- criterion 6: MCMC correctness gates -----------------------------------

class _PriorOnlyTarget(PosteriorTarget):
    """Constant likelihood: the chain must preserve the prior."""

    def log_lik(self, nu, ex):
        return 0.0


def test_criterion_6a_prior_preservation():
    spec = PriorSpec(K=1, J_max=4, theta_family="shifted-exponential",
                     kappa=0.0, rate=2.0, support_end=1.0)
    stream = EventStream(np.array([]), np.array([]), -1.0, 1.0)
    import hawkes_bvm.mcmc as mcmc_mod
    rng = np.random.default_rng(7)
    target = _PriorOnlyTarget(stream, 1.0, spec)
    state = mcmc_mod.ChainState.initial(target, rng)
    scales = mcmc_mod.Scales()
    nus, js = [], []
    iters, burn_in, thin = 60_000, 2000, 40
    for it in range(iters):
        state, _ = mcmc_mod.mcmc_step(state, target, rng, scales,
                                      p_j=0.5)
        if it >= burn_in and (it - burn_in) % thin == 0:
            nus.append(state.nu[0])
            js.append(state.J)
    # nu marginal: Gamma(2, 1)
    _, p_nu = stats.kstest(np.array(nus), "gamma", args=(2.0,))
    assert p_nu > 0.01
    # J marginal: the dimension pmf
    dims, logpmf = spec.j_log_pmf()
    pmf = np.exp(logpmf)
    counts = np.array([js.count(int(j)) for j in dims], dtype=float)
    _, p_j_val = stats.chisquare(counts, len(js) * pmf)
    assert p_j_val > 0.01


def test_criterion_6b_poisson_posterior_concentration():
    f0 = ModelParams(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)
    T = 500.0
    s = simulate_thinning(f0, T, seed=8)
    n = int(np.sum(s.times > 0))
    spec = PriorSpec(K=1, J_max=4, theta_family="shifted-exponential",
                     kappa=0.0, rate=2.0, support_end=1.0)
    draws = run_chain(s, T, spec, iters=4000, seed=9, warn=False)
    nus = np.array([v[0] for v in draws.nus])
    assert abs(nus.mean() - n / T) < 3 * nus.std(ddof=1)


# -- criteria 7 and 8 share one full-scale experiment ----------------------

_BVM_CFG = {
    "K": "1", "A": "1.0", "m": "1", "nu": "1.0", "h": "0.5",
    "functional": "linear 1 1",
    "T": "2000", "R": "100",
    "mcmc_iters": "20000", "mcmc_thin": "5", "p_j": "0.2",
    "prior_basis": "histogram", "prior_jmax": "8",
    "prior_theta": "shifted-exponential", "prior_kappa": "0.0",
    "prior_rate": "2.0",
    "palm_cells": "16", "palm_anchors": "2000", "palm_points": "4000",
    "lan_tsim": "2000", "lan_points": "20000",
    "bias_dims": "4 8 16",
    "seed": "0", "threads": "2",
}


@pytest.fixture(scope="module")
def bvm_report():
    config = config_from_dict(dict(_BVM_CFG))
    return run_experiment(config)


def test_criterion_7_bvm_reference_experiment(bvm_report):
    report = bvm_report
    ok = [r for r in report["replications"] if r["ok"]]
    assert len(ok) == 100
    cov = report["coverage"]["0.90"]["coverage"]
    assert 0.80 <= cov <= 0.97
    sqrt_v0 = np.sqrt(report["v0"])
    assert abs(report["mean_sd_sqrtT"] - sqrt_v0) / sqrt_v0 < 0.25
    assert report["median_ks"] < 0.12


def test_criterion_7_invariants(bvm_report):
    # the centered-scaled gap between posterior mean and the efficient
    # estimator must be negligible against the limit scale sqrt(V0); the
    # gap itself carries a prior-gradient term of order 1/sqrt(T) with a
    # nonzero mean, so it is compared to the Gaussian scale rather than
    # to its own replication SE
    report = bvm_report
    ok = [r for r in report["replications"] if r["ok"]]
    z = np.array([np.sqrt(r["horizon"]) * (r["post_mean"] - r["psi_hat"])
                  for r in ok])
    assert abs(z.mean()) < 0.1 * np.sqrt(report["v0"])
    assert np.max(np.abs(z)) < 0.5 * np.sqrt(report["v0"])
    assert report["palm_converged"]
    import hashlib
    assert report["v0_hash"] == hashlib.sha256(
        repr(report["v0"]).encode()).hexdigest()[:12]


def test_criterion_8_bias_vanishes_with_dimension(bvm_report):
    # the reference truth and representor are piecewise constant on every
    # sieve in the ladder, so each B_j is zero up to MC error; the decay
    # requirement then reads as monotone within the standard errors
    bias = bvm_report["bias"]
    vals = [abs(bias[str(j)]["value"]) for j in (4, 8, 16)]
    ses = [bias[str(j)]["se"] for j in (4, 8, 16)]
    for v, s in zip(vals, ses):
        assert v < max(4 * s, 1e-8)
    for i in (0, 1):
        assert vals[i + 1] <= vals[i] + 3 * (ses[i] + ses[i + 1]) + 1e-10


# h proportional to exp(-3t) at the 16 cell midpoints, with ||h||_1 = 0.5:
# no sieve coarser than the operator grid holds it, so B_J is a bias
# away from zero for J < 16 and zero up to rounding at J = 16
_DECREASING_H = np.exp(-3.0 * (np.arange(16) + 0.5) / 16)
_DECREASING_H *= 0.5 / (_DECREASING_H.sum() / 16)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("functional", ["linear 1 1", "squared_l2 1 1"])
def test_criterion_8_bias_nonzero_on_decreasing_truth(functional, seed):
    config = config_from_dict(dict(
        _BVM_CFG, m="16", h=" ".join(map(repr, _DECREASING_H.tolist())),
        functional=functional, seed=str(seed)))
    efficiency = compute_efficiency(config)
    f0 = efficiency["f0_fine"]
    lan = LanEstimator(f0, t_sim=config.lan_tsim,
                       n_points=config.lan_points,
                       seed=np.random.SeedSequence(seed + 2))
    f_dir = Direction(f0.nu, f0.h, f0.support_end)
    bias = {j: bias_term(_sieve_directions(1, j, 16, 1.0), f_dir,
                         efficiency["psi_L"], lan)
            for j in (1, 2, 4, 8, 16)}
    vals = [abs(bias[j][0]) for j in (1, 2, 4, 8)]
    for j, v in zip((1, 2, 4, 8), vals):
        assert v > 4 * bias[j][1]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert abs(bias[16][0]) <= 1e-8


# -- criterion 9: posterior contraction trend ------------------------------

def _median_l2(seed, T, f0, spec):
    s = simulate_thinning(f0, T, seed=seed)
    draws = run_chain(s, T, spec, iters=4000, seed=seed + 1, warn=False)
    dists = [draws.l2_distance(i, f0) for i in range(len(draws))]
    return float(np.median(dists))


def test_criterion_9_contraction_trend():
    f0 = _reference()
    spec = PriorSpec(K=1, J_max=8, theta_family="shifted-exponential",
                     kappa=0.0, rate=2.0, support_end=1.0)
    wins = 0
    n = 20
    for rep in range(n):
        short = _median_l2(5000 + rep, 500.0, f0, spec)
        long = _median_l2(6000 + rep, 4000.0, f0, spec)
        wins += long < short
    res = stats.binomtest(wins, n, 0.5, alternative="greater")
    assert res.pvalue < 0.05
