import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from hawkes_bvm.model import spectral_radius
from hawkes_bvm.priors import (PriorSpec, _sum, haar_basis,
                               histogram_basis, log_prior, rate_schedule,
                               sample_prior, softplus)


def test_histogram_gram_is_diagonal():
    b = histogram_basis(2, 1.0)
    assert np.allclose(b.gram(), np.diag([0.5, 0.5]))
    assert b.size == 2 and b.n_cells == 2


def test_histogram_series_identity():
    b = histogram_basis(3, 1.0)
    theta = np.array([0.1, 0.7, -0.2])
    assert np.allclose(b.series(theta), theta)


def test_haar_orthonormal():
    for res in (0, 1, 2):
        b = haar_basis(res, 2.0)
        assert np.allclose(b.gram(), np.eye(b.size), atol=1e-12)


def test_dimension_pmf_log_ratio():
    spec = PriorSpec(J_max=8, c1=1.0)
    dims, logpmf = spec.j_log_pmf()
    assert list(dims) == list(range(1, 9))
    # log Pi(2) - log Pi(1) = -(2 log 2 - 0)
    assert logpmf[1] - logpmf[0] == pytest.approx(-2 * np.log(2))
    assert np.exp(logpmf).sum() == pytest.approx(1.0)


def test_haar_admissible_dims():
    spec = PriorSpec(J_max=16, basis_kind="haar")
    assert list(spec.admissible_dims()) == [2, 4, 8, 16]


def test_haar_prior_without_admissible_dimension_rejected():
    # the smallest Haar dimension is 2; J_max = 1 leaves the prior empty
    with pytest.raises(ValueError, match="no admissible dimension"):
        PriorSpec(J_max=1, basis_kind="haar")
    PriorSpec(J_max=1)  # the histogram basis keeps J = 1


def test_theta_logpdf_shifted_exponential():
    spec = PriorSpec(theta_family="shifted-exponential", kappa=0.0,
                     rate=1.0)
    assert spec.theta_logpdf(np.array([0.5])) == pytest.approx(-0.5)
    assert spec.theta_logpdf(np.array([-0.1])) == -np.inf


def _scipy_theta_dist(spec):
    """The frozen scipy distribution of one coefficient."""
    if spec.theta_family == "shifted-exponential":
        return stats.expon(loc=spec.kappa, scale=1.0 / spec.rate)
    return stats.norm(loc=0.0, scale=spec.sigma)


def _scipy_nu_dist(spec):
    """The frozen scipy distribution of one rate."""
    return stats.gamma(spec.nu_shape, scale=1.0 / spec.nu_rate)


def test_theta_logpdf_matches_scipy():
    for fam, kw in (("gaussian", dict(sigma=1.3)),
                    ("shifted-exponential", dict(kappa=-0.5, rate=2.0))):
        spec = PriorSpec(theta_family=fam, **kw)
        x = np.array([0.3, 0.9, 1.4])
        expect = float(_scipy_theta_dist(spec).logpdf(x).sum())
        assert spec.theta_logpdf(x) == pytest.approx(expect, rel=1e-10)


def test_nu_logpdf_matches_scipy():
    spec = PriorSpec(nu_shape=2.0, nu_rate=1.5)
    x = np.array([0.4, 2.0])
    expect = float(_scipy_nu_dist(spec).logpdf(x).sum())
    assert spec.nu_logpdf(x) == pytest.approx(expect, rel=1e-10)
    assert spec.nu_logpdf(np.array([-1.0])) == -np.inf


def _scipy_sample_prior(spec, rng):
    """sample_prior drawn through scipy's frozen distributions, the
    reference for the direct draws."""
    dims, logpmf = spec.j_log_pmf()
    pmf = np.exp(logpmf)
    pmf /= pmf.sum()
    nu_dist, th_dist = _scipy_nu_dist(spec), _scipy_theta_dist(spec)
    for _ in range(10_000):
        J = int(rng.choice(dims, p=pmf))
        nu = nu_dist.rvs(size=spec.K, random_state=rng)
        theta = th_dist.rvs(size=(spec.K, spec.K, J), random_state=rng)
        if spec.in_model_class(nu, spec.theta_to_h(J, theta)):
            return nu, J, theta
    raise RuntimeError("prior rejection cap exceeded")


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("family, kw", [
    ("shifted-exponential", dict(kappa=0.05, rate=6.0)),
    ("shifted-exponential", dict(kappa=-0.3, rate=4.0, nu_shape=0.7)),
    ("gaussian", dict(sigma=0.3, nu_rate=2.5)),
])
def test_sample_prior_equals_scipy_draws(K, family, kw):
    spec = PriorSpec(K=K, J_max=6, theta_family=family, **kw)
    for seed in range(8):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        nu, J, theta = sample_prior(spec, rng)
        nu_ref, J_ref, theta_ref = _scipy_sample_prior(spec, ref_rng)
        assert J == J_ref
        assert np.array_equal(nu, nu_ref)
        assert np.array_equal(theta, theta_ref)
        # the same number of draws left both generators in one state
        assert rng.random() == ref_rng.random()


def test_theta_to_h_shapes_and_link():
    spec = PriorSpec(K=2, link="softplus")
    theta = np.zeros((2, 2, 4))
    h = spec.theta_to_h(4, theta)
    assert h.shape == (2, 2, 4)
    assert np.allclose(h, np.log(2.0))  # softplus(0)
    with pytest.raises(ValueError):
        spec.theta_to_h(4, np.zeros((2, 2, 3)))


def test_softplus_positive_everywhere():
    x = np.linspace(-50, 50, 101)
    assert np.all(softplus(x) > 0)
    assert softplus(40.0) == pytest.approx(40.0, rel=1e-12)


def test_model_class_membership():
    spec = PriorSpec()
    assert spec.in_model_class(np.array([1.0]), np.array([[[0.5]]]))
    # supercritical positive part
    assert not spec.in_model_class(np.array([1.0]), np.array([[[1.2]]]))
    # negative part dominating the background
    assert not spec.in_model_class(np.array([0.3]),
                                   np.array([[[-0.5, 0.2]]]))
    assert spec.in_model_class(np.array([0.6]), np.array([[[-0.5, 0.2]]]))
    assert not spec.in_model_class(np.array([-1.0]), np.zeros((1, 1, 1)))


def test_entrywise_bound_enforced():
    # spectrally fine but one entry integral at 1: rejected
    spec = PriorSpec(K=2)
    h = np.zeros((2, 2, 1))
    h[0, 1, 0] = 1.0
    assert not spec.in_model_class(np.array([1.0, 1.0]), h)


def test_log_prior_composition():
    spec = PriorSpec(J_max=4)
    nu = np.array([1.0])
    theta = np.full((1, 1, 2), 0.3)
    dims, logpmf = spec.j_log_pmf()
    expect = (logpmf[1] + spec.nu_logpdf(nu)
              + spec.theta_logpdf(theta))
    assert log_prior(nu, 2, theta, spec) == pytest.approx(expect)
    assert log_prior(nu, 7, theta, spec) == -np.inf
    assert log_prior(np.array([-1.0]), 2, theta, spec) == -np.inf


@pytest.mark.parametrize("name", ["c1", "sigma", "rate", "nu_shape",
                                  "nu_rate"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_prior_spec_rejects_nonpositive_or_nonfinite_scale(name, value):
    with pytest.raises(ValueError, match=name):
        PriorSpec(**{name: value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_prior_spec_rejects_nonfinite_kappa(value):
    # every prior draw or proposal failed, so every replication did
    with pytest.raises(ValueError, match="kappa"):
        PriorSpec(kappa=value)


def test_sample_prior_in_class_and_deterministic():
    spec = PriorSpec(J_max=4)
    nu, J, theta = sample_prior(spec, rng=0)
    assert spec.in_model_class(nu, spec.theta_to_h(J, theta))
    nu2, J2, theta2 = sample_prior(spec, rng=0)
    assert J == J2 and np.array_equal(nu, nu2)


def test_sample_prior_dimension_frequencies():
    # near-zero coefficients make rejection negligible, so the J
    # marginal should match the pmf (chi-squared test)
    spec = PriorSpec(J_max=4, theta_family="gaussian", sigma=0.01)
    dims, logpmf = spec.j_log_pmf()
    pmf = np.exp(logpmf)
    rng = np.random.default_rng(11)
    n = 2000
    counts = np.zeros(dims.size)
    for _ in range(n):
        _, J, _ = sample_prior(spec, rng=rng)
        counts[J - 1] += 1
    _, pval = stats.chisquare(counts, n * pmf)
    assert pval > 0.01


def test_rate_schedule_oracle():
    rs = rate_schedule(1.0, 1e4)
    assert rs.eps_bar == pytest.approx(0.0972953, abs=1e-6)
    assert rs.eps == pytest.approx(np.log(1e4) * rs.eps_bar, rel=1e-12)
    assert rs.j_dim == int(np.ceil(rs.j_bar))


def test_rate_schedule_monotone_in_horizon():
    es = [rate_schedule(1.0, T).eps_bar for T in (1e3, 1e4, 1e5, 1e6)]
    assert all(a > b for a, b in zip(es, es[1:]))


def test_rate_schedule_guards():
    with pytest.raises(ValueError):
        rate_schedule(1.0, 2.0)
    with pytest.warns(UserWarning):
        rate_schedule(0.4, 1e4)


# -- the per-proposal terms on Python floats --------------------------------

def _same_float(a, b):
    """Equal bit for bit, the sign of zero included; two nans match."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


_sum_terms = st.one_of(
    st.floats(allow_nan=False),  # every magnitude, signed zeros, infinities
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
)


def _float_sum(x):
    total = 0.0
    for v in x:
        total += v
    return total


def _fsum_or_none(x):
    try:
        return math.fsum(x)
    except (OverflowError, ValueError):  # intermediate overflow, inf - inf
        return None


@given(st.integers(0, 300).flatmap(
    lambda n: st.lists(_sum_terms, min_size=n, max_size=n)),
    st.integers(0, 2 ** 32))
@example([], 0)
@example([-0.0] * 3, 0)
@example([-0.0] * 200, 0)
@example([1.0, 1e100, 1.0, -1e100] * 4, 1)  # cancels: 8.0, not 0.0
@example([1e308, 1e308], 0)
@example([-1e308, -1e308, 1e308], 0)
@example([math.inf] + [1.0] * 15 + [-math.inf], 0)
@example([1e308, 1e308, -math.inf], 0)
def test_sum_is_fsum_in_any_order(x, seed):
    shuffled = list(x)
    random.Random(seed).shuffle(shuffled)
    expect = _fsum_or_none(x)
    if expect is None:
        # fsum raised: the float sum, which overflowed or met inf - inf
        assert _same_float(_sum(x), _float_sum(x))
        return
    assert _same_float(_sum(x), expect)
    # correctly rounded: every order that fsum sums gives the same bits
    if _fsum_or_none(shuffled) is not None:
        assert _same_float(_sum(shuffled), expect)


@pytest.mark.parametrize("x, expect", [
    ([1e308, 1e308], math.inf),
    ([-1e308, -1e308, 1e308], -math.inf),
    ([math.inf, -math.inf], math.nan),
    ([1e308, 1e308, -math.inf], math.nan),
])
def test_sum_overflows_to_inf_or_nan(x, expect):
    with pytest.raises((OverflowError, ValueError)):
        math.fsum(x)
    assert _same_float(_sum(x), expect)


def test_overflowing_prior_terms_keep_their_results():
    # each sum overflows, where math.fsum raises
    gauss = PriorSpec(K=1, theta_family="gaussian", sigma=1.0)
    assert gauss.theta_logpdf(np.array([1.2e154] * 2)) == -math.inf
    expo = PriorSpec(K=1, theta_family="shifted-exponential")
    assert expo.theta_logpdf(np.array([1e308] * 2)) == -math.inf
    assert expo.nu_logpdf(np.array([1e308] * 2)) == -math.inf
    assert expo.kernel_admissible(np.full((1, 1, 2), 1e308)) is None


def test_theta_logpdf_is_the_same_in_any_order():
    # at K = 2, J = 4 the Gaussian sum of squares has 16 terms: summed in
    # np.sum's order, 75 of these 200 permutations changed its bits
    spec = PriorSpec(K=2, theta_family="gaussian", sigma=0.7)
    rng = np.random.default_rng(29)
    theta = rng.standard_normal((2, 2, 4))
    expect = spec.theta_logpdf(theta)
    for _ in range(200):
        permuted = rng.permutation(theta.ravel()).reshape(theta.shape)
        assert _same_float(spec.theta_logpdf(permuted), expect)


# The array forms these terms had before they moved to Python floats, each
# sum now math.fsum over the same numpy terms; the rewritten methods must
# return equal values, -inf and None included.

def _fsum(terms):
    return math.fsum(np.ravel(terms).tolist())


def _ref_theta_to_h(spec, J, theta):
    basis = spec.basis(J)
    series = theta.reshape(-1, J) @ basis.matrix
    if spec.link == "softplus":
        series = softplus(series)
    return series.reshape(spec.K, spec.K, basis.n_cells)


def _ref_kernel_admissible(spec, h):
    if not np.isfinite(h).all():
        return None
    w = spec.support_end / h.shape[2]
    hplus = np.maximum(h, 0.0)
    rho_plus = w * np.array([[_fsum(cells) for cells in row] for row in hplus])
    if rho_plus.max(initial=0.0) >= 1.0:
        return None
    if spectral_radius(rho_plus) >= 1.0:
        return None
    return np.maximum(-h, 0.0).max(axis=(0, 2))


def _ref_rates_admissible(nu, hneg_sup):
    return bool(((nu > 0) & np.isfinite(nu) & (nu - hneg_sup > 0)).all())


def _ref_theta_logpdf(spec, theta):
    x = np.asarray(theta, dtype=float)
    if spec.theta_family == "shifted-exponential":
        if x.min() < spec.kappa:
            return -np.inf
        return float(x.size * np.log(spec.rate)
                     - spec.rate * _fsum(x - spec.kappa))
    return float(-0.5 * _fsum((x / spec.sigma) ** 2)
                 - x.size * (np.log(spec.sigma) + 0.5 * np.log(2 * np.pi)))


def _ref_nu_logpdf(spec, nu):
    x = np.asarray(nu, dtype=float)
    if x.min() <= 0:
        return -np.inf
    a, b = spec.nu_shape, spec.nu_rate
    return float(_fsum((a - 1) * np.log(x) - b * x)
                 + x.size * (a * np.log(b) - math.lgamma(a)))


def _ref_log_prior(nu, J, theta, spec):
    dims, logpmf = spec.j_log_pmf()
    if J not in dims.tolist():
        return -np.inf
    total = float(logpmf[dims.tolist().index(J)])
    hneg_sup = _ref_kernel_admissible(spec, _ref_theta_to_h(spec, J, theta))
    if hneg_sup is None or not _ref_rates_admissible(nu, hneg_sup):
        return -np.inf
    return total + _ref_nu_logpdf(spec, nu) + _ref_theta_logpdf(spec, theta)


_coefficient = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-3, 1e-3),
                         st.sampled_from([0.0, -0.0]))


@st.composite
def _prior_case(draw):
    K = draw(st.integers(1, 3))
    haar = draw(st.booleans())
    J = draw(st.sampled_from([2, 4, 8, 16]) if haar else st.integers(1, 16))
    spec = PriorSpec(
        K=K, basis_kind="haar" if haar else "histogram", J_max=16,
        theta_family=draw(st.sampled_from(["shifted-exponential",
                                           "gaussian"])),
        kappa=draw(st.sampled_from([0.0, -0.2, 0.05])),
        rate=draw(st.floats(0.5, 4.0)), sigma=draw(st.floats(0.1, 2.0)),
        nu_shape=draw(st.floats(0.5, 4.0)),
        nu_rate=draw(st.floats(0.2, 3.0)),
        link=draw(st.sampled_from(["identity", "softplus"])),
        support_end=draw(st.sampled_from([0.5, 1.0, 2.0])))
    # small scales put the kernel inside the class, large ones outside
    scale = draw(st.sampled_from([1.0, 0.1, 0.01]))
    theta = scale * draw(arrays(float, (K, K, J), elements=_coefficient))
    if draw(st.booleans()):  # inside the support of every family
        theta = np.abs(theta) + spec.kappa
    if draw(st.sampled_from(range(6))) == 5:
        theta[draw(st.integers(0, K - 1)), draw(st.integers(0, K - 1)),
              draw(st.integers(0, J - 1))] = draw(
            st.sampled_from([math.inf, -math.inf, math.nan]))
    return spec, J, theta


def _rate(data, floor):
    """A rate above, at or just below its floor hneg_sup, or an invalid
    one."""
    above = st.floats(0.01, 5.0).map(lambda d: floor + d)
    return data.draw(st.one_of(
        above, above, above,
        st.just(floor), st.just(np.nextafter(floor, -np.inf)),
        st.sampled_from([0.0, -0.0, -1.0, math.inf, math.nan])))


def test_rates_admissible_equals_array_reference():
    floors = np.array([0.0, 0.3])
    rates = [0.5, 0.3, np.nextafter(0.3, 0.0), 0.0, -0.0, -1.0, 1e-300,
             math.inf, -math.inf, math.nan]
    for a in rates:
        for b in rates:
            nu = np.array([a, b])
            for sup in (floors, floors[::-1], np.zeros(2)):
                assert (PriorSpec.rates_admissible(nu, sup.tolist())
                        == _ref_rates_admissible(nu, sup))
    with pytest.raises(ValueError):
        PriorSpec.rates_admissible(np.array([1.0]), [0.0, 0.0])


@settings(max_examples=300)
@given(_prior_case(), st.data())
def test_prior_terms_equal_array_reference(case, data):
    spec, J, theta = case
    with np.errstate(all="ignore"):
        h = spec.theta_to_h(J, theta)
        if np.isfinite(theta).all():
            assert np.array_equal(h, _ref_theta_to_h(spec, J, theta))
        got_sup = spec.kernel_admissible(h)
        ref_sup = _ref_kernel_admissible(spec, h)
        assert (got_sup is None) == (ref_sup is None)
        if ref_sup is not None:
            assert got_sup == ref_sup.tolist()
        floors = ref_sup if ref_sup is not None else np.zeros(spec.K)
        nu = np.array([_rate(data, f) for f in floors])
        if ref_sup is not None:
            assert (spec.rates_admissible(nu, got_sup)
                    == _ref_rates_admissible(nu, ref_sup))
        assert _same_float(spec.nu_logpdf(nu), _ref_nu_logpdf(spec, nu))
        assert _same_float(spec.theta_logpdf(theta),
                           _ref_theta_logpdf(spec, theta))
        assert _same_float(log_prior(nu, J, theta, spec),
                           _ref_log_prior(nu, J, theta, spec))
