import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import signal
from scipy.fft import next_fast_len

from hawkes_bvm.model import ModelParams, stationary_rates
from hawkes_bvm.simulate import simulate_thinning
from hawkes_bvm.stream import EventStream
from hawkes_bvm import volterra
from hawkes_bvm.volterra import empirical_pair_density, solve_moment_density
from test_likelihood import _transient_bytes


def _reference():
    return ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)


def _reference_truth(t):
    """Closed form for nu=1, h=0.5 on [0,1]: constant 2 on (0,1), then
    2 - exp(0.5 (t-1)) on (1,2)."""
    t = np.asarray(t, dtype=float)
    out = np.where(t < 1.0, 2.0, 2.0 - np.exp(0.5 * (t - 1.0)))
    return out


def test_poisson_upsilon_is_zero():
    p = ModelParams(np.array([1.5, 0.4]), np.zeros((2, 2, 2)), 1.0)
    dens = solve_moment_density(p, n_grid=64)
    assert np.max(np.abs(dens.upsilon)) < 1e-12
    assert dens.m_at(1, 2, 0.7) == pytest.approx(0.4)
    assert dens.m_at(2, 1, -3.0) == pytest.approx(1.5)


def test_reference_model_closed_form():
    dens = solve_moment_density(_reference(), n_grid=256)
    ts = np.concatenate([np.linspace(0.05, 0.95, 19),
                         np.linspace(1.05, 1.95, 19)])
    got = np.array([dens.upsilon_at(t)[0, 0] for t in ts])
    assert np.max(np.abs(got - _reference_truth(ts))) < 2e-3


def test_reference_palm_density_values():
    dens = solve_moment_density(_reference(), n_grid=256)
    # m = mu + Upsilon / mu with mu = 2
    assert dens.m_at(1, 1, 0.5) == pytest.approx(3.0, abs=2e-3)
    assert dens.m_at(1, 1, 1.5) == pytest.approx(
        2.0 + (2.0 - np.exp(0.25)) / 2.0, abs=2e-3)


def test_upsilon_decays_to_stationarity():
    dens = solve_moment_density(_reference(), n_grid=128)
    assert abs(dens.upsilon_at(dens.node_times[-1])[0, 0]) < 1e-4
    assert dens.m_at(1, 1, 1e9) == pytest.approx(2.0)


def test_symmetry_under_transpose():
    h = np.zeros((2, 2, 2))
    h[0, 1, 0] = 0.6
    h[1, 0, 1] = 0.2
    h[0, 0, 0] = 0.3
    p = ModelParams(np.array([1.0, 0.7]), h, 1.0)
    dens = solve_moment_density(p, n_grid=64)
    for t in (0.3, 0.9, 1.7, 4.2):
        assert np.allclose(dens.upsilon_at(-t), dens.upsilon_at(t).T)


def test_detailed_balance_of_pair_rates():
    # mu_l m_{l,k}(t) must equal mu_k m_{k,l}(-t)
    h = np.zeros((2, 2, 2))
    h[0, 1, 0] = 0.6
    h[1, 1, 1] = 0.3
    p = ModelParams(np.array([0.8, 0.5]), h, 1.0)
    dens = solve_moment_density(p, n_grid=64)
    mu = stationary_rates(p)
    for t in (0.4, 1.2, 2.5):
        assert mu[0] * dens.m_at(1, 2, t) == pytest.approx(
            mu[1] * dens.m_at(2, 1, -t), rel=1e-9)


def test_grid_multiple_required():
    p = ModelParams(np.array([1.0]), np.array([[[0.2, 0.1, 0.1]]]), 1.0)
    with pytest.raises(ValueError):
        solve_moment_density(p, n_grid=64)


def _k2_cross():
    h = np.zeros((2, 2, 2))
    h[0, 1, 0] = 0.6
    h[1, 0, 1] = 0.2
    h[0, 0, 0] = 0.3
    return ModelParams(np.array([1.0, 0.7]), h, 1.0)


@pytest.mark.parametrize("model, n_grid", [
    (_reference, 512),  # criteria 2a and 2b
    (_k2_cross, 64),
], ids=["reference", "k2-cross"])
def test_solver_flags_on_converged_cases(model, n_grid):
    dens = solve_moment_density(model(), n_grid=n_grid)
    assert dens.converged
    assert not dens.tail_capped


def _k3_mixed():
    rng = np.random.default_rng(3)
    h = rng.uniform(0.0, 0.12, size=(3, 3, 4))
    return ModelParams(np.array([0.9, 0.6, 1.2]), h, 2.0)


# (extended length 2N + 1, kernel length n_grid + 1) as the solver passes
# them, and whether next_fast_len pads the full length
@pytest.mark.parametrize("n_ext, n_wts, pads", [
    (21, 3, True), (41, 5, False), (161, 9, True), (321, 65, True),
    (1281, 129, True), (2561, 257, True)])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_fftconvolve0_equals_scipy_signal(K, n_ext, n_wts, pads):
    n = n_ext + n_wts - 1
    assert (next_fast_len(n, True) > n) == pads
    rng = np.random.default_rng(100 * K + n_wts)
    ext = rng.normal(size=(n_ext, K, 1, K))
    wts = rng.exponential(size=(n_wts, K, K, 1))
    expect = signal.fftconvolve(ext, wts, axes=0)
    assert np.array_equal(volterra._fftconvolve0(wts, n_ext)(ext), expect)


def test_next_fast_len_equals_scipy():
    assert [volterra._next_fast_len(n) for n in range(1, 50_001)] == [
        next_fast_len(n, True) for n in range(1, 50_001)]


@pytest.mark.parametrize("model, n_grid", [
    (_reference, 64), (_k2_cross, 64), (_k3_mixed, 32)],
    ids=["K1", "K2", "K3"])
def test_solver_unchanged_on_scipy_signal_convolution(model, n_grid,
                                                      monkeypatch):
    dens = solve_moment_density(model(), n_grid=n_grid)
    kernels = []

    def scipy_convolution(b, n_a):
        kernels.append(n_a)
        return lambda a: signal.fftconvolve(a, b, axes=0)

    monkeypatch.setattr(volterra, "_fftconvolve0", scipy_convolution)
    ref = solve_moment_density(model(), n_grid=n_grid)
    # the solve went through the patched name, exactly one kernel per
    # source mark on each horizon, from 10 A (N0 nodes) doubling to the last
    N0, N = 10 * n_grid, ref.node_times.size - 1
    lengths = [2 * (N0 << i) + 1 for i in range((N // N0).bit_length())]
    assert kernels == [n for n in lengths for _ in range(model().K)]
    assert np.array_equal(dens.node_times, ref.node_times)
    assert np.array_equal(dens.upsilon, ref.upsilon)
    assert (dens.converged, dens.tail_capped) == (ref.converged,
                                                   ref.tail_capped)


@pytest.mark.parametrize("n_grid", [256, 1024])
def test_solver_holds_one_source_mark_at_a_time(n_grid):
    # bound: 8 node arrays of K^3 floats; the convolution of every source
    # mark at once, K^3 floats per padded node, took more than 9
    dens = solve_moment_density(_k2_cross(), n_grid=n_grid)
    transient = _transient_bytes(
        lambda: solve_moment_density(_k2_cross(), n_grid=n_grid))
    assert transient < 8 * dens.node_times.size * 2**3 * 8


def test_solver_reports_iteration_cap():
    dens = solve_moment_density(_reference(), n_grid=64, max_iter=1)
    assert not dens.converged


def test_solver_reports_horizon_cap():
    # ||h|| = 0.995: the tail decays by about exp(-0.01) per support
    # length, so at the 400·A cap it still holds about 1e-3 of the peak;
    # the loose tol keeps the Picard iteration short
    p = ModelParams(np.array([1.0]), np.array([[[0.995]]]), 1.0)
    dens = solve_moment_density(p, n_grid=1, tol=1e-6)
    assert dens.tail_capped
    assert dens.converged
    assert dens.node_times[-1] >= 400.0


def test_empirical_pair_density_matches_solver():
    p = _reference()
    dens = solve_moment_density(p, n_grid=256)
    s = simulate_thinning(p, 4000.0, seed=20)
    edges, m_hat, se = empirical_pair_density(s, 1, 2.0, 8, 0.0, 3000.0)
    mids = 0.5 * (edges[:-1] + edges[1:])
    truth = np.array([dens.m_at(1, 1, t) for t in mids])
    z = (m_hat[0, 0] - truth) / se[0, 0]
    assert np.max(np.abs(z)) < 4.0


def test_empirical_rejects_thin_streams():
    s = simulate_thinning(_reference(), 10.0, seed=21)
    with pytest.raises(ValueError):
        empirical_pair_density(s, 1, 1.0, 4, 0.0, 10.0, n_batches=50)


def _loop_pair_density(stream, K, lag_max, n_bins, t_lo, t_hi, n_batches):
    """The pair-density histogram, one anchor and one mark at a time."""
    edges = np.linspace(0.0, lag_max, n_bins + 1)
    width = edges[1] - edges[0]
    m_hat = np.zeros((K, K, n_bins))
    se = np.zeros((K, K, n_bins))
    times, marks = stream.times, stream.marks
    for l in range(K):
        anchors = times[(marks == l + 1) & (times >= t_lo)
                        & (times <= t_hi)]
        n = anchors.size
        if n < 2 * n_batches:
            raise ValueError("too few anchors for batching")
        per_anchor = np.zeros((n, K, n_bins))
        for k in range(K):
            tk = times[marks == k + 1]
            for i, t0 in enumerate(anchors):
                for t in tk[(tk > t0) & (tk <= t0 + lag_max)]:
                    per_anchor[i, k, min(int((t - t0) / width),
                                         n_bins - 1)] += 1.0
        per_anchor /= width
        cut = n - n % n_batches
        bm = per_anchor[:cut].reshape(n_batches, -1, K, n_bins).mean(axis=1)
        m_hat[l] = per_anchor.mean(axis=0)
        se[l] = bm.std(axis=0, ddof=1) / np.sqrt(n_batches)
    return edges, m_hat, se


@given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 3)),
                max_size=60),
       st.integers(1, 3), st.sampled_from([0.5, 1.0, 1.5]),
       st.integers(1, 6), st.sampled_from([2, 3]))
@example([], 1, 1.0, 4, 2)
@example([(t, 1 + t % 2) for t in range(0, 40, 2)] + [(8, 2), (9, 3)],
         2, 1.0, 4, 2)
def test_empirical_pair_density_matches_loop(events, K, lag_max, n_bins,
                                             n_batches):
    # quarter-unit times: lags on bin edges and ties (jittered) occur often
    times = np.array([t for t, _ in events], dtype=float) / 4.0
    marks = np.array([k for _, k in events], dtype=int)
    s = EventStream(times, marks, 0.0, 16.0)
    args = (K, lag_max, n_bins, 1.0, 14.0, n_batches)
    try:
        expect = _loop_pair_density(s, *args)
    except ValueError:
        with pytest.raises(ValueError):
            empirical_pair_density(s, *args)
        return
    for got, want in zip(empirical_pair_density(s, *args), expect):
        assert np.array_equal(got, want)
