import copy
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scipy_reference
from hawkes_bvm.grids import Direction
from hawkes_bvm.likelihood import (CHUNK, LanEstimator, LikelihoodCache,
                                   _compensator_weights, _distinct_rows,
                                   _g_flat, grad_loglik_nu,
                                   linear_intensity, log_likelihood,
                                   stratified_batches, w_statistic,
                                   window_design)
from hawkes_bvm.model import ModelParams
from hawkes_bvm.simulate import simulate_thinning
from hawkes_bvm.stream import EventStream
from test_window_design import _float_truth, _loop_loglik


def _simple_stream():
    return EventStream(np.array([0.3, 0.8]), np.array([1, 1]), -1.0, 1.5)


def test_intensity_hand_values():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    s = _simple_stream()
    lam = linear_intensity(s, np.array([0.3, 0.8, 1.2, 1.4]), p.nu, p.h,
                           p.support_end)[:, 0]
    assert lam[0] == 1.0  # age 0 excluded
    assert lam[1] == 1.5
    assert lam[2] == 2.0  # both events in window
    assert lam[3] == 1.5  # 0.3 has aged out


def test_loglik_single_cell_hand_computed():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    s = _simple_stream()
    # events: log 1 + log 1.5; compensator: 1.5 + 0.5*(1.0 + 0.7)
    expect = np.log(1.5) - (1.5 + 0.5 * 1.7)
    assert log_likelihood(p, s, 1.5) == pytest.approx(expect, abs=1e-12)


def test_loglik_two_cell_hand_computed():
    p = ModelParams(np.array([1.0]), np.array([[[0.4, 0.2]]]), 1.0)
    s = _simple_stream()
    # at 0.8 the age of 0.3 is 0.5, i.e. the second cell
    # overlap weights: cell 0 -> 0.5 + 0.5, cell 1 -> 0.5 + 0.2
    expect = np.log(1.2) - (1.5 + 0.4 * 1.0 + 0.2 * 0.7)
    assert log_likelihood(p, s, 1.5) == pytest.approx(expect, abs=1e-12)


def test_loglik_relu_hand_computed():
    p = ModelParams(np.array([1.0]), np.array([[[-0.6]]]), 1.0, "relu")
    s = EventStream(np.array([0.5]), np.array([1]), -1.0, 2.0)
    # lambda = 1 on [0, .5], 0.4 on (.5, 1.5], 1 on (1.5, 2]
    expect = 0.0 - (0.5 + 0.4 + 0.5)
    assert log_likelihood(p, s, 2.0) == pytest.approx(expect, abs=1e-12)


def test_loglik_minus_inf_sentinel():
    p = ModelParams(np.array([1.0]), np.array([[[-0.6]]]), 1.0, "relu")
    s = EventStream(np.array([0.1, 0.15, 0.5]), np.array([1, 1, 1]),
                    -1.0, 1.0)
    # two stacked inhibitions drive lambda(0.5) to zero
    assert log_likelihood(p, s, 1.0) == -np.inf


def test_grad_nu_matches_finite_difference():
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = 0.3
    h[:, :, 1] = 0.1
    p = ModelParams(np.array([1.0, 0.8]), h, 1.0)
    s = simulate_thinning(p, 50.0, seed=3)
    grad = grad_loglik_nu(p, s, 50.0)
    eps = 1e-6
    for k in range(2):
        nu_p, nu_m = p.nu.copy(), p.nu.copy()
        nu_p[k] += eps
        nu_m[k] -= eps
        fd = (log_likelihood(ModelParams(nu_p, h, 1.0), s, 50.0)
              - log_likelihood(ModelParams(nu_m, h, 1.0), s, 50.0)) / (2 * eps)
        assert grad[k] == pytest.approx(fd, rel=1e-5)


def test_grad_nu_relu_occupation():
    p = ModelParams(np.array([1.0]), np.array([[[-0.6]]]), 1.0, "relu")
    s = EventStream(np.array([0.5]), np.array([1]), -1.0, 2.0)
    # single event at full background rate; lambda > 0 everywhere
    assert grad_loglik_nu(p, s, 2.0) == pytest.approx([1.0 - 2.0])


def test_w_statistic_background_direction_is_score():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    s = simulate_thinning(p, 100.0, seed=4)
    d = Direction(np.array([1.0]), np.zeros((1, 1, 1)), 1.0)
    grad = grad_loglik_nu(p, s, 100.0)
    assert w_statistic(d, p, s, 100.0) == pytest.approx(
        grad[0] / np.sqrt(100.0), rel=1e-10)


def test_w_statistic_hand_computed():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    s = _simple_stream()
    d = Direction(np.array([0.0]), np.array([[[1.0]]]), 1.0)
    # tilde at events: 0 and 1; compensator of tilde: 1.0 + 0.7
    expect = (1.0 / 1.5 - 1.7) / np.sqrt(1.5)
    assert w_statistic(d, p, s, 1.5) == pytest.approx(expect, rel=1e-12)


def test_w_statistic_never_builds_the_piece_design(monkeypatch):
    # the direction enters the intensity linearly: its negative cells must
    # not trigger the ReLU piece design, which is large on long streams
    import hawkes_bvm.likelihood as likelihood

    def no_pieces(*args):
        raise AssertionError("piece design built")

    monkeypatch.setattr(likelihood, "sweep_pieces", no_pieces)
    p = ModelParams(np.array([1.0]), np.array([[[0.4, 0.2]]]), 1.0)
    s = simulate_thinning(p, 100.0, seed=4)
    d = Direction(np.array([0.3]), np.array([[[0.2, -0.5]]]), 1.0)
    assert np.isfinite(w_statistic(d, p, s, 100.0))


def test_lan_inner_poisson_closed_form():
    # Poisson(2): window count N has mean 2, var 2; E (N^2) / 2 = 3
    p = ModelParams(np.array([2.0]), np.zeros((1, 1, 1)), 1.0)
    est = LanEstimator(p, t_sim=4000.0, n_points=40_000, seed=5)
    d = Direction(np.array([0.0]), np.array([[[1.0]]]), 1.0)
    val, se = est.inner(d, d)
    assert abs(val - 3.0) < max(4 * se, 0.1)


def test_lan_inner_poisson_background_direction():
    p = ModelParams(np.array([2.0, 0.5]), np.zeros((2, 2, 2)), 1.0)
    est = LanEstimator(p, t_sim=500.0, n_points=5000, seed=6)
    d = Direction(np.array([1.0, 1.0]), np.zeros((2, 2, 2)), 1.0)
    val, se = est.inner(d, d)
    # E xi^2 / nu summed over marks: 1/2 + 1/0.5, exact (no randomness)
    assert val == pytest.approx(2.5, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_lan_inner_product_one_window_has_zero_se():
    # one batch carries no batch-means error: the SE is 0, not nan
    p = ModelParams(np.array([1.0]), np.array([[[0.3, 0.2]]]), 1.0)
    d = Direction(np.array([0.5]), np.array([[[1.0, -0.5]]]), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, se = LanEstimator(p, t_sim=200.0, n_batches=1,
                               seed=3).inner(d, d)
    assert np.isfinite(val) and val > 0
    assert se == 0.0


def test_gram_symmetric_and_consistent_with_inner():
    p = ModelParams(np.array([1.0]), np.full((1, 1, 4), 0.125), 1.0)
    est = LanEstimator(p, t_sim=200.0, n_points=2000, seed=7)
    rng = np.random.default_rng(8)
    dirs = [Direction(rng.normal(size=1), rng.normal(size=(1, 1, 4)), 1.0)
            for _ in range(4)]
    gram, _ = est.gram(dirs)
    assert np.array_equal(gram, gram.T)
    v01, _ = est.inner(dirs[0], dirs[1])
    assert gram[0, 1] == pytest.approx(v01, rel=1e-12)


def test_gram_positive_semidefinite():
    p = ModelParams(np.array([1.0]), np.full((1, 1, 8), 0.0625), 1.0)
    est = LanEstimator(p, t_sim=200.0, n_points=2000, seed=9)
    rng = np.random.default_rng(10)
    dirs = [Direction(rng.normal(size=1), rng.normal(size=(1, 1, 8)), 1.0)
            for _ in range(10)]
    gram, _ = est.gram(dirs)
    assert np.linalg.eigvalsh(gram).min() > -1e-10


def test_gram_batches_average_to_gram():
    p = ModelParams(np.array([1.0]), np.array([[[0.3, 0.2]]]), 1.0)
    est = LanEstimator(p, t_sim=200.0, n_points=2000, seed=11)
    rng = np.random.default_rng(12)
    dirs = [Direction(rng.normal(size=1), rng.normal(size=(1, 1, 2)), 1.0)
            for _ in range(3)]
    gram, _ = est.gram(dirs)
    batches = est.gram_batches(dirs)
    assert batches.shape == (est.n_batches, 3, 3)
    assert np.allclose(batches.mean(axis=0), gram, atol=1e-12)


@st.composite
def _lan_case(draw):
    """A K = 1 or 2 truth with h in sixteenths (so rho_+ is at most 1/2),
    directions with cells of either sign, and one or several batches."""
    K = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 4))
    h = np.array(draw(st.lists(st.integers(0, 4), min_size=K * K * m,
                               max_size=K * K * m))).reshape(K, K, m) / 16
    nu = np.array(draw(st.lists(st.integers(4, 16), min_size=K,
                                max_size=K))) / 8
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dirs = [Direction(rng.normal(size=K), rng.normal(size=(K, K, m)), 1.0)
            for _ in range(draw(st.integers(1, 5)))]
    return (ModelParams(nu, h, 1.0), dirs, draw(st.integers(10, 300)),
            draw(st.sampled_from([1, 3, 8])), draw(st.integers(0, 99)))


@given(_lan_case())
def test_gram_batches_match_dense_reference(case):
    f0, dirs, n_points, n_batches, seed = case
    est = LanEstimator(f0, t_sim=30.0, n_points=n_points,
                       n_batches=n_batches, seed=seed)
    # the estimator's sample, redrawn from the same seed in the same order
    rng = np.random.default_rng(seed)
    stream = simulate_thinning(f0, 30.0, seed=rng.integers(2**63))
    pts = np.concatenate(list(stratified_batches(30.0, n_points, n_batches,
                                                 rng)))
    K, m, n = f0.K, f0.n_cells, pts.size
    X = window_design(stream.times, stream.marks, pts, 1.0, K,
                      m).toarray().reshape(n, K, m)
    lam0 = f0.nu + np.einsum("plc,lkc->pk", X, f0.h)
    np.testing.assert_allclose(est.lam0, lam0, rtol=1e-14)
    # the dense per-point form: L[p, k, a] is direction a's perturbation
    # intensity of mark k at point p over sqrt(lambda0^k)
    L = np.stack([d.xi + np.einsum("plc,lkc->pk", X, d.g) for d in dirs],
                 axis=2) / np.sqrt(lam0)[:, :, None]
    Lb = L.reshape(n_batches, n // n_batches, K, len(dirs))
    ref = np.einsum("bpka,bpkc->bac", Lb, Lb) / (n // n_batches)
    got = est.gram_batches(dirs)
    # rel 1e-12 of the Cauchy-Schwarz bound sqrt(G_aa G_cc) of each entry
    scale = np.sqrt(np.einsum("baa->ba", ref))
    assert np.all(np.abs(got - ref)
                  <= 1e-12 * scale[:, :, None] * scale[:, None, :])


def _layout(a):
    """The strides of the axes longer than one (the others are free)."""
    return [s for s, n in zip(a.strides, a.shape) if n > 1]


@given(_float_truth(m_max=16), st.integers(10, 600),
       st.sampled_from([1, 3, 8]), st.integers(0, 2**32 - 1))
def test_lan_moments_and_gram_equal_scipy_reference(case, n_points,
                                                    n_batches, seed):
    f0, _, d, _ = case
    est = LanEstimator(f0, t_sim=30.0, n_points=n_points,
                       n_batches=n_batches, seed=seed)
    rng = np.random.default_rng(seed)
    stream = simulate_thinning(f0, 30.0, seed=rng.integers(2**63))
    pts = np.concatenate(list(stratified_batches(30.0, n_points, n_batches,
                                                 rng)))
    X = scipy_reference.window_design(stream.times, stream.marks, pts, 1.0,
                                      f0.K, f0.n_cells)
    lam0 = f0.nu[None, :] + X @ _g_flat(f0.h)
    ref = copy.copy(est)
    ref.moments = scipy_reference.lan_moments(X, lam0, n_batches)
    assert np.array_equal(est.lam0, lam0)
    assert np.array_equal(est.moments, ref.moments)
    # the Gram's BLAS products read the moments in their memory layout
    assert _layout(est.moments) == _layout(ref.moments)
    dirs = [d, Direction(-d.xi, d.g[::-1], 1.0), Direction(f0.nu, f0.h, 1.0)]
    assert np.array_equal(est.gram_batches(dirs), ref.gram_batches(dirs))


def test_gram_batches_allocate_nothing_per_point():
    # the largest bias ladder step: K = 2, m = 32 and 68 directions; a
    # per-point array would be 40,000 x 2 x 68 floats (44 MB), where the
    # result is 40 x 68 x 68 (1.5 MB)
    f0 = ModelParams(np.array([1.0, 0.8]), np.full((2, 2, 32), 0.2), 1.0)
    est = LanEstimator(f0, t_sim=400.0, n_points=40_000, seed=17)
    rng = np.random.default_rng(18)
    dirs = [Direction(rng.normal(size=2), rng.normal(size=(2, 2, 32)), 1.0)
            for _ in range(68)]
    tracemalloc.start()
    try:
        est.gram_batches(dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _transient_bytes(build):
    """The traced peak of build() minus what its result keeps."""
    tracemalloc.start()
    try:
        kept_obj = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept_obj
    return peak - kept


@pytest.mark.parametrize("n_points", [8_000, 80_000])
def test_lan_build_holds_one_batch_at_a_time(n_points):
    # the one-batch build holds the design of every point; at 40 batches
    # the transient is about a fortieth of that plus the per-batch sums
    f0 = ModelParams(np.array([1.0, 0.8]), np.full((2, 2, 4), 0.1), 1.0)
    per_batch, whole = (_transient_bytes(lambda: LanEstimator(
        f0, n_points=n_points, n_batches=n_batches, seed=3))
        for n_batches in (40, 1))
    assert per_batch < 0.08 * whole


@pytest.mark.parametrize("n_points,n_batches",
                         [(8_000, 40), (7_999, 40), (10, 3), (5, 1)])
def test_stratified_batches_equal_one_draw(n_points, n_batches):
    # the points of one uniform draw of every stratum, bit for bit
    rng = np.random.default_rng(9)
    n = -(-n_points // n_batches) * n_batches
    ref = (np.arange(n) + rng.uniform(size=n)) * (30.0 / n)
    rng = np.random.default_rng(9)
    batches = list(stratified_batches(30.0, n_points, n_batches, rng))
    assert len(batches) == n_batches
    assert np.array_equal(np.concatenate(batches), ref)


@pytest.mark.parametrize("n_points,n_batches,name",
                         [(0, 40, "n_points"), (-5, 40, "n_points"),
                          (100, 0, "n_batches"), (100, -1, "n_batches")])
def test_stratified_sizes_are_refused_by_name(n_points, n_batches, name):
    f0 = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=name):
        LanEstimator(f0, t_sim=10.0, n_points=n_points,
                     n_batches=n_batches)
    with pytest.raises(ValueError, match=name):
        stratified_batches(10.0, n_points, n_batches, rng)


@pytest.mark.parametrize("horizon", [3000.0, 15000.0])
def test_cache_build_holds_one_mark_at_a_time(horizon):
    # bound: 1.75 dense event-row matrices of every mark; a dense matrix
    # of all the rows plus its per-mark copies took more than 2.25
    f0 = ModelParams(np.array([1.0, 0.8]), np.full((2, 2, 8), 0.05), 1.0)
    s = simulate_thinning(f0, horizon, seed=5)
    n_events = int(np.sum((s.times > 0) & (s.times <= horizon)))
    transient = _transient_bytes(
        lambda: LikelihoodCache(s, 2, 8, 1.0, horizon))
    assert transient < 1.75 * n_events * 2 * 8 * 8


def _one_shot_weights(stream, K, m, A, horizon):
    """The compensator weights from one (n_events, m + 1) array of every
    live event of a mark: the bits the chunked weights must keep."""
    times, marks = stream.times, stream.marks
    edges = np.arange(m + 1) * (A / m)
    live = (times + A > 0) & (times < horizon)
    W = np.zeros((K, m))
    for l in range(K):
        clipped = np.clip(times[live & (marks == l + 1)][:, None]
                          + edges[None, :], 0.0, horizon)
        W[l] = np.diff(clipped, axis=1).sum(axis=0)
    return W.ravel()


def _one_shot_w(direction, f0, stream, horizon):
    """W_T from one window design of every event and the one-shot
    weights: the bits the chunked W_T must keep."""
    times, marks = stream.times, stream.marks
    sel = (times > 0) & (times <= horizon)
    X = window_design(times, marks, times[sel], f0.support_end, f0.K,
                      f0.n_cells)
    g = _g_flat(direction.g)
    at = (np.arange(X.shape[0]), marks[sel] - 1)
    score = np.sum((direction.xi + X @ g)[at]
                   / (f0.nu + X @ _g_flat(f0.h))[at])
    W = _one_shot_weights(stream, f0.K, f0.n_cells, f0.support_end,
                          horizon)
    total = score - direction.xi.sum() * horizon - W @ g.sum(axis=1)
    return float(total / np.sqrt(horizon))


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                               3 * CHUNK + 5])
@pytest.mark.parametrize("m", [1, 2, 16])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_chunked_w_keeps_the_one_shot_bits(K, m, n, mixed):
    # n events in (0, T) at rate 4m: all of mark 1, so that mark 1 has n
    # live events and every other mark none, or (mixed) of any mark, with
    # three events before 0 and one at T. At that rate a cell's running
    # sum outgrows the event times, so its additions round, and a changed
    # order of addition shows in the bits
    rng = np.random.default_rng([K, m, n, mixed])
    T = max(n / (4.0 * m), 5.0)
    times = np.sort(rng.uniform(0.0, T, size=n))
    marks = np.ones(n, dtype=int)
    if mixed:
        times = np.concatenate(([-0.9, -0.5, -0.1], times, [T]))
        marks = rng.integers(1, K + 1, size=times.size)
    stream = EventStream(times, marks, -1.0, T)
    f0 = ModelParams(rng.uniform(0.5, 1.5, size=K),
                     rng.uniform(0.0, 0.6 / (K * m), size=(K, K, m)), 1.0)
    d = Direction(rng.normal(size=K), rng.normal(size=(K, K, m)), 1.0)
    want = _one_shot_weights(stream, K, m, 1.0, T).tobytes()
    assert _compensator_weights(stream, K, m, 1.0, T).tobytes() == want
    assert LikelihoodCache(stream, K, m, 1.0, T).W.tobytes() == want
    assert (w_statistic(d, f0, stream, T).hex()
            == _one_shot_w(d, f0, stream, T).hex())


def test_w_statistic_holds_one_chunk_of_events_at_a_time():
    # the bvm truth of the benchmark's K = 2 workload on its 16-cell
    # operator grid, about 24,000 events: one design of every event and
    # (n_events, m + 1) weight arrays took 278 bytes an event, chunks of
    # CHUNK events 55; bound: ten float64 an event
    h = np.array([0.4, 0.2, 0.1, 0.05, 0.15, 0.1, 0.3, 0.2]).reshape(2, 2, 2)
    f0 = ModelParams(np.array([0.6, 0.4]), np.repeat(h, 8, axis=2), 1.0)
    s = simulate_thinning(f0, 15000.0, seed=7)
    rng = np.random.default_rng(8)
    d = Direction(rng.normal(size=2), rng.normal(size=(2, 2, 16)), 1.0)
    n_events = int(np.sum((s.times > 0) & (s.times <= 15000.0)))
    transient = _transient_bytes(lambda: w_statistic(d, f0, s, 15000.0))
    assert transient < 10 * 8 * n_events


def test_expansion_remainder_is_third_order():
    # pathwise: ll(f0 + eps d) - ll(f0) - eps sqrt(T) W_T + eps^2/2 Q
    # with Q the observed quadratic sum of (tilde/lambda)^2 at events
    p = ModelParams(np.array([1.0]), np.array([[[0.4, 0.2]]]), 1.0)
    s = simulate_thinning(p, 200.0, seed=13)
    T = 200.0
    d = Direction(np.array([0.3]), np.array([[[0.2, -0.1]]]), 1.0)
    wt = w_statistic(d, p, s, T)
    sel = (s.times > 0) & (s.times <= T)
    quad = 0.0
    lams = linear_intensity(s, s.times[sel], p.nu, p.h, p.support_end)
    for t, lam in zip(s.times[sel], lams[:, 0]):
        tl = (d.xi[0]
              + sum(d.g[0, 0, min(int((t - u) / 0.5), 1)]
                    for u in s.times if 0 < t - u <= 1.0))
        quad += (tl / lam) ** 2
    ll0 = log_likelihood(p, s, T)

    def remainder(eps):
        q = ModelParams(p.nu + eps * d.xi, p.h + eps * d.g, 1.0)
        return abs(log_likelihood(q, s, T) - ll0
                   - eps * np.sqrt(T) * wt + 0.5 * eps ** 2 * quad)

    r1, r2 = remainder(0.02), remainder(0.01)
    slope = np.log2(r1 / r2)
    assert slope > 2.5


def test_likelihood_cache_matches_direct():
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = 0.3
    h[:, :, 1] = 0.1
    p = ModelParams(np.array([1.0, 0.8]), h, 1.0)
    s = simulate_thinning(p, 80.0, seed=14)
    cache = LikelihoodCache(s, 2, 2, 1.0, 80.0)
    rng = np.random.default_rng(15)
    for _ in range(5):
        nu = rng.uniform(0.5, 1.5, size=2)
        hh = rng.uniform(0.0, 0.4, size=(2, 2, 2))
        loop = _loop_loglik(ModelParams(nu, hh, 1.0), s, 80.0)
        assert cache.log_likelihood(nu, hh) == pytest.approx(
            loop, rel=1e-10)


def test_likelihood_cache_sentinel():
    s = EventStream(np.array([0.2, 0.4]), np.array([1, 1]), -1.0, 1.0)
    cache = LikelihoodCache(s, 1, 1, 1.0, 1.0)
    assert cache.log_likelihood(np.array([0.1]),
                                np.array([[[-0.5]]])) == -np.inf


@st.composite
def _stream_and_params(draw):
    """A small stream on quarter-unit times (so ties are frequent) and a
    linear or mixed-sign kernel in sixteenths, so that every intensity is
    an exact float and both formulas see the same sign at each event."""
    K = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 30))
    ticks = draw(st.lists(st.integers(-4, 16), min_size=n, max_size=n))
    marks = draw(st.lists(st.integers(1, K), min_size=n, max_size=n))
    stream = EventStream(np.array(ticks) / 4.0, np.array(marks, dtype=int),
                         -1.0, 4.0)
    lowest = draw(st.sampled_from([0, -4]))
    h = np.array(draw(st.lists(st.integers(lowest, 4), min_size=K * K * m,
                               max_size=K * K * m))).reshape(K, K, m) / 16
    extra = np.array(draw(st.lists(st.integers(1, 16), min_size=K,
                                   max_size=K))) / 16
    nu = np.maximum(-h, 0.0).max(axis=(0, 2)) + extra
    return stream, nu, h


@given(_stream_and_params())
def test_deduplicated_cache_matches_exact_likelihood(case):
    stream, nu, h = case
    K, m, T = nu.size, h.shape[2], 4.0
    cache = LikelihoodCache(stream, K, m, 1.0, T)
    inside = (stream.times > 0) & (stream.times <= T)
    for k in range(K):
        assert cache.counts[k].sum() == np.sum(inside
                                               & (stream.marks == k + 1))
        assert np.unique(cache.X[k], axis=0).shape == cache.X[k].shape
    loop = _loop_loglik(ModelParams(nu, h, 1.0, "relu"), stream, T)
    cached = cache.log_likelihood(nu, h)
    assert (loop == -np.inf) == (cached == -np.inf)
    if loop != -np.inf:
        assert cached == pytest.approx(loop, rel=1e-10, abs=1e-12)
    # one kernel's excitation at rates moved one mark at a time gives
    # the fresh evaluation's value exactly
    ex = cache.excite(h)
    for rates in (nu, nu + np.eye(K)[0] / 8, nu, nu + np.eye(K)[-1] / 8):
        assert cache.log_likelihood(rates, ex) == cache.log_likelihood(
            rates, h)


@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.integers(0, 3), min_size=cols, max_size=cols),
    max_size=40).map(lambda rows: np.array(rows, dtype=float)
                     .reshape(len(rows), cols))))
def test_distinct_rows_equal_numpy_unique(X):
    rows, counts = _distinct_rows(X, np.ones(len(X)))
    ref_rows, inverse, ref_counts = np.unique(
        X, axis=0, return_inverse=True, return_counts=True)
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(counts, ref_counts)
    # weights add up per distinct row, as piece widths do
    weights = np.arange(len(X)) + 0.5
    _, sums = _distinct_rows(X, weights)
    assert np.array_equal(sums, np.bincount(inverse.ravel(), weights,
                                            minlength=len(ref_rows)))


# the exactness rule behind `KernelExcitation.low`: finite values, signed
# zeros, subnormals and magnitudes near overflow
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308,
                     -1.7e308]))


@given(st.lists(_finite, max_size=40).map(np.array), _finite)
def test_rate_plus_minimum_decides_as_elementwise_minimum(r, nu):
    # correctly rounded addition is monotone, so the smallest fl(nu + r_i)
    # is fl(nu + min r); with no rows nothing is rejected
    with np.errstate(over="ignore"):
        elementwise = bool(r.size) and bool((nu + r).min() <= 0.0)
        low = r.min() if r.size else math.inf
        assert elementwise == (nu + low <= 0.0)


@given(st.data())
def test_excitation_minimum_and_rejection_equal_elementwise(data):
    K = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 4))
    times = np.sort(data.draw(st.lists(st.floats(-1.0, 6.0), min_size=1,
                                       max_size=60, unique=True)))
    marks = np.array(data.draw(st.lists(st.integers(1, K),
                                        min_size=times.size,
                                        max_size=times.size)))
    stream = EventStream(times, marks, -1.0, 6.0)
    cell = st.one_of(st.floats(-1e3, 1e3),
                     st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))
    h = data.draw(st.lists(cell, min_size=K * K * m, max_size=K * K * m)
                  .map(lambda v: np.array(v).reshape(K, K, m)))
    cache = LikelihoodCache(stream, K, m, 1.0, 5.0)
    ex = cache.excite(h)
    nu = np.empty(K)
    for k in range(K):
        rows = cache.X[k] @ _g_flat(h)[:, k]
        assert np.array_equal(ex.rows[k], rows)
        assert ex.low[k] == (rows.min() if rows.size else math.inf)
        # a rate at, just above or just below the smallest row's negative
        base = -ex.low[k] if rows.size else 1.0
        nu[k] = data.draw(st.sampled_from(
            [base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf),
             base + 0.5]))
    nonpositive = any(
        (nu[k] + cache.X[k] @ _g_flat(h)[:, k] <= 0.0).any()
        for k in range(K))
    assert (cache.log_likelihood(nu, ex) == -np.inf) == nonpositive
