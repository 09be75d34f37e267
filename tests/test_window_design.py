"""The window-count design matrix and every site built on it, each checked
against a brute-force loop over the events (the per-event form in which
these quantities are defined)."""

import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scipy_reference
from hawkes_bvm.grids import Direction
from hawkes_bvm.likelihood import (grad_loglik_nu, linear_intensity,
                                   log_likelihood, w_statistic,
                                   window_design)
from hawkes_bvm.model import ModelParams
from hawkes_bvm.palm import estimate_palm
from hawkes_bvm.pathstats import (renewal_decomposition,
                                  stochastic_distance_dT)
from hawkes_bvm.simulate import simulate_thinning
from hawkes_bvm.stream import EventStream

RTOL = 1e-12


def _cell(age, A, m):
    return min(int(age / (A / m)), m - 1)


def _loop_design(times, marks, queries, A, K, m):
    X = np.zeros((len(queries), K * m))
    for q, t in enumerate(queries):
        for s, l in zip(times, marks):
            if t - A <= s < t:
                X[q, (l - 1) * m + _cell(t - s, A, m)] += 1.0
    return X


@st.composite
def _design_case(draw):
    """Quarter-unit times, so that ties, events at exactly q - A and at
    exactly q, and queries before the first event all occur often."""
    K = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 6))
    A = draw(st.sampled_from([0.5, 1.0, 1.5]))
    ticks = sorted(draw(st.lists(st.integers(-4, 12), max_size=25)))
    marks = draw(st.lists(st.integers(1, K), min_size=len(ticks),
                          max_size=len(ticks)))
    queries = draw(st.lists(st.integers(-8, 16), max_size=12))
    return (np.array(ticks) / 4.0, np.array(marks, dtype=int),
            np.array(queries) / 4.0, A, K, m)


@given(_design_case())
@example((np.array([]), np.array([], dtype=int), np.array([0.0, 1.0]),
          1.0, 2, 3))
@example((np.array([0.0, 0.0, 1.0, 2.0]), np.array([1, 2, 2, 1]),
          np.array([-1.0, 0.0, 1.0, 2.0, 3.0]), 1.0, 2, 4))
def test_window_design_matches_loop(case):
    times, marks, queries, A, K, m = case
    X = window_design(times, marks, queries, A, K, m)
    assert X.shape == (queries.size, K * m)
    # canonical: one stored entry per nonzero count, in row-major order
    assert np.all(np.diff(X.keys) > 0) and np.all(X.data > 0)
    assert np.array_equal(X.toarray(),
                          _loop_design(times, marks, queries, A, K, m))


# -- log-likelihood, score and W_T ------------------------------------------

def _loop_intensity(params, stream, t):
    A, m = params.support_end, params.n_cells
    lam = params.nu.copy()
    for s, l in zip(stream.times, stream.marks):
        if t - A <= s < t:
            lam += params.h[l - 1, :, _cell(t - s, A, m)]
    return lam


def _loop_compensator(params, stream, T):
    """int_0^T lambda^k dt per mark; for the ReLU model by splitting
    [0, T] at every event-time + cell-edge offset."""
    A, m, w = params.support_end, params.n_cells, params.cell_width
    if params.kind == "relu" and np.any(params.h < 0):
        bps = {0.0, T}
        for s in stream.times:
            bps.update(s + j * w for j in range(m + 1) if 0 < s + j * w < T)
        bp = sorted(bps)
        comp = np.zeros(params.K)
        occ = np.zeros(params.K)
        for a, b in zip(bp[:-1], bp[1:]):
            lam = _loop_intensity(params, stream, 0.5 * (a + b))
            comp += (b - a) * np.maximum(lam, 0.0)
            occ += (b - a) * (lam > 0.0)
        return comp, occ
    comp = params.nu * T
    for s, l in zip(stream.times, stream.marks):
        for c in range(m):
            lo = min(max(s + c * w, 0.0), T)
            hi = min(max(s + (c + 1) * w, 0.0), T)
            comp = comp + (hi - lo) * params.h[l - 1, :, c]
    return comp, np.full(params.K, T)


def _at_events(stream, T):
    sel = (stream.times > 0) & (stream.times <= T)
    return zip(stream.times[sel], stream.marks[sel])


def _loop_loglik(params, stream, T):
    total = 0.0
    for t, k in _at_events(stream, T):
        lam = _loop_intensity(params, stream, t)[k - 1]
        if lam <= 0.0:
            return -np.inf
        total += np.log(lam)
    return total - _loop_compensator(params, stream, T)[0].sum()


def _loop_grad(params, stream, T):
    grad = np.zeros(params.K)
    for t, k in _at_events(stream, T):
        lam = _loop_intensity(params, stream, t)[k - 1]
        if lam <= 0.0:
            raise ValueError("nonpositive intensity at an event")
        grad[k - 1] += 1.0 / lam
    return grad - _loop_compensator(params, stream, T)[1]


def _loop_w(d, f0, stream, T):
    tilde_params = types.SimpleNamespace(
        nu=d.xi, h=d.g, support_end=d.support_end, n_cells=d.n_cells,
        cell_width=d.cell_width, K=d.K, kind="linear")
    total = 0.0
    for t, k in _at_events(stream, T):
        total += (_loop_intensity(tilde_params, stream, t)[k - 1]
                  / _loop_intensity(f0, stream, t)[k - 1])
    comp, _ = _loop_compensator(tilde_params, stream, T)
    return (total - comp.sum()) / np.sqrt(T)


@st.composite
def _likelihood_case(draw):
    """A small stream on quarter-unit times and a nonnegative or
    mixed-sign kernel in sixteenths, plus a perturbation direction."""
    K = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 30))
    ticks = draw(st.lists(st.integers(-4, 16), min_size=n, max_size=n))
    marks = draw(st.lists(st.integers(1, K), min_size=n, max_size=n))
    stream = EventStream(np.array(ticks) / 4.0, np.array(marks, dtype=int),
                         -1.0, 4.0)
    lowest = draw(st.sampled_from([0, -4]))
    size = K * K * m
    h = np.array(draw(st.lists(st.integers(lowest, 4), min_size=size,
                               max_size=size))).reshape(K, K, m) / 16
    extra = np.array(draw(st.lists(st.integers(1, 16), min_size=K,
                                   max_size=K))) / 16
    nu = np.maximum(-h, 0.0).max(axis=(0, 2)) + extra
    g = np.array(draw(st.lists(st.integers(-8, 8), min_size=size,
                               max_size=size))).reshape(K, K, m) / 8
    xi = np.array(draw(st.lists(st.integers(-8, 8), min_size=K,
                                max_size=K))) / 8
    return stream, ModelParams(nu, h, 1.0, "relu"), Direction(xi, g, 1.0)


@given(_likelihood_case())
def test_likelihood_sites_match_loop(case):
    stream, params, d = case
    T = 4.0
    ll = log_likelihood(params, stream, T)
    ref = _loop_loglik(params, stream, T)
    assert (ll == -np.inf) == (ref == -np.inf)
    if ref != -np.inf:
        assert ll == pytest.approx(ref, rel=RTOL, abs=1e-12)
    try:
        ref_grad = _loop_grad(params, stream, T)
    except ValueError:
        with pytest.raises(ValueError):
            grad_loglik_nu(params, stream, T)
    else:
        np.testing.assert_allclose(grad_loglik_nu(params, stream, T),
                                   ref_grad, rtol=RTOL, atol=1e-12)
    if params.h.min() >= 0.0:
        f0 = ModelParams(params.nu, params.h, 1.0)
        assert w_statistic(d, f0, stream, T) == pytest.approx(
            _loop_w(d, f0, stream, T), rel=RTOL, abs=1e-12)


def test_likelihood_sites_match_loop_on_simulated_path():
    h = np.array([[[0.3, 0.1], [0.2, 0.05]], [[0.1, 0.2], [0.25, 0.1]]])
    f0 = ModelParams(np.array([0.8, 0.5]), h, 1.0)
    s = simulate_thinning(f0, 60.0, seed=21)
    d = Direction(np.array([0.3, -0.2]), h[::-1] - 0.1, 1.0)
    assert log_likelihood(f0, s, 60.0) == pytest.approx(
        _loop_loglik(f0, s, 60.0), rel=RTOL)
    np.testing.assert_allclose(grad_loglik_nu(f0, s, 60.0),
                               _loop_grad(f0, s, 60.0), rtol=RTOL)
    assert w_statistic(d, f0, s, 60.0) == pytest.approx(
        _loop_w(d, f0, s, 60.0), rel=RTOL)
    relu = ModelParams(np.array([1.0, 0.9]), h - 0.25, 1.0, "relu")
    assert log_likelihood(relu, s, 60.0) == pytest.approx(
        _loop_loglik(relu, s, 60.0), rel=RTOL)


@given(_likelihood_case(), st.integers(1, 31))
def test_w_statistic_matches_loop_at_cutting_horizons(case, eighths):
    # horizons on the eighth-unit grid fall between and on the events'
    # quarter-unit times, so they cut the windows of the events before
    # them, and events after the horizon count in neither sum
    stream, params, d = case
    f0 = ModelParams(params.nu, np.abs(params.h), 1.0)
    T = eighths / 8
    assert w_statistic(d, f0, stream, T) == pytest.approx(
        _loop_w(d, f0, stream, T), rel=RTOL, abs=1e-12)


# -- stochastic distance d_T ------------------------------------------------

def _loop_distance(f, f_alt, stream, dec):
    A, m, w = f.support_end, f.n_cells, f.cell_width
    diff = types.SimpleNamespace(nu=f.nu - f_alt.nu, h=f.h - f_alt.h,
                                 support_end=A, n_cells=m)
    total = 0.0
    for lo, hi in dec.segments:
        bps = {lo, hi}
        for s in stream.times:
            bps.update(s + j * w for j in range(m + 1) if lo < s + j * w < hi)
        bp = sorted(bps)
        for a, b in zip(bp[:-1], bp[1:]):
            lam = _loop_intensity(diff, stream, 0.5 * (a + b))
            total += (b - a) * float(np.sum(lam ** 2))
    return np.sqrt(total / dec.horizon)


@pytest.mark.parametrize("K, m, seed", [(1, 2, 22), (2, 3, 23)])
def test_distance_matches_loop(K, m, seed):
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.0, 0.6 / (K * m), size=(K, K, m))
    f = ModelParams(np.full(K, 0.6), h, 1.0)
    f_alt = ModelParams(rng.uniform(0.4, 1.0, size=K),
                        rng.uniform(0.0, 0.6 / (K * m), size=(K, K, m)), 1.0)
    s = simulate_thinning(f, 150.0, seed=seed)
    dec = renewal_decomposition(s, 1.0, 150.0)
    assert dec.segments.shape[0] > 5
    assert stochastic_distance_dT(f, f_alt, s, dec) == pytest.approx(
        _loop_distance(f, f_alt, s, dec), rel=RTOL)


# -- Palm tensors -------------------------------------------------------------

def _loop_palm(f0, n_cells, stream, n_points, n_batches, seed):
    """The Palm tensors event by event, with every anchor of the stream
    (no anchor subsampling)."""
    A, K, m = f0.support_end, f0.K, n_cells
    horizon, times, marks = stream.horizon, stream.times, stream.marks
    rng = np.random.default_rng(seed)
    per = n_points // n_batches
    pts = (np.arange(n_points) + rng.uniform(size=n_points)) * (
        horizon / n_points)
    a_b = np.zeros((n_batches, K))
    D_b = np.zeros((n_batches, K, K, m))
    for i, t in enumerate(pts):
        inv = 1.0 / _loop_intensity(f0, stream, t)
        a_b[i // per] += inv / per
        for s, l in zip(times, marks):
            if t - A <= s < t:
                D_b[i // per, l - 1, :, _cell(t - s, A, m)] += inv / per
    mids = (np.arange(m) + 0.5) * (A / m)
    p_b = np.zeros((n_batches, K, K, m))
    C_b = np.zeros((n_batches, K, K, K, m, m))
    for l in range(K):
        anchors = times[(marks == l + 1) & (times >= 0)
                        & (times <= horizon - A)]
        for b, batch in enumerate(np.array_split(anchors, n_batches)):
            for t0 in batch:
                for c, t in enumerate(t0 + mids):
                    inv = 1.0 / _loop_intensity(f0, stream, t)
                    p_b[b, l, :, c] += inv / batch.size
                    for s, j in zip(times, marks):
                        if s != t0 and t - A <= s < t:
                            C_b[b, l, j - 1, :, c, _cell(t - s, A, m)] += (
                                inv / batch.size)
    return a_b, D_b, p_b, C_b


def _palm_stream(exact_tie):
    f0 = ModelParams(np.array([1.2, 1.0]),
                     np.array([[[0.3, 0.1], [0.1, 0.0]],
                               [[0.2, 0.1], [0.2, 0.2]]]), 1.0)
    s = simulate_thinning(f0, 170.0, seed=24)
    # an event of the other mark at an anchor's time
    i = int(np.flatnonzero((s.marks == 1) & (s.times > 50.0))[0])
    times = np.insert(s.times, i + 1, s.times[i])
    marks = np.insert(s.marks, i + 1, 2)
    if exact_tie:  # EventStream would separate the two by a jitter
        return f0, types.SimpleNamespace(times=times, marks=marks,
                                         horizon=s.horizon)
    return f0, EventStream(times, marks, s.window_start, s.horizon)


@pytest.mark.parametrize("exact_tie", [False, True])
def test_palm_tensors_match_loop(exact_tie):
    f0, stream = _palm_stream(exact_tie)
    palm = estimate_palm(f0, 3, n_anchors=len(stream.times), n_points=400,
                         n_batches=4, seed=25, stream=stream)
    ref = _loop_palm(f0, 3, stream, 400, 4, 25)
    for got, want in zip((palm.a_b, palm.D_b, palm.p_b, palm.C_b), ref):
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


# -- the numpy design against its scipy.sparse reference ---------------------
# Equal values are not enough: every product must add the same terms in
# the same order as scipy's CSR kernels, so these compare bit for bit, on
# float parameters whose sums round differently in another order.

@given(_design_case())
def test_window_design_equals_scipy_reference(case):
    X = window_design(*case)
    ref = scipy_reference.window_design(*case)
    rows = np.repeat(np.arange(ref.shape[0]), np.diff(ref.indptr))
    assert X.shape == ref.shape
    assert np.array_equal(X.keys, rows * ref.shape[1] + ref.indices)
    assert np.array_equal(X.data, ref.data)


@st.composite
def _float_truth(draw, K_max=2, m_max=8):
    """A linear truth with float cells (row sums of h at most 0.6), a
    simulated stream on [-1, T], a float direction and float queries."""
    K = draw(st.integers(1, K_max))
    m = draw(st.integers(1, m_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f0 = ModelParams(rng.uniform(0.5, 1.5, size=K),
                     rng.uniform(0.0, 0.6 / (K * m), size=(K, K, m)), 1.0)
    T = draw(st.sampled_from([20.0, 60.0]))
    stream = simulate_thinning(f0, T, seed=int(rng.integers(2**63)))
    d = Direction(rng.normal(size=K), rng.normal(size=(K, K, m)), 1.0)
    return f0, stream, d, rng.uniform(-1.0, T + 1.0, size=50)


@given(_float_truth())
def test_intensity_and_w_statistic_equal_scipy_reference(case):
    f0, stream, d, queries = case
    T = stream.horizon
    got = (linear_intensity(stream, queries, f0.nu, f0.h, 1.0),
           w_statistic(d, f0, stream, T))
    with scipy_reference.use_scipy_designs():
        want = (linear_intensity(stream, queries, f0.nu, f0.h, 1.0),
                w_statistic(d, f0, stream, T))
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]


def _palm_equal_scipy_reference(f0, n_cells, **kw):
    got = estimate_palm(f0, n_cells, **kw)
    with scipy_reference.use_scipy_designs():
        want = estimate_palm(f0, n_cells, **kw)
    for name in ("a_b", "D_b", "p_b", "C_b"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("exact_tie", [False, True])
def test_palm_tensors_equal_scipy_reference_with_ties(exact_tie):
    f0, stream = _palm_stream(exact_tie)
    _palm_equal_scipy_reference(f0, 3, n_anchors=len(stream.times),
                                n_points=400, n_batches=4, seed=25,
                                stream=stream)


@settings(max_examples=8)
@given(_float_truth(), st.sampled_from([1, 2, 3]), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_palm_tensors_equal_scipy_reference(case, refine, n_batches, seed):
    f0 = case[0]
    _palm_equal_scipy_reference(
        f0, refine * f0.n_cells, n_anchors=300, n_points=600,
        n_batches=n_batches, seed=seed, horizon=600.0)
