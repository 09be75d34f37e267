import numpy as np
import pytest

from hawkes_bvm import simulate
from hawkes_bvm.likelihood import linear_intensity
from hawkes_bvm.model import ModelParams, stationary_rates
from hawkes_bvm.simulate import (_dominating_kernels, simulate_cluster,
                                 simulate_thinning)
from hawkes_bvm.stream import EventStream
from test_likelihood import _transient_bytes


def _rate(stream, horizon, mark=None):
    sel = stream.times > 0
    if mark is not None:
        sel &= stream.marks == mark
    return np.sum(sel) / horizon


def test_thinning_poisson_rate():
    p = ModelParams(np.array([2.0]), np.zeros((1, 1, 1)), 1.0)
    s = simulate_thinning(p, 2000.0, seed=1)
    assert _rate(s, 2000.0) == pytest.approx(2.0, rel=0.05)


def test_thinning_hawkes_rate():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    s = simulate_thinning(p, 2000.0, seed=2)
    assert _rate(s, 2000.0) == pytest.approx(2.0, rel=0.05)


def test_cluster_hawkes_rate():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    s = simulate_cluster(p, 2000.0, seed=3)
    assert _rate(s, 2000.0) == pytest.approx(2.0, rel=0.05)


def test_thinning_deterministic():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    a = simulate_thinning(p, 100.0, seed=7)
    b = simulate_thinning(p, 100.0, seed=7)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.marks, b.marks)
    c = simulate_thinning(p, 100.0, seed=8)
    assert not np.array_equal(a.times, c.times)


def test_cluster_deterministic():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    a = simulate_cluster(p, 100.0, seed=7)
    b = simulate_cluster(p, 100.0, seed=7)
    assert np.array_equal(a.times, b.times)


def test_window_covers_initial_segment():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    s = simulate_thinning(p, 50.0, seed=9)
    assert s.window_start == -1.0
    assert s.times.min() >= -1.0
    # burn-in should leave events already present near the window start
    assert s.times.min() < 0.0


def test_relu_clamps_to_valid_process():
    h = np.array([[[-0.4, 0.3]]])
    p = ModelParams(np.array([1.0]), h, 1.0, "relu")
    s = simulate_thinning(p, 500.0, seed=5)
    # inhibition should push the rate below the background level
    assert 0.3 < _rate(s, 500.0) < 1.05


def test_cluster_rejects_relu():
    p = ModelParams(np.array([1.0]), np.array([[[-0.2, 0.3]]]), 1.0,
                    "relu")
    with pytest.raises(ValueError):
        simulate_cluster(p, 10.0, seed=0)


def test_two_mark_cross_excitation():
    # mark 1 excites only mark 2; mark 2 rate must exceed its background
    h = np.zeros((2, 2, 1))
    h[0, 1, 0] = 0.8
    p = ModelParams(np.array([1.0, 0.2]), h, 1.0)
    mu = stationary_rates(p)
    s = simulate_thinning(p, 3000.0, seed=6)
    assert _rate(s, 3000.0, 1) == pytest.approx(mu[0], rel=0.06)
    assert _rate(s, 3000.0, 2) == pytest.approx(mu[1], rel=0.06)
    assert mu[1] > 0.2


def _reference_thinning(params, horizon, seed):
    """The thinning loop on numpy arrays (a numpy sum per window event for
    the bound, a vector add per window event for lambda, rng.choice for
    the mark); simulate_thinning must reproduce its streams exactly."""
    A = params.support_end
    rng = np.random.default_rng(seed)
    K, m, w = params.K, params.n_cells, params.cell_width
    hbar = _dominating_kernels(params)
    h, nu = params.h, params.nu
    nu_total = float(nu.sum())
    t = -A - 50.0 * A
    times, marks, win_t, win_k = [], [], [], []
    head = 0
    while True:
        while head < len(win_t) and win_t[head] < t - A:
            head += 1
        bound = nu_total
        for i in range(head, len(win_t)):
            cell = int((t - win_t[i]) / w)
            if cell < m:
                bound += float(hbar[win_k[i], :, cell].sum())
        t = t + rng.exponential(1.0 / bound)
        if t > horizon:
            break
        lam = nu.copy()
        for i in range(head, len(win_t)):
            age = t - win_t[i]
            if 0.0 < age <= A:
                lam = lam + h[win_k[i], :, min(int(age / w), m - 1)]
        if params.kind == "relu":
            lam = np.maximum(lam, 0.0)
        lam_tot = float(lam.sum())
        if rng.uniform() * bound <= lam_tot:
            k = int(rng.choice(K, p=lam / lam_tot))
            win_t.append(t)
            win_k.append(k)
            if t >= -A:
                times.append(t)
                marks.append(k + 1)
    return EventStream(np.array(times), np.array(marks), -A, horizon)


@pytest.mark.parametrize("A", [0.5, 1.0])
@pytest.mark.parametrize("kind", ["linear", "relu"])
@pytest.mark.parametrize("m", [1, 4, 32])
@pytest.mark.parametrize("K", [1, 2, 3, 8])
def test_thinning_matches_reference_loop(K, m, kind, A):
    # kernel values in sixteenths, mixed in sign for ReLU; every row sum
    # of rho_+ stays below 1 and nu dominates the inhibition
    rng = np.random.default_rng(100 * K + 10 * m + int(4 * A))
    top = min(15, int(15 // (K * A)))
    low = -top if kind == "relu" else 0
    h = rng.integers(low, top + 1, size=(K, K, m)) / 16.0
    nu = rng.integers(16, 33, size=K) / 16.0
    truths = [ModelParams(nu, h, A, kind)]
    if K == 2:
        # mark 2 excites nothing: its events add 0.0 to both lanes
        silent = h.copy()
        silent[1] = 0.0
        truths.append(ModelParams(nu, silent, A, kind))
    if K == 2 and kind == "relu":
        # each mark-1 event takes all but 1/16 of mark 2's rate, so two
        # of them clamp lane 2 to exactly 0.0 and the mark is 1 for sure
        clamp = h.copy()
        clamp[0, 1] = 1.0 / 16.0 - nu[1]
        truths.append(ModelParams(nu, clamp, A, kind))
    horizon = 4.0 if K == 8 else 20.0
    for params in truths:
        for seed in (1, 2, 3):
            got = simulate_thinning(params, horizon, seed=seed)
            ref = _reference_thinning(params, horizon, seed)
            assert len(got) > 0
            assert np.array_equal(got.times, ref.times)
            assert np.array_equal(got.marks, ref.marks)


class _AcceptEverything:
    """A generator whose every candidate comes 1/8 after the last (so each
    time and age is exact) and whose every uniform is 0.0."""

    def exponential(self, scale):
        return 0.125

    def random(self):
        return 0.0


def test_thinning_never_accepts_a_zero_intensity_candidate(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _AcceptEverything())
    # two window events clamp the intensity 1 - 2 * 0.6 to 0
    p = ModelParams(np.array([1.0]), np.array([[[-0.6]]]), 1.0, "relu")
    s = simulate_thinning(p, 20.0, seed=0)
    # the events from 0 on have their whole window in the stream
    lam = linear_intensity(s, s.times[s.times >= 0.0], p.nu, p.h, 1.0)
    assert lam.size > 0
    assert np.all(np.maximum(lam, 0.0) > 0.0)


def test_thinning_event_budget(monkeypatch):
    monkeypatch.setattr(simulate, "_MAX_EVENTS", 10)
    p = ModelParams(np.array([2.0]), np.zeros((1, 1, 1)), 1.0)
    with pytest.raises(OverflowError, match="event budget"):
        simulate_thinning(p, 100.0, seed=1)


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_thinning_rejects_nonfinite_horizon(monkeypatch, horizon):
    # the loop stops only past the horizon; a small budget keeps a
    # regression from running for minutes
    monkeypatch.setattr(simulate, "_MAX_EVENTS", 1000)
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    with pytest.raises(ValueError, match="horizon"):
        simulate_thinning(p, horizon, seed=1)


def test_thinning_bound_overflow():
    # rho = 1e13 * 1e-14 = 0.1 is stable, but one event in the window
    # puts the bound above 1e12
    p = ModelParams(np.array([1.0]), np.array([[[1e13]]]), 1e-14)
    with pytest.raises(OverflowError, match="bound overflow"):
        simulate_thinning(p, 100.0, seed=1)


def test_thinning_keeps_events_in_typed_buffers():
    # bound: 48 bytes per event beyond the stream; with Python lists,
    # a pointer each and a float object for every time, it took 73
    p = ModelParams(np.array([0.6, 0.4]),
                    np.array([[[0.4, 0.2], [0.1, 0.05]],
                              [[0.15, 0.1], [0.3, 0.2]]]), 1.0)
    n_events = len(simulate_thinning(p, 15000.0, seed=5))
    transient = _transient_bytes(lambda: simulate_thinning(p, 15000.0,
                                                           seed=5))
    assert transient < 48 * n_events
