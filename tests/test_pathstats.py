import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hawkes_bvm.model import ModelParams
from hawkes_bvm.pathstats import renewal_decomposition, stochastic_distance_dT
from hawkes_bvm.simulate import simulate_thinning
from hawkes_bvm.stream import EventStream


def test_renewal_times_example():
    s = EventStream(np.array([0.5, 3.0, 3.4, 6.0]),
                    np.array([1, 1, 1, 1]), 0.0, 8.0)
    dec = renewal_decomposition(s, 1.0, 8.0)
    assert np.allclose(dec.taus, [1.5, 4.4, 7.0])


def test_renewal_segments():
    s = EventStream(np.array([0.5, 3.0, 3.4, 6.0]),
                    np.array([1, 1, 1, 1]), 0.0, 8.0)
    dec = renewal_decomposition(s, 1.0, 8.0)
    # after tau=1.5 the next two events are 3.0 and 3.4: chi = 3.4
    # after tau=4.4 only one event remains before tau=7.0: chi = 7.0
    assert dec.segments.shape == (2, 2)
    assert np.allclose(dec.segments[0], [1.5, 3.4])
    assert np.allclose(dec.segments[1], [4.4, 7.0])
    assert dec.total_length == pytest.approx(1.9 + 2.6)


def test_renewal_empty_stream():
    s = EventStream(np.array([]), np.array([]), 0.0, 5.0)
    dec = renewal_decomposition(s, 1.0, 5.0)
    assert dec.taus.size == 0
    assert dec.total_length == 0.0


def _loop_renewal(times, A, horizon):
    """Renewal times and segments, one event and one renewal at a time."""
    taus = []
    for i, t in enumerate(times):
        nxt = times[i + 1] if i + 1 < times.size else np.inf
        if nxt > t + A and t + A <= horizon:
            taus.append(t + A)
    segments = []
    for n in range(len(taus) - 1):
        after = times[np.searchsorted(times, taus[n], "right"):]
        chi = after[1] if after.size >= 2 else np.inf
        segments.append((taus[n], min(chi, taus[n + 1])))
    return np.array(taus), np.array(segments).reshape(-1, 2)


@given(st.lists(st.integers(0, 40), max_size=30),
       st.sampled_from([0.5, 1.0, 1.25]), st.integers(0, 48))
@example([], 1.0, 40)
@example([0, 4, 8, 9, 9, 20], 1.0, 40)  # gaps of exactly A, a tie
def test_renewal_decomposition_matches_loop(ticks, A, horizon):
    # quarter-unit times, so that gaps of exactly A occur often
    times = np.sort(np.array(ticks, dtype=float)) / 4.0
    s = EventStream(times, np.ones(times.size, dtype=int), 0.0, 12.0)
    dec = renewal_decomposition(s, A, horizon / 4.0)
    taus, segments = _loop_renewal(s.times, A, horizon / 4.0)
    assert np.array_equal(dec.taus, taus)
    assert np.array_equal(dec.segments, segments)


def test_distance_zero_for_equal_params():
    p = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    s = simulate_thinning(p, 50.0, seed=1)
    dec = renewal_decomposition(s, 1.0, 50.0)
    assert stochastic_distance_dT(p, p, s, dec) == 0.0


def test_distance_pure_rate_shift():
    # with g = 0 the integrand is xi^2 on every segment
    p1 = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    p2 = ModelParams(np.array([1.3]), np.array([[[0.5]]]), 1.0)
    s = simulate_thinning(p1, 200.0, seed=2)
    dec = renewal_decomposition(s, 1.0, 200.0)
    expect = np.sqrt(0.09 * dec.total_length / 200.0)
    got = stochastic_distance_dT(p1, p2, s, dec)
    assert got == pytest.approx(expect, rel=1e-10)


def test_distance_hand_computed_kernel_difference():
    # one renewal segment, one event inside it, piecewise-exact integral
    s = EventStream(np.array([0.5, 3.0, 3.5, 4.2, 8.0]),
                    np.array([1, 1, 1, 1, 1]), 0.0, 9.0)
    dec = renewal_decomposition(s, 1.0, 9.0)
    p1 = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    p2 = ModelParams(np.array([1.0]), np.array([[[0.3]]]), 1.0)
    # segments: [1.5, 3.5] and [5.2, 9.0]; tilde-lambda = 0.2 on
    # (3.0, 3.5] in the first and on (8.0, 9.0] in the second, else 0
    expect = np.sqrt(0.04 * 1.5 / 9.0)
    got = stochastic_distance_dT(p1, p2, s, dec)
    assert got == pytest.approx(expect, rel=1e-10)


def test_distance_grid_mismatch():
    p1 = ModelParams(np.array([1.0]), np.array([[[0.5]]]), 1.0)
    p2 = ModelParams(np.array([1.0]), np.array([[[0.5, 0.0]]]), 1.0)
    s = EventStream(np.array([0.5]), np.array([1]), 0.0, 2.0)
    dec = renewal_decomposition(s, 1.0, 2.0)
    with pytest.raises(ValueError):
        stochastic_distance_dT(p1, p2, s, dec)
