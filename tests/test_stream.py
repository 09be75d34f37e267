import os

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hawkes_bvm.stream import EventStream, atomic_write


def test_sorting_and_marks():
    s = EventStream(np.array([0.5, 0.1, 0.3]), np.array([2, 1, 1]),
                    0.0, 1.0)
    assert np.allclose(s.times, [0.1, 0.3, 0.5])
    assert list(s.marks) == [1, 1, 2]
    assert np.allclose(s.times[s.marks == 1], [0.1, 0.3])


def test_tie_breaking_jitter():
    s = EventStream(np.array([0.2, 0.2, 0.2]), np.array([1, 2, 1]),
                    0.0, 1.0)
    assert s.n_jittered == 2
    assert np.all(np.diff(s.times) > 0)
    assert abs(s.times[2] - 0.2) < 1e-9


def test_out_of_window_rejected():
    with pytest.raises(ValueError):
        EventStream(np.array([1.5]), np.array([1]), 0.0, 1.0)
    with pytest.raises(ValueError):
        EventStream(np.array([0.5]), np.array([0]), 0.0, 1.0)


@pytest.mark.parametrize("times", [[0.5, np.nan], [np.nan, 0.5],
                                   [0.5, np.inf], [-np.inf, 0.5]])
def test_non_finite_event_times_rejected(times):
    # NaN sorts last, where the window check `> horizon` is False for it
    with pytest.raises(ValueError, match="event times must be finite"):
        EventStream(np.array(times), np.ones(len(times), dtype=int),
                    0.0, 1.0)
    text = "time,mark\n" + "".join(f"{t!r},1\n" for t in times)
    with pytest.raises(ValueError, match="event times must be finite"):
        EventStream.from_csv(text, 0.0, 1.0)


def test_unsorted_times_outside_the_window_rejected():
    # the window is checked on the sorted times, not the given first/last
    for times in ([0.5, -1.0, 0.3], [0.5, 2.0, 0.3]):
        with pytest.raises(ValueError, match="outside"):
            EventStream(np.array(times), np.ones(3, dtype=int), 0.0, 1.0)


def test_n_jittered_counts_every_tied_time():
    # two tie groups, unsorted: 2 + 1 times move
    s = EventStream(np.array([0.5, 0.2, 0.2, 0.5, 0.2, 0.7]),
                    np.array([1, 2, 1, 1, 2, 1]), 0.0, 1.0)
    assert s.n_jittered == 3
    assert np.all(np.diff(s.times) > 0)


@pytest.mark.parametrize("window_start, horizon", [
    (2.0, 1.0), (-1.0, np.nan), (np.nan, 1.0), (-np.inf, 1.0),
    (-1.0, np.inf)])
def test_window_must_be_finite_and_ordered(window_start, horizon):
    with pytest.raises(ValueError, match="window_start"):
        EventStream(np.array([]), np.array([]), window_start, horizon)
    with pytest.raises(ValueError, match="window_start"):
        EventStream.from_csv("time,mark\n", window_start, horizon)


def test_csv_round_trip():
    s = EventStream(np.array([-0.25, 0.1234567890123, 0.9]),
                    np.array([1, 2, 1]), -1.0, 1.0)
    t = EventStream.from_csv(s.to_csv(), -1.0, 1.0)
    assert np.array_equal(t.times, s.times)
    assert np.array_equal(t.marks, s.marks)


def test_ties_at_the_horizon_stay_inside():
    s = EventStream(np.array([1.0, 1.0]), np.array([1, 2]), 0.0, 1.0)
    assert s.n_jittered == 1
    assert s.times[-1] <= 1.0
    assert np.all(np.diff(s.times) > 0)
    assert list(s.marks) == [1, 2]
    t = EventStream.from_csv(s.to_csv(), 0.0, 1.0)
    assert np.array_equal(t.times, s.times)
    assert np.array_equal(t.marks, s.marks)


def test_ties_that_cannot_fit_are_rejected():
    with pytest.raises(ValueError):
        EventStream(np.array([1.0, 1.0]), np.array([1, 1]), 1.0, 1.0)


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)),
                max_size=30))
@example([(-4, 1), (-4, 2), (-4, 1), (4, 2), (4, 1), (4, 3)])
@example([(4, 1), (4, 2), (3, 1)])
def test_csv_round_trip_with_ties(events):
    # quarter-unit times on the window [-1, 1], ties at both ends allowed
    times = np.array([q / 4.0 for q, _ in events], dtype=float)
    marks = np.array([k for _, k in events], dtype=int)
    s = EventStream(times, marks, -1.0, 1.0)
    assert np.all(np.diff(s.times) > 0)
    if len(s):
        assert -1.0 <= s.times[0] and s.times[-1] <= 1.0
    t = EventStream.from_csv(s.to_csv(), -1.0, 1.0)
    assert np.array_equal(t.times, s.times)
    assert np.array_equal(t.marks, s.marks)


def test_csv_requires_header():
    with pytest.raises(ValueError):
        EventStream.from_csv("0.1,1\n", 0.0, 1.0)


def test_empty_stream():
    s = EventStream(np.array([]), np.array([]), 0.0, 1.0)
    assert len(s) == 0


@pytest.mark.parametrize("data, raw", [
    ("time,mark\n0.5,1\n", b"time,mark\n0.5,1\n"),
    (b"PK\x03\x04\x00\xff", b"PK\x03\x04\x00\xff")])
def test_atomic_write_writes_text_or_bytes_exactly(tmp_path, data, raw):
    path = tmp_path / "out"
    atomic_write(str(path), data)
    assert path.read_bytes() == raw
    assert os.listdir(tmp_path) == ["out"]
    # a failed write removes its temporary file and keeps the old one
    with pytest.raises(TypeError):
        atomic_write(str(path), 3)
    assert os.listdir(tmp_path) == ["out"]
    assert path.read_bytes() == raw


def test_atomic_write_streams_from_a_writer_function(tmp_path):
    path = tmp_path / "out"
    atomic_write(str(path), lambda fh: fh.write(b"PK\x03\x04"))
    assert path.read_bytes() == b"PK\x03\x04"
    assert os.listdir(tmp_path) == ["out"]

    def fail(fh):
        fh.write(b"partial")
        raise OSError("disk full")

    # a writer that fails leaves the old file and no temporary file
    with pytest.raises(OSError, match="disk full"):
        atomic_write(str(path), fail)
    assert os.listdir(tmp_path) == ["out"]
    assert path.read_bytes() == b"PK\x03\x04"
