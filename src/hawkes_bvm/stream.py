"""Event streams: ordered marked event times on a window [-A, T]."""

from __future__ import annotations

import io
import os
import tempfile
from dataclasses import dataclass

import numpy as np

_JITTER = 1e-13


def atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same
    directory, so a reader never sees a partial file."""
    tmp = tempfile.NamedTemporaryFile(
        "w", dir=os.path.dirname(os.path.abspath(path)), delete=False)
    try:
        tmp.write(text)
        tmp.close()
        os.replace(tmp.name, path)
    except BaseException:
        os.unlink(tmp.name)
        raise


@dataclass(frozen=True)
class EventStream:
    """Marked event times on [window_start, horizon], strictly increasing.

    Marks are 1-based (1..K). Exact time ties are broken by a recorded
    sub-nanosecond jitter so sweeps can assume strict ordering.
    """

    times: np.ndarray
    marks: np.ndarray
    window_start: float
    horizon: float
    n_jittered: int = 0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        marks = np.asarray(self.marks, dtype=int)
        if times.shape != marks.shape or times.ndim != 1:
            raise ValueError("times and marks must be 1-d of equal length")
        if times.size and (times[0] < self.window_start
                           or times[-1] > self.horizon):
            raise ValueError("event times outside [window_start, horizon]")
        if np.any(marks < 1):
            raise ValueError("marks must be 1-based positive integers")
        order = np.argsort(times, kind="stable")
        times = times[order]
        marks = marks[order]
        n_jittered = 0
        if times.size > 1:
            n_jittered = int(times.size - np.unique(times).size)
            dup = np.flatnonzero(np.diff(times) <= 0.0)
            while dup.size:
                times[dup + 1] = np.nextafter(times[dup] + _JITTER, np.inf)
                dup = np.flatnonzero(np.diff(times) <= 0.0)
        times.flags.writeable = False
        marks.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "n_jittered", self.n_jittered + n_jittered)

    def __len__(self) -> int:
        return self.times.size

    @property
    def K(self) -> int:
        return int(self.marks.max()) if len(self) else 1

    def mark_times(self, k: int) -> np.ndarray:
        return self.times[self.marks == k]

    def count_in(self, lo: float, hi: float,
                 closed: str = "left") -> int:
        """Number of events in an interval; closed='left' means [lo, hi[,
        'right' means ]lo, hi]."""
        if closed == "left":
            return int(np.searchsorted(self.times, hi, "left")
                       - np.searchsorted(self.times, lo, "left"))
        if closed == "right":
            return int(np.searchsorted(self.times, hi, "right")
                       - np.searchsorted(self.times, lo, "right"))
        raise ValueError("closed must be 'left' or 'right'")

    def restrict(self, lo: float, hi: float) -> "EventStream":
        sel = (self.times >= lo) & (self.times <= hi)
        return EventStream(self.times[sel], self.marks[sel], lo, hi)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("time,mark\n")
        for t, m in zip(self.times, self.marks):
            buf.write(f"{float(t)!r},{m}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, window_start: float,
                 horizon: float) -> "EventStream":
        lines = text.strip().splitlines()
        if not lines or lines[0].strip().lower() != "time,mark":
            raise ValueError("expected header 'time,mark'")
        times, marks = [], []
        for line in lines[1:]:
            t, m = line.split(",")
            times.append(float(t))
            marks.append(int(m))
        return cls(np.array(times), np.array(marks), window_start, horizon)
