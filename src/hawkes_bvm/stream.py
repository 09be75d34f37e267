"""Event streams: ordered marked event times on a window [-A, T]."""

from __future__ import annotations

import io
import math
import os
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

_JITTER = 1e-13


def atomic_write(path: str,
                 data: str | bytes | Callable[[BinaryIO], object]) -> None:
    """Write data, text or bytes, to path through a temporary file in
    the same directory, so a reader never sees a partial file. A
    callable data writes the bytes itself into the open binary file, so
    they need not all be held in memory."""
    tmp = tempfile.NamedTemporaryFile(
        "w" if isinstance(data, str) else "wb",
        dir=os.path.dirname(os.path.abspath(path)), delete=False)
    try:
        if callable(data):
            data(tmp)
        else:
            tmp.write(data)
        tmp.close()
        os.replace(tmp.name, path)
    except BaseException:
        tmp.close()
        os.unlink(tmp.name)
        raise


@dataclass(frozen=True)
class EventStream:
    """Marked event times on [window_start, horizon], strictly increasing.

    The window's ends and every event time are finite, window_start <=
    horizon and the times, in any order, lie in the window; a stream
    read from a file is checked like any other.

    Marks are 1-based (1..K). Exact time ties are broken by a recorded
    sub-nanosecond jitter so sweeps can assume strict ordering; ties at
    the horizon are jittered back below it, so the times stay in the
    window and the CSV round trip holds.
    """

    times: np.ndarray
    marks: np.ndarray
    window_start: float
    horizon: float
    n_jittered: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.window_start)
                and math.isfinite(self.horizon)):
            raise ValueError("window_start and horizon must be finite")
        if self.window_start > self.horizon:
            raise ValueError("window_start must not exceed horizon")
        times = np.asarray(self.times, dtype=float)
        marks = np.asarray(self.marks, dtype=int)
        if times.shape != marks.shape or times.ndim != 1:
            raise ValueError("times and marks must be 1-d of equal length")
        if not np.all(np.isfinite(times)):
            raise ValueError("event times must be finite")
        order = np.argsort(times, kind="stable")
        times = times[order]
        marks = marks[order]
        if times.size and (times[0] < self.window_start
                           or times[-1] > self.horizon):
            raise ValueError("event times outside [window_start, horizon]")
        if np.any(marks < 1):
            raise ValueError("marks must be 1-based positive integers")
        n_jittered = 0
        if times.size > 1:
            # sorted, a tie is a zero step; each tied time is jittered
            dup = np.flatnonzero(np.diff(times) <= 0.0)
            n_jittered = int(dup.size)
            while dup.size:
                times[dup + 1] = np.nextafter(times[dup] + _JITTER, np.inf)
                dup = np.flatnonzero(np.diff(times) <= 0.0)
            if times[-1] > self.horizon:
                # ties at the horizon: move the jittered run back below it
                times[-1] = self.horizon
                i = times.size - 2
                while i >= 0 and times[i] >= times[i + 1]:
                    times[i] = np.nextafter(times[i + 1] - _JITTER, -np.inf)
                    i -= 1
                if times[0] < self.window_start:
                    raise ValueError("tied event times do not fit in "
                                     "[window_start, horizon]")
        times.flags.writeable = False
        marks.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "n_jittered", self.n_jittered + n_jittered)

    def __len__(self) -> int:
        return self.times.size

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
