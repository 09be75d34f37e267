"""Path statistics: renewal times, the restricted window, sliding-window
counts and the stochastic distance d_T."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .stream import EventStream


@dataclass(frozen=True)
class RenewalDecomposition:
    """Renewal times tau_n and the restricted window A_2(T).

    Each segment is (tau_n, chi_n) with chi_n = min(second event after
    tau_n, tau_{n+1}); the last renewal time has no successor and carries
    no segment.
    """

    taus: np.ndarray
    segments: np.ndarray  # shape (n_seg, 2)
    support_end: float
    horizon: float

    @property
    def total_length(self) -> float:
        if self.segments.size == 0:
            return 0.0
        return float(np.sum(self.segments[:, 1] - self.segments[:, 0]))


def renewal_decomposition(stream: EventStream, support_end: float,
                          horizon: float) -> RenewalDecomposition:
    """Scan for renewal times: tau = t* + A for every event t* followed by
    a gap of at least A (no event in ]t*, t*+A]), with tau <= horizon."""
    A = support_end
    times = stream.times
    taus = []
    for i, t in enumerate(times):
        nxt = times[i + 1] if i + 1 < times.size else np.inf
        tau = t + A
        if nxt > tau and tau <= horizon:
            taus.append(tau)
    taus = np.array(taus)
    segments = []
    for n in range(taus.size - 1):
        tau, tau_next = taus[n], taus[n + 1]
        after = times[np.searchsorted(times, tau, "right"):]
        chi = after[1] if after.size >= 2 else np.inf
        chi = min(chi, tau_next)
        segments.append((tau, chi))
    segments = (np.array(segments).reshape(-1, 2)
                if segments else np.empty((0, 2)))
    return RenewalDecomposition(taus, segments, A, horizon)


def max_window_count(stream: EventStream, support_end: float,
                     horizon: float, mark: int | None = None) -> int:
    """max over t in [0, horizon] of N([t-A, t[), optionally per mark.

    The maximum over a sliding half-open window is attained just after an
    event enters, so a sweep over event times suffices.
    """
    A = support_end
    times = stream.times if mark is None else stream.mark_times(mark)
    best = 0
    for t in times:
        if t > horizon:
            break
        # window ]t, t+A] ending just after t: evaluate N([u-A, u[) at u
        # infinitesimally after t, i.e. events in ]t-A, t]
        lo = np.searchsorted(times, t - A, "right")
        hi = np.searchsorted(times, t, "right")
        best = max(best, hi - lo)
    return int(best)


def stochastic_distance_dT(f: ModelParams, f_alt: ModelParams,
                           stream: EventStream,
                           decomposition: RenewalDecomposition) -> float:
    """d_T(f, f') where d_T^2 = (1/T) sum_k sum_n int_{tau_n}^{chi_n}
    lambda-tilde_t^k(f_k - f'_k)^2 dt, exact on the grid."""
    if (f.K != f_alt.K or f.n_cells != f_alt.n_cells
            or f.support_end != f_alt.support_end):
        raise ValueError("mismatched grids")
    A, m, w, K = f.support_end, f.n_cells, f.cell_width, f.K
    xi = f.nu - f_alt.nu
    g = f.h - f_alt.h
    T = decomposition.horizon
    times, marks = stream.times, stream.marks
    total = 0.0
    for seg_lo, seg_hi in decomposition.segments:
        # breakpoints: segment ends plus every event-time + cell-edge
        # offset falling inside the segment
        lo_idx = np.searchsorted(times, seg_lo - A, "left")
        hi_idx = np.searchsorted(times, seg_hi, "left")
        ev_t = times[lo_idx:hi_idx]
        bps = [np.array([seg_lo, seg_hi])]
        if ev_t.size:
            offs = ev_t[:, None] + np.arange(m + 1)[None, :] * w
            offs = offs.ravel()
            bps.append(offs[(offs > seg_lo) & (offs < seg_hi)])
        bp = np.unique(np.concatenate(bps))
        mids = 0.5 * (bp[:-1] + bp[1:])
        widths = np.diff(bp)
        # lambda-tilde at the midpoints: xi_k + sum over window events of
        # g[l, k, cell(age)]
        lam = np.tile(xi, (mids.size, 1))
        for t_ev, mk in zip(times[lo_idx:hi_idx], marks[lo_idx:hi_idx]):
            ages = mids - t_ev
            mask = (ages > 0) & (ages <= A)
            if mask.any():
                cells = np.minimum((ages[mask] / w).astype(int), m - 1)
                lam[mask] += g[mk - 1, :, cells]
        total += float(np.sum(widths[:, None] * lam ** 2))
    return float(np.sqrt(total / T))
