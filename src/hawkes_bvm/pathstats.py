"""Path statistics: renewal times, the restricted window and the
stochastic distance d_T."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import check_same_grid
from .likelihood import linear_intensity, sweep_pieces
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
    tau = times + A
    gap = tau <= horizon
    gap[:-1] &= times[1:] > tau[:-1]
    taus = tau[gap]
    # chi: the second event after each renewal time but the last
    second = np.searchsorted(times, taus[:-1], "right") + 1
    chi = np.full(second.size, np.inf)
    has = second < times.size
    chi[has] = times[second[has]]
    segments = np.column_stack((taus[:-1], np.minimum(chi, taus[1:])))
    return RenewalDecomposition(taus, segments, A, horizon)


def stochastic_distance_dT(f: ModelParams, f_alt: ModelParams,
                           stream: EventStream,
                           decomposition: RenewalDecomposition) -> float:
    """d_T(f, f') where d_T^2 = (1/T) sum_k sum_n int_{tau_n}^{chi_n}
    lambda-tilde_t^k(f_k - f'_k)^2 dt, exact on the grid."""
    check_same_grid(f, f_alt)
    if decomposition.segments.size == 0:
        return 0.0
    T = decomposition.horizon
    seg_lo, seg_hi = decomposition.segments.T
    # lambda-tilde is constant on each piece between the segment ends and
    # the event-time + cell-edge offsets; a piece lies in a segment when
    # its midpoint does
    mids, widths = sweep_pieces(stream.times, f.n_cells, f.cell_width,
                                decomposition.segments.ravel())
    seg = np.searchsorted(seg_lo, mids, "right") - 1
    inside = (seg >= 0) & (mids < seg_hi[np.maximum(seg, 0)])
    mids, widths = mids[inside], widths[inside]
    # lambda-tilde at the midpoints: xi_k + sum over window events of
    # g[l, k, cell(age)]
    lam = linear_intensity(stream, mids, f.nu - f_alt.nu, f.h - f_alt.h,
                           f.support_end)
    return float(np.sqrt(np.sum(widths[:, None] * lam ** 2) / T))
