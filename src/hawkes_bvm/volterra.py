"""Palm first-moment density via the two-sided Volterra equation.

Upsilon solves Upsilon(t) = h^T(t) D(mu) + (h^T * Upsilon)(t) for t > 0,
extended to negative arguments by Upsilon(-t) = Upsilon(t)^T; the matrix
convolution therefore couples both sides and is solved by Picard
iteration (geometric rate r(rho) < 1). The Palm density is then
m_{l,k}(t) = mu_k + Upsilon_{l,k}(t) / mu_l.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .likelihood import batch_means
from .model import ModelParams, stationary_rates
from .stream import EventStream


def _next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, the length that
    `scipy.fft.next_fast_len(n, real=True)` pads a real transform to."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5  # 3^b 5^c, times the least power of two reaching n
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best


def _fftconvolve0(b: np.ndarray,
                  n_a: int) -> Callable[[np.ndarray], np.ndarray]:
    """The full linear convolution with the fixed real kernel b along
    axis 0, as a function of a real a with n_a rows, the other axes
    broadcast. b's spectrum is computed once; each call takes the steps
    of `scipy.signal.fftconvolve(a, b, axes=0)` (real FFTs padded to the
    next fast length), so the values are the same bit for bit without
    scipy: numpy's FFTs (numpy >= 2) are the same pocketfft code as
    scipy.fft's."""
    n = n_a + b.shape[0] - 1
    nf = [_next_fast_len(n)]
    b_spec = np.fft.rfftn(b, nf, axes=[0])

    def convolve(a: np.ndarray) -> np.ndarray:
        spec = np.fft.rfftn(a, nf, axes=[0]) * b_spec
        return np.fft.irfftn(spec, nf, axes=[0])[:n]
    return convolve


def _source(head: np.ndarray, N: int) -> np.ndarray:
    """The source term h^T(t_j) D(mu) on the nodes 0..N: `head` on the
    first nodes, zeros beyond. Each Picard step starts from a new one, so
    no copy of it is held beside U."""
    src = np.zeros((N + 1,) + head.shape[1:])
    src[:head.shape[0]] = head[:N + 1]
    return src


def _extended(U: np.ndarray, a: int, k: int) -> np.ndarray:
    """Column (a, k) of Upsilon on the nodes -N..N, shape (2N+1, 1), from
    U on the nodes 0..N and Upsilon(-t) = Upsilon(t)^T."""
    return np.concatenate((U[:0:-1, k, a], U[:, a, k]))[:, None]


@dataclass(frozen=True)
class MomentDensity:
    """Upsilon on the node grid {0, delta, ..., t_max} plus the rates.

    converged: the Picard iteration met its tolerance on the last
    horizon; tail_capped: the horizon stopped at the 400·A cap with the
    tail mass still above its tolerance.
    """

    node_times: np.ndarray
    upsilon: np.ndarray  # (n_nodes, K, K)
    mu: np.ndarray
    support_end: float
    converged: bool
    tail_capped: bool

    @property
    def delta(self) -> float:
        return float(self.node_times[1] - self.node_times[0])

    def upsilon_at(self, t) -> np.ndarray:
        """Linear interpolation on the nodes, transposed for t < 0 and
        zero beyond the tail cut."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        absu = np.abs(t)
        x = absu / self.delta
        j = np.minimum(x.astype(int), self.node_times.size - 2)
        frac = np.clip(x - j, 0.0, 1.0)
        vals = ((1 - frac)[:, None, None] * self.upsilon[j]
                + frac[:, None, None] * self.upsilon[j + 1])
        vals[absu > self.node_times[-1]] = 0.0
        neg = t < 0
        vals[neg] = np.swapaxes(vals[neg], -1, -2)
        return vals[0] if scalar else vals

    def m_at(self, l: int, k: int, t) -> np.ndarray:
        """Palm density of mark-k points at lag t from a mark-l anchor;
        marks are 1-based."""
        ups = self.upsilon_at(t)
        return self.mu[k - 1] + ups[..., l - 1, k - 1] / self.mu[l - 1]


def solve_moment_density(f0: ModelParams, n_grid: int = 512,
                         tol: float = 1e-12,
                         max_iter: int = 10_000) -> MomentDensity:
    """Solve the two-sided Volterra equation on a uniform node grid of
    width A/n_grid (n_grid a multiple of the h-grid), with the horizon
    extended until the relative tail mass drops below 1e-6 or the
    horizon reaches 400·A. The result's `converged` and `tail_capped`
    flags say whether the last Picard iteration met tol within max_iter
    and whether the cap, not the tail, ended the extension."""
    if f0.kind != "linear":
        raise ValueError("moment density requires the linear model")
    if n_grid < 1:
        raise ValueError("n_grid must be >= 1")
    K, m, A = f0.K, f0.n_cells, f0.support_end
    if n_grid % m:
        raise ValueError("n_grid must be a multiple of the h-grid size")
    p = n_grid // m  # nodes per h-cell
    delta = A / n_grid
    mu = stationary_rates(f0)
    h = f0.h  # (l, k, c)

    # the h-cell of each s-node 0..n_grid
    cells = np.minimum(np.arange(n_grid + 1) // p, m - 1)
    # trapezoid weights of the piecewise-constant kernel at the s-nodes:
    # a cell edge averages the two adjacent cells (zero outside [0, A])
    hc = h.transpose(2, 0, 1)  # (c, l, k)
    wts = delta * hc[cells]
    half = np.pad(0.5 * delta * hc, ((1, 1), (0, 0), (0, 0)))
    wts[::p] = half[:-1] + half[1:]
    # first (source) term at the nodes 0..n_grid: h^T(t_j) D(mu)
    head = h.transpose(2, 1, 0)[cells] * mu[None, None, :]

    t_max = 10.0 * A
    while True:
        N = int(round(t_max / delta))
        U = _source(head, N)
        # one kernel per source mark a: wts[:, a, l] for every l
        convolve = [_fftconvolve0(wts[:, a], 2 * N + 1) for a in range(K)]
        converged = False
        for _ in range(max_iter):
            # src + conv[t, l, k] = sum_a (wts[:, a, l] * E[:, a, k])(t),
            # src the source term and E[:, a, k] column (a, k) extended to
            # [-t_max, t_max]; one column k and one source a at a time,
            # each extended as it is convolved, added in order of a
            U_new = _source(head, N)
            for k in range(K):
                # a copy, which frees the rest of the padded convolution
                col = convolve[0](_extended(U, 0, k))[N:2 * N + 1].copy()
                for a in range(1, K):
                    col += convolve[a](_extended(U, a, k))[N:2 * N + 1]
                U_new[:, :, k] += col
            # the sup-change, in U's own memory
            change = float(np.max(np.abs(np.subtract(U_new, U, out=U),
                                         out=U)))
            U = U_new
            if change <= tol * max(1.0, float(np.max(np.abs(U)))):
                converged = True
                break
        tail = float(np.max(np.abs(U[-p:])))
        peak = float(np.max(np.abs(U)))
        tail_capped = not (peak == 0.0 or tail <= 1e-6 * peak)
        if not tail_capped or t_max >= 400.0 * A:
            break
        t_max *= 2.0
    nodes = np.arange(N + 1) * delta
    return MomentDensity(nodes, U, mu, A, converged, tail_capped)


def empirical_pair_density(stream: EventStream, K: int, lag_max: float,
                           n_bins: int, t_lo: float, t_hi: float,
                           n_batches: int = 20
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram estimate of the Palm density m_{l,k} on (0, lag_max].

    Anchors are events in [t_lo, t_hi]; for each (l, k) the count of
    mark-k events at positive lag in each bin is averaged over mark-l
    anchors and divided by the bin width. Returns (bin edges, m_hat of
    shape (K, K, n_bins), batch-means SE of the same shape).
    """
    edges = np.linspace(0.0, lag_max, n_bins + 1)
    width = edges[1] - edges[0]
    m_hat = np.zeros((K, K, n_bins))
    se = np.zeros((K, K, n_bins))
    keep = stream.marks <= K  # events of other marks are not counted
    times, marks = stream.times[keep], stream.marks[keep]
    for l in range(K):
        anchors = times[(marks == l + 1) & (times >= t_lo)
                        & (times <= t_hi)]
        n = anchors.size
        if n < 2 * n_batches:
            raise ValueError("too few anchors for batching")
        # every event in ]t0, t0 + lag_max] after each anchor t0
        lo = np.searchsorted(times, anchors, "right")
        cnt = np.searchsorted(times, anchors + lag_max, "right") - lo
        anchor = np.repeat(np.arange(n), cnt)
        # event index: the anchor's first event plus the rank after it
        ev = np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
        idx = np.minimum(((times[ev] - anchors[anchor]) / width).astype(int),
                         n_bins - 1)
        per_anchor = np.bincount(
            (anchor * K + marks[ev] - 1) * n_bins + idx,
            minlength=n * K * n_bins).reshape(n, K, n_bins) / width
        cut = n - n % n_batches
        batched = per_anchor[:cut].reshape(n_batches, -1, K, n_bins)
        m_hat[l] = per_anchor.mean(axis=0)
        se[l] = batch_means(batched.mean(axis=1))[1]
    return edges, m_hat, se
