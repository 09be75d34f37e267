"""Intensity evaluation, conditional log-likelihood and LAN statistics.

Every window sum reads `window_design`, a `CountDesign`: the window
counts in canonical compressed-row form, held in numpy arrays, whose
products add each row's terms in stored order as scipy's CSR kernels do.
`LikelihoodCache` is the one evaluator of the intensity at the events and
of the compensator, for linear and ReLU kernels alike; `log_likelihood` and
`grad_loglik_nu` are one-shot calls on it. `w_statistic`, one evaluation
that gains nothing from the cache's distinct rows, reads the events'
intensities from a `window_design` of at most CHUNK events at a time and
shares the cache's compensator weights, which are summed over the same
chunks; both keep the bits of one pass over every event. `LanEstimator`
keeps per-batch second moments of the window counts, built one batch of
points at a time, from which each LAN Gram matrix is a contraction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import Direction, check_same_grid
from .model import ModelParams
from .simulate import simulate_thinning
from .stream import EventStream

# the most events `w_statistic` and `_compensator_weights` hold at a time
CHUNK = 1024


@dataclass(frozen=True)
class CountDesign:
    """A window-count matrix in canonical compressed-row form.

    keys[i] = row * n_col + column strictly increase and data[i] > 0 is
    the count stored there, so each row's entries sit together with
    their columns ascending, and no zero is stored. A product sums each
    row's terms one after another in that order, with `np.bincount`, as
    a CSR kernel does, so its values are those of scipy.sparse.
    """

    shape: tuple[int, int]
    keys: np.ndarray
    data: np.ndarray

    @functools.cached_property
    def rows(self) -> np.ndarray:
        return self.keys // self.shape[1]

    @functools.cached_property
    def cols(self) -> np.ndarray:
        return self.keys % self.shape[1]

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out.reshape(-1)[self.keys] = self.data
        return out

    def __matmul__(self, B: np.ndarray) -> np.ndarray:
        """The product with a dense vector or matrix B."""
        if B.ndim == 1:
            return np.bincount(self.rows, self.data * B[self.cols],
                               minlength=self.shape[0])
        out = np.empty((self.shape[0], B.shape[1]))
        for j in range(B.shape[1]):
            out[:, j] = self @ B[:, j]
        return out


def window_design(times: np.ndarray, marks: np.ndarray,
                  queries: np.ndarray, A: float, K: int, m: int,
                  skip: np.ndarray | None = None) -> CountDesign:
    """Window-count design matrix, shape (n_query, K*m).

    Entry [q, l*m + c] counts the events of mark l+1 with time in
    [queries[q] - A, queries[q]), i.e. age in (0, A], whose age falls in
    cell c = min(int(age / (A/m)), m - 1). times must be sorted. With
    skip, row q leaves out the events at time skip[q].
    """
    queries = np.asarray(queries, dtype=float)
    lo = np.searchsorted(times, queries - A, "left")
    n = np.searchsorted(times, queries, "left") - lo
    rows = np.repeat(np.arange(queries.size), n)
    idx = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - lo, n)
    if skip is not None:
        keep = times[idx] != skip[rows]
        rows, idx = rows[keep], idx[keep]
    cells = np.minimum(((queries[rows] - times[idx]) / (A / m)).astype(int),
                       m - 1)
    keys, counts = np.unique(rows * (K * m) + (marks[idx] - 1) * m + cells,
                             return_counts=True)
    return CountDesign((queries.size, K * m), keys, counts.astype(float))


def linear_intensity(stream: EventStream, queries: np.ndarray,
                     nu: np.ndarray, h: np.ndarray,
                     A: float) -> np.ndarray:
    """nu + sum over the window events of h[l, k, cell(age)] at each
    query, shape (n_query, K): the linear intensity, before any ReLU."""
    K, _, m = h.shape
    X = window_design(stream.times, stream.marks, queries, A, K, m)
    return nu + X @ _g_flat(h)


def sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted 1-d array, as np.unique gives
    them: each entry that differs from the one before. (A plain 1-d
    np.unique imports numpy.ma, 1.2 MB of memory, to check for a mask.)"""
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def sweep_pieces(times: np.ndarray, m: int, w: float,
                 bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of the pieces between consecutive
    breakpoints: the bounds plus every event-time + cell-edge offset
    (time + c*w, c = 0..m) strictly between the smallest and largest
    bound. The window design at cell width w is constant on each piece."""
    lo, hi = bounds.min(), bounds.max()
    offs = (times[:, None] + np.arange(m + 1)[None, :] * w).ravel()
    bp = sorted_distinct(
        np.sort(np.concatenate((bounds, offs[(offs > lo) & (offs < hi)]))))
    return 0.5 * (bp[:-1] + bp[1:]), np.diff(bp)


def log_likelihood(params: ModelParams, stream: EventStream,
                   horizon: float) -> float:
    """Conditional log-likelihood on (0, T]; -inf if an event has
    nonpositive intensity (MCMC rejection sentinel)."""
    cache = LikelihoodCache(stream, params.K, params.n_cells,
                            params.support_end, horizon)
    return cache.log_likelihood(params.nu, params.h)


def grad_loglik_nu(params: ModelParams, stream: EventStream,
                   horizon: float) -> np.ndarray:
    """Score with respect to nu: sum over mark-k events of 1/lambda^k,
    minus the occupation time of positive intensity (T in the linear
    model)."""
    cache = LikelihoodCache(stream, params.K, params.n_cells,
                            params.support_end, horizon)
    ex = cache.excite(params.h)
    grad = np.empty(params.K)
    for k, nu_k in enumerate(params.nu.tolist()):
        if nu_k + ex.low[k] <= 0.0:
            raise ValueError("nonpositive intensity at an event")
        lam = nu_k + ex.rows[k]
        occ = horizon if ex.pieces is None else (
            cache._pieces[1] @ (nu_k + ex.pieces[k] > 0.0))
        grad[k] = cache.counts[k] @ (1.0 / lam) - occ
    return grad


def w_statistic(direction: Direction, f0: ModelParams,
                stream: EventStream, horizon: float) -> float:
    """W_T: the normalized LAN score of a direction against the truth.

    The events' window designs are built CHUNK events at a time, each
    chunk's ratios written into one vector of every event's ratio, which
    is summed once, so no design of every event is held.
    """
    if f0.kind != "linear":
        raise ValueError("W_T requires the linear model")
    check_same_grid(direction, f0)
    times, marks = stream.times, stream.marks
    sel = (times > 0) & (times <= horizon)
    ev_times, ev_marks = times[sel], marks[sel] - 1
    # the perturbation enters the intensity linearly, whatever its sign
    g, h = _g_flat(direction.g), _g_flat(f0.h)
    ratios = np.empty(ev_times.size)
    for s in range(0, ev_times.size, CHUNK):
        X = window_design(times, marks, ev_times[s:s + CHUNK],
                          f0.support_end, f0.K, f0.n_cells)
        at = (np.arange(X.shape[0]), ev_marks[s:s + CHUNK])
        ratios[s:s + CHUNK] = ((direction.xi + X @ g)[at]
                               / (f0.nu + X @ h)[at])
    W = _compensator_weights(stream, f0.K, f0.n_cells, f0.support_end,
                             horizon)
    total = (np.sum(ratios) - direction.xi.sum() * horizon
             - W @ g.sum(axis=1))
    return float(total / np.sqrt(horizon))


def _compensator_weights(stream: EventStream, K: int, m: int, A: float,
                         horizon: float) -> np.ndarray:
    """W[l*m + c]: the total time cell c of a mark-(l+1) event overlaps
    [0, T], so that the linear compensator of mark k is
    nu_k T + W @ h_k, with h_k the column of `_g_flat(h)`.

    For m > 1 a mark's events go CHUNK at a time, and each chunk's
    overlap rows are folded into the running column sum by one axis-0
    reduce of (sum so far, chunk rows). numpy adds axis 0 of a 2-d array
    row after row, so the bits are those of one sum over every row. For
    m = 1 numpy sums the lone column pairwise, which chunks would regroup,
    so that case stays one pass: its arrays take 16 bytes an event.
    """
    times, marks = stream.times, stream.marks
    edges = np.arange(m + 1) * (A / m)
    live = (times + A > 0) & (times < horizon)
    W = np.zeros((K, m))
    for l in range(K):
        t = times[live & (marks == l + 1)]
        # at m = 1 one chunk of every event; a mark with no events still
        # needs a nonzero step
        step = CHUNK if m > 1 else max(t.size, 1)
        for s in range(0, t.size, step):
            rows = np.diff(np.clip(t[s:s + step, None] + edges, 0.0,
                                   horizon), axis=1)
            W[l] = (np.vstack((W[l], rows)) if s else rows).sum(axis=0)
    return W.ravel()


def _g_flat(g: np.ndarray) -> np.ndarray:
    """Flatten g[l, k, c] over (l, c) to shape (K*m, K)."""
    K, _, m = g.shape
    return g.transpose(0, 2, 1).reshape(K * m, K)


def stratified_points(horizon: float, n_points: int, n_batches: int,
                      rng: np.random.Generator) -> np.ndarray:
    """One uniform point per stratum of [0, horizon], with n_points
    rounded up to a multiple of n_batches so that consecutive points
    split into equal batches."""
    if n_points % n_batches:
        n_points += n_batches - n_points % n_batches
    return (np.arange(n_points) + rng.uniform(size=n_points)) * (
        horizon / n_points)


def batch_means(values_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the leading batch axis and its batch-means standard
    error std(ddof=1) / sqrt(B); the error is 0 with one batch."""
    mean = values_b.mean(axis=0)
    n_batches = values_b.shape[0]
    if n_batches < 2:
        return mean, np.zeros_like(mean)
    return mean, values_b.std(axis=0, ddof=1) / np.sqrt(n_batches)


def _lan_moments(X: CountDesign, inv: np.ndarray) -> np.ndarray:
    """M[k] = mean over the points p of z z^T inv[p, k], with z = (1,
    row p of X), shape (K, 1 + n_col, 1 + n_col): one batch's moments.

    Each point's nonzeros of z are paired, each term is (z_r inv[p, k])
    z_c, and an entry sums its terms in increasing point order.
    """
    n, n_col = X.shape
    nz = 1 + n_col
    rows, cols = np.divmod(X.keys, n_col)
    # z's nonzeros in point order: each point's constant, then its stored
    # counts
    keys = np.concatenate((np.arange(n) * nz, rows * nz + cols + 1))
    order = np.argsort(keys, kind="stable")
    p, c = np.divmod(keys[order], nz)
    v = np.concatenate((np.ones(n), X.data))[order]
    reps = np.bincount(p, minlength=n)[p]
    # pair entry i with every entry j of its point
    i = np.repeat(np.arange(p.size), reps)
    j = (np.arange(i.size) - np.repeat(np.cumsum(reps) - reps, reps)
         + np.repeat(np.searchsorted(p, p), reps))
    key, pi, vi, vj = c[i] * nz + c[j], p[i], v[i], v[j]
    return np.stack([np.bincount(key, vi * inv_k[pi] * vj,
                                 minlength=nz * nz).reshape(nz, nz)
                     for inv_k in inv.T]) / n


class LanEstimator:
    """Ergodic estimator of the LAN inner product at a fixed truth f0.

    One long path is simulated once and the integrand is sampled at
    stratified time points. At a point with z = (1, window counts), a
    direction's perturbation intensity of mark k is z @ (xi[k], g_k), g_k
    the column of `_g_flat(g)`, so each Gram entry is a quadratic form in
    the per-batch second moments M[b, k] = mean over batch b of
    z z^T / lambda0_k. They are built once; a Gram matrix for any
    direction list is then a contraction whose cost does not grow with
    the number of points, and is exactly symmetric.
    """

    def __init__(self, f0: ModelParams, t_sim: float = 2000.0,
                 n_points: int = 20_000, n_batches: int = 40,
                 seed: int | np.random.SeedSequence = 0):
        if f0.kind != "linear":
            raise ValueError("LAN estimator requires the linear model")
        self.f0 = f0
        self.n_batches = n_batches
        rng = np.random.default_rng(seed)
        stream = simulate_thinning(f0, t_sim, seed=rng.integers(2**63))
        pts = stratified_points(t_sim, n_points, n_batches, rng)
        per_batch, nz = pts.size // n_batches, 1 + f0.K * f0.n_cells
        self.lam0 = np.empty((pts.size, f0.K))
        # each mark's matrices column-major, stacked along axis 1: the
        # layout in which the BLAS products of `gram_batches` have always
        # read them, so their rounding stays the same
        self.moments = np.stack(
            [np.empty((n_batches * nz, nz), order="F").reshape(
                n_batches, nz, nz) for _ in range(f0.K)], axis=1)
        # one batch of points at a time: no design of every point is held
        for b in range(n_batches):
            sl = slice(b * per_batch, (b + 1) * per_batch)
            X = window_design(stream.times, stream.marks, pts[sl],
                              f0.support_end, f0.K, f0.n_cells)
            self.lam0[sl] = f0.nu[None, :] + X @ _g_flat(f0.h)
            self.moments[b] = _lan_moments(X, 1.0 / self.lam0[sl])

    def gram_batches(self, dirs: list[Direction]) -> np.ndarray:
        """Per-batch LAN Gram matrices, shape (n_batches, D, D)."""
        for d in dirs:
            check_same_grid(d, self.f0)
        # C[k] column a: direction a's (xi[k], g_k), shape (K, 1 + K*m, D)
        C = np.stack([np.vstack((d.xi, _g_flat(d.g))).T for d in dirs],
                     axis=2)
        Ct = C.transpose(0, 2, 1)
        gram_b = np.empty((self.n_batches, len(dirs), len(dirs)))
        # one batch at a time: nothing larger than the result is allocated
        for b, M_b in enumerate(self.moments):
            g = (Ct @ (M_b @ C)).sum(axis=0)
            # exactly symmetric, whatever order the products summed in
            gram_b[b] = 0.5 * (g + g.T)
        return gram_b

    def gram(self, dirs: list[Direction]) -> tuple[np.ndarray, np.ndarray]:
        """LAN Gram matrix of a direction list plus batch-means SEs."""
        return batch_means(self.gram_batches(dirs))

    def inner(self, d1: Direction, d2: Direction) -> tuple[float, float]:
        gram, se = self.gram([d1, d2])
        return float(gram[0, 1]), float(se[0, 1])


@dataclass(slots=True)
class KernelExcitation:
    """The nu-free part of the cached likelihood at one kernel h: each
    mark's excitation X_k @ h_k at the distinct rows and its minimum low
    (inf with no rows), compensator term W @ h_k and, for a ReLU kernel,
    excitation at the distinct pieces (else None)."""

    rows: list[np.ndarray]
    low: list[float]
    comp: list[float]
    pieces: list[np.ndarray] | None


def _distinct_rows(X: np.ndarray,
                   weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array in lexicographic order, as
    np.unique(X, axis=0) gives them, and the summed weights of each
    row's copies (with unit weights, its multiplicity); from one lexsort
    over the columns and a row-change mask."""
    order = np.lexsort(X.T[::-1])
    Xs = X[order]
    new = np.ones(len(Xs), dtype=bool)
    new[1:] = (Xs[1:] != Xs[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return Xs[starts], np.add.reduceat(weights[order], starts)


class LikelihoodCache:
    """The evaluator of the conditional likelihood (the intensity at the
    events and the compensator) on one stream and one grid resolution,
    for kernels of either sign.

    For each mark k, a row of the count matrix counts the window events
    of each mark l in each cell c (column l*m+c) at one mark-k event.
    Under posterior contraction few distinct rows occur, so X[k] keeps
    the distinct rows and counts[k] their multiplicities; the linear
    compensator reduces to fixed weights W. loglik(nu, h) is then a
    handful of matrix products whose size hardly grows with the horizon.

    A kernel with a negative cell has the ReLU compensator, the integral
    of max(nu_k + X(t) @ h_k, 0): the linear one minus the integral of
    min(nu_k + X(t) @ h_k, 0). X(t) is constant on the pieces of [0, T]
    between event-time + cell-edge breakpoints, so that integral is a
    sum over their distinct rows, weighted by summed widths, built on
    first use; nothing else is kept between evaluations. A caller that
    evaluates one kernel at many rates keeps its `excite` result.
    """

    def __init__(self, stream: EventStream, K: int, n_cells: int,
                 support_end: float, horizon: float):
        self.K, self.m = K, n_cells
        self.A, self.T = support_end, horizon
        self.stream = stream
        times, marks = stream.times, stream.marks
        sel = (times > 0) & (times <= horizon)
        self.X: list[np.ndarray] = []
        self.counts: list[np.ndarray] = []
        # one mark's event rows at a time: no dense row of every event
        for mark in range(1, K + 1):
            Xk = window_design(times, marks, times[sel & (marks == mark)],
                               support_end, K, n_cells).toarray()
            rows, counts = _distinct_rows(Xk, np.ones(len(Xk)))
            self.X.append(rows)
            self.counts.append(counts)
        self.W = _compensator_weights(stream, K, n_cells, support_end,
                                      horizon)

    @functools.cached_property
    def _pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct design rows of the pieces of [0, T] and the
        summed widths of each row's pieces."""
        times = self.stream.times
        mids, widths = sweep_pieces(times, self.m, self.A / self.m,
                                    np.array([0.0, self.T]))
        P = window_design(times, self.stream.marks, mids, self.A, self.K,
                          self.m).toarray()
        return _distinct_rows(P, widths)

    def excite(self, h: np.ndarray,
               linear: bool | None = None) -> KernelExcitation:
        """The nu-free part of the likelihood at kernel cell values h.

        linear says whether nu + X @ h is the intensity itself, as it is
        for a kernel with no negative cell (read from h when not given);
        otherwise the excitation at the pieces is added for the ReLU
        compensator.
        """
        # each mark's column of `_g_flat(h)`; with one mark, h's own cells
        cols = [h.reshape(-1)] if self.K == 1 else list(_g_flat(h).T)
        if linear is None:
            linear = bool(h.min() >= 0.0)
        rows, low, comp = [], [], []
        for X, g in zip(self.X, cols):
            r = X.dot(g)
            rows.append(r)
            low.append(float(np.minimum.reduce(r)) if r.size else math.inf)
            comp.append(float(self.W.dot(g)))
        pieces = None
        if not linear:
            pieces = [self._pieces[0].dot(g) for g in cols]
        return KernelExcitation(rows, low, comp, pieces)

    def log_likelihood(self, nu: np.ndarray,
                       h: np.ndarray | KernelExcitation) -> float:
        """Log-likelihood for parameters on the cached grid, with the
        ReLU compensator for a kernel with a negative cell.

        h is the kernel's cell values or, to evaluate one kernel at many
        rates, its `excite` result. An event's intensity nu_k + r is
        nonpositive for some row r exactly when nu_k + low[k] is:
        correctly rounded addition is monotone, so the minimum over the
        rows of fl(nu_k + r) is fl(nu_k + min r), and the reduction runs
        once per excitation rather than once per evaluation.
        """
        ex = h if isinstance(h, KernelExcitation) else self.excite(h)
        total = 0.0
        for k in range(self.K):
            nu_k = float(nu[k])
            if nu_k + ex.low[k] <= 0.0:
                return -np.inf
            term = float(self.counts[k].dot(np.log(np.add(nu_k,
                                                          ex.rows[k]))))
            if ex.pieces is not None:
                term += float(self._pieces[1].dot(np.minimum(
                    np.add(nu_k, ex.pieces[k]), 0.0)))
            total += term
            total -= float(nu_k * self.T + ex.comp[k])
        return total
