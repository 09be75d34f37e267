"""Intensity evaluation, conditional log-likelihood and LAN statistics."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .grids import Direction
from .model import ModelParams
from .simulate import simulate_thinning
from .stream import EventStream


def _count_design(times: np.ndarray, marks: np.ndarray,
                  queries: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  K: int, m: int, w: float) -> sparse.csr_matrix:
    """Row q counts the events lo[q]..hi[q]-1 by mark l and age cell c
    (column l*m + c), where the age is queries[q] - time and the cell is
    min(int(age / w), m - 1)."""
    n = hi - lo
    indptr = np.concatenate(([0], np.cumsum(n)))
    rows = np.repeat(np.arange(queries.size), n)
    idx = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - lo, n)
    cells = np.minimum(((queries[rows] - times[idx]) / w).astype(int),
                       m - 1)
    X = sparse.csr_matrix(
        (np.ones(idx.size), (marks[idx] - 1) * m + cells, indptr),
        shape=(queries.size, K * m))
    # one stored count per (row, column): fewer entries for every product
    X.sum_duplicates()
    return X


def window_design(times: np.ndarray, marks: np.ndarray,
                  queries: np.ndarray, A: float, K: int,
                  m: int) -> sparse.csr_matrix:
    """Window-count design matrix, shape (n_query, K*m).

    Entry [q, l*m + c] counts the events of mark l+1 with time in
    [queries[q] - A, queries[q]), i.e. age in (0, A], whose age falls in
    cell c = min(int(age / (A/m)), m - 1). times must be sorted. The
    intensity at the queries is then nu + X @ _g_flat(h).
    """
    queries = np.asarray(queries, dtype=float)
    lo = np.searchsorted(times, queries - A, "left")
    hi = np.searchsorted(times, queries, "left")
    return _count_design(times, marks, queries, lo, hi, K, m, A / m)


def _design(params: ModelParams, stream: EventStream,
            queries: np.ndarray) -> sparse.csr_matrix:
    """The window design of a stream on the grid of params."""
    return window_design(stream.times, stream.marks, queries,
                         params.support_end, params.K, params.n_cells)


def intensity_at(params: ModelParams, stream: EventStream, t: float,
                 k: int | None = None):
    """Conditional intensity at time t; all marks, or one 1-based mark."""
    if t < stream.window_start + params.support_end or t > stream.horizon:
        raise ValueError("t outside the covered window")
    X = _design(params, stream, np.array([t]))
    lam = (params.nu + X @ _g_flat(params.h))[0]
    if params.kind == "relu":
        lam = np.maximum(lam, 0.0)
    return lam if k is None else float(lam[k - 1])


def _events(stream: EventStream, horizon: float) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """Times and 0-based marks of the events in (0, T]."""
    sel = (stream.times > 0) & (stream.times <= horizon)
    return stream.times[sel], stream.marks[sel] - 1


def _compensator_weights(params: ModelParams, stream: EventStream,
                         horizon: float) -> np.ndarray:
    """W[l, c] = total time cell c of an event of mark l overlaps [0, T],
    so that int_0^T lambda^k dt = nu_k T + sum_{l,c} W[l,c] h[l,k,c]."""
    K, m, w = params.K, params.n_cells, params.cell_width
    W = np.zeros((K, m))
    times, marks = stream.times, stream.marks
    sel = times + params.support_end > 0
    sel &= times < horizon
    edges = np.arange(m + 1) * w
    for l in range(K):
        tt = times[sel & (marks == l + 1)]
        if tt.size == 0:
            continue
        clipped = np.clip(tt[:, None] + edges[None, :], 0.0, horizon)
        W[l] = np.diff(clipped, axis=1).sum(axis=0)
    return W


def sweep_pieces(times: np.ndarray, m: int, w: float,
                 bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of the pieces between consecutive
    breakpoints: the bounds plus every event-time + cell-edge offset
    (time + c*w, c = 0..m) strictly between the smallest and largest
    bound. The window design at cell width w is constant on each piece."""
    lo, hi = bounds.min(), bounds.max()
    offs = (times[:, None] + np.arange(m + 1)[None, :] * w).ravel()
    bp = np.unique(np.concatenate((bounds, offs[(offs > lo) & (offs < hi)])))
    return 0.5 * (bp[:-1] + bp[1:]), np.diff(bp)


def _relu_sweep(params: ModelParams, stream: EventStream,
                horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact compensator and positive-part occupation time for the ReLU
    model, by splitting [0, T] at every event-time + cell-edge offset.

    Returns (integral of max(lambda, 0) per mark, measure of {lambda > 0}
    per mark).
    """
    mids, widths = sweep_pieces(stream.times, params.n_cells,
                                params.cell_width, np.array([0.0, horizon]))
    lam = params.nu + _design(params, stream, mids) @ _g_flat(params.h)
    comp = widths @ np.maximum(lam, 0.0)
    occ = widths @ (lam > 0.0)
    return comp, occ


def _event_intensity(params: ModelParams, stream: EventStream,
                     horizon: float) -> tuple[np.ndarray, np.ndarray,
                                              sparse.csr_matrix]:
    """Each event's own-mark intensity over (0, T], its 0-based mark and
    the window design at the events."""
    t, k = _events(stream, horizon)
    X = _design(params, stream, t)
    lam = params.nu + X @ _g_flat(params.h)
    return lam[np.arange(k.size), k], k, X


def log_likelihood(params: ModelParams, stream: EventStream,
                   horizon: float) -> float:
    """Conditional log-likelihood on (0, T]; -inf if an event has
    nonpositive intensity (MCMC rejection sentinel)."""
    lam, _, _ = _event_intensity(params, stream, horizon)
    if np.any(lam <= 0.0):
        return -np.inf
    total = float(np.log(lam).sum())
    if params.kind == "relu" and np.any(params.h < 0):
        comp, _ = _relu_sweep(params, stream, horizon)
        return total - float(comp.sum())
    W = _compensator_weights(params, stream, horizon)
    return total - float(params.nu.sum() * horizon
                         + np.einsum("lc,lkc->", W, params.h))


def grad_loglik_nu(params: ModelParams, stream: EventStream,
                   horizon: float) -> np.ndarray:
    """Score with respect to nu: sum over mark-k events of 1/lambda^k,
    minus the occupation time of positive intensity (T in the linear
    model)."""
    lam, k, _ = _event_intensity(params, stream, horizon)
    if np.any(lam <= 0.0):
        raise ValueError("nonpositive intensity at an event")
    grad = np.bincount(k, weights=1.0 / lam, minlength=params.K)
    if params.kind == "relu" and np.any(params.h < 0):
        _, occ = _relu_sweep(params, stream, horizon)
        return grad - occ
    return grad - horizon


def w_statistic(direction: Direction, f0: ModelParams,
                stream: EventStream, horizon: float) -> float:
    """W_T: the normalized LAN score of a direction against the truth."""
    if f0.kind != "linear":
        raise ValueError("W_T requires the linear model")
    if (direction.K != f0.K or direction.n_cells != f0.n_cells
            or direction.support_end != f0.support_end):
        raise ValueError("direction grid mismatch")
    lam, k, X = _event_intensity(f0, stream, horizon)
    if np.any(lam <= 0.0):
        raise ValueError("nonpositive intensity at an event")
    tilde = (direction.xi + X @ _g_flat(direction.g))[np.arange(k.size), k]
    W = _compensator_weights(f0, stream, horizon)
    total = float(np.sum(tilde / lam)) - float(
        direction.xi.sum() * horizon + np.einsum("lc,lkc->", W, direction.g))
    return float(total / np.sqrt(horizon))


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


class LanEstimator:
    """Ergodic estimator of the LAN inner product at a fixed truth f0.

    One long path is simulated once; the integrand is sampled at
    stratified time points whose window count patterns are cached in a
    sparse matrix, so inner products for many direction pairs reuse the
    same sample (and are exactly symmetric).
    """

    def __init__(self, f0: ModelParams, t_sim: float = 2000.0,
                 n_points: int = 20_000, n_batches: int = 40,
                 seed: int | np.random.SeedSequence = 0,
                 stream: EventStream | None = None):
        if f0.kind != "linear":
            raise ValueError("LAN estimator requires the linear model")
        self.f0 = f0
        self.n_batches = n_batches
        rng = np.random.default_rng(seed)
        if stream is None:
            stream = simulate_thinning(f0, t_sim, seed=rng.integers(2**63))
        else:
            t_sim = stream.horizon
        pts = stratified_points(t_sim, n_points, n_batches, rng)
        self.n_points = pts.size
        self.X = _design(f0, stream, pts)
        self.lam0 = f0.nu[None, :] + self.X @ _g_flat(f0.h)

    def gram_batches(self, dirs: list[Direction]) -> np.ndarray:
        """Per-batch LAN Gram matrices, shape (n_batches, D, D)."""
        for d in dirs:
            if (d.K != self.f0.K or d.n_cells != self.f0.n_cells
                    or d.support_end != self.f0.support_end):
                raise ValueError("direction grid mismatch")
        D, K = len(dirs), self.f0.K
        # column k*D + a: direction a's perturbation intensity of mark k,
        # scaled by 1/sqrt(lambda0^k); all in place, as L is the largest
        # array of a bias computation
        G = np.stack([_g_flat(d.g) for d in dirs], axis=2)
        L = self.X @ G.reshape(-1, K * D)
        L += np.stack([d.xi for d in dirs], axis=1).ravel()
        L = L.reshape(self.n_points, K, D)
        L /= np.sqrt(self.lam0)[:, :, None]
        per_batch = self.n_points // self.n_batches
        Lb = L.reshape(self.n_batches, per_batch * K, D)
        gram_b = np.matmul(Lb.transpose(0, 2, 1), Lb)
        gram_b /= per_batch
        # exactly symmetric, whatever order the product summed in
        return 0.5 * (gram_b + gram_b.transpose(0, 2, 1))

    def gram(self, dirs: list[Direction]) -> tuple[np.ndarray, np.ndarray]:
        """LAN Gram matrix of a direction list plus batch-means SEs."""
        return batch_means(self.gram_batches(dirs))

    def inner(self, d1: Direction, d2: Direction) -> tuple[float, float]:
        gram, se = self.gram([d1, d2])
        return float(gram[0, 1]), float(se[0, 1])


def lan_inner_product(dir1: Direction, dir2: Direction, f0: ModelParams,
                      n_windows: int = 40, t_sim: float = 2000.0,
                      seed: int | np.random.SeedSequence = 0,
                      stream: EventStream | None = None
                      ) -> tuple[float, float]:
    """One-shot LAN inner product estimate with batch-means SE."""
    est = LanEstimator(f0, t_sim=t_sim, n_batches=n_windows, seed=seed,
                       stream=stream)
    return est.inner(dir1, dir2)


class KernelExcitation:
    """The nu-free part of the cached likelihood at one kernel h: each
    mark's excitation X_k @ h_k at the distinct rows and compensator term
    W @ h_k. terms[k] keeps mark k's log term at its two most recently
    used rates, so evaluating the same kernel at rates that differ in one
    mark recomputes that mark's term only."""

    __slots__ = ("rows", "comp", "terms")

    def __init__(self, rows: list[np.ndarray], comp: list[float]):
        self.rows = rows
        self.comp = comp
        self.terms: list[dict[float, float]] = [{} for _ in rows]


class LikelihoodCache:
    """Count-matrix cache for fast repeated likelihood evaluation on one
    stream and one grid resolution.

    For each mark k, a row of the count matrix counts the window events
    of each mark l in each cell c (column l*m+c) at one mark-k event.
    Under posterior contraction few distinct rows occur, so X[k] keeps
    the distinct rows and counts[k] their multiplicities; the compensator
    reduces to fixed linear weights. loglik(nu, h) is then a handful of
    matrix products whose size hardly grows with the horizon.
    """

    def __init__(self, stream: EventStream, K: int, n_cells: int,
                 support_end: float, horizon: float):
        self.K, self.m = K, n_cells
        self.A, self.T = support_end, horizon
        t, k = _events(stream, horizon)
        X = window_design(stream.times, stream.marks, t, support_end, K,
                          n_cells).toarray()
        self.X: list[np.ndarray] = []
        self.counts: list[np.ndarray] = []
        for mark in range(K):
            rows, counts = np.unique(X[k == mark], axis=0,
                                     return_counts=True)
            self.X.append(rows)
            self.counts.append(counts.astype(float))
        # compensator weights, flattened over (l, c)
        ref = ModelParams(np.ones(K), np.zeros((K, K, n_cells)),
                          support_end)
        self.W = _compensator_weights(ref, stream, horizon).ravel()

    def excite(self, h: np.ndarray) -> KernelExcitation:
        """The nu-free part of the likelihood at kernel cell values h."""
        hf = _g_flat(h)
        return KernelExcitation(
            [self.X[k] @ hf[:, k] for k in range(self.K)],
            [float(self.W @ hf[:, k]) for k in range(self.K)])

    def log_likelihood(self, nu: np.ndarray,
                       h: np.ndarray | KernelExcitation) -> float:
        """Linear-model log-likelihood for parameters on the cached grid.

        h is the kernel's cell values or, to evaluate one kernel at many
        rates, its `excite` result.
        """
        ex = h if isinstance(h, KernelExcitation) else self.excite(h)
        total = 0.0
        for k in range(self.K):
            nu_k = float(nu[k])
            seen = ex.terms[k]
            term = seen.pop(nu_k, None)
            if term is None:
                lam = nu_k + ex.rows[k]
                if lam.size and lam.min() <= 0.0:
                    term = -np.inf
                else:
                    term = float(self.counts[k] @ np.log(lam))
                if len(seen) == 2:
                    del seen[next(iter(seen))]
            seen[nu_k] = term
            if term == -np.inf:
                return -np.inf
            total += term
            total -= float(nu_k * self.T + ex.comp[k])
        return total
