"""Intensity evaluation, conditional log-likelihood and LAN statistics."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .grids import Direction
from .model import ModelParams
from .simulate import simulate_thinning
from .stream import EventStream


def _window(times: np.ndarray, t: float, A: float) -> tuple[int, int]:
    """Indices of events with age in (0, A] at time t."""
    lo = int(np.searchsorted(times, t - A, "left"))
    hi = int(np.searchsorted(times, t, "left"))
    return lo, hi


def _intensity_vector(params: ModelParams, stream: EventStream,
                      t: float) -> np.ndarray:
    A, m, w = params.support_end, params.n_cells, params.cell_width
    lo, hi = _window(stream.times, t, A)
    lam = params.nu.copy()
    for i in range(lo, hi):
        age = t - stream.times[i]
        lam += params.h[stream.marks[i] - 1, :,
                        min(int(age / w), m - 1)]
    if params.kind == "relu":
        lam = np.maximum(lam, 0.0)
    return lam


def intensity_at(params: ModelParams, stream: EventStream, t: float,
                 k: int | None = None):
    """Conditional intensity at time t; all marks, or one 1-based mark."""
    if t < stream.window_start + params.support_end or t > stream.horizon:
        raise ValueError("t outside the covered window")
    lam = _intensity_vector(params, stream, t)
    return lam if k is None else float(lam[k - 1])


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


def _relu_sweep(params: ModelParams, stream: EventStream,
                horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact compensator and positive-part occupation time for the ReLU
    model, by splitting [0, T] at every event-time + cell-edge offset.

    Returns (integral of max(lambda, 0) per mark, measure of {lambda > 0}
    per mark).
    """
    A, m, w = params.support_end, params.n_cells, params.cell_width
    times, marks = stream.times, stream.marks
    bps = [np.array([0.0, horizon])]
    offs = times[:, None] + np.arange(m + 1)[None, :] * w
    offs = offs.ravel()
    bps.append(offs[(offs > 0) & (offs < horizon)])
    bp = np.unique(np.concatenate(bps))
    mids = 0.5 * (bp[:-1] + bp[1:])
    widths = np.diff(bp)
    lam = np.tile(params.nu, (mids.size, 1))
    for t_ev, mk in zip(times, marks):
        ages = mids - t_ev
        mask = (ages > 0) & (ages <= A)
        if mask.any():
            cells = np.minimum((ages[mask] / w).astype(int), m - 1)
            lam[mask] += params.h[mk - 1, :, cells]
    comp = widths @ np.maximum(lam, 0.0)
    occ = widths @ (lam > 0.0)
    return comp, occ


def log_likelihood(params: ModelParams, stream: EventStream,
                   horizon: float) -> float:
    """Conditional log-likelihood on (0, T]; -inf if an event has
    nonpositive intensity (MCMC rejection sentinel)."""
    times, marks = stream.times, stream.marks
    sel = (times > 0) & (times <= horizon)
    total = 0.0
    for t, mk in zip(times[sel], marks[sel]):
        lam = _intensity_vector(params, stream, t)[mk - 1]
        if lam <= 0.0:
            return -np.inf
        total += np.log(lam)
    if params.kind == "relu" and np.any(params.h < 0):
        comp, _ = _relu_sweep(params, stream, horizon)
        total -= float(comp.sum())
    else:
        W = _compensator_weights(params, stream, horizon)
        total -= float(params.nu.sum() * horizon
                       + np.einsum("lc,lkc->", W, params.h))
    return float(total)


def grad_loglik_nu(params: ModelParams, stream: EventStream,
                   horizon: float) -> np.ndarray:
    """Score with respect to nu: sum over mark-k events of 1/lambda^k,
    minus the occupation time of positive intensity (T in the linear
    model)."""
    times, marks = stream.times, stream.marks
    sel = (times > 0) & (times <= horizon)
    grad = np.zeros(params.K)
    for t, mk in zip(times[sel], marks[sel]):
        lam = _intensity_vector(params, stream, t)[mk - 1]
        if lam <= 0.0:
            raise ValueError("nonpositive intensity at an event")
        grad[mk - 1] += 1.0 / lam
    if params.kind == "relu" and np.any(params.h < 0):
        _, occ = _relu_sweep(params, stream, horizon)
        grad -= occ
    else:
        grad -= horizon
    return grad


def tilde_intensity(direction: Direction, stream: EventStream,
                    t: float) -> np.ndarray:
    """Perturbation intensity at t: xi_k + sum over window events of
    g[l, k] at the age."""
    A = direction.support_end
    m = direction.n_cells
    w = direction.cell_width
    lo, hi = _window(stream.times, t, A)
    lam = direction.xi.copy()
    for i in range(lo, hi):
        age = t - stream.times[i]
        lam += direction.g[stream.marks[i] - 1, :,
                           min(int(age / w), m - 1)]
    return lam


def w_statistic(direction: Direction, f0: ModelParams,
                stream: EventStream, horizon: float) -> float:
    """W_T: the normalized LAN score of a direction against the truth."""
    if f0.kind != "linear":
        raise ValueError("W_T requires the linear model")
    if (direction.K != f0.K or direction.n_cells != f0.n_cells
            or direction.support_end != f0.support_end):
        raise ValueError("direction grid mismatch")
    times, marks = stream.times, stream.marks
    sel = (times > 0) & (times <= horizon)
    total = 0.0
    for t, mk in zip(times[sel], marks[sel]):
        lam = _intensity_vector(f0, stream, t)[mk - 1]
        if lam <= 0.0:
            raise ValueError("nonpositive intensity at an event")
        total += tilde_intensity(direction, stream, t)[mk - 1] / lam
    W = _compensator_weights(f0, stream, horizon)
    total -= float(direction.xi.sum() * horizon
                   + np.einsum("lc,lkc->", W, direction.g))
    return float(total / np.sqrt(horizon))


def _g_flat(g: np.ndarray) -> np.ndarray:
    """Flatten g[l, k, c] over (l, c) to shape (K*m, K)."""
    K, _, m = g.shape
    return g.transpose(0, 2, 1).reshape(K * m, K)


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
        if n_points % n_batches:
            n_points += n_batches - n_points % n_batches
        self.f0 = f0
        self.n_points = n_points
        self.n_batches = n_batches
        rng = np.random.default_rng(seed)
        if stream is None:
            stream = simulate_thinning(f0, t_sim, seed=rng.integers(2**63))
        else:
            t_sim = stream.horizon
        A, m, w, K = (f0.support_end, f0.n_cells, f0.cell_width, f0.K)
        # one point per stratum of [0, t_sim]
        strat = t_sim / n_points
        pts = (np.arange(n_points) + rng.uniform(size=n_points)) * strat
        rows, cols = [], []
        times, marks = stream.times, stream.marks
        for i, t in enumerate(pts):
            lo, hi = _window(times, t, A)
            for j in range(lo, hi):
                age = t - times[j]
                cell = min(int(age / w), m - 1)
                rows.append(i)
                cols.append((marks[j] - 1) * m + cell)
        data = np.ones(len(rows))
        self.X = sparse.csr_matrix(
            (data, (rows, cols)), shape=(n_points, K * m))
        self.lam0 = f0.nu[None, :] + self.X @ _g_flat(f0.h)

    def _tilde(self, d: Direction) -> np.ndarray:
        if (d.K != self.f0.K or d.n_cells != self.f0.n_cells
                or d.support_end != self.f0.support_end):
            raise ValueError("direction grid mismatch")
        return d.xi[None, :] + self.X @ _g_flat(d.g)

    def _batch_stats(self, vals: np.ndarray) -> tuple[float, float]:
        means = vals.reshape(self.n_batches, -1).mean(axis=1)
        est = float(means.mean())
        se = float(means.std(ddof=1) / np.sqrt(self.n_batches))
        return est, se

    def inner(self, d1: Direction, d2: Direction) -> tuple[float, float]:
        vals = np.sum(self._tilde(d1) * self._tilde(d2) / self.lam0, axis=1)
        return self._batch_stats(vals)

    def gram(self, dirs: list[Direction]) -> tuple[np.ndarray, np.ndarray]:
        """LAN Gram matrix of a direction list plus batch-means SEs."""
        D = len(dirs)
        L = np.stack([self._tilde(d) / np.sqrt(self.lam0) for d in dirs],
                     axis=2)  # (n_points, K, D)
        gram = np.zeros((D, D))
        se = np.zeros((D, D))
        for a in range(D):
            for b in range(a, D):
                vals = np.sum(L[:, :, a] * L[:, :, b], axis=1)
                gram[a, b], se[a, b] = self._batch_stats(vals)
                gram[b, a], se[b, a] = gram[a, b], se[a, b]
        return gram, se

    def gram_batches(self, dirs: list[Direction]) -> np.ndarray:
        """Per-batch LAN Gram matrices, shape (n_batches, D, D)."""
        D = len(dirs)
        L = np.stack([self._tilde(d) / np.sqrt(self.lam0) for d in dirs],
                     axis=2)  # (n_points, K, D)
        per_batch = self.n_points // self.n_batches
        Lb = L.reshape(self.n_batches, per_batch, self.f0.K, D)
        return np.einsum("bpka,bpkc->bac", Lb, Lb) / per_batch


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
        w = support_end / n_cells
        times, marks = stream.times, stream.marks
        sel = (times > 0) & (times <= horizon)
        self.X: list[np.ndarray] = []
        self.counts: list[np.ndarray] = []
        for k in range(K):
            ev = times[sel & (marks == k + 1)]
            Xk = np.zeros((ev.size, K * n_cells))
            for i, t in enumerate(ev):
                lo, hi = _window(times, t, support_end)
                for j in range(lo, hi):
                    age = t - times[j]
                    cell = min(int(age / w), n_cells - 1)
                    Xk[i, (marks[j] - 1) * n_cells + cell] += 1.0
            rows, counts = np.unique(Xk, axis=0, return_counts=True)
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
