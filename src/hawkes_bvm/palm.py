"""Palm-calculus estimators, the information operator and its inverse,
optimal variance, the efficient estimator and the projection bias term.

All Palm quantities are reduced to a handful of batched tensors built
once from an anchor ensemble (or supplied analytically for the Poisson
model), after which operator application and inversion are deterministic
linear algebra.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .grids import Direction
from .likelihood import (LanEstimator, _count_design, _g_flat, batch_means,
                         stratified_points, window_design, w_statistic)
from .model import ModelParams, stationary_rates
from .simulate import simulate_thinning
from .stream import EventStream, atomic_write

# an operator image (xi', g') has the same shape as a direction
OperatorImage = Direction


@dataclass(frozen=True)
class PalmEstimates:
    """Batched ergodic Palm tensors at a fixed truth.

    For B batches, K marks and m operator-grid cells:
      a_b[b, k]              E[1 / lambda^k] at a stationary time
      D_b[b, l, k, c]        E[(window count of mark l in age-cell c)
                             / lambda^k] at a stationary time
      p_b[b, l, k, c]        Palm mean of 1/lambda^k at lag-cell c after
                             a mark-l point
      C_b[b, l, j, k, c, c'] Palm mean of (count of mark-j points at
                             lag-cell c', anchor excluded) / lambda^k
    so zeta_{l,j,k}(g)(c) = sum_c' C[l,j,k,c,c'] g[c'].
    """

    support_end: float
    mu: np.ndarray
    a_b: np.ndarray
    D_b: np.ndarray
    p_b: np.ndarray
    C_b: np.ndarray

    @property
    def K(self) -> int:
        return self.mu.size

    @property
    def n_cells(self) -> int:
        return self.p_b.shape[3]

    @property
    def n_batches(self) -> int:
        return self.a_b.shape[0]

    @property
    def a(self) -> np.ndarray:
        return self.a_b.mean(axis=0)

    @property
    def D(self) -> np.ndarray:
        return self.D_b.mean(axis=0)

    @property
    def p(self) -> np.ndarray:
        return self.p_b.mean(axis=0)

    @property
    def C(self) -> np.ndarray:
        return self.C_b.mean(axis=0)

    @property
    def p_se(self) -> np.ndarray:
        return batch_means(self.p_b)[1]

    @classmethod
    def poisson(cls, nu: np.ndarray, support_end: float,
                n_cells: int) -> "PalmEstimates":
        """Closed-form Palm tensors of the Poisson model (h = 0)."""
        nu = np.asarray(nu, dtype=float)
        K = nu.size
        w = support_end / n_cells
        a = (1.0 / nu)[None, :]
        D = np.empty((1, K, K, n_cells))
        p = np.empty((1, K, K, n_cells))
        C = np.empty((1, K, K, K, n_cells, n_cells))
        for l in range(K):
            for k in range(K):
                D[0, l, k, :] = nu[l] * w / nu[k]
                p[0, l, k, :] = 1.0 / nu[k]
                for j in range(K):
                    C[0, l, j, k, :, :] = nu[j] * w / nu[k]
        return cls(support_end, nu.copy(), a, D, p, C)

    def to_json(self) -> str:
        return json.dumps({
            "A": self.support_end,
            "mu": self.mu.tolist(),
            "a_b": self.a_b.tolist(),
            "D_b": self.D_b.tolist(),
            "p_b": self.p_b.tolist(),
            "C_b": self.C_b.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "PalmEstimates":
        doc = json.loads(text)
        return cls(float(doc["A"]), np.array(doc["mu"]),
                   np.array(doc["a_b"]), np.array(doc["D_b"]),
                   np.array(doc["p_b"]), np.array(doc["C_b"]))


def palm_cache_key(f0: ModelParams, n_cells: int, horizon: float,
                   n_anchors: int, seed: int) -> str:
    blob = f"{f0.to_json()}|{n_cells}|{horizon}|{n_anchors}|{seed}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def save_palm(palm: PalmEstimates, path: str) -> None:
    atomic_write(path, palm.to_json())


def load_palm(path: str) -> PalmEstimates:
    with open(path) as fh:
        return PalmEstimates.from_json(fh.read())


def _grouped_outer(X: sparse.csr_matrix, inv: np.ndarray,
                   group: np.ndarray, n_group: int) -> np.ndarray:
    """out[g] = sum over rows r with group[r] == g of outer(X[r], inv[r]),
    shape (n_group, X.shape[1], inv.shape[1])."""
    n_col = X.shape[1]
    coo = X.tocoo()
    P = sparse.csr_matrix(
        (coo.data, (group[coo.row] * n_col + coo.col, coo.row)),
        shape=(n_group * n_col, X.shape[0]))
    return (P @ inv).reshape(n_group, n_col, inv.shape[1])


def estimate_palm(f0: ModelParams, n_cells: int,
                  n_anchors: int = 2000, n_points: int = 4000,
                  n_batches: int = 20,
                  seed: int | np.random.SeedSequence = 0,
                  stream: EventStream | None = None,
                  horizon: float | None = None) -> PalmEstimates:
    """Ergodic Palm tensors from one long path at f0.

    Anchors are observed points; each contributes the inverse intensity
    and lag-cell counts of its forward window of width A, evaluated at
    the operator-grid midpoints. Batches are contiguous in time.
    """
    if f0.kind != "linear":
        raise ValueError("Palm estimation requires the linear model")
    A, K = f0.support_end, f0.K
    mu = stationary_rates(f0)
    rng = np.random.default_rng(seed)
    if stream is None:
        if horizon is None:
            horizon = max(4.0 * A, 1.3 * n_anchors / float(mu.min())) + A
        stream = simulate_thinning(f0, horizon, seed=rng.integers(2**63))
    else:
        horizon = stream.horizon
    m, m0 = n_cells, f0.n_cells
    mids = (np.arange(m) + 0.5) * (A / m)
    times, marks = stream.times, stream.marks
    hf = _g_flat(f0.h)

    def inverse_intensity(queries):
        X0 = window_design(times, marks, queries, A, K, m0)
        return 1.0 / (f0.nu + X0 @ hf)

    # stationary-time tensors a and D
    pts = stratified_points(horizon, n_points, n_batches, rng)
    per_batch_pts = pts.size // n_batches
    inv = inverse_intensity(pts)
    a_b = inv.reshape(n_batches, per_batch_pts, K).sum(axis=1)
    D_b = _grouped_outer(window_design(times, marks, pts, A, K, m), inv,
                         np.arange(pts.size) // per_batch_pts, n_batches)
    D_b = D_b.reshape(n_batches, K, m, K).transpose(0, 1, 3, 2)
    a_b /= per_batch_pts
    D_b /= per_batch_pts

    # anchored Palm tensors p and C, at the grid midpoints after each
    # anchor; C counts every window event but those tied with the anchor
    p_b = np.zeros((n_batches, K, K, m))
    C_b = np.zeros((n_batches, K, K, K, m, m))
    for l in range(K):
        anchors = times[(marks == l + 1) & (times >= 0)
                        & (times <= horizon - A)]
        if anchors.size < 200:
            raise ValueError(
                f"too few anchors for mark {l + 1}: {anchors.size}")
        if anchors.size > n_anchors:
            idx = np.linspace(0, anchors.size - 1, n_anchors).astype(int)
            anchors = anchors[np.unique(idx)]
        for b, batch in enumerate(np.array_split(anchors, n_batches)):
            cnt = batch.size
            if not cnt:
                continue
            queries = (batch[:, None] + mids[None, :]).ravel()
            inv = inverse_intensity(queries)
            p_b[b, l] = inv.reshape(cnt, m, K).sum(axis=0).T / cnt
            tie_lo = np.repeat(np.searchsorted(times, batch, "left"), m)
            tie_hi = np.repeat(np.searchsorted(times, batch, "right"), m)
            X = (window_design(times, marks, queries, A, K, m)
                 - _count_design(times, marks, queries, tie_lo, tie_hi, K,
                                 m, A / m))
            C = _grouped_outer(X, inv, np.arange(queries.size) % m, m)
            C_b[b, l] = C.reshape(m, K, m, K).transpose(1, 3, 0, 2) / cnt
    return PalmEstimates(A, mu, a_b, D_b, p_b, C_b)


def apply_palm_zeta(palm: PalmEstimates, g: np.ndarray) -> np.ndarray:
    """zeta_{l,j,k}(g) on the grid for a single function g (m values)."""
    g = np.asarray(g, dtype=float)
    if g.shape != (palm.n_cells,):
        raise ValueError("g must live on the operator grid")
    return np.einsum("ljkcd,d->ljkc", palm.C, g)


def _palm_image(mu, a, D, p, C, xi: np.ndarray,
                g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(xi, g) from the tensors; a, D, p and C may carry leading
    batch axes, which the image (xi', g') then carries too."""
    xi_out = xi * a + np.einsum("...lkc,lkc->...k", D, g)
    zeta = np.einsum("...ljkcd,jkd->...lkc", C, g)
    g_out = mu[:, None, None] * (xi[None, :, None] * p + g * p + zeta)
    return xi_out, g_out


def _apply_tensors(mu, a, D, p, C, d: Direction) -> Direction:
    return Direction(*_palm_image(mu, a, D, p, C, d.xi, d.g), d.support_end)


def info_operator_apply(palm: PalmEstimates,
                        d: Direction) -> OperatorImage:
    """The information operator Gamma at the truth: (xi, g) -> (xi', g')."""
    if d.n_cells != palm.n_cells or d.K != palm.K:
        raise ValueError("direction does not match the Palm grid")
    return _apply_tensors(palm.mu, palm.a, palm.D, palm.p, palm.C, d)


def info_operator_apply_batched(palm: PalmEstimates, d: Direction
                                ) -> tuple[OperatorImage, OperatorImage]:
    """Gamma(d) plus a batch-means SE image."""
    xi_b, g_b = _palm_image(palm.mu, palm.a_b, palm.D_b, palm.p_b,
                            palm.C_b, d.xi, d.g)
    (xi, xi_se), (g, g_se) = batch_means(xi_b), batch_means(g_b)
    return (Direction(xi, g, d.support_end),
            Direction(xi_se, g_se, d.support_end))


def info_operator_invert(palm: PalmEstimates, target: OperatorImage,
                         tol: float = 1e-8, max_iter: int = 10_000,
                         omega: float = 0.5
                         ) -> tuple[Direction, float, bool]:
    """Invert Gamma by the displayed fixed point with under-relaxation.

    Returns (direction, sup-norm residual of Gamma(result) - target,
    converged flag). The relaxation factor is halved when the sup-change
    increases twice in a row.
    """
    if target.n_cells != palm.n_cells or target.K != palm.K:
        raise ValueError("target does not match the Palm grid")
    K, m, A = palm.K, palm.n_cells, palm.support_end
    mu, a, D, p, C = palm.mu, palm.a, palm.D, palm.p, palm.C
    xi = np.zeros(K)
    g = np.zeros((K, K, m))
    prev_change = np.inf
    n_increase = 0
    converged = False
    for _ in range(max_iter):
        zeta = np.einsum("ljkcd,jkd->lkc", C, g)
        g_new = ((target.g - mu[:, None, None] * zeta)
                 / (mu[:, None, None] * p) - xi[None, :, None])
        xi_new = (target.xi - np.einsum("lkc,lkc->k", D, g_new)) / a
        g_next = (1 - omega) * g + omega * g_new
        xi_next = (1 - omega) * xi + omega * xi_new
        change = max(float(np.max(np.abs(g_next - g))),
                     float(np.max(np.abs(xi_next - xi))))
        g, xi = g_next, xi_next
        if change > prev_change:
            n_increase += 1
            if n_increase >= 2:
                omega = max(omega / 2.0, 1e-3)
                n_increase = 0
        else:
            n_increase = 0
        prev_change = change
        if change < tol:
            converged = True
            break
    result = Direction(xi, g, A)
    image = info_operator_apply(palm, result)
    residual = max(float(np.max(np.abs(image.xi - target.xi))),
                   float(np.max(np.abs(image.g - target.g))))
    return result, residual, converged


def optimal_variance(psi_L: Direction, psi_2: Direction) -> float:
    """V0 = <psi_L, psi_2>_2, the efficient asymptotic variance."""
    return psi_L.l2_inner(psi_2)


def efficient_estimate(psi_at_f0: float, f0: ModelParams,
                       psi_L: Direction, stream: EventStream,
                       horizon: float) -> float:
    """Oracle efficient estimator: psi(f0) + W_T(psi_L)/sqrt(T)."""
    return float(psi_at_f0 + w_statistic(psi_L, f0, stream, horizon)
                 / np.sqrt(horizon))


def bias_term(basis_dirs: list[Direction], f_dir: Direction,
              psi_L: Direction, lan: LanEstimator,
              ridge: float = 1e-10
              ) -> tuple[float, float, bool]:
    """Projection bias B_J = -<f - Pf, psi_L - P psi_L>_L with the
    LAN-orthogonal projection P onto span(basis_dirs).

    Returns (B_J, batch-means SE, ridge flag). Projection coefficients
    come from the pooled Gram; the SE propagates per-batch Gram entries
    through the fixed coefficients.
    """
    dirs = list(basis_dirs) + [f_dir, psi_L]
    nb = len(basis_dirs)
    gram_b = lan.gram_batches(dirs)  # (B, D, D)
    G = gram_b.mean(axis=0)
    G_bb = G[:nb, :nb]
    flagged = False
    if np.linalg.cond(G_bb) > 1e12:
        G_bb = G_bb + ridge * np.eye(nb)
        flagged = True
    g_bf = G[:nb, nb]
    g_bp = G[:nb, nb + 1]
    alpha = np.linalg.solve(G_bb, g_bf)
    beta = np.linalg.solve(G_bb, g_bp)
    vals = np.array([Gb[nb, nb + 1] - alpha @ Gb[:nb, nb + 1]
                     - beta @ Gb[:nb, nb] + alpha @ Gb[:nb, :nb] @ beta
                     for Gb in gram_b])
    bj, se = batch_means(vals)
    return -float(bj), float(se), flagged
