"""Palm-calculus estimators, the information operator and its inverse,
optimal variance, the efficient estimator and the projection bias term.

All Palm quantities are reduced to a handful of batched tensors built
once from an anchor ensemble (or supplied analytically for the Poisson
model), after which operator application and inversion are deterministic
linear algebra.
"""

from __future__ import annotations

import functools
import zipfile
from dataclasses import dataclass

import numpy as np

from .grids import Direction, check_same_grid
from .likelihood import (CountDesign, LanEstimator, batch_means,
                         linear_intensity, sorted_distinct, stratified_batches,
                         window_design, w_statistic)
from .model import ModelParams, stationary_rates
from .simulate import simulate_thinning
from .stream import EventStream, atomic_write


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


# the arrays of a Palm file
_ARRAYS = ("A", "mu", "a_b", "D_b", "p_b", "C_b")


def save_palm(palm: PalmEstimates, path: str) -> None:
    """Write palm to exactly path as one uncompressed numpy archive of
    `_ARRAYS`, which reads back bit for bit."""
    # into the open temporary file: np.savez appends ".npz" to a path
    atomic_write(path, functools.partial(
        np.savez, A=palm.support_end, mu=palm.mu, a_b=palm.a_b,
        D_b=palm.D_b, p_b=palm.p_b, C_b=palm.C_b))


def load_palm(path: str) -> PalmEstimates:
    """The estimates a `save_palm` archive holds; a ValueError names the
    path of a file that is not such an archive or whose tensors
    disagree."""
    with open(path, "rb") as fh:
        if not zipfile.is_zipfile(fh):
            raise ValueError(f"{path} is not a numpy .npz archive; re-run "
                             "`hawkes-bvm palm`")
        fh.seek(0)
        with np.load(fh) as npz:
            missing = [name for name in _ARRAYS if name not in npz.files]
            if missing:
                raise ValueError(
                    f"{path} holds no {', '.join(missing)}; re-run "
                    "`hawkes-bvm palm`")
            A, mu, a_b, D_b, p_b, C_b = (npz[name] for name in _ARRAYS)
    # B from a_b, K from mu and m from p_b fix every shape
    B, K, m = a_b.shape[0], mu.size, p_b.shape[-1]
    for name, tensor, shape in (
            ("a_b", a_b, (B, K)), ("D_b", D_b, (B, K, K, m)),
            ("p_b", p_b, (B, K, K, m)), ("C_b", C_b, (B, K, K, K, m, m))):
        if tensor.shape != shape:
            raise ValueError(
                f"{path}: {name} has shape {list(tensor.shape)}, but "
                f"B = {B}, K = {K} and m = {m} make it {list(shape)}")
    return PalmEstimates(float(A), mu, a_b, D_b, p_b, C_b)


def _grouped_outer(X: CountDesign, inv: np.ndarray,
                   group: np.ndarray, n_group: int) -> np.ndarray:
    """out[g] = sum over rows r with group[r] == g of outer(X[r], inv[r]),
    shape (n_group, X.shape[1], inv.shape[1]); each entry sums its terms
    in increasing row order."""
    rows, n_col = X.rows, X.shape[1]
    key = group[rows] * n_col + X.cols
    out = np.empty((n_group * n_col, inv.shape[1]))
    for j in range(inv.shape[1]):
        out[:, j] = np.bincount(key, X.data * inv[:, j][rows],
                                minlength=n_group * n_col)
    return out.reshape(n_group, n_col, inv.shape[1])


# the Palm tensors' batch count
PALM_BATCHES = 20
# the fewest anchors of each mark the Palm tensors are estimated from;
# palm_anchors must be at least this
PALM_MIN_ANCHORS = 200


def estimate_palm(f0: ModelParams, n_cells: int,
                  n_anchors: int = 2000, n_points: int = 4000,
                  n_batches: int = PALM_BATCHES,
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
    m = n_cells
    mids = (np.arange(m) + 0.5) * (A / m)
    times, marks = stream.times, stream.marks

    # stationary-time tensors a and D, one batch of points at a time
    a_b = np.empty((n_batches, K))
    D_b = np.empty((n_batches, K, m, K))
    for b, pts in enumerate(stratified_batches(horizon, n_points, n_batches,
                                               rng)):
        inv = 1.0 / linear_intensity(stream, pts, f0.nu, f0.h, A)
        a_b[b] = inv.sum(axis=0) / pts.size
        D = _grouped_outer(window_design(times, marks, pts, A, K, m), inv,
                           np.zeros(pts.size, dtype=int), 1)
        D_b[b] = D.reshape(K, m, K) / pts.size
    D_b = D_b.transpose(0, 1, 3, 2)

    # anchored Palm tensors p and C, at the grid midpoints after each
    # anchor; C counts every window event but those tied with the anchor
    p_b = np.zeros((n_batches, K, K, m))
    C_b = np.zeros((n_batches, K, K, K, m, m))
    for l in range(K):
        anchors = times[(marks == l + 1) & (times >= 0)
                        & (times <= horizon - A)]
        if anchors.size < PALM_MIN_ANCHORS:
            raise ValueError(
                f"too few anchors for mark {l + 1}: {anchors.size}")
        if anchors.size > n_anchors:
            idx = np.linspace(0, anchors.size - 1, n_anchors).astype(int)
            anchors = anchors[sorted_distinct(idx)]
        if anchors.size < n_batches:
            raise ValueError(
                f"mark {l + 1} keeps {anchors.size} anchors for "
                f"{n_batches} batches; each batch needs one")
        for b, batch in enumerate(np.array_split(anchors, n_batches)):
            cnt = batch.size
            queries = (batch[:, None] + mids[None, :]).ravel()
            inv = 1.0 / linear_intensity(stream, queries, f0.nu, f0.h, A)
            p_b[b, l] = inv.reshape(cnt, m, K).sum(axis=0).T / cnt
            X = window_design(times, marks, queries, A, K, m,
                              skip=np.repeat(batch, m))
            C = _grouped_outer(X, inv, np.arange(queries.size) % m, m)
            C_b[b, l] = C.reshape(m, K, m, K).transpose(1, 3, 0, 2) / cnt
    return PalmEstimates(A, mu, a_b, D_b, p_b, C_b)


def _palm_image(mu, a, D, p, C, xi: np.ndarray,
                g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(xi, g) from the tensors; a, D, p and C may carry leading
    batch axes, which the image (xi', g') then carries too."""
    xi_out = xi * a + np.einsum("...lkc,lkc->...k", D, g)
    zeta = np.einsum("...ljkcd,jkd->...lkc", C, g)
    g_out = mu[:, None, None] * (xi[None, :, None] * p + g * p + zeta)
    return xi_out, g_out


def info_operator_apply(palm: PalmEstimates, d: Direction) -> Direction:
    """The information operator Gamma at the truth: (xi, g) -> (xi', g')."""
    check_same_grid(d, palm)
    return Direction(*_palm_image(palm.mu, palm.a, palm.D, palm.p, palm.C,
                                  d.xi, d.g), d.support_end)


def info_operator_invert(palm: PalmEstimates, target: Direction,
                         tol: float = 1e-8
                         ) -> tuple[Direction, float, bool]:
    """Invert Gamma by the displayed fixed point with under-relaxation.

    Returns (direction, sup-norm residual of Gamma(result) - target,
    converged flag) after at most 10,000 iterations. The relaxation
    factor starts at 0.5 and is halved when the sup-change increases
    twice in a row.
    """
    check_same_grid(target, palm)
    K, m, A = palm.K, palm.n_cells, palm.support_end
    mu, a, D, p, C = palm.mu, palm.a, palm.D, palm.p, palm.C
    xi = np.zeros(K)
    g = np.zeros((K, K, m))
    prev_change = np.inf
    n_increase = 0
    converged = False
    omega = 0.5
    for _ in range(10_000):
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
              psi_L: Direction, lan: LanEstimator
              ) -> tuple[float, float, bool]:
    """Projection bias B_J = -<f - Pf, psi_L - P psi_L>_L with the
    LAN-orthogonal projection P onto span(basis_dirs).

    Returns (B_J, batch-means SE, ridge flag). Projection coefficients
    come from the pooled Gram; the SE propagates per-batch Gram entries
    through the fixed coefficients. The flag is set, and 1e-10 added to
    the basis Gram's diagonal, when that Gram's 1-norm condition number
    exceeds 1e12 (inf for a singular Gram). It is taken through the same
    LU factorisation as the solves, not an SVD.
    """
    dirs = list(basis_dirs) + [f_dir, psi_L]
    nb = len(basis_dirs)
    gram_b = lan.gram_batches(dirs)  # (B, D, D)
    G = gram_b.mean(axis=0)
    G_bb = G[:nb, :nb]
    flagged = False
    if np.linalg.cond(G_bb, 1) > 1e12:
        G_bb = G_bb + 1e-10 * np.eye(nb)
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
