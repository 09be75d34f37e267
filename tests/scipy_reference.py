"""The scipy.sparse forms of the window-count design and its products, as
the package computed them before its numpy design: test references only.

`window_design` returns a canonical `csr_matrix` design; with `skip`
it subtracts a second sparse design of the events tied with each
anchor, as `estimate_palm` once did. `_grouped_outer` and `lan_moments`
are the sparse products that `palm._grouped_outer` and
`likelihood._lan_moments` must equal bit for bit. `use_scipy_designs`
swaps `window_design` and `_grouped_outer` into the package, so that any
caller (`linear_intensity`, `w_statistic`, `estimate_palm`) runs on the
sparse references.
"""

import contextlib

import numpy as np
from scipy import sparse

from hawkes_bvm import likelihood, palm


def _count_design(times, marks, queries, lo, hi, K, m, w):
    n = hi - lo
    indptr = np.concatenate(([0], np.cumsum(n)))
    rows = np.repeat(np.arange(queries.size), n)
    idx = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - lo, n)
    cells = np.minimum(((queries[rows] - times[idx]) / w).astype(int),
                       m - 1)
    X = sparse.csr_matrix(
        (np.ones(idx.size), (marks[idx] - 1) * m + cells, indptr),
        shape=(queries.size, K * m))
    X.sum_duplicates()
    return X


def window_design(times, marks, queries, A, K, m, skip=None):
    """The full window design, minus the design of the events at time
    skip[q] when skip is given."""
    queries = np.asarray(queries, dtype=float)
    lo = np.searchsorted(times, queries - A, "left")
    hi = np.searchsorted(times, queries, "left")
    X = _count_design(times, marks, queries, lo, hi, K, m, A / m)
    if skip is None:
        return X
    tie_lo = np.searchsorted(times, skip, "left")
    tie_hi = np.searchsorted(times, skip, "right")
    return X - _count_design(times, marks, queries, tie_lo, tie_hi, K, m,
                             A / m)


def _grouped_outer(X, inv, group, n_group):
    n_col = X.shape[1]
    coo = X.tocoo()
    P = sparse.csr_matrix(
        (coo.data, (group[coo.row] * n_col + coo.col, coo.row)),
        shape=(n_group * n_col, X.shape[0]))
    return (P @ inv).reshape(n_group, n_col, inv.shape[1])


def lan_moments(X, lam0, n_batches):
    """`LanEstimator.moments` from its design X and intensities lam0."""
    n_points = X.shape[0]
    Z = sparse.hstack((np.ones((n_points, 1)), X), format="csr")
    nz, per_batch = Z.shape[1], n_points // n_batches
    block = np.repeat(np.arange(n_points) // per_batch * nz,
                      np.diff(Z.indptr))
    Zb = sparse.csr_matrix((Z.data, Z.indices + block, Z.indptr),
                           shape=(n_points, n_batches * nz))
    return np.stack(
        [(Zb.T @ sparse.diags(1.0 / lam) @ Z).toarray()
         .reshape(n_batches, nz, nz) for lam in lam0.T],
        axis=1) / per_batch


@contextlib.contextmanager
def use_scipy_designs():
    """Run the package's design sites on the sparse references."""
    saved = [(mod, name, getattr(mod, name))
             for mod, name in ((likelihood, "window_design"),
                               (palm, "window_design"),
                               (palm, "_grouped_outer"))]
    for mod, name, _ in saved:
        setattr(mod, name, globals()[name])
    try:
        yield
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)
