"""Exact simulation of stationary multivariate Hawkes processes.

Two independent simulators: Ogata thinning (works for linear and ReLU
kinds) and the branching / cluster representation (linear only). Both
return events on [-A, T] and are reproducible given a seed.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque
from operator import add

import numpy as np

from .model import ModelParams, spectral_radius
from .priors import _np_sum
from .stream import EventStream

_MAX_EVENTS = 50_000_000


def _dominating_kernels(params: ModelParams) -> np.ndarray:
    """Nonincreasing upper envelopes of h^+ (suffix max along the grid),
    so the thinning bound is valid until the next candidate."""
    hplus = np.maximum(params.h, 0.0)
    return np.maximum.accumulate(hplus[:, :, ::-1], axis=2)[:, :, ::-1]


def simulate_thinning(params: ModelParams, horizon: float,
                      seed: int | np.random.SeedSequence = 0) -> EventStream:
    """Ogata thinning on [-51*A, horizon], keeping [-A, horizon].

    The burn-in of 50*A before -A is fixed: the finite-memory process
    forgets its initial (empty) condition exponentially fast.

    The loop runs on Python floats but keeps numpy's arithmetic order
    and the generator's draws, so the streams are those of a loop on
    numpy arrays: the bound adds one precomputed float(hbar[k, :, c].sum())
    per window event; lambda adds the rows h[k, :, c] elementwise in
    window order; the total adds in np.sum's order (`priors._np_sum`);
    the acceptance draw is rng.random(), which equals rng.uniform() =
    0 + 1 * u bit for bit; and the mark is drawn by
    rng.choice(K, p=lam/lam_tot)'s own recipe: one rng.random() bisected
    into the cumulative sum of p divided by its last entry. With one mark
    that cdf is [1.0], so the draw is made and the mark is the first.
    """
    if not math.isfinite(horizon):
        # the loop stops only past the horizon
        raise ValueError("horizon must be finite")
    A = params.support_end
    rng = np.random.default_rng(seed)
    K, m, w = params.K, params.n_cells, params.cell_width
    hbar = _dominating_kernels(params)
    # per (mark k, cell c): the bound's increment and the row h[k, :, c]
    bound_inc = [[float(hbar[k, :, c].sum()) for c in range(m)]
                 for k in range(K)]
    h_rows = [[params.h[k, :, c].tolist() for c in range(m)]
              for k in range(K)]
    nu = params.nu.tolist()
    nu_total = float(params.nu.sum())
    relu = params.kind == "relu"
    exponential, random = rng.exponential, rng.random

    t = -A - 50.0 * A
    times: list[float] = []
    marks: list[int] = []
    # the events within A of the current time, each as (time, its mark's
    # bound increments, its mark's kernel rows)
    window: deque[tuple[float, list, list]] = deque()

    while True:
        while window and window[0][0] < t - A:
            window.popleft()
        bound = nu_total
        for s, inc, _ in window:
            cell = int((t - s) / w)
            if cell < m:
                bound += inc[cell]
        if not math.isfinite(bound) or bound > 1e12:
            raise OverflowError("thinning bound overflow; model unstable?")
        t = t + exponential(1.0 / bound)
        if t > horizon:
            break
        # intensities at the candidate time
        lam = nu
        for s, _, rows in window:
            age = t - s
            if 0.0 < age <= A:
                lam = list(map(add, lam, rows[min(int(age / w), m - 1)]))
        if relu:
            lam = [x if x >= 0.0 else 0.0 for x in lam]
        lam_tot = _np_sum(lam)
        if random() * bound <= lam_tot:
            if K == 1:
                # the cdf is [1.0], into which every draw bisects at 0
                random()
                k = 0
            else:
                cdf = list(itertools.accumulate([x / lam_tot for x in lam]))
                last = cdf[-1]
                k = bisect.bisect_right([c / last for c in cdf], random())
            window.append((t, bound_inc[k], h_rows[k]))
            if t >= -A:
                times.append(t)
                marks.append(k + 1)
            if len(times) > _MAX_EVENTS:
                raise OverflowError("event budget exceeded")
    return EventStream(np.array(times), np.array(marks), -A, horizon)


def simulate_cluster(params: ModelParams, horizon: float,
                     seed: int | np.random.SeedSequence = 0) -> EventStream:
    """Branching (immigrant/offspring) construction, linear model only.

    Immigrants are Poisson(nu) on an enlarged window; each point of mark j
    spawns Poisson(rho[j, k]) children of mark k with displacement density
    h[j, k] / rho[j, k] on (0, A].
    """
    if params.kind != "linear":
        raise ValueError("cluster representation requires the linear model")
    A = params.support_end
    rho = params.rho()
    r = spectral_radius(rho)
    rng = np.random.default_rng(seed)
    K, m, w = params.K, params.n_cells, params.cell_width

    # immigrants far enough in the past that clusters overlapping [-A, T]
    # are (essentially) all represented
    t_lo = -A - 10.0 * A / (1.0 - r)
    span = horizon - t_lo
    all_t: list[np.ndarray] = []
    all_k: list[np.ndarray] = []
    # per-(parent mark j, child mark k) displacement samplers: cell choice
    # proportional to h values, uniform within the cell
    cell_probs = np.empty((K, K, m))
    for j in range(K):
        for k in range(K):
            if rho[j, k] > 0:
                cell_probs[j, k] = params.h[j, k] / params.h[j, k].sum()
            else:
                cell_probs[j, k] = 0.0

    gen_t: list[np.ndarray] = []
    gen_k: list[np.ndarray] = []
    for k in range(K):
        n_imm = rng.poisson(params.nu[k] * span)
        tt = rng.uniform(t_lo, horizon, n_imm)
        gen_t.append(tt)
        gen_k.append(np.full(n_imm, k))
    total = 0
    while gen_t:
        pt = np.concatenate(gen_t)
        pk = np.concatenate(gen_k)
        all_t.append(pt)
        all_k.append(pk)
        total += pt.size
        if total > _MAX_EVENTS:
            raise OverflowError("event budget exceeded")
        gen_t, gen_k = [], []
        for j in range(K):
            parents = pt[pk == j]
            if parents.size == 0:
                continue
            for k in range(K):
                if rho[j, k] <= 0:
                    continue
                counts = rng.poisson(rho[j, k], parents.size)
                n_child = int(counts.sum())
                if n_child == 0:
                    continue
                origins = np.repeat(parents, counts)
                cells = rng.choice(m, size=n_child, p=cell_probs[j, k])
                disp = (cells + rng.uniform(size=n_child)) * w
                child = origins + disp
                child = child[child <= horizon]
                if child.size:
                    gen_t.append(child)
                    gen_k.append(np.full(child.size, k))
    t_all = np.concatenate(all_t)
    k_all = np.concatenate(all_k)
    sel = t_all >= -A
    return EventStream(t_all[sel], k_all[sel] + 1, -A, horizon)
