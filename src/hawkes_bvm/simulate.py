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
    per window event in window order; lambda adds the rows h[k, :, c]
    elementwise in window order; the acceptance draw is rng.random(),
    which equals rng.uniform() = 0 + 1 * u bit for bit; and the mark is
    drawn by rng.choice(K, p=lam/lam_tot)'s own recipe: one rng.random()
    bisected into the cumulative sum of p divided by its last entry.
    Acceptance is strict: no event lands where the clamped intensity is
    0. The clamp leaves a linear intensity, at least nu > 0, as it is.

    One pass over the window gives the intensities at a candidate and
    the bound for the next one. The bound sums over the events that the
    next pop keeps (time >= t - A), then adds the accepted candidate's
    increment at age 0: the order of a separate pass after the pop.

    With K <= 2 each mark's intensity is one float, a lane, to which
    every window event adds its entry of the mark's row h[k, j, :]; the
    total is 0.0 + l0 + l1, np.sum's order below 8 terms, and the mark is
    the first iff u < p0 / c1 (p0 = l0 / lam_tot, c1 = p0 + l1 / lam_tot),
    the bisection of u into [p0 / c1, c1 / c1 = 1.0]. One mark runs as
    two with a lane of zeros, which adds nothing and makes p0 / c1 = 1.0.
    With K >= 3 lambda is a list of K floats, totalled by `math.fsum`
    (no overflow: the total is at most the bound, below 1e12): the draws
    of the array loop, but a total that may round unlike its np.sum.
    """
    if not math.isfinite(horizon):
        # the loop stops only past the horizon
        raise ValueError("horizon must be finite")
    A = params.support_end
    rng = np.random.default_rng(seed)
    K, m, w = params.K, params.n_cells, params.cell_width
    hbar = _dominating_kernels(params)
    # per (mark k, cell c): the bound's increment
    bound_inc = [[float(hbar[k, :, c].sum()) for c in range(m)]
                 for k in range(K)]
    nu = params.nu.tolist()
    if K <= 2:
        # per mark k: its rows h[k, j, :], one per lane j, the second of
        # zeros when K == 1
        rows = [r + [[0.0] * m] * (2 - K) for r in params.h.tolist()]
        nu += [0.0] * (2 - K)
    else:
        # per (mark k, cell c): the row h[k, :, c]
        rows = [[params.h[k, :, c].tolist() for c in range(m)]
                for k in range(K)]
    nu_total = float(params.nu.sum())
    exponential, random = rng.exponential, rng.random

    t = -A - 50.0 * A
    times: list[float] = []
    marks: list[int] = []
    # the events within A of the current time, each as (time, its mark's
    # bound increments, its mark's rows)
    window: deque[tuple[float, list, list]] = deque()

    bound = nu_total
    while True:
        while window and window[0][0] < t - A:
            window.popleft()
        if not math.isfinite(bound) or bound > 1e12:
            raise OverflowError("thinning bound overflow; model unstable?")
        t = t + exponential(1.0 / bound)
        if t > horizon:
            break
        # one pass: the intensities at t, and the next candidate's bound
        # over the events the next pop keeps
        t_keep = t - A
        next_bound = nu_total
        if K <= 2:
            l0, l1 = nu
            for s, inc, (r0, r1) in window:
                age = t - s
                c = int(age / w)
                if c < m and s >= t_keep:
                    next_bound += inc[c]
                if 0.0 < age <= A:
                    if c >= m:
                        c = m - 1
                    l0 += r0[c]
                    l1 += r1[c]
            l0 = l0 if l0 >= 0.0 else 0.0
            l1 = l1 if l1 >= 0.0 else 0.0
            lam_tot = 0.0 + l0 + l1
        else:
            lam = nu
            for s, inc, cells in window:
                age = t - s
                c = int(age / w)
                if c < m and s >= t_keep:
                    next_bound += inc[c]
                if 0.0 < age <= A:
                    lam = list(map(add, lam, cells[min(c, m - 1)]))
            lam = [x if x >= 0.0 else 0.0 for x in lam]
            lam_tot = math.fsum(lam)
        if random() * bound < lam_tot:
            if K <= 2:
                p0 = l0 / lam_tot
                k = 0 if random() < p0 / (p0 + l1 / lam_tot) else 1
            else:
                cdf = list(itertools.accumulate([x / lam_tot for x in lam]))
                last = cdf[-1]
                k = bisect.bisect_right([c / last for c in cdf], random())
            window.append((t, bound_inc[k], rows[k]))
            next_bound += bound_inc[k][0]  # the new event, at age 0
            if t >= -A:
                times.append(t)
                marks.append(k + 1)
            if len(times) > _MAX_EVENTS:
                raise OverflowError("event budget exceeded")
        bound = next_bound
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
    h = params.h
    cell_probs = np.divide(h, h.sum(axis=2, keepdims=True),
                           out=np.zeros((K, K, m)), where=rho[..., None] > 0)

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
