"""Reversible-jump Metropolis-Hastings over (nu, J, theta).

One sweep updates each background rate on the log scale, each
coefficient block by a random walk, and (with probability p_J) the
dimension J. Dimension moves come in two flavours: a step move to an
adjacent dimension via bin-average projection plus Gaussian dither
(histogram basis only), and an exactly reversible scale move that
doubles or halves J (histogram: split every bin with a mirrored
innovation / merge adjacent bins by averaging; Haar: append / drop the
finest level).

Each proposal does only the work its inputs need. A coefficient or
dimension proposal builds one `_Expansion` of its (J, theta), which owns
every term that does not depend on nu: the kernel cell values, the
kernel half of the model class, the dimension and coefficient log priors
and, once the likelihood asks for it, each mark's excitation with its
minimum. A rate move reuses the state's expansion, so it computes only
the rates' prior terms (from one `tolist()` of nu) and each mark's log
terms. A mark's intensity is nonpositive at some event exactly when
nu_k + low[k] <= 0, with low[k] the smallest excitation: correctly
rounded addition is monotone, so that one comparison decides as the
elementwise minimum of nu_k + rows does. Every log is numpy's, every
prior sum is correctly rounded (see `priors`), and no shortcut skips or
adds a generator call, so each draw is the one the plain evaluation gives.
"""

from __future__ import annotations

import array
import functools
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .functionals import eval_functional_values
from .likelihood import LikelihoodCache
from .model import ModelParams
from .priors import PriorSpec, sample_prior
from .stream import EventStream

_LOG_2PI = float(np.log(2.0 * np.pi))
_START_TRIES = 1000
_DITHER = 0.1  # sd of the step move's Gaussian dither
_INNOVATION = 0.1  # sd of the scale move's innovation


def _log_normal(x: np.ndarray, sigma: float) -> float:
    # np.add.reduce over every axis is np.sum without its Python wrapper
    return float(-0.5 * np.add.reduce(x ** 2, axis=None) / sigma ** 2
                 - x.size * (np.log(sigma) + 0.5 * _LOG_2PI))


def project_bins(theta: np.ndarray, j_new: int) -> np.ndarray:
    """Bin-average projection of histogram coefficients (K, K, j) onto
    the regular j_new-bin partition (exact L2 projection)."""
    rows, cols, j = theta.shape
    L = math.lcm(j, j_new)
    fine = np.repeat(theta, L // j, axis=2).reshape(rows, cols, j_new,
                                                    L // j_new)
    # the mean as np.mean computes it: the sum divided by the count
    return np.add.reduce(fine, axis=3) / (L // j_new)


def split_coefficients(theta: np.ndarray,
                       u: np.ndarray) -> np.ndarray:
    """Split every bin: children theta_i + u_i and theta_i - u_i."""
    K, _, j = theta.shape
    out = np.empty((K, K, 2 * j))
    out[:, :, 0::2] = theta + u
    out[:, :, 1::2] = theta - u
    return out


def merge_coefficients(theta: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent bins by averaging; returns (parent, innovation) so
    that split(merge(x)) recovers x up to floating-point rounding."""
    a = theta[:, :, 0::2]
    b = theta[:, :, 1::2]
    return 0.5 * (a + b), 0.5 * (a - b)


class _Expansion:
    """Everything the posterior needs from one (J, theta) that does not
    depend on nu: the kernel cell values h, its model-class check
    (hneg_sup, None outside the class), the dimension and coefficient log
    priors and, once the likelihood asks for it, each mark's excitation."""

    __slots__ = ("J", "theta", "h", "nonneg", "hneg_sup", "dim_lp",
                 "theta_lp", "excitation")

    def __init__(self, spec: PriorSpec, J: int, theta: np.ndarray):
        self.J = J
        self.theta = theta
        self.h = spec.theta_to_h(J, theta)
        self.hneg_sup = spec.kernel_admissible(self.h)
        # a finite h is nonnegative when no mark has a negative part; the
        # likelihood is never evaluated outside the class
        self.nonneg = self.hneg_sup is not None and max(self.hneg_sup) == 0.0
        self.dim_lp = spec.dim_log_pmf(J)
        self.theta_lp = (-np.inf if self.hneg_sup is None
                         else spec.theta_logpdf(theta))
        self.excitation = None


class PosteriorTarget:
    """Posterior evaluation for one data stream and prior, from the
    expansion of a (J, theta). A nu-move passes the state's own
    expansion, so it reuses the kernel terms and recomputes only the
    rate prior and the marks' log terms.
    """

    def __init__(self, stream: EventStream, horizon: float,
                 spec: PriorSpec):
        self.stream = stream
        self.horizon = horizon
        self.spec = spec
        self._caches: dict[int, LikelihoodCache] = {}

    def log_lik(self, nu: np.ndarray, ex: _Expansion) -> float:
        n_cells = ex.h.shape[2]
        cache = self._caches.get(n_cells)
        if cache is None:
            cache = LikelihoodCache(self.stream, self.spec.K, n_cells,
                                    self.spec.support_end, self.horizon)
            self._caches[n_cells] = cache
        if ex.excitation is None:
            ex.excitation = cache.excite(ex.h, ex.nonneg)
        return cache.log_likelihood(nu, ex.excitation)

    def log_pri(self, nu: np.ndarray, ex: _Expansion) -> float:
        """Same value as `log_prior`, from the (J, theta) expansion, which
        holds the dimension and coefficient terms and the kernel half of
        the model class; the rates' terms read one list of nu."""
        if ex.hneg_sup is None:
            return -np.inf
        rates = nu.tolist()
        if not self.spec.rates_admissible(rates, ex.hneg_sup):
            return -np.inf
        # admissible rates are positive: nu_logpdf without its check
        return ex.dim_lp + self.spec._nu_log_terms(rates) + ex.theta_lp


@dataclass(slots=True)
class ChainState:
    nu: np.ndarray
    ex: _Expansion
    log_lik: float
    log_pri: float

    @property
    def J(self) -> int:
        return self.ex.J

    @property
    def theta(self) -> np.ndarray:
        return self.ex.theta

    @classmethod
    def initial(cls, target: PosteriorTarget,
                rng: np.random.Generator) -> "ChainState":
        """A prior draw with finite log-likelihood: a chain started at
        -inf, with every nearby proposal also -inf, would never move."""
        for _ in range(_START_TRIES):
            nu, J, theta = sample_prior(target.spec, rng)
            ex = _Expansion(target.spec, J, theta)
            log_lik = target.log_lik(nu, ex)
            if np.isfinite(log_lik):
                return cls(nu, ex, log_lik, target.log_pri(nu, ex))
        raise RuntimeError(
            f"no prior draw with finite likelihood in {_START_TRIES} tries")


@dataclass
class Scales:
    """Random-walk scales of the rate and coefficient moves; `run_chain`
    adapts them during burn-in."""

    nu: float = 0.3
    theta: float = 0.3


def _try_accept(target: PosteriorTarget, state: ChainState,
                nu, ex: _Expansion, extra: float,
                rng: np.random.Generator) -> tuple[ChainState, bool]:
    """Generic MH accept step; extra carries Hastings/Jacobian terms."""
    lp = target.log_pri(nu, ex)
    if lp == -np.inf:
        return state, False
    ll = target.log_lik(nu, ex)
    if ll == -np.inf:
        return state, False
    log_alpha = (ll + lp) - (state.log_lik + state.log_pri) + extra
    if np.log(rng.random()) <= log_alpha:
        return ChainState(nu, ex, ll, lp), True
    return state, False


def _dimension_proposal(state: ChainState, spec: PriorSpec,
                        rng: np.random.Generator) -> tuple | None:
    """The expansion of a proposed (J, theta) of the dimension move and
    its Hastings/Jacobian term, or None when the proposed dimension is
    not admissible."""
    dims = spec._dim_log_pmf  # keyed by the admissible dimensions
    histogram = spec.basis_kind == "histogram"
    j, theta = state.J, state.theta
    if histogram and rng.integers(2) == 0:
        j_new = j + 1 if rng.random() < 0.5 else j - 1
        if j_new not in dims:
            return None
        base = project_bins(theta, j_new)
        new = base + _DITHER * rng.standard_normal(base.shape)
        back = project_bins(new, j)
        return _Expansion(spec, j_new, new), (
            _log_normal(theta - back, _DITHER)
            - _log_normal(new - base, _DITHER))
    # scale move; the log Jacobian per innovation coefficient is log 2
    # for the histogram split and 0 for the orthonormal Haar level
    log_jac = np.log(2.0) if histogram else 0.0
    if rng.random() < 0.5:
        if 2 * j not in dims:
            return None
        u = _INNOVATION * rng.standard_normal(theta.shape)
        new = (split_coefficients(theta, u) if histogram
               else np.concatenate([theta, u], axis=2))
        return _Expansion(spec, 2 * j, new), (
            u.size * log_jac - _log_normal(u, _INNOVATION))
    if j % 2 or j // 2 not in dims:
        return None
    new, u = (merge_coefficients(theta) if histogram
              else (theta[:, :, :j // 2], theta[:, :, j // 2:]))
    return _Expansion(spec, j // 2, new), (
        _log_normal(u, _INNOVATION) - u.size * log_jac)


def mcmc_step(state: ChainState, target: PosteriorTarget,
              rng: np.random.Generator, scales: Scales,
              p_j: float = 0.2) -> tuple[ChainState, dict]:
    """One sweep; returns the new state and per-move acceptance counts."""
    K = target.spec.K
    normal = rng.standard_normal
    acc_nu = acc_theta = acc_jump = jump_n = 0

    for k in range(K):
        nu = state.nu.copy()
        step = scales.nu * normal()
        nu[k] = state.nu[k] * np.exp(step)
        # log-scale walk: Hastings term log(nu'/nu)
        state, ok = _try_accept(target, state, nu, state.ex, step, rng)
        acc_nu += ok

    for l in range(K):
        for k in range(K):
            theta = state.theta.copy()
            theta[l, k] += normal(state.J) * scales.theta
            ex = _Expansion(target.spec, state.J, theta)
            state, ok = _try_accept(target, state, state.nu, ex, 0.0, rng)
            acc_theta += ok

    if rng.random() < p_j:
        jump_n = 1
        move = _dimension_proposal(state, target.spec, rng)
        if move is not None:
            state, acc_jump = _try_accept(target, state, state.nu, *move,
                                          rng)
    return state, {"nu": acc_nu, "nu_n": K, "theta": acc_theta,
                   "theta_n": K * K, "jump": int(acc_jump),
                   "jump_n": jump_n}


@dataclass
class PosteriorDraws:
    """Thinned post-burn-in states plus run metadata. Draw i has the
    rates nus[i], a row of one (n, K) array, the dimension js[i] and the
    coefficients theta(i), a (K, K, js[i]) view into `theta_flat`, which
    holds every draw's coefficients back to back in draw order."""

    nus: np.ndarray
    js: list
    theta_flat: np.ndarray
    acceptance: dict
    seed: int
    iters: int
    burn_in: int
    thin: int
    spec: PriorSpec

    def __len__(self) -> int:
        return len(self.js)

    @functools.cached_property
    def _theta_starts(self) -> np.ndarray:
        K = self.spec.K
        return np.concatenate(([0], np.cumsum(
            np.array(self.js, dtype=np.intp) * (K * K))))

    def theta(self, i: int) -> np.ndarray:
        i = range(len(self))[i]  # a negative i counts from the end
        K, starts = self.spec.K, self._theta_starts
        return self.theta_flat[starts[i]:starts[i + 1]].reshape(
            K, K, self.js[i])

    def h_values(self, i: int) -> np.ndarray:
        return self.spec.theta_to_h(self.js[i], self.theta(i))

    def l2_distance(self, i: int, f0: ModelParams) -> float:
        """||f - f0||_2 of draw i: rate part plus all kernel slots."""
        h = self.h_values(i)
        m = int(np.lcm(h.shape[2], f0.n_cells))
        hf = np.repeat(h, m // h.shape[2], axis=2)
        h0 = np.repeat(f0.h, m // f0.n_cells, axis=2)
        w = self.spec.support_end / m
        return float(np.sqrt(np.sum((self.nus[i] - f0.nu) ** 2)
                             + w * np.sum((hf - h0) ** 2)))

    def to_csv(self) -> str:
        buf = io.StringIO()
        K = self.spec.K
        nu_cols = ",".join(f"nu_{k + 1}" for k in range(K))
        buf.write(f"iter,J,{nu_cols},theta\n")
        for i in range(len(self)):
            theta_flat = ";".join(
                repr(float(v)) for v in self.theta(i).ravel())
            nu_str = ",".join(repr(float(v)) for v in self.nus[i])
            buf.write(f"{i},{self.js[i]},{nu_str},{theta_flat}\n")
        return buf.getvalue()

    def summary_json(self) -> str:
        js = np.array(self.js)
        return json.dumps({
            "n_draws": len(self),
            "acceptance": self.acceptance,
            "seed": self.seed,
            "iters": self.iters,
            "burn_in": self.burn_in,
            "thin": self.thin,
            "j_mean": float(js.mean()) if len(self) else None,
        })


def run_chain(stream: EventStream, horizon: float, spec: PriorSpec,
              iters: int = 20_000, burn_in: int | None = None,
              thin: int = 5, seed: int = 0, p_j: float = 0.2,
              warn: bool = True) -> PosteriorDraws:
    """Run one chain; proposal scales adapt toward 0.3 acceptance during
    burn-in only (Robbins-Monro) and are frozen afterwards."""
    if burn_in is None:
        burn_in = iters // 5
    if thin < 1:
        raise ValueError("thin must be >= 1")
    rng = np.random.default_rng(seed)
    target = PosteriorTarget(stream, horizon, spec)
    state = ChainState.initial(target, rng)
    scales = Scales()
    # accepted and proposed moves of each type after burn-in
    tally = dict.fromkeys(("nu", "nu_n", "theta", "theta_n", "jump",
                           "jump_n"), 0)
    # the kept sweeps are burn_in, burn_in + thin, ... (those >= 0); their
    # rates fill one array and their coefficients, whose size varies with
    # J, one growing flat buffer, so no draw holds an array of its own
    first = burn_in if burn_in >= 0 else burn_in % thin
    nus = np.empty((len(range(first, iters, thin)), spec.K))
    js, theta_buf = [], array.array("d")
    for it in range(iters):
        state, acc = mcmc_step(state, target, rng, scales, p_j)
        if it < burn_in:
            # sqrt is correctly rounded in math and numpy alike
            gamma = 1.0 / math.sqrt(it + 1.0)
            scales.nu *= float(np.exp(
                gamma * (acc["nu"] / acc["nu_n"] - 0.3)))
            scales.theta *= float(np.exp(
                gamma * (acc["theta"] / acc["theta_n"] - 0.3)))
            continue
        for key in tally:
            tally[key] += acc[key]
        if (it - burn_in) % thin == 0:
            nus[len(js)] = state.nu
            js.append(state.J)
            theta_buf.frombytes(state.theta.tobytes())
    rates = {}
    for name in ("nu", "theta", "jump"):
        ok, n = tally[name], tally[f"{name}_n"]
        # null in JSON, which has no nan: a move type never proposed
        rates[name] = ok / n if n else None
        if warn and n and not 0.1 <= rates[name] <= 0.6:
            warnings.warn(
                f"{name} acceptance rate {rates[name]:.2f} outside "
                "[0.1, 0.6]", stacklevel=2)
    return PosteriorDraws(nus, js, np.frombuffer(theta_buf), rates, seed,
                          iters, burn_in, thin, spec)


def posterior_functional(draws: PosteriorDraws, fspec) -> dict:
    """Posterior sample of a functional with mean, sd and 90% equal-tailed
    credible interval."""
    if len(draws) == 0:
        raise ValueError("no draws")
    A = draws.spec.support_end
    samples = np.array([
        eval_functional_values(fspec, draws.nus[i], draws.h_values(i), A)
        for i in range(len(draws))])
    return {"samples": samples, "mean": float(samples.mean()),
            "sd": float(samples.std(ddof=1)) if len(samples) > 1 else 0.0,
            "ci": equal_tailed_interval(samples, 0.90)}


def equal_tailed_interval(samples: np.ndarray,
                          level: float) -> tuple[float, float]:
    """The equal-tailed credible interval of a posterior sample: the
    values of np.quantile(samples, [alpha, 1 - alpha]) from one sort."""
    alpha = (1.0 - level) / 2.0
    x = np.sort(samples)
    return _sorted_quantile(x, alpha), _sorted_quantile(x, 1.0 - alpha)


def _sorted_quantile(x: np.ndarray, q: float) -> float:
    """np.quantile(x, q) of a sorted sample by numpy's default linear
    rule, bit for bit, without the numpy.ma import np.quantile makes:
    the index v = (n - 1) q, clipped to the last one, and the
    interpolation a + (b - a) t, or b - (b - a) (1 - t) when t >= 0.5.
    A NaN sorts last and gives NaN, as in numpy."""
    n = x.size
    if np.isnan(x[-1]):
        return float(x[-1])
    v = (n - 1) * q
    if v >= n - 1:
        # numpy clips both neighbours to index -1 and takes t against it
        i = j = n - 1
        t = v + 1.0
    else:
        i = math.floor(v)
        j, t = i + 1, v - i
    a, b = float(x[i]), float(x[j])
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def median(values) -> float:
    """np.median of a nonempty sample, bit for bit, without the numpy.ma
    import np.median makes: the middle value, or (a + b) / 2 of the two
    middle values; NaN if a value is NaN."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if np.isnan(x[-1]):
        return float(x[-1])
    if n % 2:
        return float(x[n // 2])
    return (float(x[n // 2 - 1]) + float(x[n // 2])) / 2.0


def ess(samples: np.ndarray) -> float:
    """Effective sample size n / tau by Geyer's initial positive sequence:
    tau = 1 + 2 * sum of the autocorrelation pairs rho_t + rho_{t+1}
    (t = 1, 3, ...) up to the first non-positive pair.

    Each rho_t is a direct lagged product sum(x_i x_{i+t}) / sum(x_i^2)
    of the centered sample, taken only up to that pair, so a chain that
    mixes well costs a few dot products, not a transform over all n
    lags."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 10:
        raise ValueError("need at least 10 samples")
    x = x - x.mean()
    c0 = np.dot(x, x)
    if c0 == 0.0:
        return float(n)  # constant chain: no autocorrelation information
    tau = 1.0
    t = 1
    while t + 1 < n:
        pair = (np.dot(x[:n - t], x[t:])
                + np.dot(x[:n - t - 1], x[t + 1:])) / c0
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        t += 2
    return float(n / tau)
