"""Random-series priors on (nu, h): basis families, link, coefficient and
dimension priors and the contraction-rate schedule.

The terms a chain evaluates on every proposal (`PriorSpec.nu_logpdf`,
`theta_logpdf`, `kernel_admissible` and `rates_admissible`) run on Python
floats: they see from one to a few hundred numbers per call, and on
arrays that small numpy's per-call overhead costs several times the
arithmetic. They keep numpy's arithmetic bit for bit, so that a chain's
draws do not depend on how the terms are written:

- every log is numpy's own on the Python float (`math.log` differs from
  `np.log` in the last bit on some inputs);
- every sum adds its terms in the order `np.sum` uses (`_np_sum`), not
  left to right, which differs from 8 terms on;
- every expression keeps the operation order of the array form, and a
  constant hoisted out of it is computed by the same expression.

`tests/test_priors.py` keeps the array forms as the reference and
requires equal results.

A chain splits `log_prior` along what each proposal changes. Its
expansion of a (J, theta) (`mcmc._Expansion`) owns the nu-free terms,
computed once: `dim_log_pmf`, `kernel_admissible` (for K = 1 with no
`spectral_radius` call: the Perron root of a 1x1 matrix is its entry,
already compared with 1) and `theta_logpdf`. `PosteriorTarget.log_pri`
adds the rates' terms, `rates_admissible` and then the Gamma terms on
the same list of floats (`_floats` passes a list as it is), in
`log_prior`'s order of additions, so the two agree bit for bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._special import gammaln
from .model import spectral_radius


@dataclass(frozen=True)
class BasisFamily:
    """A finite family of piecewise-constant basis functions on [0, A].

    matrix[a, c] is the value of function a on grid cell c; histogram
    bases are indicators of a regular partition, Haar bases are the
    orthonormal scaling + wavelet functions up to a resolution.
    """

    kind: str
    support_end: float
    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or not np.all(np.isfinite(M)):
            raise ValueError("matrix must be finite and 2-d")
        if np.linalg.matrix_rank(M) < M.shape[0]:
            raise ValueError("basis functions must be independent")
        M = M.copy(); M.flags.writeable = False
        object.__setattr__(self, "matrix", M)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cells(self) -> int:
        return self.matrix.shape[1]

    @property
    def cell_width(self) -> float:
        return self.support_end / self.n_cells

    def gram(self) -> np.ndarray:
        return self.cell_width * self.matrix @ self.matrix.T

    def series(self, theta: np.ndarray) -> np.ndarray:
        """Cell values of theta^T B."""
        return np.asarray(theta, dtype=float) @ self.matrix


def histogram_basis(j: int, support_end: float) -> BasisFamily:
    """Indicators of the regular j-bin partition of [0, A]."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return BasisFamily("histogram", support_end, np.eye(j))


def haar_basis(resolution: int, support_end: float) -> BasisFamily:
    """Orthonormal Haar system up to the given resolution: scaling
    function plus wavelet levels 0..resolution, 2^(resolution+1)
    functions in total."""
    if resolution < 0:
        raise ValueError("resolution must be >= 0")
    n = 2 ** (resolution + 1)
    A = support_end
    rows = [np.full(n, 1.0 / np.sqrt(A))]
    for q in range(resolution + 1):
        for s in range(2 ** q):
            row = np.zeros(n)
            width = n // 2 ** q
            lo = s * width
            row[lo:lo + width // 2] = 2 ** (q / 2.0) / np.sqrt(A)
            row[lo + width // 2:lo + width] = -(2 ** (q / 2.0)) / np.sqrt(A)
            rows.append(row)
    return BasisFamily("haar", A, np.array(rows))


@functools.lru_cache(maxsize=None)
def _basis_cached(kind: str, J: int, support_end: float) -> BasisFamily:
    if kind == "histogram":
        return histogram_basis(J, support_end)
    # Haar dimension J must be a power of two >= 2
    resolution = int(np.log2(J)) - 1
    if 2 ** (resolution + 1) != J:
        raise ValueError("haar dimension must be a power of two")
    return haar_basis(resolution, support_end)


def _np_sum(x: list) -> float:
    """Sum of a list of floats in the order of `np.sum` over a contiguous
    float64 array: left to right below 8 terms; up to 128 terms 8
    interleaved accumulators combined pairwise, then the remainder in
    order; above 128 the two halves, the first a multiple of 8 long,
    summed alike. numpy adds the result to its identity 0.0, so a sum of
    zeros is +0.0; the empty sum is 0.0."""
    n = len(x)
    if n < 8:
        res = 0.0
        for v in x:
            res += v
        return res
    if n > 128:
        n2 = n // 2
        n2 -= n2 % 8
        return _np_sum(x[:n2]) + _np_sum(x[n2:])
    r0, r1, r2, r3, r4, r5, r6, r7 = x[:8]
    m = n - n % 8
    for i in range(8, m, 8):
        r0 += x[i]
        r1 += x[i + 1]
        r2 += x[i + 2]
        r3 += x[i + 3]
        r4 += x[i + 4]
        r5 += x[i + 5]
        r6 += x[i + 6]
        r7 += x[i + 7]
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(m, n):
        res += x[i]
    return 0.0 + res


def _rejects_below(x: list, bound: float, strict: bool) -> bool:
    """`x.min() < bound` (or `<=`) as numpy decides it: a nan anywhere
    makes the minimum nan, which rejects nothing."""
    lo = min(x)
    if not (lo < bound if strict else lo <= bound):
        return False
    return not any(v != v for v in x)


def _floats(x: np.ndarray | list[float]) -> list[float]:
    """x flattened to a list of Python floats. A list is taken as it is:
    a chain converts its rates once per proposal and passes the list."""
    if type(x) is list:
        return x
    return np.asarray(x, dtype=float).ravel().tolist()


def softplus(x):
    return np.logaddexp(0.0, x)


_LINKS = {"identity": lambda x: x, "softplus": softplus}


@dataclass(frozen=True)
class PriorSpec:
    """Hierarchical random-series prior on (nu, J, theta).

    J ~ pmf proportional to exp(-c1 j log j) on 1..J_max; theta entries
    i.i.d. from the named family; nu entries i.i.d. Gamma; the draw is
    kept only inside the admissible model class.
    """

    K: int = 1
    basis_kind: str = "histogram"
    c1: float = 1.0
    J_max: int = 32
    theta_family: str = "shifted-exponential"
    kappa: float = 0.0
    rate: float = 1.0
    sigma: float = 1.0
    nu_shape: float = 2.0
    nu_rate: float = 1.0
    link: str = "identity"
    support_end: float = 1.0

    def __post_init__(self):
        if self.theta_family not in ("shifted-exponential",
                                     "truncated-gaussian", "gaussian"):
            raise ValueError("unknown coefficient family")
        if self.link not in _LINKS:
            raise ValueError("unknown link")
        if self.basis_kind not in ("histogram", "haar"):
            raise ValueError("unknown basis kind")
        if self.J_max < 1:
            raise ValueError("need J_max >= 1")
        if not self.admissible_dims().size:
            raise ValueError("no admissible dimension up to J_max; "
                             "a haar basis needs J_max >= 2")
        for name in ("c1", "sigma", "rate", "nu_shape", "nu_rate"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")

    def basis(self, J: int) -> BasisFamily:
        return _basis_cached(self.basis_kind, J, self.support_end)

    def admissible_dims(self) -> np.ndarray:
        dims = np.arange(1, self.J_max + 1)
        if self.basis_kind == "haar":
            dims = dims[(dims & (dims - 1) == 0) & (dims >= 2)]
        return dims

    def j_log_pmf(self) -> tuple[np.ndarray, np.ndarray]:
        """(dims, normalized log pmf) of the dimension prior."""
        table = self._dim_log_pmf
        return np.array(list(table)), np.array(list(table.values()))

    def theta_to_h(self, J: int, theta: np.ndarray) -> np.ndarray:
        """Kernel cell values phi(theta^T B_J), shape (K, K, n_cells).

        A histogram basis is the identity matrix, so its series is theta
        itself, not the product with the identity: a new array, as the
        product gave, not a view of theta. For finite theta the values are
        equal (a zero may differ in sign); where theta is infinite the
        product gave nan."""
        theta = np.asarray(theta, dtype=float)
        if J < 1 or theta.shape != (self.K, self.K, J):
            raise ValueError("theta must have shape (K, K, J), J >= 1")
        if self.basis_kind == "histogram":
            return (theta.copy() if self.link == "identity"
                    else softplus(theta))
        basis = self.basis(J)
        series = theta.reshape(-1, J) @ basis.matrix
        return _LINKS[self.link](series).reshape(
            self.K, self.K, basis.n_cells)

    def dim_log_pmf(self, J: int) -> float:
        """Log pmf of dimension J; -inf off the admissible dimensions."""
        return self._dim_log_pmf.get(J, -np.inf)

    @functools.cached_property
    def _dim_log_pmf(self) -> dict[int, float]:
        dims = self.admissible_dims()
        logw = -self.c1 * dims * np.log(dims)
        logw = logw - (np.log(np.sum(np.exp(logw - logw.max())))
                       + logw.max())
        return dict(zip(dims.tolist(), logw.tolist()))

    def kernel_admissible(self, h: np.ndarray) -> list[float] | None:
        """The nu-free half of the model class: finite h whose positive
        part is entrywise and spectrally subcritical. Returns hneg_sup,
        for each target mark the sup of the negative part over source
        marks and cells, which its rate must exceed; None outside the
        class."""
        K, n = h.shape[0], h.shape[2]
        flat = h.ravel().tolist()
        if not all(map(math.isfinite, flat)):
            return None
        w = self.support_end / n
        rho_plus = []
        hneg_sup = [0.0] * K
        for i in range(0, len(flat), n):  # the cells of slot (l, k)
            row = flat[i:i + n]
            rho_plus.append(w * _np_sum([v if v > 0.0 else 0.0
                                         for v in row]))
            k = i // n % K
            hneg_sup[k] = max(hneg_sup[k], -min(row))
        # with one mark the Perron root is the entry compared with 1 here
        if max(rho_plus) >= 1.0 or (K > 1
                                    and spectral_radius(rho_plus) >= 1.0):
            return None
        return hneg_sup

    @staticmethod
    def rates_admissible(nu: np.ndarray | list[float], hneg_sup) -> bool:
        """The nu half of the model class: positive finite rates that
        dominate the kernel's hneg_sup."""
        rates = _floats(nu)
        if len(rates) != len(hneg_sup):
            raise ValueError("need one rate per mark")
        for v, s in zip(rates, hneg_sup):
            if not (0.0 < v < math.inf and v - s > 0):
                return False
        return True

    def in_model_class(self, nu: np.ndarray, h: np.ndarray) -> bool:
        """Membership in the admissible class: positive rates, entrywise
        and spectrally subcritical positive part, rates dominating the
        negative-part sup."""
        hneg_sup = self.kernel_admissible(h)
        return hneg_sup is not None and self.rates_admissible(nu, hneg_sup)

    def _theta_sampler(self):
        """The coefficient draw as draw(rng, size). Each family follows
        the recipe of scipy's frozen distribution, standard draw * scale
        + loc (loc added even when it is 0), so the values are scipy's
        bit for bit."""
        if self.theta_family == "shifted-exponential":
            scale, loc = 1.0 / self.rate, self.kappa
            return lambda rng, size: (rng.standard_exponential(size) * scale
                                      + loc)
        if self.theta_family == "gaussian":
            sigma = self.sigma
            return lambda rng, size: rng.standard_normal(size) * sigma + 0.0
        # the one scipy.stats import (slow to load): its ppf-based sampler
        # is not worth copying, and no default config uses this family
        from scipy import stats
        dist = stats.truncnorm(self.kappa / self.sigma, np.inf,
                               loc=0.0, scale=self.sigma)
        return lambda rng, size: dist.rvs(size=size, random_state=rng)

    @functools.cached_property
    def _theta_log_norm(self) -> float:
        """The per-coefficient constant of the coefficient log density."""
        if self.theta_family == "shifted-exponential":
            return float(np.log(self.rate))
        c = np.log(self.sigma) + 0.5 * np.log(2 * np.pi)
        if self.theta_family == "truncated-gaussian":
            # log P(Z > kappa / sigma), as scipy's norm.logsf computes it;
            # imported here, as scipy.stats is, since no default config
            # uses this family
            from scipy.special import log_ndtr
            c += float(log_ndtr(-(self.kappa / self.sigma)))
        return float(c)

    @functools.cached_property
    def _nu_log_norm(self) -> float:
        """The per-rate constant of the Gamma log density."""
        a, b = self.nu_shape, self.nu_rate
        return float(a * np.log(b) - gammaln(float(a)))

    def theta_logpdf(self, theta: np.ndarray) -> float:
        x = _floats(theta)
        c = self._theta_log_norm
        if self.theta_family == "shifted-exponential":
            if _rejects_below(x, self.kappa, strict=True):
                return -np.inf
            kappa = self.kappa
            return len(x) * c - self.rate * _np_sum([v - kappa for v in x])
        if (self.theta_family == "truncated-gaussian"
                and _rejects_below(x, self.kappa, strict=True)):
            return -np.inf
        sigma = self.sigma
        z = [v / sigma for v in x]
        # t * t is numpy's `** 2` on an array (np.square)
        return -0.5 * _np_sum([t * t for t in z]) - len(x) * c

    def nu_logpdf(self, nu: np.ndarray | list[float]) -> float:
        x = _floats(nu)
        if _rejects_below(x, 0.0, strict=False):
            return -np.inf
        return self._nu_log_terms(x)

    def _nu_log_terms(self, x: list[float]) -> float:
        """The Gamma log density of positive rates, with no check."""
        a1, b = self.nu_shape - 1, self.nu_rate
        return (_np_sum([a1 * float(np.log(v)) - b * v for v in x])
                + len(x) * self._nu_log_norm)


def log_prior(nu: np.ndarray, J: int, theta: np.ndarray,
              spec: PriorSpec) -> float:
    """Unnormalized log prior density; -inf outside the model class."""
    total = spec.dim_log_pmf(J)
    if total == -np.inf:
        return -np.inf
    h = spec.theta_to_h(J, theta)
    if not spec.in_model_class(np.asarray(nu, dtype=float), h):
        return -np.inf
    total += spec.nu_logpdf(np.asarray(nu, dtype=float))
    total += spec.theta_logpdf(theta)
    return total


def sample_prior(spec: PriorSpec,
                 rng: np.random.Generator | int = 0
                 ) -> tuple[np.ndarray, int, np.ndarray]:
    """Rejection-sample (nu, J, theta) from the restricted prior, with at
    most 10,000 draws."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    dims, logpmf = spec.j_log_pmf()
    pmf = np.exp(logpmf)
    pmf /= pmf.sum()
    # nu ~ Gamma(nu_shape, rate nu_rate) by scipy's recipe, as for theta
    nu_scale = 1.0 / spec.nu_rate
    draw_theta = spec._theta_sampler()
    for _ in range(10_000):
        J = int(rng.choice(dims, p=pmf))
        nu = rng.standard_gamma(spec.nu_shape, spec.K) * nu_scale + 0.0
        theta = draw_theta(rng, (spec.K, spec.K, J))
        if spec.in_model_class(nu, spec.theta_to_h(J, theta)):
            return nu, J, theta
    raise RuntimeError("prior rejection cap exceeded; spec too aggressive")


@dataclass(frozen=True)
class RateSchedule:
    eps_bar: float
    j_bar: float
    eps: float
    j_dim: int


def rate_schedule(beta: float, T: float, c_eps: float = 1.0,
                  c_j: float = 1.0, j0: float = 1.0) -> RateSchedule:
    """Contraction-rate schedule for a beta-smooth truth at horizon T."""
    if T <= np.e:
        raise ValueError("need T > e")
    if beta <= 0.5:
        warnings.warn("beta <= 1/2: asymptotic guarantees unavailable",
                      stacklevel=2)
    lt = np.log(T)
    denom = 2.0 * beta + 1.0
    eps_bar = c_eps * T ** (-beta / denom) * lt ** (beta / denom)
    j_bar = c_j * T ** (1.0 / denom) * lt ** ((3.0 * beta + 1.0) / denom)
    return RateSchedule(float(eps_bar), float(j_bar),
                        float(lt * eps_bar),
                        int(np.ceil(j0 * j_bar)))
