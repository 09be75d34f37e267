"""Hawkes model parameters, stationarity checks and stationary rates."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


def spectral_radius(rho: np.ndarray | list[float]) -> float:
    """Largest eigenvalue modulus of a nonnegative square matrix.

    rho is the matrix, or its n*n entries in row-major order as a flat
    list of Python floats: the prior's model-class check has them so and
    calls this on every coefficient proposal with K >= 2. Closed form for
    1x1 and 2x2 matrices, whose eigenvalues are real for nonnegative
    entries (the larger one is the Perron root); the dense spectrum above
    that.
    """
    if isinstance(rho, list) and rho and type(rho[0]) is float:
        entries = rho
        n = math.isqrt(len(entries))
        if n * n != len(entries):
            raise ValueError("rho must be a square matrix")
    else:
        rho = np.asarray(rho, dtype=float)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("rho must be a square matrix")
        entries = rho.ravel().tolist()
        n = rho.shape[0]
    # the checks and the closed forms run on Python floats
    if any(v < 0 for v in entries):
        raise ValueError("rho must be entrywise nonnegative")
    if n == 1:
        return entries[0]
    if n == 2:
        # (a + d)/2 + sqrt(((a - d)/2)^2 + bc), never forming bc, which
        # can underflow
        a, b, c, d = entries
        return 0.5 * (a + d) + math.hypot(0.5 * (a - d),
                                          math.sqrt(b) * math.sqrt(c))
    return float(np.max(np.abs(np.linalg.eigvals(
        np.reshape(entries, (n, n))))))


@dataclass(frozen=True)
class ModelParams:
    """Parameters f = (nu, h) of a (linear or ReLU) Hawkes process.

    nu has shape (K,); h has shape (K, K, m) with h[l, k] the interaction
    of mark l onto mark k, piecewise constant on the uniform m-cell grid
    of [0, A].
    """

    nu: np.ndarray
    h: np.ndarray
    support_end: float
    kind: str = "linear"

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if nu.ndim != 1 or np.any(nu <= 0) or not np.all(np.isfinite(nu)):
            raise ValueError("nu must be a vector of positive finite rates")
        K = nu.size
        if h.ndim != 3 or h.shape[:2] != (K, K) or h.shape[2] < 1:
            raise ValueError("h must have shape (K, K, m) with m >= 1")
        if not np.all(np.isfinite(h)):
            raise ValueError("h values must be finite")
        # the cell width A/m must be a positive finite number
        if not 0.0 < self.support_end < np.inf:
            raise ValueError("support_end must be positive and finite")
        if self.kind not in ("linear", "relu"):
            raise ValueError("kind must be 'linear' or 'relu'")
        if self.kind == "linear" and np.any(h < 0):
            raise ValueError("linear model requires nonnegative h")
        nu = nu.copy(); nu.flags.writeable = False
        h = h.copy(); h.flags.writeable = False
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "h", h)
        if spectral_radius(self.rho_plus()) >= 1.0:
            raise ValueError("spectral radius of rho_+ must be < 1")
        if self.kind == "relu":
            hneg_sup = np.max(np.maximum(-h, 0.0), axis=(0, 2))
            if np.any(nu - hneg_sup <= 0):
                raise ValueError(
                    "relu model requires min_k(nu_k - max_l sup h^-_{l,k}) > 0")

    @property
    def K(self) -> int:
        return self.nu.size

    @property
    def n_cells(self) -> int:
        return self.h.shape[2]

    @property
    def cell_width(self) -> float:
        return self.support_end / self.n_cells

    def rho(self) -> np.ndarray:
        """Entrywise kernel integrals, rho[l, k] = int h_{l,k}."""
        return self.cell_width * self.h.sum(axis=2)

    def rho_plus(self) -> np.ndarray:
        return self.cell_width * np.maximum(self.h, 0.0).sum(axis=2)

    def to_json(self) -> str:
        return json.dumps({
            "K": self.K,
            "A": self.support_end,
            "m": self.n_cells,
            "kind": self.kind,
            "nu": self.nu.tolist(),
            "h": [[self.h[l, k].tolist() for k in range(self.K)]
                  for l in range(self.K)],
        })

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        doc = json.loads(text)
        h = np.array(doc["h"], dtype=float)
        if h.shape != (doc["K"], doc["K"], doc["m"]):
            raise ValueError("h shape inconsistent with K and m")
        return cls(np.array(doc["nu"], dtype=float), h,
                   float(doc["A"]), doc.get("kind", "linear"))


def stationary_rates(params: ModelParams) -> np.ndarray:
    """Mean event rates mu solving (I - rho^T) mu = nu, linear model."""
    if params.kind != "linear":
        raise ValueError("stationary rates require the linear model")
    # rho is rho_plus here, whose spectral radius ModelParams bounds below 1
    return np.linalg.solve(np.eye(params.K) - params.rho().T, params.nu)
