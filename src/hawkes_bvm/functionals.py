"""Smooth real functionals of the Hawkes parameters and their L2 Riesz
representors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Direction
from .model import ModelParams

_KINDS = ("background", "squared_l2", "linear")


@dataclass(frozen=True)
class FunctionalSpec:
    """One of: background(k) = nu_k; squared_l2(l,k) = int h_{l,k}^2;
    linear(l,k,a) = int a h_{l,k}. Marks are 1-based; a is a grid
    function given by its cell values (broadcast if scalar)."""

    kind: str
    l: int = 1
    k: int = 1
    a: np.ndarray | float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.l < 1 or self.k < 1:
            raise ValueError("marks are 1-based")

    def _a_values(self, n_cells: int) -> np.ndarray:
        a = np.asarray(self.a, dtype=float)
        if a.ndim == 0:
            return np.full(n_cells, float(a))
        if a.size == n_cells:
            return a
        if n_cells % a.size == 0:
            return np.repeat(a, n_cells // a.size)
        raise ValueError("weight function incompatible with the grid")

    def describe(self) -> str:
        if self.kind == "background":
            return f"nu_{self.k}"
        if self.kind == "squared_l2":
            return f"||h_{self.l}{self.k}||_2^2"
        return f"int a*h_{self.l}{self.k}"


def parse_functional(text: str) -> FunctionalSpec:
    """Parse config syntax: 'background k', 'squared_l2 l k',
    'linear l k [weight]' (constant weight, default 1)."""
    parts = text.split()
    if not parts:
        raise ValueError("empty functional spec")
    kind = parts[0]
    if kind == "background":
        if len(parts) != 2:
            raise ValueError("background takes one mark index")
        return FunctionalSpec(kind, k=int(parts[1]))
    if kind == "squared_l2":
        if len(parts) != 3:
            raise ValueError("squared_l2 takes two mark indices")
        return FunctionalSpec(kind, l=int(parts[1]), k=int(parts[2]))
    if kind == "linear":
        if len(parts) not in (3, 4):
            raise ValueError("linear takes two mark indices and an "
                             "optional constant weight")
        a = float(parts[3]) if len(parts) == 4 else 1.0
        return FunctionalSpec(kind, l=int(parts[1]), k=int(parts[2]), a=a)
    raise ValueError(f"unknown functional kind {kind!r}")


def _check_indices(spec: FunctionalSpec, K: int) -> None:
    if spec.k > K or (spec.kind != "background" and spec.l > K):
        raise ValueError("mark index out of range")


def eval_functional(spec: FunctionalSpec, params: ModelParams) -> float:
    """Exact grid evaluation of the functional at the parameters."""
    return eval_functional_values(spec, params.nu, params.h,
                                  params.support_end)


def eval_functional_values(spec: FunctionalSpec, nu: np.ndarray,
                           h: np.ndarray, support_end: float) -> float:
    """Evaluate the functional on raw (nu, h) arrays, bypassing model
    validation (used on MCMC draws)."""
    _check_indices(spec, nu.size)
    if spec.kind == "background":
        return float(nu[spec.k - 1])
    hv = h[spec.l - 1, spec.k - 1]
    w = support_end / hv.size
    if spec.kind == "squared_l2":
        return float(w * np.sum(hv ** 2))
    return float(w * np.dot(spec._a_values(hv.size), hv))


def riesz_representor(spec: FunctionalSpec, f0: ModelParams) -> Direction:
    """The L2 gradient of the functional at f0 as a direction."""
    _check_indices(spec, f0.K)
    K, m = f0.K, f0.n_cells
    xi = np.zeros(K)
    g = np.zeros((K, K, m))
    if spec.kind == "background":
        xi[spec.k - 1] = 1.0
    elif spec.kind == "squared_l2":
        g[spec.l - 1, spec.k - 1] = 2.0 * f0.h[spec.l - 1, spec.k - 1]
    else:
        g[spec.l - 1, spec.k - 1] = spec._a_values(m)
    return Direction(xi, g, f0.support_end)
