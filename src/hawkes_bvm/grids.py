"""Perturbation directions (xi, g), piecewise constant on a uniform grid
of [0, A], and the one grid-compatibility check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def check_same_grid(a, b) -> None:
    """Raise ValueError unless a and b (each a ModelParams, Direction or
    PalmEstimates) have the same K, cell count and support end."""
    if (a.K != b.K or a.n_cells != b.n_cells
            or a.support_end != b.support_end):
        raise ValueError("grid mismatch")


@dataclass(frozen=True)
class Direction:
    """A perturbation (xi, g) of the Hawkes parameters.

    xi has shape (K,), g has shape (K, K, m): g[l, k] perturbs the
    interaction function from mark l onto mark k, piecewise constant on
    the shared grid of [0, support_end].
    """

    xi: np.ndarray
    g: np.ndarray
    support_end: float

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if xi.ndim != 1:
            raise ValueError("xi must be 1-d")
        K = xi.size
        if g.shape[:2] != (K, K) or g.ndim != 3:
            raise ValueError("g must have shape (K, K, m)")
        if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(g))):
            raise ValueError("entries must be finite")
        xi = xi.copy(); xi.flags.writeable = False
        g = g.copy(); g.flags.writeable = False
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "g", g)

    @property
    def K(self) -> int:
        return self.xi.size

    @property
    def n_cells(self) -> int:
        return self.g.shape[2]

    @property
    def cell_width(self) -> float:
        return self.support_end / self.n_cells

    def l2_inner(self, other: "Direction") -> float:
        """Canonical inner product: xi.xi' + sum_{l,k} int g g'."""
        check_same_grid(self, other)
        return float(np.dot(self.xi, other.xi)
                     + self.cell_width * np.sum(self.g * other.g))

    def l2_norm(self) -> float:
        return float(np.sqrt(self.l2_inner(self)))

    def refine(self, factor: int) -> "Direction":
        """The same direction on a grid refined by an integer factor."""
        if factor < 1:
            raise ValueError("factor must be a positive integer")
        return Direction(self.xi, np.repeat(self.g, factor, axis=2),
                         self.support_end)
