"""Piecewise-constant functions on a uniform grid of [0, A] and
perturbation directions (xi, g)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridFunction:
    """A piecewise-constant function on [0, A].

    Cell i covers [i*A/m, (i+1)*A/m) (the last cell is closed at A).
    All integrals against other functions on the same grid are exact.
    """

    support_end: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if self.support_end <= 0:
            raise ValueError("support_end must be positive")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_cells(self) -> int:
        return self.values.size

    @property
    def cell_width(self) -> float:
        return self.support_end / self.values.size

    def cell_index(self, x: float | np.ndarray) -> np.ndarray:
        """Index of the cell containing x, for x in [0, A]."""
        idx = np.floor(np.asarray(x) / self.cell_width).astype(int)
        return np.clip(idx, 0, self.n_cells - 1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(
            (x >= 0) & (x <= self.support_end),
            self.values[self.cell_index(np.clip(x, 0.0, self.support_end))],
            0.0,
        )
        return out if out.ndim else float(out)

    def integral(self) -> float:
        return float(self.cell_width * self.values.sum())

    def integral_to(self, x: float) -> float:
        """Exact integral of the function over [0, min(x, A)]."""
        if x <= 0:
            return 0.0
        x = min(x, self.support_end)
        w = self.cell_width
        full = int(np.floor(x / w))
        full = min(full, self.n_cells)
        total = w * self.values[:full].sum()
        if full < self.n_cells:
            total += (x - full * w) * self.values[full]
        return float(total)

    def l2_inner(self, other: "GridFunction") -> float:
        self._check_grid(other)
        return float(self.cell_width * np.dot(self.values, other.values))

    def l2_norm(self) -> float:
        return float(np.sqrt(self.l2_inner(self)))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _check_grid(self, other: "GridFunction"):
        if (other.support_end != self.support_end
                or other.n_cells != self.n_cells):
            raise ValueError("grid mismatch")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_grid(other)
        return GridFunction(self.support_end, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_grid(other)
        return GridFunction(self.support_end, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.support_end, self.values * float(c))

    __rmul__ = __mul__


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

    def __add__(self, other: "Direction") -> "Direction":
        check_same_grid(self, other)
        return Direction(self.xi + other.xi, self.g + other.g, self.support_end)

    def __sub__(self, other: "Direction") -> "Direction":
        check_same_grid(self, other)
        return Direction(self.xi - other.xi, self.g - other.g, self.support_end)

    def __mul__(self, c: float) -> "Direction":
        return Direction(self.xi * c, self.g * c, self.support_end)

    __rmul__ = __mul__

    def refine(self, factor: int) -> "Direction":
        """The same direction on a grid refined by an integer factor."""
        if factor < 1:
            raise ValueError("factor must be a positive integer")
        return Direction(self.xi, np.repeat(self.g, factor, axis=2),
                         self.support_end)
