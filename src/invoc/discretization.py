"""One-dimensional finite-difference discretization of the unit interval.

Interior-node grid for the homogeneous Dirichlet Laplacian on (0, 1):
N interior nodes omega_i = i*h with h = 1/(N+1).  Grid functions are plain
float vectors of length N.  All pairings use the weighted inner product
<u, v> = h * sum(u_i * v_i); dual quantities (adjoint states, point
evaluation functionals) are stored as Riesz coefficient vectors under that
product, so a Dirac at node i is e_i / h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs

from .errors import DimensionError, GridError


@dataclass(frozen=True)
class Grid:
    """Uniform interior-node grid on (0, 1) with mesh width h = 1/(N+1)."""

    n_nodes: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_nodes, (int, np.integer)):
            raise GridError(f"node count must be an integer, got {self.n_nodes!r}")
        if self.n_nodes < 2:
            raise GridError(f"need at least 2 interior nodes, got {self.n_nodes}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n_nodes + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_nodes + 1)


def build_grid(n_nodes: int) -> Grid:
    """Create a grid with the given number of interior nodes (at least 2)."""
    return Grid(n_nodes)


def _check_length(grid: Grid, v: np.ndarray, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[0] != grid.n_nodes:
        raise DimensionError(
            f"{name} has length {v.shape[0]}, grid has {grid.n_nodes} nodes"
        )
    return v


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Weighted inner product h * sum(u_i * v_i)."""
    u = _check_length(grid, u, "u")
    v = _check_length(grid, v, "v")
    return float(grid.h * np.dot(u, v))


def norm(grid: Grid, u: np.ndarray) -> float:
    """Norm induced by the weighted inner product."""
    u = _check_length(grid, u, "u")
    return float(np.sqrt(grid.h) * np.linalg.norm(u))


class EllipticOperator:
    """Dirichlet Laplacian A = tridiag(-1, 2, -1)/h^2 with a cached factorization.

    A is symmetric positive definite with respect to the weighted inner
    product, so apply and solve serve for the adjoint equations too.  The
    Cholesky factorization of the banded matrix is computed once at
    construction; solves accept a vector or a matrix of stacked columns.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.n_nodes
        h2 = grid.h * grid.h
        ab = np.empty((2, n))
        ab[0, :] = -1.0 / h2
        ab[0, 0] = 0.0
        ab[1, :] = 2.0 / h2
        self._factor = cholesky_banded(ab)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Apply the stencil (-y_{i-1} + 2 y_i - y_{i+1})/h^2 with zero boundary."""
        y = _check_length(self.grid, y, "state")
        h2 = self.grid.h * self.grid.h
        out = 2.0 * y
        out[:-1] -= y[1:]
        out[1:] -= y[:-1]
        return out / h2

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A y = rhs (vector or matrix of columns) by LAPACK dpbtrs."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.grid.n_nodes:
            raise DimensionError(
                f"rhs has leading dimension {rhs.shape[0]}, "
                f"grid has {self.grid.n_nodes} nodes"
            )
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        return dpbtrs(self._factor, rhs)[0]
