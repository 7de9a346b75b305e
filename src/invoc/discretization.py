"""One-dimensional finite-difference discretization of the unit interval.

Interior-node grid for the homogeneous Dirichlet Laplacian on (0, 1):
N interior nodes omega_i = i*h with h = 1/(N+1).  Grid functions are plain
float vectors of length N.  All pairings use the weighted inner product
<u, v> = h * sum(u_i * v_i); dual quantities (adjoint states, point
evaluation functionals) are stored as Riesz coefficient vectors under that
product, so a Dirac at node i is e_i / h.  Every solve with the Laplacian
goes through one tridiagonal LDL^T factor per grid, column by column:
LAPACK's dpttrf and dpttrs, taken from scipy's Fortran wrappers by _lapack
so that importing the package does not run scipy.linalg's init.  The
operator holds only the grid and that factor; the tracking QPs build their
own band systems.  A's spectrum is here too: its eigenvalues and the exact
sine transform that diagonalizes it, by numpy.fft, which loads on the first
transform.  Vector arguments are checked by errors._vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dpttrf, dpttrs
from .errors import ConvergenceError, DimensionError, DomainError, GridError, _vector


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


def inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Weighted inner product h * sum(u_i * v_i)."""
    u = _vector(u, (grid.n_nodes,), "u")
    v = _vector(v, (grid.n_nodes,), "v")
    return float(grid.h * np.dot(u, v))


def norm(grid: Grid, u: np.ndarray) -> float:
    """Norm induced by the weighted inner product."""
    u = _vector(u, (grid.n_nodes,), "u")
    return float(np.sqrt(grid.h) * math.sqrt(float(u.dot(u))))


def eigenvalues(grid: Grid) -> np.ndarray:
    """A's eigenvalues l_k = 4 sin^2(pi k h / 2) / h^2 for k = 1..N, ascending."""
    return (2.0 * np.sin(0.5 * np.pi * np.arange(1, grid.n_nodes + 1) * grid.h) / grid.h) ** 2


def sine_transform(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Q v along v's last axis, Q = sqrt(2h) sin(pi j k h) the symmetric,
    orthonormal DST-I with A = Q diag(l) Q, as -sqrt(2h) Im rfft([0, v, 0 ...],
    n = 2(N+1))[1:N+1], which builds no N x N array."""
    n = grid.n_nodes
    padded = np.zeros(v.shape[:-1] + (2 * n + 2,))
    padded[..., 1:n + 1] = v
    return -math.sqrt(2.0 * grid.h) * np.fft.rfft(padded)[..., 1:n + 1].imag


class EllipticOperator:
    """Dirichlet Laplacian A = tridiag(-1, 2, -1)/h^2 with a cached factorization.

    A is symmetric positive definite with respect to the weighted inner
    product, so apply and solve serve for the adjoint equations too.  The
    tridiagonal LDL^T factorization (LAPACK dpttrf: n pivots and n - 1
    multipliers) is computed once at construction; solves accept a vector
    or a matrix of stacked columns.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.n_nodes
        h2 = grid.h * grid.h
        d, e, info = dpttrf(np.full(n, 2.0 / h2), np.full(n - 1, -1.0 / h2))
        if info != 0:
            raise ConvergenceError(f"Laplacian factorization failed (dpttrf info {info})")
        self._factor = (d, e)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Apply the stencil (-y_{i-1} + 2 y_i - y_{i+1})/h^2 with zero boundary."""
        y = _vector(y, (self.grid.n_nodes,), "state")
        h2 = self.grid.h * self.grid.h
        out = 2.0 * y
        out[:-1] -= y[1:]
        out[1:] -= y[:-1]
        return out / h2

    def solve(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Solve A y = rhs (vector or matrix of columns) by LAPACK dpttrs, one
        column at a time: a block's columns equal their own solves bitwise.
        out, a float vector or F-ordered matrix of rhs's shape (rhs itself
        included), receives the solution in place and is returned."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.grid.n_nodes:
            raise DimensionError(
                f"rhs has leading dimension {rhs.shape[0]}, "
                f"grid has {self.grid.n_nodes} nodes"
            )
        if not np.isfinite(rhs).all():
            raise DomainError("right-hand side must not contain infs or NaNs")
        if out is None:
            return dpttrs(*self._factor, rhs)[0]
        if out is not rhs:
            np.copyto(out, rhs)
        return dpttrs(*self._factor, out, overwrite_b=1)[0]
