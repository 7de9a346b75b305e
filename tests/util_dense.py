"""Dense reference computations used as independent oracles by the tests.

Nothing here touches the package's banded solver or its projected-gradient
loop: matrices are assembled explicitly and minimizations run through
scipy's bound-constrained least squares, so agreement with the package is
evidence rather than a tautology.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize


def dense_matrix(grid) -> np.ndarray:
    """Tridiagonal (-1, 2, -1)/h^2 stiffness matrix as a full array."""
    n = grid.n_nodes
    h2 = grid.h * grid.h
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = 2.0 / h2
    a[idx[:-1], idx[:-1] + 1] = -1.0 / h2
    a[idx[1:], idx[1:] - 1] = -1.0 / h2
    return a


def solve_tridiagonal_extended(grid, b: np.ndarray) -> np.ndarray:
    """Thomas elimination of dense_matrix(grid) y = b in np.longdouble.

    The matrix entries are the float64 ones the package factors, so the
    result differs from the exact solution of that system only by the
    extended-precision roundoff of the recurrence.  b may hold columns.
    """
    n = grid.n_nodes
    h2 = grid.h * grid.h
    diag = np.longdouble(2.0 / h2)
    off = np.longdouble(-1.0 / h2)
    ratio = np.empty(n, dtype=np.longdouble)
    y = np.array(b, dtype=np.longdouble)
    pivot = diag
    ratio[0] = off / pivot
    y[0] /= pivot
    for i in range(1, n):
        pivot = diag - off * ratio[i - 1]
        ratio[i] = off / pivot
        y[i] = (y[i] - off * y[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        y[i] -= ratio[i] * y[i + 1]
    return y


def h_inner(grid, a, b) -> float:
    return float(grid.h * np.dot(np.asarray(a, float), np.asarray(b, float)))


def h_norm(grid, a) -> float:
    return float(np.sqrt(max(h_inner(grid, a, a), 0.0)))


def _target_rows(spec):
    """Desired states per component as rows, for either objective kind."""
    if spec.lower.kind == "target_type":
        return spec.lower.targets
    return np.vstack([spec.lower.target for _ in spec.lower.points])


def _least_squares_form(spec, x):
    """Stack C, d with g(u) = 0.5 ||C u - d||^2 + const in raw coordinates.

    The reduced lower objective is a convex quadratic in u for both kinds,
    so the bound-constrained minimizer is exactly a BVLS solution.
    """
    grid = spec.grid
    n_nodes = grid.n_nodes
    s = np.linalg.solve(dense_matrix(grid), np.eye(n_nodes))
    blocks = [np.sqrt(spec.sigma * grid.h) * np.eye(n_nodes)]
    rhs = [np.zeros(n_nodes)]
    x = np.asarray(x, dtype=float)
    if spec.lower.kind == "target_type":
        for xi, yd in zip(x, spec.lower.targets):
            c = np.sqrt(max(2.0 * xi * grid.h, 0.0))
            blocks.append(c * s)
            rhs.append(c * yd)
    else:
        for xi, node in zip(x, spec.lower.points):
            c = np.sqrt(max(2.0 * xi, 0.0))
            blocks.append(c * s[node][None, :])
            rhs.append(np.array([c * spec.lower.target[node]]))
    return np.vstack(blocks), np.concatenate(rhs), s


def solve_lower_dense(spec, x):
    """Bound-constrained lower solve through scipy BVLS; returns (y, u)."""
    c, d, s = _least_squares_form(spec, x)
    lo = np.where(np.isfinite(spec.bounds.ua), spec.bounds.ua, -1e8)
    hi = np.where(np.isfinite(spec.bounds.ub), spec.bounds.ub, 1e8)
    res = scipy.optimize.lsq_linear(c, d, bounds=(lo, hi), method="bvls", tol=1e-14)
    u = res.x
    return s @ u, u


def lower_value_dense(spec, x, y, u) -> float:
    """x . j(y) + (sigma/2) ||u||_h^2 evaluated from scratch."""
    x = np.asarray(x, dtype=float)
    if spec.lower.kind == "target_type":
        dy = y[None, :] - spec.lower.targets
        j = spec.grid.h * np.sum(dy * dy, axis=1)
    else:
        idx = np.asarray(spec.lower.points)
        j = (y[idx] - spec.lower.target[idx]) ** 2
    return float(np.dot(x, j) + 0.5 * spec.sigma * h_inner(spec.grid, u, u))


def phi_dense(spec, x) -> float:
    y, u = solve_lower_dense(spec, x)
    return lower_value_dense(spec, x, y, u)


def upper_value_dense(spec, x, y, u) -> float:
    up = spec.upper
    return float(
        0.5 * up.c_y * h_inner(spec.grid, y - up.y_o, y - up.y_o)
        + 0.5 * up.c_u * h_inner(spec.grid, u - up.u_o, u - up.u_o)
        + 0.5 * up.gamma * np.dot(x, x)
    )


def simplex_points(m: int) -> np.ndarray:
    """The n=2 simplex lattice ((i/m, 1 - i/m)) in lexicographic order."""
    t = np.arange(m + 1) / m
    return np.column_stack([t, 1.0 - t])
