"""Brute-force reference on small parameter dimensions.

The lower-level problem has a unique solution for every parameter, so the
bilevel problem reduces to minimizing x -> F(x, psi_y(x), psi_u(x)) over
the admissible set.  This module samples that reduced objective on a
lattice (barycentric on the simplex, tensor on a box) and returns the best
sample.  Lattices at resolutions m and 2m nest, so refinement can only
improve the best value.  Every lattice point gets an exact lower solve,
verified at a tightened tolerance, so comparisons are not
tolerance-dominated.  Lattice rows go in blocks.  For the target kind the
unconstrained lower solutions of a whole block come in closed form from the
sine eigenbasis of A, since (sigma A^2 + 2 sum(x) I) y = 2 x . y_d is
diagonal there, the coefficient 2 sum(x) being constant in space; a row
whose candidate is feasible and passes the kernel's fixed-point check
(lower._fixed_point_residual, on the whole block at once) is solved, the QP
being strictly convex.  Every other row, and every row of the pointwise
kind, goes to the active-set kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lower import _fixed_point_residual, _solve_qp, lower_qp
from .model import ProblemSpec

_BLOCK = 256  # lattice rows per batch, so each temporary is 256 x N floats


@dataclass(eq=False)
class OracleResult:
    best_x: np.ndarray
    best_value: float
    sample_count: int
    resolution: int
    lattice: str
    samples: np.ndarray | None = None  # rows (x_1..x_n, value) when requested


def _simplex_lattice(n: int, m: int) -> np.ndarray:
    """Barycentric lattice {k/m : sum k = m} in ascending lexicographic order."""
    pts = [
        k + (m - sum(k),)
        for k in itertools.product(range(m + 1), repeat=n - 1) if sum(k) <= m
    ]
    return np.asarray(pts, dtype=float) / m


def _box_lattice(lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    axes = [lo[d] + (hi[d] - lo[d]) * np.arange(m + 1) / m for d in range(lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, lo.size)


def _unconstrained_rows(spec: ProblemSpec, X: np.ndarray, tol: float):
    """Unconstrained lower solutions (Y, U) of the target kind at the rows of X,
    and a mask of the rows they solve.

    With A = Q diag(l) Q^T, the state is y = Q ((Q^T c) / (sigma l^2 + d))
    for the coefficients c = 2 x . y_d and d = 2 sum(x) of lower_qp, and
    u = A y.  A row counts as solved when its u lies within the bounds and
    passes the kernel's own fixed-point check against tol, which also gives Y.
    """
    bounds = spec.bounds
    l, Q = spec.operator.eigenbasis
    qp = lower_qp(spec, X)
    Y_hat = (2.0 * X @ (spec.lower.targets @ Q)) / (spec.sigma * l * l + qp.d)
    U = (l * Y_hat) @ Q
    residual, Y, _ = _fixed_point_residual(spec, qp, U)
    feasible = ((U >= bounds.ua) & (U <= bounds.ub)).all(axis=1)
    return Y, U, feasible & (residual <= tol)


def _reduced_values(spec: ProblemSpec, X: np.ndarray, tol: float) -> np.ndarray:
    """F(x, psi_y(x), psi_u(x)) for every row of X, in blocks of _BLOCK rows.

    Rows the closed form does not solve get a kernel solve, warm-started
    from the previous row's solution and verified against tol.
    """
    vals = np.empty(X.shape[0])
    u = None
    for start in range(0, X.shape[0], _BLOCK):
        Xb = X[start:start + _BLOCK]
        if spec.lower.kind == "target_type":
            Y, U, solved = _unconstrained_rows(spec, Xb, tol)
        else:
            Y, U = np.empty((2, Xb.shape[0], spec.grid.n_nodes))
            solved = np.zeros(Xb.shape[0], dtype=bool)
        for row in np.flatnonzero(~solved):
            warm = U[row - 1] if row else u
            Y[row], U[row] = _solve_qp(spec, lower_qp(spec, Xb[row]), tol, warm)[:2]
        u = U[-1]
        vals[start:start + _BLOCK] = spec.upper.value(spec.grid, Xb, Y, U)
    return vals


def grid_search(
    spec: ProblemSpec,
    resolution: int,
    tol: float = 1e-12,
    keep_samples: bool = False,
) -> OracleResult:
    """Exhaustive reduced-objective search over the admissible lattice.

    Ties go to the lexicographically smallest parameter, which is the first
    one generated.  Refusing n > 3 keeps the sample count from exploding.
    """
    n = spec.n
    if n > 3:
        raise ValidationError(
            f"exhaustive search supports at most 3 parameters, got {n}"
        )
    if resolution < 2:
        raise ValidationError(f"resolution must be at least 2, got {resolution}")
    if not (0.0 < tol < np.inf):
        raise ValidationError(f"tolerance must be positive and finite, got {tol}")

    if spec.x_set.kind == "simplex":
        X = _simplex_lattice(n, resolution)
    else:
        X = _box_lattice(spec.x_set.lo, spec.x_set.hi, resolution)

    vals = _reduced_values(spec, X, tol)
    k = int(np.argmin(vals))
    return OracleResult(
        best_x=X[k].copy(),
        best_value=float(vals[k]),
        sample_count=X.shape[0],
        resolution=resolution,
        lattice=spec.x_set.kind,
        samples=np.column_stack([X, vals]) if keep_samples else None,
    )

