"""Brute-force reference on small parameter dimensions.

The lower-level problem has a unique solution for every parameter, so the
bilevel problem reduces to minimizing x -> F(x, psi_y(x), psi_u(x)) over
the admissible set.  This module samples that reduced objective on a
lattice (barycentric on the simplex, tensor on a box) and returns the best
sample.  Lattices at resolutions m and 2m nest, so refinement can only
improve the best value.  Every lattice point gets an exact lower solve from
the active-set kernel, warm-started from its neighbour and verified at a
tightened tolerance, so comparisons are not tolerance-dominated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lower import _solve_qp, lower_qp
from .model import ProblemSpec


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
    if n == 1:
        return np.array([[1.0]])
    pts = []
    if n == 2:
        for i in range(m + 1):
            pts.append((i, m - i))
    else:
        for i in range(m + 1):
            for j in range(m - i + 1):
                pts.append((i, j, m - i - j))
    return np.asarray(pts, dtype=float) / m


def _box_lattice(lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    axes = [lo[d] + (hi[d] - lo[d]) * np.arange(m + 1) / m for d in range(lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, lo.size)


def _reduced_values(spec: ProblemSpec, X: np.ndarray, tol: float) -> np.ndarray:
    """F(x, psi_y(x), psi_u(x)) for every row of X, each row's lower solve
    warm-started from the previous row's and verified against tol."""
    vals = np.empty(X.shape[0])
    u = None
    for row, x in enumerate(X):
        y, u, _, _ = _solve_qp(spec, lower_qp(spec, x), tol, u)
        vals[row] = spec.upper.value(spec.grid, x, y, u)
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


def compare(spec: ProblemSpec, candidate_value: float, resolution: int) -> dict:
    """Gap between a candidate upper value and the lattice best.

    A negative gap means the candidate beat every lattice sample, which is
    possible since the lattice only subsamples the feasible set.
    """
    result = grid_search(spec, resolution)
    return {
        "gap_to_oracle": float(candidate_value) - result.best_value,
        "candidate_value": float(candidate_value),
        "best_value": result.best_value,
        "best_x": result.best_x,
        "resolution": resolution,
        "sample_count": result.sample_count,
    }
