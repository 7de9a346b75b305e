"""Brute-force reference on small parameter dimensions.

The lower-level problem has a unique solution for every parameter, so the
bilevel problem reduces to minimizing x -> F(x, psi_y(x), psi_u(x)) over
the admissible set.  This module samples that reduced objective on a
lattice (barycentric on the simplex, tensor on a box) and returns the best
sample.  Lattices at resolutions m and 2m nest, so refinement can only
improve the best value.  Every lattice point gets an exact lower solve,
verified at a tightened tolerance, so comparisons are not
tolerance-dominated.  Lattice rows go in blocks of up to 1024, held in
buffers allocated once per search.  Both lower-objective kinds give the
unconstrained lower solutions of a whole block in closed form: the target
kind from the sine eigenbasis of A, the pointwise kind from one n x n
system per row, its d being of rank n.  The target kind's QP depends on x
only through c = 2 x . y_d, linear in x, and the scalar d = 2 sum(x), so
its rows are taken sorted by d, and the rows of one d in a block are
combinations x [U | Y | P](d) of n basis controls, states and adjoints
built once per block by fresh solves.  A row whose closed-form control is
feasible and passes the kernel's fixed-point check on its own (u, y, p)
(lower._projected_residual, on the whole block at once) is solved, the QP
being strictly convex; every other row goes to the active-set kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lower import _fixed_point_residual, _projected_residual, _solve_qp, lower_qp
from .model import ProblemSpec, _integer, _positive

_BLOCK = 1024  # lattice rows per block; each of the five buffers holds 1024 x N floats


@dataclass(eq=False)
class OracleResult:
    """The best lattice point of one exhaustive search.

    best_x is that parameter and best_value the reduced objective
    F(x, psi_y(x), psi_u(x)) there; sample_count is the number of lattice
    points evaluated, resolution the number of intervals per edge and
    lattice the admissible set's kind ("simplex" or "box").  samples, when
    requested, has one row (x_1..x_n, value) per lattice point, in the
    order generated.
    """

    best_x: np.ndarray
    best_value: float
    sample_count: int
    resolution: int
    lattice: str
    samples: np.ndarray | None = None


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


def _target_rows(spec: ProblemSpec):
    """The target kind's closed form: rows(X, qp, work) writes the
    unconstrained (u, y, p) of the rows of X to work's first three arrays
    and returns the fixed-point residuals, u and y.  Adjacent rows of equal
    d share a basis, so X should come sorted by d.

    With A = Q diag(l) Q^T, c = 2 x . y_d and d = 2 sum(x), (sigma A^2 + d) y
    = c is diagonal in the sine basis, the coefficient d being constant in
    space, so u = A y = Q ((l Q^T c) / (sigma l^2 + d)) = sum_i x_i U_i(d)
    with U_i(d) = Q ((2 l Q^T t_i) / (sigma l^2 + d)), and y = sum_i x_i Y_i,
    p = sum_i x_i P_i with Y_i = A^{-1} U_i and P_i = A^{-1} (2 t_i - d Y_i).
    d is taken from qp, so it is each row's own d bitwise.  A run of more
    than n rows of one d is x [U | Y | P](d), one product per run, from a
    basis of n generators; a shorter run's rows are their own generators.
    All generators of a block take one product with Q and fresh solves of
    their columns, so A y = u and A p = c - d y hold to roundoff in every row,
    and a run of r rows costs 2 min(n, r) solve columns.
    """
    l, Q = spec.operator.eigenbasis
    weights = 2.0 * l * (spec.lower.targets @ Q)  # row i is 2 l Q^T t_i, Q being symmetric
    shift = spec.sigma * l * l
    twice_targets = 2.0 * spec.lower.targets
    solve = spec.operator.solve
    n = weights.shape[0]
    eye = np.eye(n)

    def rows(X, qp, work):
        d = qp.d[:, 0]
        edges = np.flatnonzero(np.r_[True, d[1:] != d[:-1], True])
        lengths = np.diff(edges)
        shared = lengths > n
        own = np.repeat(~shared, lengths)  # the rows that are their own generators
        m, runs = np.count_nonzero(own), edges[:-1][shared]
        # generator coefficients and their d: the own rows, then n unit rows per shared run
        G = np.concatenate([X[own], np.tile(eye, (runs.size, 1))])
        dg = np.concatenate([d[own], np.repeat(d[runs], n)])[:, None]
        # a block of own rows only is solved in place
        basis = work[:3] if m == d.size else np.empty((3, dg.size, Q.shape[0]))
        U, Y, P = basis
        np.divide(np.matmul(G, weights, out=U), np.add(shift, dg, out=P), out=P)
        solve(np.matmul(P, Q, out=U).T, out=Y.T)
        np.subtract(np.matmul(G, twice_targets, out=P), np.multiply(dg, Y, out=work[3, :dg.size]), out=P)
        solve(P.T, out=P.T)
        if runs.size:
            work[:3, own] = basis[:, :m]
        for k, (r0, r1) in enumerate(zip(runs, edges[1:][shared])):
            np.matmul(X[r0:r1], basis[:, m + k * n:m + (k + 1) * n], out=work[:3, r0:r1])
        return _projected_residual(spec, qp, *work[:3], out=work[3]), work[0], work[1]

    return rows


def _pointwise_rows(spec: ProblemSpec):
    """The pointwise kind's closed form, with _target_rows' signature; y and
    p are fresh solves of u.

    d = 2 x / h at the measurement columns P, so the lower QP's
    (sigma A^2 + P diag(d) P^T) y = P (d * y_d(P)) has a rank-n term.  With
    G = (sigma A^2)^{-1} P, K = P^T G and H = A^{-1} P / sigma, y = G (d * z)
    and u = A y = H (d * z) for the z with (I + K diag(d)) z = y_d(P): one
    n x n system per row, with no division by x.  A repeated node gives
    equal columns of P, whose weights add up in P diag(d) P^T as in the QP.
    """
    points = np.asarray(spec.lower.points)
    n = points.size
    columns = np.zeros((spec.grid.n_nodes, n))
    columns[points, np.arange(n)] = 1.0
    H = spec.operator.solve(columns) / spec.sigma
    K = spec.operator.solve(H)[points]
    eye, y_d = np.eye(n), spec.lower.target[None, points, None]
    scale = 2.0 / spec.grid.h

    def rows(X, qp, work):
        U, Y, P, W = work
        d = scale * X
        z = np.linalg.solve(eye + K * d[:, None, :], y_d)[..., 0]
        np.matmul(d * z, H.T, out=U)
        residual, Y, _ = _fixed_point_residual(spec, qp, U, (Y, P, W))
        return residual, U, Y

    return rows


def _reduced_values(spec: ProblemSpec, X: np.ndarray, tol: float) -> np.ndarray:
    """F(x, psi_y(x), psi_u(x)) for every row of X, in blocks of _BLOCK rows.

    A block's rows live in five row-major buffers, allocated once, whose
    transposes are the F-ordered column blocks the solves run on in place.
    The target kind's rows go through the blocks sorted by 2 sum(x), which
    is lower_coefficients' d, ties in lattice order, so that a block solves
    one basis per distinct d of its own lower_qp rather than two columns per
    row; the pointwise kind's go in lattice order.  A row's closed-form
    control counts as its solution if it lies within the bounds and passes
    the kernel's fixed-point check against tol, the QP being strictly
    convex.  Every other row gets a kernel solve,
    warm-started from the solution of the row processed before it and
    verified against tol.  The values are returned in lattice order.
    """
    bounds = spec.bounds
    if spec.lower.kind == "target_type":
        rows = _target_rows(spec)
        order = np.argsort(X.sum(axis=1), kind="stable")
    else:
        rows, order = _pointwise_rows(spec), np.arange(X.shape[0])
    size = min(_BLOCK, X.shape[0])
    buffers = np.empty((5, size, spec.grid.n_nodes))
    vals = np.empty(X.shape[0])
    u = None
    for start in range(0, X.shape[0], size):
        index = order[start:start + size]
        Xb = X[index]
        b = Xb.shape[0]
        qp = lower_qp(spec, Xb, out=buffers[4, :b])
        residual, Ub, Yb = rows(Xb, qp, buffers[:4, :b])
        solved = ((Ub >= bounds.ua) & (Ub <= bounds.ub)).all(axis=1) & (residual <= tol)
        for row in np.flatnonzero(~solved):
            warm = Ub[row - 1] if row else u
            Yb[row], Ub[row] = _solve_qp(spec, lower_qp(spec, Xb[row]), tol, warm)[:2]
        u = Ub[-1].copy()  # the next block overwrites the buffers
        vals[index] = spec.upper.value(spec.grid, Xb, Yb, Ub, work=buffers[3, :b])
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
    resolution = _integer(resolution, "resolution", 2)
    tol = _positive(tol, "tol")

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

