"""Brute-force reference on small parameter dimensions.

The lower-level problem has a unique solution for every parameter, so the
bilevel problem reduces to minimizing x -> F(x, psi_y(x), psi_u(x)) over
the admissible set.  This module samples that reduced objective on a
lattice (barycentric on the simplex, tensor on a box) and returns the best
sample.  Lattices at resolutions m and 2m nest, so refinement can only
improve the best value.  Every lattice point gets an exact lower solve,
verified at a tightened tolerance, so comparisons are not
tolerance-dominated.  Lattice rows go in blocks of up to 1024, held in
three buffers (u, y, p) allocated once per search, which the check and the
upper objective then reuse in place.  Both lower-objective kinds give the
unconstrained lower solutions of a whole block in closed form: the target
kind from A's eigenvalues and sine transform, the pointwise kind from one
n x n system per row, its d being of rank n.  The target kind's QP depends
on x only through c = 2 x . y_d, linear in x, and the scalar d = 2 sum(x),
so its rows are taken sorted by d, with the runs of equal d found once per
search (the sums by column adds), and the rows of one d in a block are
combinations x [U | Y | P](d) of n basis controls, states and adjoints
built once per block by fresh solves; c itself is never formed.  A row
whose closed-form control is feasible and passes the kernel's fixed-point
check on its own (u, y, p) (lower._projected_residual, one call per block
for either kind) is solved, the QP being strictly convex; a block whose
controls and targets all lie strictly inside the bounds needs neither the
projection nor the per-row bound test.  Every other row goes to the
active-set kernel, in lattice order within its block, warm-started from
the last kernel solution; a kernel failure's ConvergenceError carries the
row's LowerSolution as best.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .discretization import eigenvalues, sine_transform
from .errors import ConvergenceError, ValidationError, _integer, _positive
from .lower import TrackingQP, _lower_solution, _projected_residual, _solve_qp, lower_qp
from .model import ProblemSpec

_BLOCK = 1024  # lattice rows per block; each of the three buffers holds 1024 x N floats


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
    """Barycentric lattice {k/m : sum k = m} in ascending lexicographic order:
    the product lattice of the first n - 1 coordinates, in C order, keeps the
    rows summing to at most m, and the last coordinate is m minus that sum.
    The k are exact integers held as floats: integer loops would page in more numpy code."""
    k = np.indices((m + 1,) * (n - 1), dtype=float).reshape(n - 1, (m + 1) ** (n - 1)).T
    k = k[k.sum(axis=1) <= m]
    return np.column_stack([k, m - k.sum(axis=1)]) / m


def _box_lattice(lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    """Tensor lattice of the box in ascending lexicographic order, each axis
    written into one array, its entries varying along that array's axis."""
    n = lo.size
    X = np.empty((m + 1,) * n + (n,))
    for d in range(n):
        axis = lo[d] + (hi[d] - lo[d]) * np.arange(m + 1) / m
        X[..., d] = axis.reshape((m + 1,) + (1,) * (n - 1 - d))
    return X.reshape(-1, n)


def _row_sums(X: np.ndarray) -> np.ndarray:
    """sum(x) of every row x of X by column adds, left to right as np.sum
    adds the n <= 3 entries of one x, so 2 sum(x) is its lower_qp d bitwise."""
    total = X[:, 0].copy()
    for j in range(1, X.shape[1]):
        total += X[:, j]
    return total


def _target_rows(spec: ProblemSpec, X: np.ndarray):
    """The target kind's closed form: the order in which X's rows are solved,
    sorted by d = 2 sum(x) with ties in lattice order, and rows(start, Xb,
    work), which writes the unconstrained (u, y, p) of the rows Xb found at
    position start of that order to work's three arrays.

    With A = Q diag(l) Q, Q the sine transform, c = 2 x . y_d and d = 2 sum(x),
    (sigma A^2 + d) y = c is diagonal in the sine basis, d being constant in
    space, so u = A y = Q ((l Q c) / (sigma l^2 + d)) = sum_i x_i U_i(d) with
    U_i(d) = Q ((2 l Q t_i) / (sigma l^2 + d)), and y = sum_i x_i Y_i,
    p = sum_i x_i P_i with Y_i = A^{-1} U_i and P_i = A^{-1} (2 t_i - d Y_i).
    A generator's d is 2 _row_sums of its row, that row's own lower_qp d
    bitwise, and c, which no row reads, is never formed.  The runs of equal
    d are found once per search, from the sorted sums, and each block takes
    those that fall in it.  A run of more than n rows of a block is
    x [U | Y | P](d), one product per run, from a basis of n generators, the
    unit rows of a tile made once per search; a shorter run's rows are their
    own generators.  All generators of a block take one transform and
    fresh solves of their columns, so A y = u and A p = c - d y hold to
    roundoff in every row, and a run of r rows costs 2 min(n, r) solve
    columns.
    """
    grid, l = spec.grid, eigenvalues(spec.grid)
    weights = 2.0 * l * sine_transform(grid, spec.lower.targets)  # row i is 2 l Q t_i
    shift = spec.sigma * l * l
    twice_targets = 2.0 * spec.lower.targets
    solve = spec.operator.solve
    n = weights.shape[0]
    total = _row_sums(X)
    order = np.argsort(total, kind="stable")
    cuts = (np.flatnonzero(np.diff(total[order])) + 1).tolist()  # where the sorted d changes
    # the unit generators of as many runs as a block can hold, each run having more than n rows
    units = np.tile(np.eye(n), (min(_BLOCK, X.shape[0]) // (n + 1), 1))

    def rows(start, Xb, work):
        b = Xb.shape[0]
        edges = [0, *(c - start for c in cuts[bisect_right(cuts, start):bisect_left(cuts, start + b)]), b]
        pieces = list(zip(edges, edges[1:]))
        runs = [(r0, r1) for r0, r1 in pieces if r1 - r0 > n]
        own = [i for r0, r1 in pieces if r1 - r0 <= n for i in range(r0, r1)]  # the short pieces' rows
        # generator coefficients and their d: the own rows, then n unit rows per run, of its d
        G = np.concatenate([Xb[own], units[:n * len(runs)]])
        dg = 2.0 * _row_sums(Xb[own + [r0 for r0, _ in runs for _ in range(n)]])[:, None]
        m = len(own)
        # a block of own rows only is solved in place
        basis = work if m == b else np.empty((3, dg.shape[0], grid.n_nodes))
        U, Y, P = basis
        np.divide(np.matmul(G, weights, out=U), np.add(shift, dg, out=P), out=P)
        U[...] = sine_transform(grid, P)
        solve(U.T, out=Y.T)
        np.subtract(np.matmul(G, twice_targets, out=P), dg * Y, out=P)
        solve(P.T, out=P.T)
        if runs:
            work[:, own] = basis[:, :m]
        for j, (r0, r1) in zip(range(m, dg.shape[0], n), runs):
            np.matmul(Xb[r0:r1], basis[:, j:j + n], out=work[:, r0:r1])

    return order, rows


def _pointwise_rows(spec: ProblemSpec, X: np.ndarray):
    """The pointwise kind's closed form, with _target_rows' signature and
    X's rows solved in lattice order.

    d = 2 x / h at the measurement columns P, so the lower QP's
    (sigma A^2 + P diag(d) P^T) y = P (d * y_d(P)) has a rank-n term.  With
    E = A^{-1} P, H = E / sigma, G = A^{-1} H and K = P^T G, u = H w and
    y = G w with w = d * z for the z with (I + K diag(d)) z = y_d(P), and
    p = E (d * (y_d - y)(P)), so A y = u and A p = c - d y hold to roundoff
    whatever z is; p takes E, not sigma H, so an error in H or z shows in
    the check.  A repeated node gives equal columns of P, whose weights add
    up in P diag(d) P^T as in the QP.
    """
    points = np.asarray(spec.lower.points)
    n = points.size
    columns = np.zeros((spec.grid.n_nodes, n))
    columns[points, np.arange(n)] = 1.0
    E = spec.operator.solve(columns)
    H = E / spec.sigma
    G = spec.operator.solve(H)
    eye, y_d, K = np.eye(n), spec.lower.target[None, points, None], G[points]
    scale = 2.0 / spec.grid.h

    def rows(start, Xb, work):
        U, Y, P = work
        d = scale * Xb
        w = d * np.linalg.solve(eye + K * d[:, None, :], y_d)[..., 0]
        np.matmul(w, H.T, out=U)
        np.matmul(w, G.T, out=Y)
        np.matmul(d * (y_d[..., 0] - Y[:, points]), E.T, out=P)

    return np.arange(X.shape[0]), rows


def _reduced_values(spec: ProblemSpec, X: np.ndarray, tol: float) -> np.ndarray:
    """F(x, psi_y(x), psi_u(x)) for every row of X, in blocks of _BLOCK rows.

    A block's rows live in three row-major buffers (u, y, p), allocated
    once, whose transposes are the F-ordered column blocks the solves run
    on in place.  The target kind's rows go through the blocks sorted by
    d = 2 sum(x), ties in lattice order, so that a block solves one basis
    per distinct d rather than two columns per row; the pointwise kind's go
    in lattice order.  Either kind writes its rows' (u, y, p) to them; the
    one check of the block, on a member with only the s and b it reads,
    writes v and u - v over p, and F writes y - y_o and u - u_o over y,
    each dead by then.  A row's closed-form control counts as its
    solution if it lies within the bounds, which two reductions show for a
    whole block inside them, and passes that check against tol.  Every
    other row gets a kernel solve, in lattice order within its block,
    warm-started from the last kernel solution and verified against tol.
    The values are returned in lattice order.
    """
    bounds = spec.bounds
    order, rows = (_target_rows if spec.lower.kind == "target_type" else _pointwise_rows)(spec, X)
    check = TrackingQP(d=None, c=None, s=spec.sigma, b=0.0)
    size = min(_BLOCK, X.shape[0])
    buffers = np.empty((3, size, spec.grid.n_nodes))
    vals = np.empty(X.shape[0])
    warm = None
    for start in range(0, X.shape[0], size):
        index = order[start:start + size]
        Xb = X[index]
        b = Xb.shape[0]
        Ub, Yb, Pb = buffers[:, :b]
        rows(start, Xb, buffers[:, :b])
        solved = _projected_residual(spec, check, Ub, Yb, Pb, out=Pb) <= tol
        if not bounds.inside(Ub):
            solved &= ((Ub >= bounds.ua) & (Ub <= bounds.ub)).all(axis=1)
        rest = np.flatnonzero(~solved)
        for row in rest[np.argsort(index[rest])]:  # in lattice order
            qp = lower_qp(spec, Xb[row])
            try:
                sol = _solve_qp(spec, qp, tol, warm)
            except ConvergenceError as err:
                err.best = _lower_solution(spec, Xb[row], qp, err.best)
                raise
            Yb[row], Ub[row], warm = sol.y, sol.u, sol.u
        vals[index] = spec.upper.value(spec.grid, Xb, Yb, Ub, work=Yb)
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

