"""Parametric lower-level solver.

For a fixed parameter x in R^n_+ the lower problem minimizes
x . j(Su) + (sigma/2) ||u||^2 over the bound-feasible controls, where
S = A^{-1} B maps controls to states.  The reduced objective is a strongly
convex quadratic, so the solution map and its multipliers are single valued.
One kernel computes them exactly for the whole family of tracking QPs
(TrackingQP), which holds the lower QP and the u-subproblems of the relaxed
program: the primal-dual active-set method (semismooth Newton on
u = P_U(u + lam/r)), one banded solve of the optimality system in the
interleaved unknowns (y_k, p_k) per step, with projected-Newton steps on the
same band matrix if the active sets cycle.  Every solution must pass a
fixed-point residual check ||u - P_U(u + lam/r)|| <= tol, which for the lower
QP reads ||u - P_U(p/sigma)|| <= tol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgbsv

from .discretization import norm
from .errors import ConvergenceError, DimensionError, DomainError
from .model import ProblemSpec, eval_j_grad_adjoint

_MAX_SOLVES = 200  # band solves per kernel call, active-set and Newton steps together
_ROUNDOFF = 1e-13  # relative roundoff allowance of the exactness and decrease tests
_ARMIJO = 1e-4


@dataclass(frozen=True, eq=False)
class LowerSolution:
    """Optimal (y, u) of the parametric problem with its multipliers.

    p solves the adjoint equation A*p = -j'(y)*x and lam = B*p - sigma*u,
    so the gradient equation holds by construction; kkt_residual is the
    maximum over the state equation, adjoint equation, gradient equation,
    and the sign conditions of the bound multiplier.  iterations counts the
    band solves of the active-set steps (and of projected Newton after a cycle).
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    kkt_residual: float
    iterations: int


def _validate_parameter(spec: ProblemSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n,):
        raise DimensionError(f"parameter has shape {x.shape}, expected ({spec.n},)")
    if (x < -1e-12).any():
        raise DomainError(
            f"parameter {x} has a negative component; the lower problem is "
            "only well posed on R^n_+"
        )
    return np.maximum(x, 0.0)


class TrackingQP(NamedTuple):
    """One member of the box-constrained tracking-QP family.

    min 1/2 <y, d y> - <c, y> + s/2 ||u||^2 - <b, u> over U with A y = u,
    all pairings weighted by h.  c is a node vector, d and b node vectors or
    scalars, and s >= 0 a scalar; b = s w for a control target w, written
    so that s = 0 needs no division.  The lower QP at x is lower_qp(spec, x).
    """

    d: np.ndarray | float
    c: np.ndarray
    s: float
    b: np.ndarray | float


def lower_qp(spec: ProblemSpec, x: np.ndarray) -> TrackingQP:
    """The lower QP at x: x . j(y) = 1/2 <y, d y> - <c, y> + const, s = sigma.

    d = 2 sum(x) and c = 2 x . y_d for the target kind; d = 2 x_i / h and
    c = d y_d at the measurement nodes for the pointwise kind.
    """
    if spec.lower.kind == "target_type":
        d = 2.0 * float(np.sum(x))
        c = 2.0 * (x @ spec.lower.targets)
    else:
        idx = np.asarray(spec.lower.points)
        weight = 2.0 * x / spec.grid.h
        d, c = np.zeros(spec.grid.n_nodes), np.zeros(spec.grid.n_nodes)
        np.add.at(d, idx, weight)
        np.add.at(c, idx, weight * spec.lower.target[idx])
    return TrackingQP(d=d, c=c, s=spec.sigma, b=0.0)


def _scale(spec: ProblemSpec, qp: TrackingQP) -> float:
    """Constant r of the complementarity test u = P_U(u + lam/r).

    Any r > 0 gives the same solutions; r = s keeps the plain active-set
    steps, and the floor sigma keeps r positive, and the test in u-units
    well conditioned, when s is small or zero.
    """
    return max(qp.s, spec.sigma)


def _optimality_system(spec: ProblemSpec, qp: TrackingQP):
    """Optimality system with all nodes free, in LAPACK band storage (kl = ku = 2).

    Unknowns interleave as (y_0, p_0, y_1, ...); row 2k is the free-node
    gradient equation (s A y - p)/r = b/r, r = _scale(spec, qp), and row
    2k+1 is the adjoint equation A p + d y = c.  Returned with s/r, the
    factor _band_solve puts on the A y part of the free rows.
    """
    grid = spec.grid
    n = grid.n_nodes
    r = _scale(spec, qp)
    inv_h2 = 1.0 / (grid.h * grid.h)
    ab = np.zeros((7, 2 * n))
    ab[2, 2:] = -inv_h2
    ab[4, :] = 2.0 * inv_h2
    ab[6, :-2] = -inv_h2
    ab[3, 1::2] = -1.0 / r
    ab[5, 0::2] = qp.d
    rhs = np.zeros(2 * n)
    rhs[0::2] = qp.b / r
    rhs[1::2] = qp.c
    return ab, rhs, qp.s / r


def _band_solve(system, fixed: np.ndarray, values: np.ndarray):
    """(y, p) with u = values on the fixed nodes (row 2k: A y = values) and
    the gradient equation on the free ones."""
    ab, rhs, ratio = system
    mat = ab.copy()
    mat[3, 1::2][fixed] = 0.0
    if ratio != 1.0:
        row = np.where(fixed, 1.0, ratio)
        mat[4, 0::2] *= row
        mat[2, 2::2] *= row[:-1]
        mat[6, :-2:2] *= row[1:]
    b = rhs.copy()
    b[0::2] = np.where(fixed, values, rhs[0::2])
    _, _, z, info = dgbsv(2, 2, mat, b, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise ConvergenceError(f"optimality system is singular (dgbsv info {info})")
    return z[0::2], z[1::2]


def _target(spec: ProblemSpec, qp: TrackingQP, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """v = u + lam/r with u = A y and lam = p + b - s u, without dividing by s.

    The optimal control is u = P_U(v); for r = s this is (p + b)/s.
    """
    r = _scale(spec, qp)
    v = (p + qp.b) / r
    if qp.s != r:
        v = v + (1.0 - qp.s / r) * spec.operator.apply(y)
    return v


def _exact(u: np.ndarray, target: np.ndarray) -> bool:
    """Whether u equals target = P_U(v) to roundoff."""
    return float(np.abs(u - target).max()) <= _ROUNDOFF * (1.0 + np.abs(target).max())


def _objective(spec: ProblemSpec, qp: TrackingQP, y: np.ndarray, u: np.ndarray) -> float:
    """The member's objective at (y, u), without its constant."""
    return spec.grid.h * float(
        0.5 * y @ (qp.d * y) - qp.c @ y + 0.5 * qp.s * (u @ u) - np.sum(qp.b * u)
    )


def _projected_newton(spec: ProblemSpec, qp: TrackingQP, system, u: np.ndarray,
                      tol: float, budget: int):
    """Projected Newton (Bertsekas 1982) from a feasible u: the iterate and its solves.

    Nodes near a bound with the gradient pointing out take a gradient step
    of length 1/r, the others the Newton step of the quadratic with those
    nodes frozen.  An Armijo search along the projection arc, with a
    roundoff guard on the decrease test, makes it globally convergent.  It
    stops at a fixed-point residual of tol/2, leaving the final check room
    for roundoff, which on fine grids with small sigma exceeds _ROUNDOFF.
    """
    bounds, h = spec.bounds, spec.grid.h
    everywhere = np.ones(u.shape, dtype=bool)

    def at(w):  # target and objective at the control w
        y, p = _band_solve(system, everywhere, w)
        return _target(spec, qp, y, p), _objective(spec, qp, y, w)

    v, f = at(u)
    solves = 1
    while solves < budget:
        residual = norm(spec.grid, u - bounds.project(v))
        if residual <= 0.5 * tol:
            break
        grad = u - v  # the gradient s u - p - b, divided by r
        width = min(1e-3, residual)
        frozen = ((u <= bounds.ua + width) & (grad > 0.0)) | (
            (u >= bounds.ub - width) & (grad < 0.0)
        )
        step = np.where(frozen, v, _target(spec, qp, *_band_solve(system, frozen, u))) - u
        solves += 1
        alpha = 1.0
        while solves < budget:
            trial = bounds.project(u + alpha * step)
            v_t, f_t = at(trial)
            solves += 1
            decrease = h * _scale(spec, qp) * (
                alpha * float(grad[~frozen] @ -step[~frozen])
                + float(grad[frozen] @ (u - trial)[frozen])
            )
            if f_t <= f - _ARMIJO * decrease + _ROUNDOFF * (1.0 + abs(f)):
                u, v, f = trial, v_t, f_t
                break
            alpha *= 0.5
    return u, solves


def _fixed_point_residual(spec: ProblemSpec, qp: TrackingQP, u: np.ndarray):
    """||u - P_U(u + lam/r)|| from fresh state and adjoint solves, with y and p.

    This is the projected-gradient residual at step 1/r, at least the
    residual at any shorter step; for the lower QP it is ||u - P_U(p/sigma)||.
    """
    op = spec.operator
    y = op.solve(u)
    p = op.solve(qp.c - qp.d * y)
    return norm(spec.grid, u - spec.bounds.project(_target(spec, qp, y, p))), y, p


def _solve_qp(spec: ProblemSpec, qp: TrackingQP, tol: float, warm: np.ndarray | None = None):
    """Exact solution (y, u, p) of one tracking QP and the band solves made.

    p solves A p = c - d y.  The first active sets are the nodes where
    P_U(warm), or P_U(0) for a cold start, sits on a bound.  Active-set
    steps stop once u = P_U(u + lam/r) holds to roundoff, which covers
    repeated sets and biactive nodes.  A set pair seen before is a cycle,
    and projected Newton takes over.  At most _MAX_SOLVES band solves are
    made, and the result must pass the fixed-point check against tol or
    ConvergenceError carries the residual.
    """
    bounds = spec.bounds
    system = _optimality_system(spec, qp)
    u = bounds.project(np.zeros(spec.grid.n_nodes) if warm is None else warm)
    at_a, at_b = u <= bounds.ua, u >= bounds.ub
    seen = {(at_a.tobytes(), at_b.tobytes())}
    newton = False
    solves = 0
    while solves < _MAX_SOLVES:
        fixed, values = at_a | at_b, np.where(at_a, bounds.ua, bounds.ub)
        v = _target(spec, qp, *_band_solve(system, fixed, values))
        solves += 1
        candidate = np.where(fixed, values, v)
        if _exact(candidate, bounds.project(v)):
            u = candidate
            break
        if newton:
            break  # the Newton iterate stands and the final check decides
        u = candidate
        at_a, at_b = v < bounds.ua, v > bounds.ub
        key = (at_a.tobytes(), at_b.tobytes())
        if key in seen:
            # cycling: converge by projected Newton, then try one active-set
            # step from its sets, so the result does not depend on the path
            u, steps = _projected_newton(
                spec, qp, system, bounds.project(u), tol, _MAX_SOLVES - solves
            )
            solves += steps
            newton = True
            at_a, at_b = u <= bounds.ua, u >= bounds.ub
        seen.add(key)
    u = bounds.project(u)
    residual, y, p = _fixed_point_residual(spec, qp, u)
    if not residual <= tol:
        raise ConvergenceError(
            f"QP solve missed tol {tol:g} after {solves} band solves "
            f"(fixed-point residual {residual:.3e})",
            residuals={"fixed_point": float(residual)},
        )
    return y, u, p, solves


def solve_lower(
    spec: ProblemSpec,
    x,
    tol: float | None = None,
    warm_start: np.ndarray | None = None,
) -> LowerSolution:
    """Solve the parametric problem at x exactly and recover its multipliers.

    tol bounds the fixed-point residual ||u - P_U(p/sigma)||, the discrete
    form of -grad g(u) in the normal cone at u; warm_start seeds the active sets.
    """
    x = _validate_parameter(spec, x)
    if tol is None:
        tol = spec.solver_tol
    if not (tol > 0.0):
        raise DomainError("solver tolerance must be positive")
    grid = spec.grid
    op = spec.operator
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=float)
        if warm_start.shape[0] != grid.n_nodes:
            raise DimensionError("warm start length does not match grid")

    y, u, p, solves = _solve_qp(spec, lower_qp(spec, x), tol, warm_start)

    adj = eval_j_grad_adjoint(grid, spec.lower, y, x)
    lam = p - spec.sigma * u

    state_res = norm(grid, op.apply(y) - u)
    adjoint_res = norm(grid, adj + op.apply(p))
    gradient_res = norm(grid, spec.sigma * u - p + lam)
    sign_res = spec.bounds.normal_cone_residual(u, lam, spec.active_tol)
    kkt = max(state_res, adjoint_res, gradient_res, sign_res)

    return LowerSolution(
        x=x, y=y, u=u, p=p, lam=lam,
        kkt_residual=float(kkt), iterations=solves,
    )


def lipschitz_probe(spec: ProblemSpec, x1, x2) -> dict:
    """Solution and multiplier deltas between two parameters.

    Returns dx together with du, dy, dp, dlam in the weighted norm; the
    ratios are empirical Lipschitz quotients of the solution maps.
    """
    s1 = solve_lower(spec, x1)
    s2 = solve_lower(spec, x2)
    grid = spec.grid
    return {
        "dx": float(np.linalg.norm(s1.x - s2.x)),
        "du": norm(grid, s1.u - s2.u),
        "dy": norm(grid, s1.y - s2.y),
        "dp": norm(grid, s1.p - s2.p),
        "dlam": norm(grid, s1.lam - s2.lam),
    }
