"""Parametric lower-level solver.

For a fixed parameter x in R^n_+ the lower problem minimizes
x . j(Su) + (sigma/2) ||u||^2 over the bound-feasible controls, where
S = A^{-1} B maps controls to states.  The reduced objective is a strongly
convex quadratic, so the solution map and its multipliers are single valued.
One kernel computes them exactly for the whole family of tracking QPs
(TrackingQP), which holds the lower QP and the u-subproblems of the relaxed
program: the primal-dual active-set method (semismooth Newton on
u = P_U(u + lam/r)), one banded solve of the optimality system in the
interleaved unknowns (y_k, p_k) per step, with projected Newton if the
active sets cycle: its steps are reduced solves on its frozen set, and it
evaluates a control as every check does, by the state and adjoint solves of
the fixed-point residual.  The band matrices are factored and solved by
LAPACK's dgbtrf and dgbtrs, which _lapack takes from scipy's Fortran
wrappers without running scipy.linalg's init.  Every solution must pass a
fixed-point residual check ||u - P_U(u + lam/r)|| <= tol, which for the
lower QP reads ||u - P_U(p/sigma)|| <= tol.  The solution's derivative
along a change of coefficients (_tangent) is one more solve, on its last LU
factors if they fix its bound nodes and on one fresh factorization if not.
The band system's condition grows like N^2, so its u can miss a tight tol;
one step of iterative refinement (Moler, J. ACM 1967) on the reduced
equation in u, whose condition does not grow with N, is that solve.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._lapack import dgbtrf, dgbtrs
from .errors import ConvergenceError, DomainError, _positive, _vector
from .model import ProblemSpec, _row_dot, lower_coefficients

# solves per kernel call before the refinement step: each active-set step,
# each of projected Newton's evaluations and each of its steps that factors
# counts one
_MAX_SOLVES = 200
_ROUNDOFF = 1e-13  # relative roundoff allowance of the exactness and decrease tests
_ARMIJO = 1e-4


@dataclass(frozen=True, eq=False)
class LowerSolution:
    """Optimal (y, u) of the parametric problem with its multipliers.

    y = A^{-1} u and p = A^{-1}(-j'(y)*x) are fresh solves of the kernel's
    final u, so the state and adjoint equations hold by construction to one
    tridiagonal solve's roundoff, and lam = p - sigma*u makes the gradient
    equation exact.  kkt_residual is the larger of the kernel's fixed-point
    residual ||u - P_U(p/sigma)|| from those solves and lam's sign residual.
    iterations counts the kernel's solves: one per active-set step, one per
    projected-Newton evaluation and factorization after a cycle, and one for
    the refinement step's factorization where it needs one.  qp is the
    lower QP at x that the kernel solved, built once for every reader.
    """

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    kkt_residual: float
    iterations: int
    qp: TrackingQP


def _validate_parameter(spec: ProblemSpec, x) -> np.ndarray:
    x = _vector(x, (spec.n,), "parameter")
    if not np.isfinite(x).all():
        raise DomainError(f"parameter {x} has a non-finite component")
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
    _projected_residual reads s and b alone, so the oracle checks the rows
    of every block against one member with d = c = None.
    """

    d: np.ndarray | float
    c: np.ndarray
    s: float
    b: np.ndarray | float


def lower_qp(spec: ProblemSpec, x: np.ndarray) -> TrackingQP:
    """The lower QP at x: the coefficients of x . j(y) = 1/2 <y, d y> - <c, y>
    + const, and s = sigma."""
    d, c = lower_coefficients(spec.grid, spec.lower, x)
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
    r = _scale(spec, qp)
    n, h2 = spec.grid.n_nodes, spec.grid.h * spec.grid.h
    ab = np.zeros((7, 2 * n))
    ab[2, 2:] = ab[6, :-2] = -1.0 / h2  # A on both halves of the unknowns
    ab[4] = 2.0 / h2
    ab[3, 1::2] = -1.0 / r
    ab[5, 0::2] = qp.d
    rhs = np.empty(2 * n)
    rhs[0::2] = qp.b / r
    rhs[1::2] = qp.c
    return ab, rhs, qp.s / r


def _band_solve(system, fixed: np.ndarray, values: np.ndarray, factors=None):
    """(y, p) with u = values on the fixed nodes (row 2k: A y = values) and
    the gradient equation on the free ones, and the band matrix's dgbtrf
    factors (lu, piv, fixed), taken from factors when those fix these nodes."""
    ab, rhs, ratio = system
    if factors is None or factors[2].tobytes() != fixed.tobytes():
        mat = ab.copy()
        mat[3, 1::2][fixed] = 0.0
        if ratio != 1.0:
            row = np.where(fixed, 1.0, ratio)
            mat[4, 0::2] *= row
            mat[2, 2::2] *= row[:-1]
            mat[6, :-2:2] *= row[1:]
        lu, piv, info = dgbtrf(mat, 2, 2, overwrite_ab=1)
        if info != 0:
            raise ConvergenceError(f"optimality system is singular (dgbtrf info {info})")
        factors = (lu, piv, fixed)
    b = rhs.copy()
    b[0::2] = np.where(fixed, values, rhs[0::2])
    z, _ = dgbtrs(factors[0], 2, 2, b, factors[1], overwrite_b=1)
    return z[0::2], z[1::2], factors


def _target(spec: ProblemSpec, qp: TrackingQP, y: np.ndarray, p: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """v = u + lam/r with u = A y and lam = p + b - s u, without dividing by s,
    written to out if given.

    The optimal control is u = P_U(v); for r = s this is (p + b)/s, one
    division p/r for the lower QP, whose b is the scalar 0.
    """
    r = _scale(spec, qp)
    v = p if isinstance(qp.b, float) and qp.b == 0.0 else np.add(p, qp.b, out=out)
    v = np.divide(v, r, out=out if v is p else v)  # one pass where b is the lower QP's 0
    if qp.s != r:
        v += (1.0 - qp.s / r) * spec.operator.apply(y)
    return v


def _exact(u: np.ndarray, target: np.ndarray) -> bool:
    """Whether u equals target = P_U(v) to roundoff."""
    return float(np.abs(u - target).max()) <= _ROUNDOFF * (1.0 + np.abs(target).max())


def _objective(spec: ProblemSpec, qp: TrackingQP, y: np.ndarray, u: np.ndarray) -> float:
    """The member's objective at (y, u), without its constant."""
    return spec.grid.h * float(
        0.5 * y @ (qp.d * y) - qp.c @ y + 0.5 * qp.s * (u @ u) - (qp.b * u).sum()
    )


def _projected_newton(spec: ProblemSpec, qp: TrackingQP, system, u: np.ndarray,
                      tol: float, budget: int):
    """Projected Newton (Bertsekas 1982) from a feasible u: the iterate and its solves.

    Nodes near a bound with the gradient pointing out take a gradient step
    of length 1/r, the others the Newton step of the quadratic with those
    nodes frozen, a reduced solve as the refinement step is, on the last
    step's band factors where the frozen set repeats.  An Armijo
    search along the projection arc, with a roundoff guard on the decrease
    test, makes it globally convergent.  It stops at a fixed-point residual
    of tol/2, leaving the final check room for roundoff, which on fine grids
    with small sigma exceeds _ROUNDOFF.
    Each evaluation of a control, _fixed_point_residual's state and adjoint
    solves, counts as one solve against budget, as each Newton step that
    factors does; a step on the last step's factors counts none, as the
    refinement step on the kernel's factors does.
    """
    bounds, h = spec.bounds, spec.grid.h

    def at(w):  # fixed-point residual, target and objective at the control w
        residual, y, p = _fixed_point_residual(spec, qp, w)
        return residual, _target(spec, qp, y, p), _objective(spec, qp, y, w)

    residual, v, f = at(u)
    solves, factors = 1, None
    while solves < budget and residual > 0.5 * tol:
        grad = u - v  # the gradient s u - p - b, divided by r
        width = min(1e-3, residual)
        frozen = ((u <= bounds.ua + width) & (grad > 0.0)) | (
            (u >= bounds.ub - width) & (grad < 0.0)
        )
        # the Newton step: H_FF du = lam = r (v - u) with the frozen nodes fixed
        lam = TrackingQP(d=0.0, c=0.0, s=0.0, b=_scale(spec, qp) * (v - u))
        _, du, factored = _reduced_solve(spec, qp, system, frozen, 0.0, 0.0, lam, factors)
        step = np.where(frozen, v - u, du)
        solves += int(factored is not factors)
        factors = factored
        alpha = 1.0
        while solves < budget:
            trial = bounds.project(u + alpha * step)
            res_t, v_t, f_t = at(trial)
            solves += 1
            decrease = h * _scale(spec, qp) * (
                alpha * float(grad[~frozen] @ -step[~frozen])
                + float(grad[frozen] @ (u - trial)[frozen])
            )
            if f_t <= f - _ARMIJO * decrease + _ROUNDOFF * (1.0 + abs(f)):
                u, v, f, residual = trial, v_t, f_t, res_t
                break
            alpha *= 0.5
    return u, solves


def _fixed_point_residual(spec: ProblemSpec, qp: TrackingQP, u: np.ndarray):
    """||u - P_U(u + lam/r)|| from fresh state and adjoint solves, with y and p.

    This is the projected-gradient residual at step 1/r, at least the
    residual at any shorter step; for the lower QP it is ||u - P_U(p/sigma)||.
    """
    y = spec.operator.solve(u)
    p = spec.operator.solve(qp.c - qp.d * y)
    return _projected_residual(spec, qp, u, y, p), y, p


def _projected_residual(spec: ProblemSpec, qp: TrackingQP, u: np.ndarray, y: np.ndarray,
                        p: np.ndarray, out: np.ndarray | None = None):
    """||u - P_U(u + lam/r)|| of u with its state y and adjoint p, one per
    row for stacked rows; out, an array of u's shape that may be p itself,
    receives u's distance to its projected target.  Stacked rows whose
    targets all lie strictly inside the bounds, by two reductions, skip the
    projection, there the identity."""
    v = _target(spec, qp, y, p, out=out)
    if u.ndim == 1 or not spec.bounds.inside(v):
        v = spec.bounds.project(v, out=out)
    return np.sqrt(spec.grid.h) * np.sqrt(_row_dot(np.subtract(u, v, out=out)))


# a solved tracking QP, its fixed-point residual, and the band system and factors _tangent reuses
_QPSolution = namedtuple("_QPSolution", "y u p solves system factors residual")


def _solve_qp(spec: ProblemSpec, qp: TrackingQP, tol: float, warm: np.ndarray | None = None):
    """Exact solution (y, u, p) of one tracking QP and the solves made.

    p solves A p = c - d y.  The first active sets are the nodes where
    P_U(warm), or P_U(0) for a cold start, sits on a bound.  Active-set
    steps stop once u = P_U(u + lam/r) holds to roundoff, which covers
    repeated sets and biactive nodes.  A set pair seen before is a cycle,
    and projected Newton takes over, leaving one solve for an active-set
    step from its sets.  At most _MAX_SOLVES solves are made.  Then a
    residual above min(tol, _ROUNDOFF (1 + max|u|)) gets one refinement
    step, P_U(u + du) with H_FF du = p + b - s u solved by _tangent: on the
    last factors where they fix u's bound nodes, else on one more
    factorization, which counts as a solve.  It is kept if it lowers the
    residual; a kernel allowed no solve has no factors and is not refined.
    The result must pass the fixed-point check against tol or
    ConvergenceError carries the residual, and the final iterate as best.
    A result that passes the exactness test depends only on its final
    active sets: u is the band solve on them, refined by the same rule, and
    y, p fresh solves of that u, so a warm-started value sample that ends
    on them is the cold one.
    """
    bounds = spec.bounds
    system = _optimality_system(spec, qp)
    u = bounds.project(np.zeros(spec.grid.n_nodes) if warm is None else warm)
    at_a, at_b = u <= bounds.ua, u >= bounds.ub
    seen = {(at_a.tobytes(), at_b.tobytes())}
    newton, factors = False, None
    solves = 0
    while solves < _MAX_SOLVES:
        fixed, values = at_a | at_b, np.where(at_a, bounds.ua, bounds.ub)
        y, p, factors = _band_solve(system, fixed, values)
        v = _target(spec, qp, y, p)
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
                spec, qp, system, bounds.project(u), tol, _MAX_SOLVES - solves - 1
            )
            solves += steps
            newton = True
            at_a, at_b = u <= bounds.ua, u >= bounds.ub
        seen.add(key)
    u = bounds.project(u)
    residual, y, p = _fixed_point_residual(spec, qp, u)
    sol = _QPSolution(y, u, p, solves, system, factors, float(residual))
    if residual > min(tol, _ROUNDOFF * (1.0 + np.abs(u).max())) and factors is not None:
        # the step: H_FF du = p + b - s u, on the last factors if they fix u's bound nodes
        _, du, factored = _tangent(spec, qp, sol, TrackingQP(d=0.0, c=0.0, s=0.0, b=p + qp.b - qp.s * u))
        u_r = bounds.project(u + du)
        res_r, y_r, p_r = _fixed_point_residual(spec, qp, u_r)
        sol = sol._replace(solves=solves + factored)
        if res_r < residual:
            sol = sol._replace(y=y_r, u=u_r, p=p_r, residual=float(res_r))
    if not sol.residual <= tol:
        raise ConvergenceError(
            f"QP solve missed tol {tol:g} after {sol.solves} solves "
            f"(fixed-point residual {sol.residual:.3e})",
            best=sol, residuals={"fixed_point": sol.residual},
        )
    return sol


def _reduced_solve(spec: ProblemSpec, qp: TrackingQP, system, fixed, y, u, dqp: TrackingQP, factors=None):
    """Derivative (y', u') at (y, u) along the coefficient direction dqp with
    the fixed nodes held, and the band factors it was solved on.

    A y' = u', A p' + d y' = dc - dd y, s u' - p' = db - ds u on the free
    nodes and u' = 0 on the fixed ones: the reduced equation H_FF u' = db
    for dqp = (0, 0, 0, db), whose condition does not grow with N.
    """
    rhs = np.empty(2 * spec.grid.n_nodes)
    rhs[0::2] = (dqp.b - dqp.s * u) / _scale(spec, qp)
    rhs[1::2] = dqp.c - dqp.d * y
    y_t, _, factors = _band_solve((system[0], rhs, system[2]), fixed, 0.0, factors)
    return y_t, np.where(fixed, 0.0, spec.operator.apply(y_t)), factors


def _tangent(spec: ProblemSpec, qp: TrackingQP, sol: _QPSolution, dqp: TrackingQP):
    """Derivative (y', u') of sol along dqp with the nodes where sol.u sits on
    a bound fixed, and the band solves made for it: 0 on the kernel's
    factors, else 1."""
    fixed = (sol.u <= spec.bounds.ua) | (sol.u >= spec.bounds.ub)
    y_t, u_t, factors = _reduced_solve(spec, qp, sol.system, fixed, sol.y, sol.u, dqp, sol.factors)
    return y_t, u_t, int(factors is not sol.factors)


def _lower_solution(spec: ProblemSpec, x: np.ndarray, qp: TrackingQP, sol: _QPSolution) -> LowerSolution:
    """The LowerSolution at x of the kernel's (y, u, p) for qp, the lower QP
    there, with lam = p - sigma u; a failed kernel's final iterate is built alike."""
    lam = sol.p - spec.sigma * sol.u
    sign_res = spec.bounds.normal_cone_residual(sol.u, lam, spec.active_tol)
    return LowerSolution(x=x, y=sol.y, u=sol.u, p=sol.p, lam=lam,
                         kkt_residual=max(sol.residual, sign_res), iterations=sol.solves, qp=qp)


def solve_lower(
    spec: ProblemSpec,
    x,
    tol: float | None = None,
    warm_start: np.ndarray | None = None,
) -> LowerSolution:
    """Solve the parametric problem at x exactly and recover its multipliers.

    tol bounds the fixed-point residual ||u - P_U(p/sigma)||, the discrete
    form of -grad g(u) in the normal cone at u; warm_start seeds the active
    sets.  The kernel's checked (y, u, p) is returned as it stands; lam's
    sign test is kept, as it bounds lam nodewise in multiplier units.  A
    kernel failure's ConvergenceError carries its final iterate's
    LowerSolution as best.
    """
    x = _validate_parameter(spec, x)
    tol = _positive(spec.solver_tol if tol is None else tol, "tol")
    if warm_start is not None:
        warm_start = _vector(warm_start, (spec.grid.n_nodes,), "warm_start")

    qp = lower_qp(spec, x)
    try:
        sol = _solve_qp(spec, qp, tol, warm_start)
    except ConvergenceError as err:
        err.best = _lower_solution(spec, x, qp, err.best)
        raise
    return _lower_solution(spec, x, qp, sol)
