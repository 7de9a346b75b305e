"""Single relaxed program: minimize F subject to a slack on the optimal value.

At relaxation level eps > 0 the program minimizes F(x, Su, u) over the
admissible sets subject to f(x, Su, u) - phi(x) <= eps.  The feasible set
has nonempty interior (any lower-level solution has zero gap), so KKT
multipliers exist; they are recovered with an augmented Lagrangian on the
single scalar constraint, with projected-gradient inner solves in the
reduced variables (x, u).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretization import norm
from .errors import ConvergenceError, DomainError
from .model import (
    ProblemSpec,
    eval_j,
    eval_j_grad_adjoint,
    normal_cone_residual_X,
)
from .value import ValueSample, lower_objective_value, value_sample

_INNER_CAP = 20000
_STEP_GROW = 1.3
_STEP_MAX = 1e6
_STEP_MIN = 1e-18


@dataclass(eq=False)
class RelaxedSolution:
    """Stationary point of one relaxed program with its KKT multipliers."""

    eps: float
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    alpha: float
    z: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    upper_value: float
    gap: float
    inner_iterations: int
    outer_iterations: int
    converged: bool
    beta: float = 1.0  # penalty level at exit, reused by warm starts
    residuals: dict = field(default_factory=dict)


def _joint_norm(spec: ProblemSpec, dx: np.ndarray, du: np.ndarray) -> float:
    return float(np.sqrt(np.dot(dx, dx) + spec.grid.h * np.dot(du, du)))


class _Evaluator:
    """Augmented Lagrangian values and gradients in the reduced variables."""

    def __init__(self, spec: ProblemSpec, eps: float):
        self.spec = spec
        self.eps = eps
        # the last value sample, keyed by the exact bits of its x: an
        # accepted backtracking trial comes back as the next iterate
        self.last: ValueSample | None = None
        self.last_key: bytes | None = None

    def state(self, u: np.ndarray) -> np.ndarray:
        return self.spec.operator.solve(u)

    def parts(self, x: np.ndarray, u: np.ndarray, y: np.ndarray | None = None):
        """Upper value, gap, state, and the value sample at x."""
        spec = self.spec
        if y is None:
            y = self.state(u)
        if x.tobytes() != self.last_key:
            warm = None if self.last is None else self.last.lower.u
            self.last = value_sample(spec, x, warm_start=warm)
            self.last_key = x.tobytes()
        vs = self.last
        upper = spec.upper.value(spec.grid, x, y, u)
        gap = lower_objective_value(spec, x, y, u) - vs.phi
        return upper, gap, y, vs

    def al_value(self, alpha: float, beta: float, x: np.ndarray, u: np.ndarray):
        upper, gap, y, vs = self.parts(x, u)
        c = gap - self.eps
        val = upper + 0.5 * beta * max(0.0, alpha / beta + c) ** 2 - alpha**2 / (2.0 * beta)
        return val, upper, gap, y, vs

    def al_gradient(self, alpha: float, beta: float, x: np.ndarray, u: np.ndarray):
        """Value, gradient pair, multiplier estimate theta, and parts."""
        spec = self.spec
        val, upper, gap, y, vs = self.al_value(alpha, beta, x, u)
        theta = max(0.0, alpha + beta * (gap - self.eps))
        gx = spec.upper.grad_x(x) + theta * (
            eval_j(spec.grid, spec.lower, y) - vs.grad_phi
        )
        # one adjoint solve covers both the tracking and the gap terms
        adj_rhs = spec.upper.grad_y(y)
        if theta != 0.0:
            adj_rhs = adj_rhs + theta * eval_j_grad_adjoint(spec.grid, spec.lower, y, x)
        gu = (
            spec.upper.grad_u(u)
            + theta * spec.sigma * u
            + spec.operator.solve_adjoint(adj_rhs)
        )
        return val, gx, gu, theta, upper, gap, y, vs


def _inner_solve(
    ev: _Evaluator,
    alpha: float,
    beta: float,
    x: np.ndarray,
    u: np.ndarray,
    tol: float,
    step: float,
):
    """Projected gradient with backtracking on the augmented Lagrangian.

    Returns the iterate together with its certified fixed-point residual
    measured at reference step min(step, 1).
    """
    spec = ev.spec
    val, gx, gu, theta, upper, gap, y, vs = ev.al_gradient(alpha, beta, x, u)
    iterations = 0
    frozen = 0
    while True:
        tau = min(step, 1.0)
        px = spec.x_set.project(x - tau * gx)
        pu = spec.bounds.project(u - tau * gu)
        residual = _joint_norm(spec, x - px, u - pu) / tau
        if residual <= tol or iterations >= _INNER_CAP or frozen >= 5:
            info = {
                "residual": residual, "value": val, "upper": upper, "gap": gap,
                "y": y, "vs": vs, "theta": theta, "step": step,
            }
            return x, u, iterations, info
        while True:
            xn = spec.x_set.project(x - step * gx)
            un = spec.bounds.project(u - step * gu)
            dx, du = xn - x, un - u
            dn2 = float(np.dot(dx, dx) + spec.grid.h * np.dot(du, du))
            if dn2 == 0.0:
                break
            model = (
                val
                + float(np.dot(gx, dx) + spec.grid.h * np.dot(gu, du))
                + dn2 / (2.0 * step)
            )
            trial_val, t_upper, t_gap, t_y, t_vs = ev.al_value(alpha, beta, xn, un)
            if trial_val <= model + 1e-12 * (1.0 + abs(val)):
                break
            step *= 0.5
            if step < _STEP_MIN:
                break
        if dn2 == 0.0 or step < _STEP_MIN:
            # cannot move: report the current point with its residual
            info = {
                "residual": residual, "value": val, "upper": upper, "gap": gap,
                "y": y, "vs": vs, "theta": theta, "step": max(step, _STEP_MIN),
            }
            return x, u, iterations, info
        # movement below float resolution for several steps means the
        # iteration is numerically exhausted at this tolerance
        rel_move = np.sqrt(dn2) / (1.0 + _joint_norm(spec, x, u))
        frozen = frozen + 1 if rel_move < 1e-15 else 0
        x, u = xn, un
        val, gx, gu, theta, upper, gap, y, vs = ev.al_gradient(alpha, beta, x, u)
        iterations += 1
        step = min(step * _STEP_GROW, _STEP_MAX)


def _assemble(
    spec: ProblemSpec,
    eps: float,
    x: np.ndarray,
    u: np.ndarray,
    y: np.ndarray,
    alpha: float,
    upper: float,
    gap: float,
    vs,
    inner_iterations: int,
    outer_iterations: int,
    converged: bool,
    beta: float,
) -> RelaxedSolution:
    grid, op = spec.grid, spec.operator
    jy = eval_j(grid, spec.lower, y)
    z = -(spec.upper.grad_x(x) + alpha * (jy - vs.grad_phi))
    adj = spec.upper.grad_y(y) + alpha * eval_j_grad_adjoint(grid, spec.lower, y, x)
    p = op.solve_adjoint(-adj)
    lam = p - spec.upper.grad_u(u) - alpha * spec.sigma * u
    sol = RelaxedSolution(
        eps=eps, x=x, y=y, u=u, alpha=alpha, z=z, p=p, lam=lam,
        upper_value=upper, gap=gap,
        inner_iterations=inner_iterations, outer_iterations=outer_iterations,
        converged=converged, beta=beta,
    )
    sol.residuals = relaxed_kkt_residuals(spec, sol)
    return sol


def solve_relaxed(
    spec: ProblemSpec,
    eps: float,
    warm: RelaxedSolution | None = None,
    feas_tol: float = 1e-8,
    stat_tol: float = 1e-7,
    comp_tol: float = 1e-8,
    beta0: float = 1.0,
    beta_growth: float = 10.0,
    outer_cap: int = 50,
) -> RelaxedSolution:
    """Solve one relaxed program by an augmented Lagrangian outer loop.

    The scalar multiplier follows the classical update
    alpha <- max(0, alpha + beta (gap - eps)); beta grows tenfold whenever
    the combined feasibility and complementarity measure stalls.  Exits when
    the inner fixed-point residual, the constraint violation, and the
    complementarity product are all within their tolerances.
    """
    if not (eps > 0.0):
        raise DomainError(f"relaxation parameter must be positive, got {eps}")
    ev = _Evaluator(spec, eps)
    beta = beta0
    if warm is not None:
        x = spec.x_set.project(np.asarray(warm.x, dtype=float))
        u = spec.bounds.project(np.asarray(warm.u, dtype=float))
        alpha = max(0.0, float(warm.alpha))
        beta = max(beta0, float(warm.beta))
    else:
        if spec.x_set.kind == "simplex":
            x = np.full(spec.n, 1.0 / spec.n)
        else:
            x = 0.5 * (spec.x_set.lo + spec.x_set.hi)
        u = spec.bounds.project(spec.upper.u_o)
        alpha = 0.0

    step = 1.0
    total_inner = 0
    prev_measure = np.inf
    best = None
    best_measure = np.inf

    for outer in range(1, outer_cap + 1):
        x, u, inner_iters, info = _inner_solve(ev, alpha, beta, x, u, stat_tol, step)
        total_inner += inner_iters
        step = info["step"]
        gap = info["gap"]
        alpha_new = max(0.0, alpha + beta * (gap - eps))
        cplus = max(0.0, gap - eps)
        comp = abs(alpha_new * (eps - gap))
        measure = max(
            cplus / max(feas_tol, 1e-300),
            comp / max(comp_tol, 1e-300),
            info["residual"] / max(stat_tol, 1e-300),
        )
        if measure < best_measure:
            best_measure = measure
            best = (x.copy(), u.copy(), info["y"].copy(), alpha_new, info["upper"],
                    gap, info["vs"], total_inner, outer, beta)
        if cplus <= feas_tol and comp <= comp_tol and info["residual"] <= stat_tol:
            return _assemble(
                spec, eps, x, u, info["y"], alpha_new, info["upper"], gap,
                info["vs"], total_inner, outer, converged=True, beta=beta,
            )
        stalled = max(cplus, comp) > 0.25 * prev_measure if np.isfinite(prev_measure) else False
        prev_measure = max(cplus, comp)
        alpha = alpha_new
        if stalled or info["residual"] > stat_tol:
            beta = min(beta * beta_growth, 1e14)

    assert best is not None
    bx, bu, by, balpha, bupper, bgap, bvs, binner, bouter, bbeta = best
    failed = _assemble(
        spec, eps, bx, bu, by, balpha, bupper, bgap, bvs, binner, bouter,
        converged=False, beta=bbeta,
    )
    raise ConvergenceError(
        f"relaxed solve at eps {eps:g} exhausted {outer_cap} outer iterations",
        best=failed,
        residuals=failed.residuals,
    )


def relaxed_kkt_residuals(spec: ProblemSpec, sol: RelaxedSolution) -> dict:
    """Independent residuals of the relaxed KKT system at a solution.

    The parameter-space multiplier z is reconstructed as the negative
    remainder of the x-equation and checked against the polyhedral normal
    cone, so the reported record does not trust any solver internals.
    """
    grid, op = spec.grid, spec.operator
    x, y, u = sol.x, sol.y, sol.u
    alpha = sol.alpha
    vs = value_sample(spec, x)
    jy = eval_j(grid, spec.lower, y)
    gap = lower_objective_value(spec, x, y, u) - vs.phi

    z = -(spec.upper.grad_x(x) + alpha * (jy - vs.grad_phi))
    r_x = normal_cone_residual_X(spec.x_set, x, z, tol=1e-6)
    r_y = norm(
        grid,
        spec.upper.grad_y(y)
        + alpha * eval_j_grad_adjoint(grid, spec.lower, y, x)
        + op.apply_adjoint(sol.p),
    )
    r_u = norm(
        grid,
        spec.upper.grad_u(u) + alpha * spec.sigma * u - sol.p + sol.lam,
    )
    r_state = norm(grid, op.apply(y) - u)
    r_comp = abs(alpha * (sol.eps - gap))
    r_lam = spec.bounds.normal_cone_residual(u, sol.lam, spec.active_tol)
    return {
        "x": float(r_x),
        "y": float(r_y),
        "u": float(r_u),
        "state": float(r_state),
        "comp": float(r_comp),
        "lam": float(r_lam),
    }
