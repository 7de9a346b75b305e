"""Single relaxed program: minimize F subject to a slack on the optimal value.

At relaxation level eps > 0 the program minimizes F(x, Su, u) over the
admissible sets subject to f(x, Su, u) - phi(x) <= eps.  Any lower-level
solution has zero gap, so Slater's condition holds and the constraint has
one scalar multiplier alpha >= 0.  At fixed (x, alpha) the u-minimization of
F + alpha f is a member of the tracking-QP family that lower._solve_qp
solves exactly.  The solver nests three steps:

- phi(x) and grad phi(x) from one value sample per trial x;
- alpha from gap(alpha) = eps, with gap nonincreasing in alpha: alpha = 0
  when gap(0) <= eps, otherwise a secant on log gap against log alpha,
  kept inside a bracket;
- projected gradient in x on V(x) = F at the solved u, whose gradient
  gamma x + alpha (j(y) - grad phi(x)) is the envelope formula.  Trial
  points are compared by the dual value F + alpha (gap - eps), which does
  not carry the multiplier search's error in the gap to first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import norm
from .errors import ConvergenceError, DomainError
from .lower import TrackingQP, _solve_qp, lower_qp
from .model import ProblemSpec, eval_j, eval_j_grad_adjoint
from .value import ValueSample, lower_objective_value, value_sample

_MAX_STEPS = 200   # x-steps per relaxed solve
_MAX_SEARCH = 60   # kernel solves per multiplier search
_ALPHA_RTOL = 1e-9  # relative move of alpha at which the multiplier search stops
_ARMIJO = 1e-4
_ROUNDOFF = 1e-13  # relative roundoff allowance of the decrease test


@dataclass(eq=False)
class RelaxedSolution:
    """Stationary point of one relaxed program with its KKT multipliers.

    inner_iterations counts the band solves of the u-subproblems and
    outer_iterations the accepted x-steps.
    """

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
    residuals: dict = field(default_factory=dict)


@dataclass(eq=False)
class _Point:
    """One trial x with its value sample and its solved u-subproblem."""

    x: np.ndarray
    vs: ValueSample
    alpha: float
    y: np.ndarray
    u: np.ndarray
    p: np.ndarray
    upper: float
    gap: float


def _gap(spec: ProblemSpec, vs: ValueSample, low: TrackingQP, u: np.ndarray) -> float:
    """f(x, Su, u) - phi(x) as the lower QP's expansion about its solution.

    With du = u - psi_u: -<lam, du> + sigma/2 ||du||^2 + 1/2 <S du, d S du>,
    nonnegative terms that are accurate relative to the gap, where f - phi
    loses the digits of f, and alpha times that roundoff swamps the dual value.
    """
    du = u - vs.lower.u
    dy = spec.operator.solve(du)
    return spec.grid.h * float(
        0.5 * spec.sigma * (du @ du) - vs.lower.lam @ du + 0.5 * dy @ (low.d * dy)
    )


def _next_alpha(history, log_eps: float, lo: float, hi: float) -> float:
    """Secant through the last two points on log gap against log alpha,
    kept inside the bracket (lo, hi) and at most a thousandfold above lo;
    slope -2 (gap ~ alpha^-2 for large alpha) when only one point is known."""
    log_lo = math.log(lo) if lo > 0.0 else -math.inf
    log_hi = math.log(hi) if hi < math.inf else log_lo + math.log(1e3)
    guess = None
    if len(history) >= 2 and history[-1][1] != history[-2][1]:
        (a1, g1), (a2, g2) = history[-2:]
        guess = a2 + (log_eps - g2) * (a2 - a1) / (g2 - g1)
    elif history:
        guess = history[-1][0] + 0.5 * (history[-1][1] - log_eps)
    if guess is not None and log_lo < guess < log_hi:
        return math.exp(guess)
    if lo > 0.0:
        return math.sqrt(lo) * math.sqrt(hi) if hi < math.inf else 10.0 * lo
    return 1e-3 * hi if hi < math.inf else 1.0


class _Solver:
    """The three steps of one relaxed solve, with its band-solve count."""

    def __init__(self, spec: ProblemSpec, eps: float, feas_tol: float, comp_tol: float):
        self.spec, self.eps = spec, eps
        self.feas_tol, self.comp_tol = feas_tol, comp_tol
        self.solves = 0

    def feasible(self, alpha: float, gap: float) -> bool:
        return gap - self.eps <= self.feas_tol and alpha * abs(self.eps - gap) <= self.comp_tol

    def gradient(self, pt: _Point) -> np.ndarray:
        spec = self.spec
        jy = eval_j(spec.grid, spec.lower, pt.y)
        return spec.upper.grad_x(pt.x) + pt.alpha * (jy - pt.vs.grad_phi)

    def dual(self, pt: _Point) -> float:
        return pt.upper + pt.alpha * (pt.gap - self.eps)

    def _solve(self, vs: ValueSample, low: TrackingQP, alpha: float, warm) -> _Point:
        spec, up = self.spec, self.spec.upper
        if alpha == 0.0 and up.c_y == 0.0 and up.c_u == 0.0:
            # F ignores u, so this member is singular and every control is
            # optimal: take the lower solution, whose gap is 0
            y, u = vs.lower.y, vs.lower.u
            return _Point(x=vs.x, vs=vs, alpha=0.0, y=y, u=u, p=0.0 * u, gap=0.0,
                          upper=up.value(spec.grid, vs.x, y, u))
        qp = TrackingQP(
            d=up.c_y + alpha * low.d,
            c=up.c_y * up.y_o + alpha * low.c,
            s=up.c_u + alpha * spec.sigma,
            b=up.c_u * up.u_o,
        )
        y, u, p, solves = _solve_qp(spec, qp, spec.solver_tol, warm)
        self.solves += solves
        return _Point(x=vs.x, vs=vs, alpha=alpha, y=y, u=u, p=p,
                      upper=spec.upper.value(spec.grid, vs.x, y, u), gap=_gap(spec, vs, low, u))

    def evaluate(self, x: np.ndarray, alpha: float, u: np.ndarray, lower_warm) -> _Point:
        """phi at x, then the multiplier search from alpha, warm-started from u.

        Stops at alpha = 0 when gap(0) <= eps, or at a point that passes the
        feasibility and complementarity tests once the secant moves alpha by
        less than _ALPHA_RTOL; the tests alone would leave an error in alpha
        that the envelope gradient carries.  Else returns the last point.
        """
        vs = value_sample(self.spec, x, warm_start=lower_warm)
        low = lower_qp(self.spec, vs.x)
        lo, hi = 0.0, math.inf  # gap(lo) > eps >= gap(hi)
        history: list[tuple[float, float]] = []  # (log alpha, log gap), alpha, gap > 0
        zero_known = alpha == 0.0
        pt = self._solve(vs, low, alpha, u)
        for _ in range(_MAX_SEARCH):
            if pt.alpha == 0.0 and pt.gap <= self.eps:
                break
            if pt.gap > self.eps:
                lo = pt.alpha
            else:
                hi = pt.alpha
            if pt.alpha > 0.0 and pt.gap > 0.0:
                history.append((math.log(pt.alpha), math.log(pt.gap)))
            if hi < math.inf and not zero_known:
                alpha, zero_known = 0.0, True  # a candidate until its gap is known
            else:
                alpha = _next_alpha(history, math.log(self.eps), lo, hi)
                settled = abs(alpha - pt.alpha) <= _ALPHA_RTOL * pt.alpha
                if settled and self.feasible(pt.alpha, pt.gap):
                    break
                if alpha in (lo, hi):
                    break  # the bracket is down to adjacent floats
            pt = self._solve(vs, low, alpha, pt.u)
        return pt

    def assemble(self, pt: _Point, steps: int, converged: bool) -> RelaxedSolution:
        spec = self.spec
        lam = pt.p - spec.upper.grad_u(pt.u) - pt.alpha * spec.sigma * pt.u
        sol = RelaxedSolution(
            eps=self.eps, x=pt.x, y=pt.y, u=pt.u, alpha=pt.alpha,
            z=-self.gradient(pt), p=pt.p, lam=lam,
            upper_value=pt.upper, gap=pt.gap,
            inner_iterations=self.solves, outer_iterations=steps,
            converged=converged,
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
) -> RelaxedSolution:
    """Solve one relaxed program by projected gradient in x on its value.

    Each trial x gets one value sample and a multiplier search whose
    u-subproblems the QP kernel solves exactly; steps are accepted by an
    Armijo test on the dual value, and their length follows Barzilai-Borwein.
    Exits when gap - eps <= feas_tol, |alpha (eps - gap)| <= comp_tol and
    ||x - P_X(x - grad V)|| <= stat_tol.  A warm start passes x, alpha
    and u along the path.  ConvergenceError carries the best point as best.
    """
    if not (eps > 0.0):
        raise DomainError(f"relaxation parameter must be positive, got {eps}")
    x_set = spec.x_set
    if warm is not None:
        x = x_set.project(np.asarray(warm.x, dtype=float))
        u = spec.bounds.project(np.asarray(warm.u, dtype=float))
        alpha = max(0.0, float(warm.alpha))
    else:
        simplex = x_set.kind == "simplex"
        x = np.full(spec.n, 1.0 / spec.n) if simplex else 0.5 * (x_set.lo + x_set.hi)
        u = spec.bounds.project(spec.upper.u_o)
        alpha = 0.0

    solver = _Solver(spec, eps, feas_tol, comp_tol)
    pt = solver.evaluate(x, alpha, u, None)
    grad = solver.gradient(pt)
    best, step = (math.inf, pt, 0), 1.0
    for steps in range(_MAX_STEPS + 1):
        residual = float(np.linalg.norm(pt.x - x_set.project(pt.x - grad)))
        measure = max(
            max(0.0, pt.gap - eps) / max(feas_tol, 1e-300),
            pt.alpha * abs(eps - pt.gap) / max(comp_tol, 1e-300),
            residual / max(stat_tol, 1e-300),
        )
        best = min(best, (measure, pt, steps), key=lambda b: b[0])
        if solver.feasible(pt.alpha, pt.gap) and residual <= stat_tol:
            return solver.assemble(pt, steps, converged=True)
        if steps == _MAX_STEPS:
            break
        value = solver.dual(pt)
        while True:
            x_t = x_set.project(pt.x - step * grad)
            move = x_t - pt.x
            if not move.any():
                break
            trial = solver.evaluate(x_t, pt.alpha, pt.u, pt.vs.lower.u)
            if solver.dual(trial) <= (value + _ARMIJO * float(grad @ move)
                                      + _ROUNDOFF * (1.0 + abs(value))):
                break
            step *= 0.5
        if not move.any():
            break  # no step moves x: stalled at this tolerance
        grad_t = solver.gradient(trial)
        curvature = float(move @ (grad_t - grad))
        step = float(move @ move) / curvature if curvature > 0.0 else 2.0 * step
        pt, grad = trial, grad_t

    failed = solver.assemble(best[1], best[2], converged=False)
    raise ConvergenceError(
        f"relaxed solve at eps {eps:g} stalled after {steps} x-steps "
        f"(gap {failed.gap:.3e}, alpha {failed.alpha:.3e})",
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
    r_x = spec.x_set.normal_cone_residual(x, z, tol=1e-6)
    r_y = norm(
        grid,
        spec.upper.grad_y(y)
        + alpha * eval_j_grad_adjoint(grid, spec.lower, y, x)
        + op.apply(sol.p),
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
