"""Single relaxed program: minimize F subject to a slack on the optimal value.

At relaxation level eps > 0 the program minimizes F(x, Su, u) over the
admissible sets subject to f(x, Su, u) - phi(x) <= eps.  Any lower-level
solution has zero gap, so Slater's condition holds and the constraint has
one scalar multiplier alpha >= 0.  At fixed (x, alpha) the u-minimization of
F + alpha f is a member of the tracking-QP family that lower._solve_qp
solves exactly.  The solver nests three steps:

- phi(x) and grad phi(x) from one value sample per trial x; a solution
  keeps the sample its x was accepted with, and its alpha = 0 u-subproblem,
  which is x-free, for the path and the next level's start to reuse;
- alpha from gap(alpha) = eps, with gap nonincreasing in alpha: alpha = 0
  when gap(0) <= eps, otherwise Newton on gap^(-1/2), linear in alpha for
  one mode and along an unplanted limit's alpha^(-2) tail, kept inside a
  bracket, with the exact slope from the kernel's tangent solve;
- projected gradient in x on V(x) = F at the solved u, whose gradient
  gamma x + alpha (j(y) - grad phi(x)) is the envelope formula.  Trial
  points are compared by the dual value F + alpha (gap - eps), which does
  not carry the multiplier search's error in the gap to first order.  By
  weak duality the dual value at any alpha bounds V from below, so a
  trial's search stops once it exceeds the Armijo threshold, and a warm
  start with alpha > 0 keeps its predecessor's step length.

With gamma = 0 F does not depend on x, so at alpha = 0 the member's control
u0 solves the level at every x with G(x) = f(x, S u0, u0) - phi(x) <= eps,
and G is convex.  A start at alpha = 0 first minimises G by the same steps,
with grad G = j(S u0) - grad phi(x) and no multiplier search: the level ends
at alpha = 0 once G <= eps at a point stationary to grad G's roundoff, or the
three steps take over once G's Frank-Wolfe minorant, below min G, exceeds eps.

One builder, _level, makes a level of (eps, x, alpha, u) and its value
sample, with the residuals that check it: the u-subproblem's own
fixed-point test, whose fresh solves of u give y, p and lam, the x-equation
against the normal cone of X_ad, complementarity, and lam's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, _number, _positive, _vector
from .lower import _ARMIJO, _ROUNDOFF, TrackingQP, _fixed_point_residual, _QPSolution, _solve_qp, _tangent
from .model import ProblemSpec, eval_j
from .value import ValueSample, value_sample

_MAX_STEPS = 200   # x-steps per relaxed solve
_MAX_SEARCH = 60   # kernel solves per multiplier search
_ALPHA_RTOL = 1e-9  # relative move of alpha at which the multiplier search stops
_MAX_FACTOR = 10.0  # largest factor by which one Newton step moves alpha


@dataclass(eq=False)
class RelaxedSolution:
    """Stationary point of one relaxed program with its KKT multipliers.

    inner_iterations counts the band matrices factored for the u-subproblems
    but a reused member's, value_iterations those of the value samples the
    solve made, and outer_iterations the accepted x-steps.
    sample is the value sample x was accepted with, which the residuals are
    taken about; it equals a cold sample at x bitwise but for
    lower.iterations.  step is the x-loop's next Barzilai-Borwein step
    length, where a warm start with alpha > 0 begins.
    y, p and lam are the u-subproblem's state, adjoint and bound multiplier
    at (x, alpha, u); the residuals read only x, u, alpha and eps.  member is
    (spec, the kernel's solution of the alpha = 0 u-subproblem, which is
    x-free, or None): only a warm start on spec reuses it, and sample.
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
    sample: ValueSample | None = None
    step: float = 1.0
    member: tuple | None = None
    value_iterations: int = 0


@dataclass(eq=False)
class _Point:
    """One trial x (vs.x) with its value sample, its solved u-subproblem and d gap/d alpha."""

    vs: ValueSample
    alpha: float
    y: np.ndarray
    u: np.ndarray
    upper: float
    gap: float
    slope: float
    sol: _QPSolution | None = None  # the kernel's solution; None where F ignores u


def _gap(spec: ProblemSpec, vs: ValueSample, u: np.ndarray, tangent=None):
    """f(x, Su, u) - phi(x) as the expansion of vs's lower QP about its solution,
    and its derivative along the tangent (y', u') of u, if given.

    With du = u - psi_u: -<lam, du> + sigma/2 ||du||^2 + 1/2 <S du, d S du>,
    nonnegative terms that are accurate relative to the gap, where f - phi
    loses the digits of f, and alpha times that roundoff swamps the dual value.
    """
    du = u - vs.lower.u
    dy = spec.operator.solve(du)
    h, lam, d = spec.grid.h, vs.lower.lam, vs.lower.qp.d
    gap = h * float(0.5 * spec.sigma * (du @ du) - lam @ du + 0.5 * dy @ (d * dy))
    if tangent is None:
        return gap, None
    y_t, u_t = tangent
    return gap, h * float(spec.sigma * (du @ u_t) - lam @ u_t + dy @ (d * y_t))


def _member(spec: ProblemSpec, low: TrackingQP, alpha: float) -> TrackingQP:
    """The u-subproblem of F + alpha f at the parameter of the lower QP low."""
    up = spec.upper
    return TrackingQP(d=up.c_y + alpha * low.d, c=up.c_y * up.y_o + alpha * low.c,
                      s=up.c_u + alpha * spec.sigma, b=up.c_u * up.u_o)


def _grad_v(spec: ProblemSpec, vs: ValueSample, alpha: float, y: np.ndarray) -> np.ndarray:
    """grad V = grad_x F + alpha (j(y) - grad phi) at vs.x, the envelope formula."""
    return spec.upper.grad_x(vs.x) + alpha * (eval_j(spec.grid, spec.lower, y) - vs.grad_phi)


def _level(spec: ProblemSpec, eps: float, x: np.ndarray, alpha: float, u: np.ndarray,
           vs: ValueSample, pt: _Point | None = None, **counts) -> RelaxedSolution:
    """The level eps at (x, alpha, u) about the value sample vs at x, with its residuals:
    the one builder of a RelaxedSolution.  y, p, gap, F and the fixed-point check of u are
    pt's, the point solved there, else fresh; counts fill the fields from inner_iterations on."""
    if pt is None or pt.sol is None:
        fixed_point, y, p = _fixed_point_residual(spec, _member(spec, vs.lower.qp, alpha), u)
        gap, upper = _gap(spec, vs, u)[0], spec.upper.value(spec.grid, x, y, u)
    else:  # copies: levels that end at alpha = 0 share one kernel solution
        fixed_point, y, p, u = pt.sol.residual, pt.y.copy(), pt.sol.p.copy(), u.copy()
        gap, upper = pt.gap, pt.upper
    lam = p - spec.upper.grad_u(u) - alpha * spec.sigma * u
    z = -_grad_v(spec, vs, alpha, y)
    residuals = {"x": float(spec.x_set.normal_cone_residual(x, z, tol=1e-6)),
                 "fixed_point": float(fixed_point), "comp": float(abs(alpha * (eps - gap))),
                 "lam": float(spec.bounds.normal_cone_residual(u, lam, spec.active_tol))}
    return RelaxedSolution(eps=eps, x=x, y=y, u=u, alpha=alpha, z=z, p=p, lam=lam,
                           upper_value=upper, gap=gap, residuals=residuals, sample=vs, **counts)


def _newton(pt: _Point, eps: float, lo: float, hi: float) -> float:
    """Newton's next alpha for gap^(-1/2) = eps^(-1/2), linear in alpha for one
    mode's gap g0 / (1 + kappa alpha)^2 (Moré and Sorensen 1983).  It moves
    alpha > 0 by at most the factor _MAX_FACTOR, and by that much where the
    tangent has no root; from alpha = 0 that step is to 1.  A step that
    leaves the bracket (lo, hi) gives way to its (geometric) mean."""
    guess = math.inf if pt.gap > eps else 0.0
    if pt.slope < 0.0 and pt.gap > 0.0:
        guess = pt.alpha - 2.0 * pt.gap * (math.sqrt(pt.gap / eps) - 1.0) / pt.slope
    if pt.alpha > 0.0:
        guess = min(max(guess, pt.alpha / _MAX_FACTOR), _MAX_FACTOR * pt.alpha)
    elif guess == math.inf:
        guess = 1.0
    if lo < guess < hi or guess == pt.alpha:
        return guess
    return math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi


class _Solver:
    """The steps of one relaxed solve, with its band-solve counts and alpha = 0 member."""

    def __init__(self, spec: ProblemSpec, eps: float, feas_tol: float, comp_tol: float, member=None):
        self.spec, self.eps, self.feas_tol, self.comp_tol = spec, eps, feas_tol, comp_tol
        self.solves, self.sampled = 0, 0  # of the u-subproblems and of the value samples
        self.member = member or (spec, None)

    def feasible(self, alpha: float, gap: float) -> bool:
        return gap - self.eps <= self.feas_tol and alpha * abs(self.eps - gap) <= self.comp_tol

    def dual(self, pt: _Point) -> float:
        return pt.upper + pt.alpha * (pt.gap - self.eps)

    def _solve(self, vs: ValueSample, alpha: float, warm) -> _Point:
        spec, up, zero = self.spec, self.spec.upper, self.member[1] if alpha == 0.0 else None
        if alpha == 0.0 and up.c_y == 0.0 and up.c_u == 0.0:
            # F ignores u, so this member is singular and every control is
            # optimal: take the lower solution, whose gap is 0
            y, u = vs.lower.y, vs.lower.u
            return _Point(vs=vs, alpha=0.0, y=y, u=u, gap=0.0, slope=0.0,
                          upper=up.value(spec.grid, vs.x, y, u))
        qp = _member(spec, vs.lower.qp, alpha)
        sol = zero._replace(solves=0) if zero else _solve_qp(spec, qp, spec.solver_tol, warm)
        y_t, u_t, solves = _tangent(spec, qp, sol, vs.lower.qp)
        self.solves += sol.solves + solves
        gap, slope = _gap(spec, vs, sol.u, (y_t, u_t))
        pt = _Point(vs=vs, alpha=alpha, y=sol.y, u=sol.u, sol=sol,
                    upper=up.value(spec.grid, vs.x, sol.y, sol.u), gap=gap, slope=slope)
        self.member = (spec, sol) if alpha == 0.0 else self.member
        return pt

    def evaluate(self, vs: ValueSample, alpha: float, u: np.ndarray,
                 bound: float = math.inf) -> _Point:
        """The search for alpha by _newton at vs.x from alpha, warm-started from u.

        alpha = 0 is tried once, when the tangent line at a point with
        gap <= eps predicts gap(0) <= eps.  Stops at alpha = 0 when
        gap(0) <= eps, or at a point that passes the feasibility and
        complementarity tests once the Newton step moves alpha by less than
        _ALPHA_RTOL; the tests alone would leave an error in alpha that the
        envelope gradient carries.  Else returns the last point.  It also
        stops at a point whose dual value exceeds bound: by weak duality the
        dual value at any alpha is at most the one at the root, so the full
        search would end above bound too.
        """
        lo, hi = 0.0, math.inf  # gap(lo) > eps >= gap(hi)
        zero_tried = alpha == 0.0
        pt = self._solve(vs, alpha, u)
        for _ in range(_MAX_SEARCH):
            if (pt.alpha == 0.0 and pt.gap <= self.eps) or self.dual(pt) > bound:
                break
            if pt.gap > self.eps:
                lo = pt.alpha
            else:
                hi = pt.alpha
            if not zero_tried and max(pt.gap, pt.gap - pt.alpha * pt.slope) <= self.eps:
                alpha, zero_tried = 0.0, True
            else:
                alpha = _newton(pt, self.eps, lo, hi)
                settled = abs(alpha - pt.alpha) <= _ALPHA_RTOL * pt.alpha
                if settled and self.feasible(pt.alpha, pt.gap):
                    break
                if alpha in (lo, hi):
                    break  # the bracket is down to adjacent floats
            pt = self._solve(vs, alpha, pt.u)
        return pt

    def assemble(self, pt: _Point, steps: int, converged: bool, step: float = 1.0):
        return _level(self.spec, self.eps, pt.vs.x, pt.alpha, pt.u, pt.vs, pt, step=step,
                      member=self.member, inner_iterations=self.solves,
                      value_iterations=self.sampled, outer_iterations=steps, converged=converged)


def _descend(solver: _Solver, pt: _Point, grad: np.ndarray, step: float, value, evaluate,
             gradient):
    """One projected-gradient step from pt, shared by solve_relaxed's x-loops on V and G:
    step halves until the trial evaluate(sample, bound) passes the Armijo test bound
    on value; returns it, its gradient and the Barzilai-Borwein length of the next
    step, or None where no step moves x beyond roundoff."""
    x, start = pt.vs.x, value(pt)
    while True:
        x_t = solver.spec.x_set.project(x - step * grad)
        move = x_t - x
        if np.abs(move).max() <= _ROUNDOFF * (1.0 + np.abs(x).max()):
            return None
        bound = start + _ARMIJO * float(grad @ move) + _ROUNDOFF * (1.0 + abs(start))
        vs = value_sample(solver.spec, x_t, warm_start=pt.vs.lower.u)
        solver.sampled += vs.lower.iterations
        trial = evaluate(vs, bound)
        if value(trial) <= bound:
            break
        step *= 0.5
    grad_t = gradient(trial)
    curvature = float(move @ (grad_t - grad))
    return trial, grad_t, float(move @ move) / curvature if curvature > 0.0 else 2.0 * step


def _stationarity(x_set, x: np.ndarray, grad: np.ndarray) -> float:
    """||x - P_X(x - grad)||, the stationarity test of solve_relaxed's x-loop."""
    return float(np.linalg.norm(x - x_set.project(x - grad)))


def solve_relaxed(
    spec: ProblemSpec,
    eps: float,
    warm: RelaxedSolution | None = None,
    feas_tol: float = 1e-8,
    stat_tol: float = 1e-7,
    comp_tol: float = 1e-8,
) -> RelaxedSolution:
    """Solve one relaxed program by projected gradient in x on its value.

    Each trial x gets one value sample and a Newton search for alpha whose
    u-subproblems the QP kernel solves exactly; steps are accepted by an
    Armijo test on the dual value, and their length follows Barzilai-Borwein.
    A trial's search stops early once its dual value fails the test.  The
    first trial takes warm.step when warm.alpha > 0, else step length 1.
    With gamma = 0 a start at alpha = 0 first minimises the gap G at the
    x-free control (module docstring); outer_iterations counts its steps too.
    Exits when gap - eps <= feas_tol, |alpha (eps - gap)| <= comp_tol and
    ||x - P_X(x - grad V)|| <= stat_tol.  A warm start passes x, projected
    onto X_ad, alpha, u and, where alpha > 0, step, each checked by name;
    where its member was made on this spec object, also the member, and its
    value sample if made at that x bitwise.  Other starts sample x afresh
    from the old sample's control, and value_iterations counts that sample.
    ConvergenceError carries as best the best accepted point, or before the
    first the start (x, alpha, u) about its value sample, with converged
    False and the whole solve's counts, the failing kernel call's included;
    None only if the start's own value sample fails.  A kernel failure keeps
    its residuals.
    """
    eps = _positive(eps, "relaxation parameter")
    feas_tol = _positive(feas_tol, "feas_tol")
    stat_tol = _positive(stat_tol, "stat_tol")
    comp_tol = _positive(comp_tol, "comp_tol")
    x_set = spec.x_set
    if warm is not None:
        x, alpha = _vector(warm.x, (spec.n,), "warm.x"), _number(warm.alpha, "warm.alpha")
        for name, value in (("warm.x", x), ("warm.alpha", alpha)):
            if not np.isfinite(value).all():
                raise DomainError(f"{name} must be finite, got {value}")
        x, alpha = x_set.project(x), max(0.0, alpha)
        u = spec.bounds.project(_vector(warm.u, (spec.grid.n_nodes,), "warm.u"))
        step = _positive(warm.step, "warm.step") if alpha > 0.0 else 1.0
    else:
        simplex = x_set.kind == "simplex"
        x = np.full(spec.n, 1.0 / spec.n) if simplex else 0.5 * (x_set.lo + x_set.hi)
        u = spec.bounds.project(spec.upper.u_o)
        alpha, step = 0.0, 1.0

    own = warm is not None and warm.member is not None and warm.member[0] is spec
    solver = _Solver(spec, eps, feas_tol, comp_tol, warm.member if own else None)
    best, start = (math.inf, None), None  # (measure, point) of the best accepted point; x's sample
    steps = phase = 0  # accepted x-steps on V and, first, on G
    try:
        vs = warm and warm.sample
        if not (own and vs is not None and x.tobytes() == vs.x.tobytes()):
            vs = value_sample(spec, x, warm_start=vs and vs.lower.u)
            solver.sampled = vs.lower.iterations
        start = vs
        if alpha == 0.0 and spec.upper.gamma == 0.0:
            # G first (module docstring); where F ignores u, G is 0 at the start
            zero = solver._solve(vs, 0.0, u)
            jy = eval_j(spec.grid, spec.lower, zero.y)
            target, floor = eps + feas_tol, _ROUNDOFF * (1.0 + float(np.abs(jy).max()))

            def at(vs_t, bound=None):  # the alpha = 0 point at vs_t.x, with gap G
                return _Point(vs=vs_t, alpha=0.0, y=zero.y, u=zero.u, upper=zero.upper,
                              gap=_gap(spec, vs_t, zero.u)[0], slope=zero.slope, sol=zero.sol)
            pt, grad = at(vs), jy - vs.grad_phi
            while phase < _MAX_STEPS:
                best = (math.inf, pt)
                if pt.gap <= target and _stationarity(x_set, pt.vs.x, grad) <= floor:
                    return solver.assemble(pt, phase, converged=True)
                if pt.gap + float(((x_set.vertices() - pt.vs.x) @ grad).min()) > target:
                    break  # G's Frank-Wolfe minorant: alpha = 0 cannot reach the level
                moved = _descend(solver, pt, grad, step, lambda t: t.gap, at,
                                 lambda t: jy - t.vs.grad_phi)
                if moved is None:
                    break
                (pt, grad, step), phase = moved, phase + 1
            vs, step = pt.vs, 1.0
        pt = solver.evaluate(vs, alpha, u)
        grad = _grad_v(spec, pt.vs, pt.alpha, pt.y)
        best = (math.inf, pt)
        for steps in range(_MAX_STEPS + 1):
            residual = _stationarity(x_set, pt.vs.x, grad)
            measure = max(max(0.0, pt.gap - eps) / feas_tol,
                          pt.alpha * abs(eps - pt.gap) / comp_tol, residual / stat_tol)
            best = min(best, (measure, pt), key=lambda b: b[0])
            if solver.feasible(pt.alpha, pt.gap) and residual <= stat_tol:
                return solver.assemble(pt, phase + steps, converged=True, step=step)
            if steps == _MAX_STEPS:
                break
            moved = _descend(solver, pt, grad, step, solver.dual,
                             lambda vs_t, bound: solver.evaluate(vs_t, pt.alpha, pt.u, bound),
                             lambda t: _grad_v(spec, t.vs, t.alpha, t.y))
            if moved is None:
                break  # stalled at this tolerance
            pt, grad, step = moved
    except ConvergenceError as err:
        # the failing kernel call's solves: a u-subproblem's, or a value sample's lower solve's
        if isinstance(err.best, _QPSolution):
            solver.solves += err.best.solves
        elif err.best is not None:
            solver.sampled += err.best.iterations
        failed = best[1] and solver.assemble(best[1], phase + steps, converged=False)
        if failed is None and start is not None:  # no accepted point: the start, about its sample
            failed = _level(spec, eps, x, alpha, u, start, step=step, member=solver.member,
                            inner_iterations=solver.solves, value_iterations=solver.sampled,
                            outer_iterations=0, converged=False)
        raise ConvergenceError(f"relaxed solve at eps {eps:g}: {err}", best=failed,
                               residuals=err.residuals) from err

    failed = solver.assemble(best[1], phase + steps, converged=False)
    why = "" if steps == _MAX_STEPS else ", where no step moves x beyond roundoff"
    raise ConvergenceError(f"relaxed solve at eps {eps:g} stalled after {steps} x-steps{why} "
                           f"(gap {failed.gap:.3e}, alpha {failed.alpha:.3e})",
                           best=failed, residuals=failed.residuals)


def relaxed_kkt_residuals(spec: ProblemSpec, sol: RelaxedSolution) -> dict:
    """Independent residuals of the relaxed KKT system at a solution.

    Reads only sol's x, u, alpha and eps; its y, p, lam and z are not
    trusted.  The gap is expanded about a fresh value sample at x, and the
    u-subproblem at (x, alpha) gives y, p and lam from the fresh solves of
    its own fixed-point check.  Returns that check's residual
    (fixed_point), the parameter-space multiplier z = -grad V against the
    normal cone of X_ad (x), |alpha (eps - gap)| (comp) and lam's sign
    against the control bounds (lam).
    """
    return _level(spec, sol.eps, sol.x, sol.alpha, sol.u, value_sample(spec, sol.x),
                  inner_iterations=0, outer_iterations=0, converged=False).residuals
