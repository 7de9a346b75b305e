"""Relaxation path driver.

Runs the sequence of relaxed programs at eps_k = eps0 * ratio^k with warm
starts, pairs every iterate with the exact lower-level solution at its
parameter, read from the value sample each relaxed solution keeps from
its accepted x (the path's only cold lower solve is its first start), and
recombines the relaxed multipliers into the limiting tuple

    mu_k  = alpha_k (y_k - psi_y(x_k))      w_k  = alpha_k (u_k - psi_u(x_k))
    rho_k = p_k - alpha_k phi_p(x_k)        xi_k = lam_k - alpha_k phi_lam(x_k)

whose limits certify stationarity of the bilevel candidate.  The feasible
sets shrink as eps falls, so a level that ends at alpha = 0 with gap at most
the next eps also solves the next level, which is carried with its solution:
at alpha = 0 grad V = grad_x F does not depend on eps, so x stays stationary.
With gamma = 0 such a level minimises its gap, so a planted path lands on x*.
Where the constraint binds, the path is smooth in sqrt(eps): x_k - x_lim
and 1/alpha_k are both about proportional to sqrt(eps_k).  So a level whose
two predecessors both end at alpha > 0 starts from their extrapolation, a
predictor that solve_relaxed projects, samples and corrects (Allgower and
Georg, Numerical Continuation Methods, 1990).  Each level is solved once,
and a level that fails ends the path.
Convergence of the whole sequence is not guaranteed, only subsequential
convergence, so the trace's limit reports the last step's Cauchy
diagnostics, cauchy_dx and cauchy_du, instead of asserting a limit.
Consecutive upper values must obey weak duality,
alpha_k d <= F_{k+1} - F_k <= alpha_{k+1} d with d = eps_k - eps_{k+1}; a
violation is reported as a likely switch between local minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .discretization import norm
from .errors import ConvergenceError, InsufficientPathError, _integer, _positive
from .lower import LowerSolution
from .model import ProblemSpec
from .relax import RelaxedSolution, solve_relaxed
from .value import value_sample  # noqa: F401  (a binding site that bench/test_bench.py checks)

_COUNTS = ("inner_iterations", "value_iterations", "outer_iterations")  # trace.work's, in order

@dataclass(eq=False)
class PathStep:
    """One relaxation level: the relaxed iterate, whose value sample holds
    its exact lower-level companion, and the recombined multipliers, which a
    carried level shares with the level that solved it, eps and counts too."""

    k: int
    eps: float
    relaxed: RelaxedSolution
    mu: np.ndarray
    w: np.ndarray
    rho: np.ndarray
    xi: np.ndarray
    du_lower: float  # ||u_k - psi_u(x_k)||, controls the feasibility bound
    start: str  # the level's start: cold, warm, predicted or carried


@dataclass(eq=False)
class PathTrace:
    """Complete record of one relaxation path."""

    eps0: float
    ratio: float
    steps: int
    records: list[PathStep] = field(default_factory=list)
    limit: dict = field(default_factory=dict)
    failure: dict | None = None
    deep_enough: bool = False
    multipliers_bounded: bool = True
    multiplier_sup: float = 0.0
    warnings: list[str] = field(default_factory=list)
    work: dict = field(default_factory=dict)  # the solved levels' and failure["work"]'s counts

    @property
    def converged(self) -> bool:
        return self.failure is None and len(self.records) == self.steps + 1


def _recombine(spec: ProblemSpec, k: int, sol: RelaxedSolution, start: str) -> PathStep:
    low, a = sol.sample.lower, sol.alpha
    return PathStep(k=k, eps=sol.eps, relaxed=sol, mu=a * (sol.y - low.y), w=a * (sol.u - low.u),
                    rho=sol.p - a * low.p, xi=sol.lam - a * low.lam,
                    du_lower=norm(spec.grid, sol.u - low.u), start=start)


def _carries(sol: RelaxedSolution, eps: float) -> bool:
    """Whether sol, solved at a larger eps, also solves the level eps.

    Its residuals hold unchanged: they check (x, alpha, u), and of them only
    comp = |alpha (eps - gap)| depends on eps, and it is 0 at alpha = 0.
    """
    return sol.alpha == 0.0 and sol.gap <= eps


def _predict(a: RelaxedSolution, b: RelaxedSolution, eps: float) -> RelaxedSolution:
    """The start at level eps extrapolated from the solved levels a and b.

    x is linear in sqrt(eps) through x_a and x_b, and log alpha linear in
    log eps through alpha_a and alpha_b, capped at alpha_b eps_b / eps: with
    F bounded, the weak duality that _finalize checks lets alpha grow at
    most like 1/eps, and a steeper fit comes from an alpha_a that has only
    just turned positive.  u, the step length, the value sample and the
    other fields are b's; solve_relaxed projects x onto X_ad and samples it
    afresh, warm-started from b's sample.
    """
    ra, rb = math.sqrt(a.eps), math.sqrt(b.eps)
    power = math.log(eps / b.eps) / math.log(b.eps / a.eps)
    alpha = b.alpha * min((b.alpha / a.alpha) ** power, b.eps / eps)
    return replace(b, x=b.x + (math.sqrt(eps) - rb) / (rb - ra) * (b.x - a.x), alpha=alpha)


def run_path(
    spec: ProblemSpec,
    eps0: float = 1.0,
    ratio: float = 0.5,
    steps: int = 20,
    feas_tol: float = 1e-8,
    stat_tol: float = 1e-7,
    comp_tol: float = 1e-8,
) -> PathTrace:
    """Solve the relaxed programs at eps0 * ratio^k for k = 0..steps.

    Each solve is warm-started from the previous level's x, alpha, u and value
    sample, and solved to the given tolerances.  A level that the previous
    one already solves (alpha = 0 and gap <= eps_k) is carried: its record
    keeps the previous one's solution.  A level whose two predecessors both
    end at alpha > 0 starts instead from their extrapolation to eps_k (x
    linear in sqrt(eps), log alpha in log eps).  Each record names its start:
    cold, warm, predicted or carried.  A failed level, from any start, aborts
    the path but returns the partial trace with a failure marker and its
    work, so callers can inspect how far the continuation got.
    """
    eps0, ratio = _positive(eps0, "eps0"), _positive(ratio, "ratio", 1.0)
    steps = _integer(steps, "steps", 2)

    trace = PathTrace(eps0=eps0, ratio=ratio, steps=steps)
    tols = {"feas_tol": feas_tol, "stat_tol": stat_tol, "comp_tol": comp_tol}
    # the last two levels: their solutions are all the predictor reads
    prev: RelaxedSolution | None = None
    warm: RelaxedSolution | None = None
    for k in range(steps + 1):
        eps_k = eps0 * ratio**k
        if warm is not None and _carries(warm, eps_k):
            # rec is still warm's record: the new one shares its solution and multipliers
            rec = PathStep(k, eps_k, rec.relaxed, rec.mu, rec.w, rec.rho, rec.xi, rec.du_lower, "carried")
        else:
            start, guess = ("cold" if warm is None else "warm"), warm
            if prev is not None and prev.alpha > 0.0 and warm.alpha > 0.0:
                start, guess = "predicted", _predict(prev, warm, eps_k)
            try:
                sol = solve_relaxed(spec, eps_k, warm=guess, **tols)
            except ConvergenceError as err:
                trace.failure = {"k": k, "eps": eps_k, "message": str(err),
                                 "residuals": dict(err.residuals or {})}
                if err.best is not None:
                    trace.failure["work"] = {name: getattr(err.best, name) for name in _COUNTS}
                elif isinstance(getattr(err.__cause__, "best", None), LowerSolution):
                    # the start's own value sample failed: its lower solve's band solves
                    trace.failure["work"] = dict(zip(_COUNTS, (0, err.__cause__.best.iterations, 0)))
                break
            rec = _recombine(spec, k, sol, start)
            trace.multiplier_sup = max(trace.multiplier_sup, sol.alpha, *(
                norm(spec.grid, v) for v in (rec.mu, rec.w, rec.rho, rec.xi)))
        trace.records.append(rec)
        prev, warm = warm, rec.relaxed

    _finalize(spec, trace)
    return trace


def _finalize(spec: ProblemSpec, trace: PathTrace) -> None:
    recs = trace.records
    failed = (trace.failure or {}).get("work", {})
    trace.work = {name: failed.get(name, 0) + sum(
        getattr(r.relaxed, name) for r in recs if r.start != "carried") for name in _COUNTS}
    if not recs:
        return
    last = recs[-1]
    eps_last = last.eps
    trace.deep_enough = eps_last <= 1e-6 * trace.eps0

    sup = trace.multiplier_sup
    trace.multipliers_bounded = bool(np.isfinite(sup) and sup <= 1e8)
    if not trace.multipliers_bounded:
        trace.warnings.append(
            f"recombined multipliers reached sup norm {sup:.3e}; "
            "the bounded-multiplier premise looks violated on this instance"
        )

    # weak duality between two levels that are saddle points of their
    # Lagrangians: alpha_k d <= F_{k+1} - F_k <= alpha_{k+1} d, d = eps_k - eps_{k+1};
    # a rise outside it says the solver left one stationary point for another.
    # A carried record shares its predecessor's alpha = 0 solution: rise and bounds are 0
    for a, b in zip(recs, recs[1:]):
        if a.relaxed is b.relaxed:
            continue
        rise = b.relaxed.upper_value - a.relaxed.upper_value
        lo, hi = a.relaxed.alpha * (a.eps - b.eps), b.relaxed.alpha * (a.eps - b.eps)
        slack = 1e-9 * (1.0 + abs(a.relaxed.upper_value))
        if not lo - slack <= rise <= hi + slack:
            trace.warnings.append(
                f"upper value rose by {rise:.3e} between steps {a.k} and {b.k}, "
                f"outside [{lo:.3e}, {hi:.3e}]; likely a local-minimum switch"
            )

    if not trace.deep_enough:
        trace.warnings.append(
            f"final relaxation {eps_last:.3e} is above 1e-6 * eps0; "
            "limit quantities are coarse"
        )

    if trace.failure is None:  # then the path has all steps + 1 >= 3 levels
        low, prev = last.relaxed.sample.lower, recs[-2].relaxed
        trace.limit = {
            "x": last.relaxed.x, "y": low.y, "u": low.u, "z": last.relaxed.z,
            "mu": last.mu, "w": last.w, "rho": last.rho, "xi": last.xi, "p": low.p, "lam": low.lam,
            "eps_final": eps_last,
            "upper_value": float(spec.upper.value(spec.grid, last.relaxed.x, low.y, low.u)),
            "cauchy_dx": float(np.linalg.norm(last.relaxed.x - prev.x)),
            "cauchy_du": norm(spec.grid, last.relaxed.u - prev.u),
        }


def extract_candidate(trace: PathTrace) -> tuple[dict, dict]:
    """Candidate point {x, u} and multipliers {z, mu, w, rho, xi} for
    certification, read from trace.limit.

    The control is re-centered onto the lower-level solution map: the
    relaxed iterate u is only eps-optimal for the lower level, while the
    stationarity system is written at the exactly optimal u at x, whose
    state, adjoint and bound multiplier the certificate solves for itself.
    """
    if trace.failure is not None or len(trace.records) < 2:
        have = len(trace.records)
        raise InsufficientPathError(
            f"candidate extraction needs at least 2 successful terminal "
            f"iterates, trace has {have}"
            + (f" (failed at step {trace.failure['k']})" if trace.failure else "")
        )
    limit = trace.limit
    point = {name: limit[name] for name in ("x", "u")}
    multipliers = {name: limit[name] for name in ("z", "mu", "w", "rho", "xi")}
    return point, multipliers


def trace_rows(trace: PathTrace) -> list[dict]:
    """Flat per-step records for CSV export, with 0 counts on carried levels."""
    rows = []
    for r in trace.records:
        row = {"k": r.k, "eps": r.eps, "upper_value": r.relaxed.upper_value,
               "gap": r.relaxed.gap, "alpha": r.relaxed.alpha, "du_lower": r.du_lower}
        for name in ("inner_iterations", "outer_iterations", "value_iterations"):
            row[name] = 0 if r.start == "carried" else getattr(r.relaxed, name)
        row["start"] = r.start
        for name, val in sorted(r.relaxed.residuals.items()):
            row[f"res_{name}"] = val
        rows.append(row)
    return rows
