"""Relaxation path driver.

Runs the sequence of relaxed programs at eps_k = eps0 * ratio^k with warm
starts, pairs every iterate with the exact lower-level solution at its
parameter, and recombines the relaxed multipliers into the limiting tuple

    mu_k  = alpha_k (y_k - psi_y(x_k))      w_k  = alpha_k (u_k - psi_u(x_k))
    rho_k = p_k - alpha_k phi_p(x_k)        xi_k = lam_k - alpha_k phi_lam(x_k)

whose limits certify stationarity of the bilevel candidate.  Convergence of
the whole sequence is not guaranteed, only subsequential convergence, so the
trace reports Cauchy diagnostics instead of asserting a limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretization import norm
from .errors import ConvergenceError, InsufficientPathError, ValidationError
from .lower import LowerSolution
from .model import ProblemSpec
from .relax import RelaxedSolution, solve_relaxed
from .value import value_sample

@dataclass(eq=False)
class PathStep:
    """One relaxation level: the relaxed iterate, its exact lower-level
    companion, and the recombined multipliers."""

    k: int
    eps: float
    relaxed: RelaxedSolution
    lower: LowerSolution
    mu: np.ndarray
    w: np.ndarray
    rho: np.ndarray
    xi: np.ndarray
    du_lower: float  # ||u_k - psi_u(x_k)||, controls the feasibility bound


@dataclass(eq=False)
class PathTrace:
    """Complete record of one relaxation path."""

    eps0: float
    ratio: float
    steps: int
    records: list[PathStep] = field(default_factory=list)
    limit: dict = field(default_factory=dict)
    failure: dict | None = None
    cauchy: dict = field(default_factory=dict)
    deep_enough: bool = False
    multipliers_bounded: bool = True
    multiplier_sup: float = 0.0
    warnings: list[str] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.failure is None and len(self.records) == self.steps + 1


def _recombine(spec: ProblemSpec, sol: RelaxedSolution) -> PathStep:
    vs = value_sample(spec, sol.x)
    low = vs.lower
    a = sol.alpha
    mu = a * (sol.y - low.y)
    w = a * (sol.u - low.u)
    rho = sol.p - a * low.p
    xi = sol.lam - a * low.lam
    du = norm(spec.grid, sol.u - low.u)
    return PathStep(
        k=-1, eps=sol.eps, relaxed=sol, lower=low,
        mu=mu, w=w, rho=rho, xi=xi, du_lower=du,
    )


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

    Each solve is warm-started from the previous level's x, alpha and u,
    and every level is solved to the given tolerances.  A solver failure
    aborts the path but returns the partial trace with a failure marker, so
    callers can inspect how far the continuation got.
    """
    if not (eps0 > 0.0):
        raise ValidationError(f"eps0 must be positive, got {eps0}")
    if not (0.0 < ratio < 1.0):
        raise ValidationError(f"ratio must lie in (0, 1), got {ratio}")
    if steps < 2:
        raise ValidationError(f"step count must be at least 2, got {steps}")

    trace = PathTrace(eps0=eps0, ratio=ratio, steps=steps)
    warm: RelaxedSolution | None = None
    for k in range(steps + 1):
        eps_k = eps0 * ratio**k
        try:
            sol = solve_relaxed(
                spec, eps_k, warm=warm,
                feas_tol=feas_tol, stat_tol=stat_tol, comp_tol=comp_tol,
            )
        except ConvergenceError as err:
            trace.failure = {
                "k": k,
                "eps": eps_k,
                "message": str(err),
                "residuals": dict(err.residuals or {}),
            }
            break
        step = _recombine(spec, sol)
        step.k = k
        trace.records.append(step)
        warm = sol

    _finalize(spec, trace)
    return trace


def _finalize(spec: ProblemSpec, trace: PathTrace) -> None:
    recs = trace.records
    if not recs:
        return
    last = recs[-1]
    eps_last = last.eps
    trace.deep_enough = eps_last <= 1e-6 * trace.eps0

    dxs, dus = [], []
    for a, b in zip(recs, recs[1:]):
        dxs.append(float(np.linalg.norm(b.relaxed.x - a.relaxed.x)))
        dus.append(norm(spec.grid, b.relaxed.u - a.relaxed.u))
    alphas = [r.relaxed.alpha for r in recs]
    trace.cauchy = {
        "dx": dxs,
        "du": dus,
        "alpha": alphas,
        "final_dx": dxs[-1] if dxs else 0.0,
        "final_du": dus[-1] if dus else 0.0,
    }

    sup = 0.0
    for r in recs:
        sup = max(
            sup,
            r.relaxed.alpha,
            norm(spec.grid, r.mu),
            norm(spec.grid, r.w),
            norm(spec.grid, r.rho),
            norm(spec.grid, r.xi),
        )
    trace.multiplier_sup = sup
    trace.multipliers_bounded = bool(np.isfinite(sup) and sup <= 1e8)
    if not trace.multipliers_bounded:
        trace.warnings.append(
            f"recombined multipliers reached sup norm {sup:.3e}; "
            "the bounded-multiplier premise looks violated on this instance"
        )

    # shrinking feasible sets should push optimal values up; a drop beyond
    # tolerance suggests the solver left one stationary point for another
    for a, b in zip(recs, recs[1:]):
        drop = a.relaxed.upper_value - b.relaxed.upper_value
        if drop > 1e-6 * (1.0 + abs(a.relaxed.upper_value)):
            trace.warnings.append(
                f"upper value decreased by {drop:.3e} between steps "
                f"{a.k} and {b.k}; likely a local-minimum switch"
            )

    if not trace.deep_enough:
        trace.warnings.append(
            f"final relaxation {eps_last:.3e} is above 1e-6 * eps0; "
            "limit quantities are coarse"
        )

    if trace.failure is None:
        low = value_sample(spec, last.relaxed.x).lower
        trace.limit = {
            "x": last.relaxed.x,
            "y": low.y,
            "u": low.u,
            "z": last.relaxed.z,
            "mu": last.mu,
            "w": last.w,
            "rho": last.rho,
            "xi": last.xi,
            "p": low.p,
            "lam": low.lam,
            "eps_final": eps_last,
            "upper_value": float(
                spec.upper.value(spec.grid, last.relaxed.x, low.y, low.u)
            ),
            "cauchy_dx": trace.cauchy["final_dx"],
            "cauchy_du": trace.cauchy["final_du"],
        }


def extract_candidate(trace: PathTrace) -> tuple[dict, dict]:
    """Candidate point and multiplier tuple for certification.

    The point is re-centered onto the lower-level solution map: the relaxed
    iterate (y, u) is only eps-optimal for the lower level, while the
    stationarity system is written at an exactly optimal pair.
    """
    if trace.failure is not None or len(trace.records) < 2:
        have = len(trace.records)
        raise InsufficientPathError(
            f"candidate extraction needs at least 2 successful terminal "
            f"iterates, trace has {have}"
            + (f" (failed at step {trace.failure['k']})" if trace.failure else "")
        )
    last = trace.records[-1]
    point = {"x": last.relaxed.x, "y": trace.limit["y"], "u": trace.limit["u"]}
    multipliers = {
        "z": last.relaxed.z,
        "mu": last.mu,
        "w": last.w,
        "rho": last.rho,
        "xi": last.xi,
        "p": trace.limit["p"],
        "lam": trace.limit["lam"],
    }
    return point, multipliers


def trace_rows(trace: PathTrace) -> list[dict]:
    """Flat per-step records for CSV export."""
    rows = []
    for r in trace.records:
        row = {
            "k": r.k,
            "eps": r.eps,
            "upper_value": r.relaxed.upper_value,
            "gap": r.relaxed.gap,
            "alpha": r.relaxed.alpha,
            "du_lower": r.du_lower,
        }
        for name, val in sorted(r.relaxed.residuals.items()):
            row[f"res_{name}"] = val
        rows.append(row)
    return rows
