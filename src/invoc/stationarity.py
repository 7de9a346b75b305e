"""Stationarity certification for bilevel candidates.

A candidate is the parameter and control (x, u) with the multipliers
(z, mu, w, rho, xi).  The lower level has a unique solution at every
parameter, so the state y = S u, the adjoint p and the bound multiplier
lam = p - sigma u are functions of (x, u); the feasibility test solves for
them once and the residuals read them from there.  Every condition of the
weak/Clarke/strong stationarity systems is turned into a nonnegative
residual, and a candidate is classified by which family of residuals clears
the tolerance.  Almost-everywhere sign conditions become nodewise
max-violations, which is exact on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import norm
from .errors import InfeasibleError, ValidationError, _positive, _vector
from .lower import TrackingQP, _fixed_point_residual, lower_qp
from .model import ProblemSpec, eval_j_grad

_W_IDS = (
    "CSt_x", "CSt_y", "CSt_u", "CSt_p", "CSt_z",
    "CSt_ll_sign_a", "CSt_ll_sign_b", "CSt_xi", "CSt_w",
)


@dataclass(eq=False)
class ActiveSets:
    """Index sets of the control bounds at a candidate.

    i_a_plus collects nodes strictly above the lower bound, i_b_minus nodes
    strictly below the upper bound; their intersection is inactive.  The
    biactive sets hold nodes sitting on a bound with vanishing multiplier,
    where the C- and S-conditions differ.
    """

    i_a_plus: np.ndarray
    i_b_minus: np.ndarray
    biactive_a: np.ndarray
    biactive_b: np.ndarray
    inactive: np.ndarray
    tol_act: float


@dataclass(eq=False)
class StationarityCertificate:
    """The stationarity residuals of one candidate and its classification.

    residuals maps each condition's name (CSt_x, ..., CSt_strong_b) to its
    nonnegative residual.  classification is the strongest system whose
    residuals all clear tol: "S", "C" or "W", or "none".  active holds the
    index sets of the control bounds that the sign conditions were taken
    on.
    """

    residuals: dict
    classification: str
    tol: float
    active: ActiveSets


def active_sets(spec: ProblemSpec, u, lam, tol_act: float | None = None) -> ActiveSets:
    """Classify nodes against the control bounds, deterministically in tol_act."""
    nodes = (spec.grid.n_nodes,)
    u, lam = _vector(u, nodes, "u"), _vector(lam, nodes, "lam")
    if tol_act is None:
        tol_act = spec.active_tol
    ua, ub = spec.bounds.ua, spec.bounds.ub
    above = u > ua + tol_act
    below = u < ub - tol_act
    small = np.abs(lam) <= tol_act
    idx = np.arange(u.shape[0])
    return ActiveSets(
        i_a_plus=idx[above],
        i_b_minus=idx[below],
        biactive_a=idx[small & (u <= ua + tol_act)],
        biactive_b=idx[small & (u >= ub - tol_act)],
        inactive=idx[above & below],
        tol_act=float(tol_act),
    )


def _check_feasible(spec: ProblemSpec, qp: TrackingQP, x, u):
    """(y, p, lam) of the lower QP at (x, u): y = S u, p its adjoint and
    lam = p - sigma u, from the fresh solves of the optimality test.

    Raises InfeasibleError unless x lies in the admissible set, u within its
    bounds, and u is lower-level optimal at x: fixed-point residual at most
    ten times the solver tolerance.
    """
    failures = []
    if not spec.x_set.contains(x, tol=1e-8):
        failures.append("parameter x is outside the admissible set")
    if not spec.bounds.feasible(u, tol=1e-9):
        failures.append("control u violates its bounds")
    opt_tol = 10.0 * spec.solver_tol
    fp, y, p = _fixed_point_residual(spec, qp, u)
    if fp > opt_tol:
        failures.append(
            f"u is not lower-level optimal at x: fixed-point residual "
            f"{fp:.3e} exceeds {opt_tol:.1e}"
        )
    if failures:
        raise InfeasibleError("candidate infeasible: " + "; ".join(failures))
    return y, p, p - spec.sigma * u


def _field(data: dict, key: str, shape: tuple) -> np.ndarray:
    if key not in data:
        raise ValidationError(f"candidate is missing field {key!r}")
    return _vector(data[key], shape, f"field {key!r}")


def _max_over(values: np.ndarray, idx: np.ndarray) -> float:
    return float(values[idx].max()) if idx.size else 0.0


def classify(spec: ProblemSpec, point, multipliers, tol: float = 1e-5) -> StationarityCertificate:
    """Evaluate all stationarity residuals at a candidate and classify it.

    point holds x and u, multipliers holds z, mu, w, rho and xi; other keys
    are ignored.  A missing or non-numeric field raises ValidationError and a
    field whose length is not the grid's (x and z the parameter's)
    DimensionError, both naming it.  The candidate must be feasible:
    parameter in the admissible set and u lower-level optimal at x to ten
    times the solver tolerance.
    Classification is W when the core residuals clear tol, C when the
    product sign condition also clears, S when the componentwise biactive
    sign conditions clear as well.
    """
    tol = _positive(tol, "tol")
    grid, op = spec.grid, spec.operator
    nodes = (grid.n_nodes,)
    x, z = _field(point, "x", (spec.n,)), _field(multipliers, "z", (spec.n,))
    u = _field(point, "u", nodes)
    mu, w, rho, xi = (_field(multipliers, key, nodes) for key in ("mu", "w", "rho", "xi"))

    qp = lower_qp(spec, x)
    y, p, lam = _check_feasible(spec, qp, x, u)
    sets = active_sets(spec, u, lam)

    res: dict[str, float] = {}
    res["CSt_x"] = float(np.linalg.norm(
        spec.upper.grad_x(x) + z + eval_j_grad(grid, spec.lower, y, mu)
    ))
    res["CSt_y"] = norm(grid, spec.upper.grad_y(y) + op.apply(rho) + qp.d * mu)
    res["CSt_u"] = norm(grid, spec.upper.grad_u(u) + spec.sigma * w - rho + xi)
    res["CSt_p"] = norm(grid, op.apply(mu) - w)
    res["CSt_z"] = spec.x_set.normal_cone_residual(x, z, tol=1e-8)

    # multiplier sign off the bounds: lam >= 0 above the lower bound,
    # lam <= 0 below the upper bound
    res["CSt_ll_sign_a"] = _max_over(np.maximum(-lam, 0.0), sets.i_a_plus)
    res["CSt_ll_sign_b"] = _max_over(np.maximum(lam, 0.0), sets.i_b_minus)

    res["CSt_xi"] = _max_over(np.abs(xi), sets.inactive)
    strong_lam = np.abs(lam) > sets.tol_act
    res["CSt_w"] = float(np.abs(w[strong_lam]).max()) if strong_lam.any() else 0.0

    res["CSt_clarke"] = float(np.maximum(-xi * w, 0.0).max()) if xi.size else 0.0
    res["CSt_strong_a"] = _max_over(
        np.maximum(np.maximum(xi, w), 0.0), sets.biactive_a
    )
    res["CSt_strong_b"] = _max_over(
        np.maximum(np.maximum(-xi, -w), 0.0), sets.biactive_b
    )

    is_w = all(res[k] <= tol for k in _W_IDS)
    is_c = is_w and res["CSt_clarke"] <= tol
    is_s = is_c and res["CSt_strong_a"] <= tol and res["CSt_strong_b"] <= tol
    classification = "S" if is_s else "C" if is_c else "W" if is_w else "none"

    return StationarityCertificate(
        residuals=res, classification=classification, tol=tol, active=sets
    )
