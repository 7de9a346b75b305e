"""Stationarity certification for bilevel candidates.

Every condition of the weak/Clarke/strong stationarity systems is turned
into a nonnegative residual; a candidate is classified by which family of
residuals clears the tolerance.  Almost-everywhere sign conditions become
nodewise max-violations, which is exact on a grid.  The diagonal diagnostic
residuals (M_diag_*) mirror a sharper sign pattern on the biactive sets
whose validity for this problem class is unsettled; they are reported but
never influence the classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import norm
from .errors import DimensionError, InfeasibleError
from .lower import _fixed_point_residual, lower_qp
from .model import (
    ProblemSpec,
    eval_j_grad,
    eval_j_grad_adjoint,
    eval_j_hess_bilinear,
)

_W_IDS = (
    "CSt_x", "CSt_y", "CSt_u", "CSt_p", "CSt_z",
    "CSt_ll_y", "CSt_ll_u", "CSt_ll_sign_a", "CSt_ll_sign_b",
    "CSt_xi", "CSt_w",
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

    def as_dict(self) -> dict:
        return {
            "i_a_plus": [int(i) for i in self.i_a_plus],
            "i_b_minus": [int(i) for i in self.i_b_minus],
            "biactive_a": [int(i) for i in self.biactive_a],
            "biactive_b": [int(i) for i in self.biactive_b],
            "inactive": [int(i) for i in self.inactive],
            "tol_act": self.tol_act,
        }


@dataclass(eq=False)
class StationarityCertificate:
    residuals: dict
    classification: str
    tol: float
    active: ActiveSets

    def as_dict(self) -> dict:
        return {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "classification": self.classification,
            "tol": self.tol,
            "active_sets": self.active.as_dict(),
        }


def active_sets(spec: ProblemSpec, u, lam, tol_act: float | None = None) -> ActiveSets:
    """Classify nodes against the control bounds, deterministically in tol_act."""
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
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


def _check_feasible(spec: ProblemSpec, x, y, u) -> None:
    failures = []
    if not spec.x_set.contains(x, tol=1e-8):
        failures.append("parameter x is outside the admissible set")
    if not spec.bounds.feasible(u, tol=1e-9):
        failures.append("control u violates its bounds")
    opt_tol = 10.0 * spec.solver_tol
    state_tol = max(opt_tol, 1e-11)
    state_res = norm(spec.grid, spec.operator.apply(y) - u)
    if state_res > state_tol:
        failures.append(f"state equation residual {state_res:.3e} exceeds {state_tol:.1e}")
    fp = _fixed_point_residual(spec, lower_qp(spec, x), u)[0]
    if fp > opt_tol:
        failures.append(
            f"(y, u) is not lower-level optimal at x: fixed-point residual "
            f"{fp:.3e} exceeds {opt_tol:.1e}"
        )
    if failures:
        raise InfeasibleError("candidate infeasible: " + "; ".join(failures))


def _field(data: dict, key: str, shape: tuple) -> np.ndarray:
    value = np.asarray(data[key], dtype=float)
    if value.shape != shape:
        raise DimensionError(f"field {key!r} has shape {value.shape}, expected {shape}")
    return value


def _max_over(values: np.ndarray, idx: np.ndarray) -> float:
    return float(values[idx].max()) if idx.size else 0.0


def classify(spec: ProblemSpec, point, multipliers, tol: float = 1e-5) -> StationarityCertificate:
    """Evaluate all stationarity residuals at a candidate and classify it.

    Each field must have the grid's length (x and z the parameter's) or
    DimensionError names it.  The candidate must be feasible: parameter in
    the admissible set and (y, u) lower-level optimal at x to ten times the
    solver tolerance.
    Classification is W when the core residuals clear tol, C when the
    product sign condition also clears, S when the componentwise biactive
    sign conditions clear as well.
    """
    grid, op = spec.grid, spec.operator
    nodes = (grid.n_nodes,)
    x, z = _field(point, "x", (spec.n,)), _field(multipliers, "z", (spec.n,))
    y, u = (_field(point, key, nodes) for key in ("y", "u"))
    mu, w, rho, xi, p, lam = (
        _field(multipliers, key, nodes) for key in ("mu", "w", "rho", "xi", "p", "lam")
    )

    _check_feasible(spec, x, y, u)
    sets = active_sets(spec, u, lam)

    res: dict[str, float] = {}
    res["CSt_x"] = float(np.linalg.norm(
        spec.upper.grad_x(x) + z + eval_j_grad(grid, spec.lower, y, mu)
    ))
    res["CSt_y"] = norm(
        grid,
        spec.upper.grad_y(y)
        + op.apply(rho)
        + eval_j_hess_bilinear(grid, spec.lower, y, mu, x),
    )
    res["CSt_u"] = norm(grid, spec.upper.grad_u(u) + spec.sigma * w - rho + xi)
    res["CSt_p"] = norm(grid, op.apply(mu) - w)
    res["CSt_z"] = spec.x_set.normal_cone_residual(x, z, tol=1e-8)

    adj = eval_j_grad_adjoint(grid, spec.lower, y, x)
    res["CSt_ll_y"] = norm(grid, adj + op.apply(p))
    res["CSt_ll_u"] = norm(grid, spec.sigma * u - p + lam)
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

    # diagnostic only: on each biactive set either the product vanishes or
    # both factors are strictly on the indicated side
    prod = np.abs(xi * w)
    res["M_diag_a"] = _max_over(
        np.minimum(prod, np.maximum(np.maximum(-xi, -w), 0.0)), sets.biactive_a
    )
    res["M_diag_b"] = _max_over(
        np.minimum(prod, np.maximum(np.maximum(xi, w), 0.0)), sets.biactive_b
    )

    is_w = all(res[k] <= tol for k in _W_IDS)
    is_c = is_w and res["CSt_clarke"] <= tol
    is_s = is_c and res["CSt_strong_a"] <= tol and res["CSt_strong_b"] <= tol
    classification = "S" if is_s else "C" if is_c else "W" if is_w else "none"

    return StationarityCertificate(
        residuals=res, classification=classification, tol=tol, active=sets
    )
