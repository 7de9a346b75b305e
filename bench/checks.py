"""Checks of each workload's outputs against the dense reference.

Each check returns the list of failed checks; an empty list means correct.
Tolerances sit far above the dense reference's own error (the figures seen
at the seed-0 runs are noted) and far below the smallest corruption the
benchmark's tests inject.
"""

from __future__ import annotations

import numpy as np

from dense import DenseReference
from workloads import DEEP, RESOLUTION, box_x_star

LOWER_TOL = 1e-8   # relative weighted norm of (y, u) against BVLS; seen: 7e-11
VALUE_TOL = 1e-9   # relative upper and lattice values; seen: 3e-12
GAP_TOL = 1e-13    # dense against reported level gap; seen: 2e-16

# run_path solves level k to the feasibility tolerance
# max(floor, min(1e-8, 1e-4 eps_k)): its floor is a lower limit, and early
# levels stop at a fixed fraction of eps_k, capped at 1e-8.
FEAS_CAP, FEAS_REL = 1e-8, 1e-4


def level_feas_tol(eps: float) -> float:
    return max(DEEP["feas_tol"], min(FEAS_CAP, FEAS_REL * eps))


def _limit_lower(ref: DenseReference, trace, fails: list) -> tuple:
    lim = trace.limit
    y_ref, u_ref = ref.lower(lim["x"])
    scale = 1.0 + ref.h_norm(u_ref)
    du, dy = ref.h_norm(lim["u"] - u_ref), ref.h_norm(lim["y"] - y_ref)
    if max(du, dy) > LOWER_TOL * scale:
        fails.append(f"limit (y, u) is {max(du, dy):.3e} from the dense lower solution")
    return y_ref, u_ref


def check_certify(spec, out, x_star, seed) -> list[str]:
    ref = DenseReference(spec)
    trace, fails = out["trace"], []
    if trace.failure is not None:
        return [f"path failed at level {trace.failure['k']}: {trace.failure['message']}"]
    lim = trace.limit
    if np.linalg.norm(lim["x"] - x_star) > 1e-2:
        fails.append(f"limit x {lim['x']} is not within 1e-2 of x* {x_star}")
    if not lim["upper_value"] <= 1e-5:
        fails.append(f"limit upper value {lim['upper_value']:.3e} exceeds 1e-5")
    y_ref, u_ref = _limit_lower(ref, trace, fails)
    dense_upper = ref.upper_value(lim["x"], y_ref, u_ref)
    if abs(lim["upper_value"] - dense_upper) > VALUE_TOL * (1.0 + abs(dense_upper)):
        fails.append(f"limit upper value {lim['upper_value']:.6e} != dense {dense_upper:.6e}")
    for rec in trace.records:
        r = rec.relaxed
        gap = ref.lower_value(r.x, ref.S @ r.u, r.u) - ref.phi(r.x)
        limit = rec.eps + level_feas_tol(rec.eps)
        if gap > limit + GAP_TOL or r.gap > limit:
            fails.append(f"level {rec.k}: gap {gap:.3e} (reported {r.gap:.3e}) "
                         f"above eps {rec.eps:.3e}")
    cert = out["cert"]
    if cert is None or cert.classification not in ("C", "S"):
        fails.append(f"candidate classifies as {cert and cert.classification}, not C or S")
    grid = out["grid"]
    if not np.array_equal(grid.best_x, x_star):
        fails.append(f"simplex lattice minimiser {grid.best_x} is not x* {x_star}")
    return fails


def oracle_rows(seed: int, count: int = 16) -> np.ndarray:
    """Lattice rows whose values are checked against BVLS, x* among them."""
    rng = np.random.default_rng(seed)
    rows = rng.choice((RESOLUTION + 1) ** 2, size=count, replace=False)
    i, j = np.round(box_x_star(seed) * RESOLUTION).astype(int)
    return np.unique(np.append(rows, i * (RESOLUTION + 1) + j))


def check_oracle(spec, out, x_star, seed) -> list[str]:
    grid, fails = out["grid"], []
    if grid is None:
        return ["batched lower solves did not converge"]
    ref = DenseReference(spec)
    X, vals = grid.samples[:, :2], grid.samples[:, 2]
    axis = np.arange(RESOLUTION + 1) / RESOLUTION
    lattice = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    if not np.array_equal(X, lattice):
        return ["sample rows are not the resolution-200 box lattice"]
    if not np.array_equal(grid.best_x, x_star):
        fails.append(f"best_x {grid.best_x} is not x* {x_star}")
    if not grid.best_value <= 1e-12:
        fails.append(f"best value {grid.best_value:.3e} exceeds 1e-12")
    if not vals.min() >= 0.0:
        fails.append(f"lattice value {vals.min():.3e} is negative")
    dense, inside = ref.reduced_unconstrained(X)
    err = np.where(inside, np.abs(vals - dense) / (1.0 + np.abs(dense)), np.inf)
    bad = int((err > VALUE_TOL).sum())
    if bad:
        fails.append(f"{bad} lattice values differ from the closed-form dense values "
                     f"by more than {VALUE_TOL:g} relative, or a bound binds there")
    for row in oracle_rows(seed):
        want = ref.reduced(X[row])
        if abs(vals[row] - want) > VALUE_TOL * (1.0 + abs(want)):
            fails.append(f"lattice row {row} at x={X[row]}: {vals[row]:.12e} != BVLS {want:.12e}")
    return fails


def check_bound(spec, out, x_star, seed) -> list[str]:
    ref = DenseReference(spec)
    trace, fails = out["trace"], []
    if trace.failure is not None:
        return [f"path failed at level {trace.failure['k']}: {trace.failure['message']}"]
    lim = trace.limit
    y_ref, u_ref = _limit_lower(ref, trace, fails)
    dense_upper = ref.upper_value(lim["x"], y_ref, u_ref)
    if abs(lim["upper_value"] - dense_upper) > VALUE_TOL * (1.0 + abs(dense_upper)):
        fails.append(f"limit upper value {lim['upper_value']:.6e} != dense {dense_upper:.6e}")
    best = dense_lattice_min(ref)
    if abs(lim["upper_value"] - best) > 1e-4:
        fails.append(f"limit upper value {lim['upper_value']:.6e} is not within 1e-4 "
                     f"of the dense lattice minimum {best:.6e}")
    if not (lim["u"] >= spec.bounds.ub - spec.active_tol).any():
        fails.append("no node of the limit control sits on the upper bound")
    return fails


def dense_lattice_min(ref: DenseReference) -> float:
    """Minimum of the dense reduced objective over a simplex lattice of spacing 1e-3.

    A resolution-40 lattice locates the basin; the resolution-1000 one is
    searched one coarse cell either side of the coarse minimiser.
    """
    coarse, fine = 40, 1000

    def value(t):
        return ref.reduced(np.array([t, 1.0 - t]))

    coarse_vals = [value(i / coarse) for i in range(coarse + 1)]
    centre = int(np.argmin(coarse_vals)) * fine // coarse
    lo, hi = max(0, centre - fine // coarse), min(fine, centre + fine // coarse)
    return min(min(coarse_vals), min(value(i / fine) for i in range(lo, hi + 1)))



CHECKS = {
    "certify_deep": check_certify,
    "oracle_box200": check_oracle,
    "path_bound": check_bound,
}
