"""Optimal-value function of the lower level.

phi(x) is the minimal lower-level objective at parameter x, with gradient
j evaluated at the optimal state.  phi is concave on R^n_+ because the
lower objective is affine in x and the value is an infimum of affine
functions.  Evaluation is restricted to R^n_+; no extension beyond it is
constructed because every consumer stays inside the admissible set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import inner
from .errors import _integer, _positive, _vector
from .lower import LowerSolution, solve_lower
from .model import ProblemSpec, eval_j


@dataclass(frozen=True, eq=False)
class ValueSample:
    """One evaluation of the value function with its lower solution, lower QP included."""

    x: np.ndarray
    phi: float
    grad_phi: np.ndarray
    lower: LowerSolution


def lower_objective_value(spec: ProblemSpec, x: np.ndarray, y: np.ndarray, u: np.ndarray,
                          jy: np.ndarray | None = None) -> float:
    """Lower-level objective f(x, y, u) = x . j(y) + (sigma/2) ||u||^2, with
    jy = j(y) if the caller has it."""
    if jy is None:
        jy = eval_j(spec.grid, spec.lower, y)
    return float(np.dot(x, jy) + 0.5 * spec.sigma * inner(spec.grid, u, u))


def value_sample(spec: ProblemSpec, x, warm_start: np.ndarray | None = None) -> ValueSample:
    """Evaluate phi and its gradient at x with one exact lower solve at the
    spec's solver_tol, uncached."""
    sol = solve_lower(spec, x, warm_start=warm_start)
    jy = eval_j(spec.grid, spec.lower, sol.y)
    return ValueSample(x=sol.x, phi=lower_objective_value(spec, sol.x, sol.y, sol.u, jy),
                       grad_phi=jy, lower=sol)


def phi(spec: ProblemSpec, x) -> float:
    """Optimal value of the lower level at parameter x in R^n_+."""
    return value_sample(spec, x).phi


def grad_phi(spec: ProblemSpec, x) -> np.ndarray:
    """Gradient of phi at x: the lower objective at the optimal state."""
    return value_sample(spec, x).grad_phi


def probe_concavity(spec: ProblemSpec, trials: int, seed: int = 0) -> float:
    """Max violation of concavity over random feasible segments.

    Draws (x1, x2, t) with both endpoints in the admissible set and returns
    the largest value of t*phi(x1) + (1-t)*phi(x2) - phi(t*x1 + (1-t)*x2);
    nonpositive results confirm concavity on the sample.
    """
    trials = _integer(trials, "trials", 1)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    worst = -np.inf
    for _ in range(trials):
        x1 = spec.x_set.sample(rng)
        x2 = spec.x_set.sample(rng)
        t = float(rng.random())
        mix = t * x1 + (1.0 - t) * x2
        gap = t * phi(spec, x1) + (1.0 - t) * phi(spec, x2) - phi(spec, mix)
        worst = max(worst, gap)
    return float(worst)


def probe_taylor(
    spec: ProblemSpec, x_bar, radius: float, trials: int, seed: int = 0
) -> float:
    """Empirical constant of the first-order Taylor-like remainder bound.

    Samples feasible x near x_bar and returns the largest ratio
    |phi(x) - phi(x_bar) - grad_phi(x_bar).(x - x_bar)| / |x - x_bar|^2.
    Boundedness of the ratio across shrinking radii is the content of the
    differentiability estimate for phi.
    """
    trials = _integer(trials, "trials", 1)
    radius = _positive(radius, "radius")
    x_bar = _vector(x_bar, (spec.n,), "x_bar")
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    base = value_sample(spec, x_bar)
    worst = 0.0
    for _ in range(trials):
        d = rng.standard_normal(spec.n)
        if spec.x_set.kind == "simplex":
            d -= d.mean()  # stay inside the affine hull
        nd = np.linalg.norm(d)
        if nd == 0.0:
            continue
        d *= radius * rng.random() / nd
        x = spec.x_set.project(x_bar + d)
        dx = x - x_bar
        ndx = float(np.linalg.norm(dx))
        if ndx == 0.0:
            continue
        remainder = abs(phi(spec, x) - base.phi - float(np.dot(base.grad_phi, dx)))
        worst = max(worst, remainder / (ndx * ndx))
    return float(worst)


def sample_segment(spec: ProblemSpec, x_from, x_to, count: int) -> list[ValueSample]:
    """Value samples along the segment between two feasible parameters.

    Equal endpoints collapse the slice to a single sample regardless of the
    requested count.
    """
    count = _integer(count, "count", 1)
    x_from = _vector(x_from, (spec.n,), "x_from")
    x_to = _vector(x_to, (spec.n,), "x_to")
    if np.array_equal(x_from, x_to):
        return [value_sample(spec, x_from)]
    out = []
    for t in np.linspace(0.0, 1.0, count) if count > 1 else [0.0]:
        out.append(value_sample(spec, (1.0 - t) * x_from + t * x_to))
    return out
