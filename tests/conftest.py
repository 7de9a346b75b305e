"""Shared fixtures: small instances exercising every structural regime.

All fixtures are session scoped; tests must not mutate them.  The
"generated" instances plant a known parameter by tracking the lower-level
solution at that parameter, so the upper objective has value zero there.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from invoc import (
    AdmissibleSetX,
    ControlBounds,
    LowerObjective,
    ProblemSpec,
    UpperObjective,
    build_grid,
    solve_lower,
)

# property tests draw the same examples on every run and keep no database
settings.register_profile(
    "invoc", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("invoc")


def make_generated_spec(
    n_nodes: int,
    x_star,
    x_set: AdmissibleSetX | None = None,
    sigma: float = 1e-2,
    width: float = 50.0,
    gamma: float = 0.0,
) -> ProblemSpec:
    """Instance whose upper objective is minimized exactly at x_star."""
    grid = build_grid(n_nodes)
    w = grid.nodes
    targets = np.vstack([np.sin(np.pi * w), np.sin(2.0 * np.pi * w)])
    lower = LowerObjective(kind="target_type", targets=targets)
    bounds = ControlBounds(ua=np.full(n_nodes, -width), ub=np.full(n_nodes, width))
    if x_set is None:
        x_set = AdmissibleSetX(kind="simplex", n=2)
    seed_upper = UpperObjective(
        c_y=1.0, y_o=np.zeros(n_nodes), c_u=1.0, u_o=np.zeros(n_nodes), gamma=0.0
    )
    seed = ProblemSpec(
        grid=grid, sigma=sigma, lower=lower, upper=seed_upper,
        x_set=x_set, bounds=bounds,
    )
    gen = solve_lower(seed, np.asarray(x_star, dtype=float), tol=1e-12)
    upper = UpperObjective(c_y=1.0, y_o=gen.y, c_u=1.0, u_o=gen.u, gamma=gamma)
    return ProblemSpec(
        grid=grid, sigma=sigma, lower=lower, upper=upper,
        x_set=x_set, bounds=bounds, solver_tol=1e-10, active_tol=1e-6,
        metadata={"x_star": list(np.asarray(x_star, dtype=float))},
    )


@pytest.fixture(scope="session")
def unit_spec() -> ProblemSpec:
    return make_generated_spec(16, (0.3, 0.7))


@pytest.fixture(scope="session")
def tiny_spec() -> ProblemSpec:
    return make_generated_spec(4, (0.4, 0.6))


@pytest.fixture(scope="session")
def box_unit_spec() -> ProblemSpec:
    x_set = AdmissibleSetX(kind="box", n=2, lo=np.zeros(2), hi=np.ones(2))
    return make_generated_spec(16, (0.3, 0.7), x_set=x_set)


@pytest.fixture(scope="session")
def tilted_spec() -> ProblemSpec:
    # no planted optimum: tracking targets are unreachable, gamma couples x
    n_nodes = 16
    grid = build_grid(n_nodes)
    w = grid.nodes
    targets = np.vstack([np.sin(np.pi * w), np.sin(2.0 * np.pi * w)])
    return ProblemSpec(
        grid=grid,
        sigma=1e-2,
        lower=LowerObjective(kind="target_type", targets=targets),
        upper=UpperObjective(
            c_y=1.0, y_o=0.3 * np.sin(np.pi * w),
            c_u=1.0, u_o=np.zeros(n_nodes), gamma=5e-3,
        ),
        x_set=AdmissibleSetX(kind="simplex", n=2),
        bounds=ControlBounds(ua=np.full(n_nodes, -50.0), ub=np.full(n_nodes, 50.0)),
    )


@pytest.fixture(scope="session")
def bounded_spec() -> ProblemSpec:
    # clip the upper bound below the planted control so it binds
    base = make_generated_spec(16, (0.3, 0.7))
    u_star = base.upper.u_o
    cap = 0.6 * float(np.max(u_star))
    assert cap > 0.0
    return ProblemSpec(
        grid=base.grid, sigma=base.sigma, lower=base.lower, upper=base.upper,
        x_set=base.x_set,
        bounds=ControlBounds(ua=np.full(base.grid.n_nodes, -50.0),
                             ub=np.full(base.grid.n_nodes, cap)),
    )


@pytest.fixture(scope="session")
def pointwise_spec() -> ProblemSpec:
    n_nodes = 16
    grid = build_grid(n_nodes)
    return ProblemSpec(
        grid=grid,
        sigma=1e-2,
        lower=LowerObjective(
            kind="pointwise", points=(4, 9), target=np.sin(np.pi * grid.nodes)
        ),
        upper=UpperObjective(
            c_y=0.0, y_o=np.zeros(n_nodes),
            c_u=1.0, u_o=np.zeros(n_nodes), gamma=1e-3,
        ),
        x_set=AdmissibleSetX(kind="simplex", n=2),
        bounds=ControlBounds(ua=np.full(n_nodes, -50.0), ub=np.full(n_nodes, 50.0)),
    )
