"""Shared fixtures: small instances exercising every structural regime.

All fixtures are session scoped; tests must not mutate them.  The
"generated" instances plant a known parameter with invoc.presets.plant,
which tracks the lower-level solution at that parameter, so the upper
objective has value zero there.
"""

from __future__ import annotations

from dataclasses import replace

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
)
from invoc.presets import plant

# property tests draw the same examples on every run and keep no database
settings.register_profile(
    "invoc", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("invoc")


def make_unplanted_spec(
    n_nodes: int,
    x_set: AdmissibleSetX | None = None,
    sigma: float = 1e-2,
    width: float = 50.0,
    gamma: float = 0.0,
) -> ProblemSpec:
    """make_generated_spec's instance before planting: upper targets zero."""
    grid = build_grid(n_nodes)
    w = grid.nodes
    targets = np.vstack([np.sin(np.pi * w), np.sin(2.0 * np.pi * w)])
    if x_set is None:
        x_set = AdmissibleSetX(kind="simplex", n=2)
    zeros = np.zeros(n_nodes)
    return ProblemSpec(
        grid=grid, sigma=sigma, lower=LowerObjective(kind="target_type", targets=targets),
        upper=UpperObjective(c_y=1.0, y_o=zeros, c_u=1.0, u_o=zeros, gamma=gamma),
        x_set=x_set, bounds=ControlBounds(ua=np.full(n_nodes, -width), ub=np.full(n_nodes, width)),
    )


def make_generated_spec(n_nodes: int, x_star, **kwargs) -> ProblemSpec:
    """Instance whose upper objective is minimized exactly at x_star;
    kwargs go to make_unplanted_spec."""
    return plant(make_unplanted_spec(n_nodes, **kwargs), x_star)


def make_bounded_spec(n_nodes: int) -> ProblemSpec:
    """The instance planted at (0.3, 0.7) with its upper control bound clipped
    to 0.6 max(u*), so that it binds; at N = 64 this is the benchmark's
    path_bound instance."""
    spec = make_generated_spec(n_nodes, (0.3, 0.7))
    cap = 0.6 * float(np.max(spec.upper.u_o))
    assert cap > 0.0
    return replace(spec, bounds=ControlBounds(ua=np.full(n_nodes, -50.0),
                                              ub=np.full(n_nodes, cap)))


def make_tilted_spec(n_nodes: int) -> ProblemSpec:
    """Unplanted instance: the tracking targets are unreachable and gamma
    couples x, so the path's limit has alpha -> infinity and F > 0."""
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


def make_capped_member_spec() -> ProblemSpec:
    """An N = 49 instance with c_u = 0 and caps +-7 whose relaxed u-subproblem
    at alpha = 0, with s = 0, the kernel does not solve (ROADMAP item 22)."""
    n_nodes = 49
    grid = build_grid(n_nodes)
    t = grid.nodes
    y_o = 0.5 * np.sin(np.pi * t + 0.6) + 0.6 * np.sin(2.0 * np.pi * t + 0.8)
    return ProblemSpec(
        grid=grid, sigma=6e-3,
        lower=LowerObjective(kind="target_type",
                             targets=np.vstack([np.sin(np.pi * t), np.sin(2.0 * np.pi * t)])),
        upper=UpperObjective(c_y=1.0, y_o=y_o, c_u=0.0, u_o=np.zeros(n_nodes)),
        x_set=AdmissibleSetX(kind="simplex", n=2),
        bounds=ControlBounds(ua=np.full(n_nodes, -7.0), ub=np.full(n_nodes, 7.0)),
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
    return make_tilted_spec(16)


@pytest.fixture(scope="session")
def bounded_spec() -> ProblemSpec:
    return make_bounded_spec(16)


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
