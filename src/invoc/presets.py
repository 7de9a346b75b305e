"""Shipped instances.

The default instance is constructed so its global solution is known: plant
sets the upper-level targets to the lower-level solution at a chosen
generator parameter x_star, which makes the optimal upper value exactly zero
at x_star.  That gives end-to-end runs a ground truth without any reference
data.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .discretization import build_grid
from .lower import solve_lower
from .model import (
    AdmissibleSetX,
    ControlBounds,
    LowerObjective,
    ProblemSpec,
    UpperObjective,
)

X_STAR = (0.3, 0.7)


def plant(spec: ProblemSpec, x_star) -> ProblemSpec:
    """spec with the upper targets y_o, u_o set to the lower solution at x_star.

    F is then zero at x_star, so with gamma = 0 x_star is a global solution;
    x_star is added to the metadata.
    """
    gen = solve_lower(spec, x_star, tol=1e-12)
    return replace(spec, upper=replace(spec.upper, y_o=gen.y, u_o=gen.u),
                   metadata={**spec.metadata, "x_star": [float(v) for v in x_star]})


def _instance(x_set: AdmissibleSetX, name: str) -> ProblemSpec:
    grid = build_grid(64)
    nodes = grid.nodes
    zeros = np.zeros(grid.n_nodes)
    return plant(ProblemSpec(
        grid=grid,
        sigma=1e-2,
        lower=LowerObjective(
            kind="target_type",
            targets=np.stack([np.sin(np.pi * nodes), np.sin(2.0 * np.pi * nodes)]),
        ),
        upper=UpperObjective(c_y=1.0, y_o=zeros, c_u=1.0, u_o=zeros, gamma=0.0),
        x_set=x_set,
        bounds=ControlBounds(ua=np.full(grid.n_nodes, -50.0), ub=np.full(grid.n_nodes, 50.0)),
        metadata={"name": name},
    ), X_STAR)


def make_default_problem() -> ProblemSpec:
    """Simplex-constrained instance with known optimum at x_star."""
    return _instance(AdmissibleSetX(kind="simplex", n=2), "default")


def make_box_variant() -> ProblemSpec:
    """Same construction with the parameter box [0, 1]^2.

    x_star is interior to the box, so the known optimum carries over.
    """
    x_set = AdmissibleSetX(
        kind="box", n=2, lo=np.zeros(2), hi=np.ones(2)
    )
    return _instance(x_set, "box_variant")
