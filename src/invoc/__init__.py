"""Inverse optimal control of an elliptic system, solved and certified.

The lower level is a parametric control problem whose objective weights are
unknown; the upper level recovers those weights from observations.  The
package solves the bilevel problem through a relaxation of its optimal-value
reformulation and certifies the limiting point against weak, Clarke, and
strong stationarity systems.
"""

__version__ = "0.1.0"

from .discretization import EllipticOperator, Grid, build_grid, inner, norm
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    GridError,
    InfeasibleError,
    InsufficientPathError,
    ToolError,
    ValidationError,
)
from .lower import LowerSolution, solve_lower
from .model import (
    AdmissibleSetX,
    ControlBounds,
    LowerObjective,
    ProblemSpec,
    UpperObjective,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from .oracle import OracleResult, grid_search
from .path import PathStep, PathTrace, extract_candidate, run_path, trace_rows
from .presets import make_box_variant, make_default_problem
from .relax import RelaxedSolution, relaxed_kkt_residuals, solve_relaxed
from .stationarity import (
    ActiveSets,
    StationarityCertificate,
    active_sets,
    classify,
)
from .value import (
    ValueSample,
    grad_phi,
    phi,
    probe_concavity,
    probe_taylor,
    sample_segment,
    value_sample,
)

__all__ = [
    "ActiveSets",
    "AdmissibleSetX",
    "ControlBounds",
    "ConvergenceError",
    "DimensionError",
    "DomainError",
    "EllipticOperator",
    "Grid",
    "GridError",
    "InfeasibleError",
    "InsufficientPathError",
    "LowerObjective",
    "LowerSolution",
    "OracleResult",
    "PathStep",
    "PathTrace",
    "ProblemSpec",
    "RelaxedSolution",
    "StationarityCertificate",
    "ToolError",
    "UpperObjective",
    "ValidationError",
    "ValueSample",
    "active_sets",
    "build_grid",
    "classify",
    "extract_candidate",
    "grad_phi",
    "grid_search",
    "inner",
    "load_problem",
    "make_box_variant",
    "make_default_problem",
    "norm",
    "phi",
    "probe_concavity",
    "probe_taylor",
    "problem_from_dict",
    "problem_to_dict",
    "relaxed_kkt_residuals",
    "run_path",
    "sample_segment",
    "save_problem",
    "solve_lower",
    "solve_relaxed",
    "trace_rows",
    "value_sample",
]
