"""Problem data for one inverse control instance.

Bundles the lower-level objective j (a vector of n convex functionals of the
state), the upper-level tracking objective F, the admissible parameter set
X_ad (simplex or box, both polyhedral with explicit vertex lists), and the
pointwise control bounds.  Instances are loaded from and saved to a JSON
configuration; see problem_from_dict for the schema.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .discretization import EllipticOperator, Grid, build_grid, inner
from .errors import DimensionError, InfeasibleError, ValidationError

_GENERATORS = {
    "sin_pi": lambda t: np.sin(np.pi * t),
    "sin_2pi": lambda t: np.sin(2.0 * np.pi * t),
}


def grid_function(
    grid: Grid, value, allow_infinite: bool = False, name: str = "grid function"
) -> np.ndarray:
    """Evaluate a JSON grid-function description to a node vector.

    Accepts a number (constant), a generator name ("sin_pi", "sin_2pi",
    "const:<v>"), the strings "inf"/"-inf" for infinite constant bounds, or
    an explicit array whose entries may be numbers or "inf"/"-inf" strings.
    """
    n = grid.n_nodes
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out = np.full(n, float(value))
    elif isinstance(value, str):
        if value in _GENERATORS:
            out = _GENERATORS[value](grid.nodes)
        elif value.startswith("const:"):
            try:
                out = np.full(n, float(value[len("const:"):]))
            except ValueError:
                raise ValidationError(f"{name}: bad constant generator {value!r}")
        elif value in ("inf", "-inf"):
            out = np.full(n, float(value))
        else:
            raise ValidationError(f"{name}: unknown generator {value!r}")
    elif isinstance(value, (list, tuple)):
        entries = []
        for entry in value:
            if isinstance(entry, str):
                if entry not in ("inf", "-inf"):
                    raise ValidationError(f"{name}: bad array entry {entry!r}")
                entries.append(float(entry))
            elif isinstance(entry, (int, float)) and not isinstance(entry, bool):
                entries.append(float(entry))
            else:
                raise ValidationError(f"{name}: bad array entry {entry!r}")
        out = np.array(entries, dtype=float)
        if out.shape[0] != n:
            raise DimensionError(
                f"{name}: array has length {out.shape[0]}, grid has {n} nodes"
            )
    else:
        raise ValidationError(f"{name}: cannot interpret {value!r}")
    if np.isnan(out).any():
        raise ValidationError(f"{name}: contains NaN")
    if not allow_infinite and not np.isfinite(out).all():
        raise ValidationError(f"{name}: infinite values are not allowed here")
    return out


def _encode_vector(v: np.ndarray) -> list:
    out = []
    for entry in np.asarray(v, dtype=float):
        if math.isinf(entry):
            out.append("inf" if entry > 0 else "-inf")
        else:
            out.append(float(entry))
    return out


@dataclass(frozen=True, eq=False)
class LowerObjective:
    """Vector objective j with n convex nonnegative components.

    kind "target_type": j_i(y) = ||y - y_d^i||^2 with one desired state per
    component (targets stacked as rows).  kind "pointwise": j_i(y) =
    (y(omega^i) - y_d(omega^i))^2 for measurement nodes omega^i and a single
    desired state.
    """

    kind: str
    targets: np.ndarray | None = None
    points: tuple | None = None
    target: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "target_type":
            if self.targets is None or np.asarray(self.targets).ndim != 2:
                raise ValidationError(
                    "target_type objective needs a 2d stack of desired states"
                )
            object.__setattr__(
                self, "targets", np.asarray(self.targets, dtype=float)
            )
            if self.points is not None or self.target is not None:
                raise ValidationError("target_type objective takes only targets")
        elif self.kind == "pointwise":
            if self.points is None or self.target is None:
                raise ValidationError(
                    "pointwise objective needs measurement nodes and a target"
                )
            object.__setattr__(self, "points", tuple(int(i) for i in self.points))
            object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
            if self.targets is not None:
                raise ValidationError("pointwise objective takes no target stack")
            if len(self.points) == 0:
                raise ValidationError("pointwise objective needs at least one node")
        else:
            raise ValidationError(f"unknown lower objective kind {self.kind!r}")

    @property
    def n(self) -> int:
        if self.kind == "target_type":
            return self.targets.shape[0]
        return len(self.points)


def _check_param(obj: LowerObjective, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.n,):
        raise DimensionError(f"parameter has shape {x.shape}, expected ({obj.n},)")
    return x


def eval_j(grid: Grid, obj: LowerObjective, y: np.ndarray) -> np.ndarray:
    """Component values j_i(y), a nonnegative vector of length n."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] != grid.n_nodes:
        raise DimensionError("state length does not match grid")
    if obj.kind == "target_type":
        d = y[None, :] - obj.targets
        return grid.h * np.sum(d * d, axis=1)
    idx = np.asarray(obj.points)
    d = y[idx] - obj.target[idx]
    return d * d


def eval_j_grad(grid: Grid, obj: LowerObjective, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Directional derivatives (j_i'(y) v)_i as a vector of length n."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if y.shape[0] != grid.n_nodes or v.shape[0] != grid.n_nodes:
        raise DimensionError("state or direction length does not match grid")
    if obj.kind == "target_type":
        return 2.0 * grid.h * ((y[None, :] - obj.targets) @ v)
    idx = np.asarray(obj.points)
    return 2.0 * (y[idx] - obj.target[idx]) * v[idx]


def eval_j_grad_adjoint(grid: Grid, obj: LowerObjective, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Riesz vector of j'(y)* x under the weighted inner product."""
    y = np.asarray(y, dtype=float)
    x = _check_param(obj, x)
    if y.shape[0] != grid.n_nodes:
        raise DimensionError("state length does not match grid")
    if obj.kind == "target_type":
        return 2.0 * np.sum(x) * y - 2.0 * (x @ obj.targets)
    out = np.zeros(grid.n_nodes)
    idx = np.asarray(obj.points)
    # Dirac at node i is e_i / h under the weighted product
    np.add.at(out, idx, 2.0 * x * (y[idx] - obj.target[idx]) / grid.h)
    return out


def eval_j_hess_bilinear(
    grid: Grid, obj: LowerObjective, y: np.ndarray, mu: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Riesz vector of j''(y)(mu)* x under the weighted inner product."""
    mu = np.asarray(mu, dtype=float)
    x = _check_param(obj, x)
    if mu.shape[0] != grid.n_nodes:
        raise DimensionError("direction length does not match grid")
    if obj.kind == "target_type":
        return 2.0 * np.sum(x) * mu
    out = np.zeros(grid.n_nodes)
    idx = np.asarray(obj.points)
    np.add.at(out, idx, 2.0 * x * mu[idx] / grid.h)
    return out


@dataclass(frozen=True, eq=False)
class UpperObjective:
    """Convex quadratic tracking objective F(x, y, u).

    F = (c_y/2) ||y - y_o||^2 + (c_u/2) ||u - u_o||^2 + (gamma/2) |x|^2,
    with the state and control norms weighted and the parameter norm
    Euclidean.
    """

    c_y: float
    y_o: np.ndarray
    c_u: float
    u_o: np.ndarray
    gamma: float = 0.0

    def __post_init__(self):
        for label, w in (("c_y", self.c_y), ("c_u", self.c_u), ("gamma", self.gamma)):
            if not (w >= 0.0):
                raise ValidationError(f"{label} must be nonnegative, got {w}")
        object.__setattr__(self, "y_o", np.asarray(self.y_o, dtype=float))
        object.__setattr__(self, "u_o", np.asarray(self.u_o, dtype=float))

    def value(self, grid: Grid, x: np.ndarray, y: np.ndarray, u: np.ndarray) -> float:
        dy = y - self.y_o
        du = u - self.u_o
        return float(
            0.5 * self.c_y * inner(grid, dy, dy)
            + 0.5 * self.c_u * inner(grid, du, du)
            + 0.5 * self.gamma * np.dot(x, x)
        )

    def grad_x(self, x: np.ndarray) -> np.ndarray:
        return self.gamma * np.asarray(x, dtype=float)

    def grad_y(self, y: np.ndarray) -> np.ndarray:
        return self.c_y * (y - self.y_o)

    def grad_u(self, u: np.ndarray) -> np.ndarray:
        return self.c_u * (u - self.u_o)


@dataclass(frozen=True, eq=False)
class AdmissibleSetX:
    """Admissible parameter set: the standard simplex or a box in R^n_+."""

    kind: str
    n: int
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("parameter dimension must be at least 1")
        if self.kind == "simplex":
            if self.lo is not None or self.hi is not None:
                raise ValidationError("simplex set takes no bounds")
        elif self.kind == "box":
            if self.lo is None or self.hi is None:
                raise ValidationError("box set needs lower and upper bounds")
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
            if lo.shape != (self.n,) or hi.shape != (self.n,):
                raise DimensionError("box bounds must have length n")
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                raise ValidationError("box bounds must be finite (compact set)")
            if (lo < 0.0).any():
                raise ValidationError(
                    "box lower bounds must be nonnegative (subset of R^n_+)"
                )
            if (lo > hi).any():
                raise ValidationError("box is empty: lower bound exceeds upper bound")
        else:
            raise ValidationError(f"unknown admissible set kind {self.kind!r}")

    def vertices(self) -> np.ndarray:
        """Vertex list; identity rows for the simplex, corners for a box."""
        if self.kind == "simplex":
            return np.eye(self.n)
        corners = list(itertools.product(*zip(self.lo, self.hi)))
        return np.array(corners, dtype=float)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the set."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionError(f"point has shape {x.shape}, expected ({self.n},)")
        if not np.isfinite(x).all():
            raise ValidationError(f"cannot project the non-finite point {x}")
        if self.kind == "box":
            return np.clip(x, self.lo, self.hi)
        # sorting-based simplex projection
        s = np.sort(x)[::-1]
        c = np.cumsum(s) - 1.0
        k = np.arange(1, x.size + 1)
        feasible = s - c / k > 0.0
        assert feasible.any()
        rho = k[feasible][-1]
        theta = c[feasible][-1] / rho
        return np.maximum(x - theta, 0.0)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            return False
        if self.kind == "box":
            return bool((x >= self.lo - tol).all() and (x <= self.hi + tol).all())
        return bool((x >= -tol).all() and abs(float(np.sum(x)) - 1.0) <= tol * self.n)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one uniformly distributed feasible point."""
        if self.kind == "simplex":
            return rng.dirichlet(np.ones(self.n))
        return self.lo + (self.hi - self.lo) * rng.random(self.n)

    def normal_cone_residual(self, x: np.ndarray, z: np.ndarray, tol: float = 1e-8) -> float:
        """Violation of z in N_{X_ad}(x): max over vertices v of z.(v - x), clipped at 0."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
            raise DimensionError(f"dual vector has shape {z.shape}, expected ({self.n},)")
        if not self.contains(x, tol):
            raise InfeasibleError(f"point {x} is not in the admissible set")
        gaps = self.vertices() @ z - float(np.dot(z, x))
        return float(max(0.0, gaps.max()))


@dataclass(frozen=True, eq=False)
class ControlBounds:
    """Nodewise control bounds u_a < u_b; infinite entries disable one side."""

    ua: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        ua = np.asarray(self.ua, dtype=float)
        ub = np.asarray(self.ub, dtype=float)
        object.__setattr__(self, "ua", ua)
        object.__setattr__(self, "ub", ub)
        if ua.shape != ub.shape or ua.ndim != 1:
            raise DimensionError("control bounds must be vectors of equal length")
        if np.isnan(ua).any() or np.isnan(ub).any():
            raise ValidationError("control bounds contain NaN")
        if (ua == np.inf).any() or (ub == -np.inf).any():
            raise ValidationError("lower bound +inf or upper bound -inf is empty")
        if not (ua < ub).all():
            bad = int(np.argmin(ub - ua))
            raise ValidationError(
                f"control bounds must satisfy u_a < u_b at every node; "
                f"violated at node {bad}"
            )

    def project(self, u: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(u, dtype=float), self.ua, self.ub)

    def feasible(self, u: np.ndarray, tol: float) -> bool:
        u = np.asarray(u, dtype=float)
        return bool((u >= self.ua - tol).all() and (u <= self.ub + tol).all())

    def normal_cone_residual(self, u: np.ndarray, lam: np.ndarray, tol_act: float = 1e-6) -> float:
        """Violation of lam in N_{U_ad}(u) via nodewise sign conditions.

        Where u is strictly above the lower bound the multiplier must be
        nonnegative, where u is strictly below the upper bound it must be
        nonpositive; strictness is measured with the active-set tolerance.
        """
        u = np.asarray(u, dtype=float)
        lam = np.asarray(lam, dtype=float)
        if u.shape != self.ua.shape or lam.shape != self.ua.shape:
            raise DimensionError("control or multiplier length does not match bounds")
        if not self.feasible(u, tol_act):
            raise InfeasibleError("control violates its bounds beyond tolerance")
        above = u > self.ua + tol_act
        below = u < self.ub - tol_act
        viol_a = np.where(above, np.maximum(0.0, -lam), 0.0)
        viol_b = np.where(below, np.maximum(0.0, lam), 0.0)
        return float(max(viol_a.max(), viol_b.max()))


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One complete instance: grid, regularization, objectives, and sets."""

    grid: Grid
    sigma: float
    lower: LowerObjective
    upper: UpperObjective
    x_set: AdmissibleSetX
    bounds: ControlBounds
    solver_tol: float = 1e-10
    active_tol: float = 1e-6
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ValidationError("sigma must be positive")
        if not (self.solver_tol > 0.0 and self.active_tol > 0.0):
            raise ValidationError("tolerances must be positive")
        n_nodes = self.grid.n_nodes
        if self.lower.kind == "target_type":
            if self.lower.targets.shape[1] != n_nodes:
                raise DimensionError("desired states do not match the grid")
        else:
            if self.lower.target.shape[0] != n_nodes:
                raise DimensionError("desired state does not match the grid")
            if any(not (0 <= i < n_nodes) for i in self.lower.points):
                raise ValidationError(
                    f"measurement nodes must lie in [0, {n_nodes}), "
                    f"got {self.lower.points}"
                )
        if self.x_set.n != self.lower.n:
            raise DimensionError(
                f"admissible set dimension {self.x_set.n} does not match "
                f"objective dimension {self.lower.n}"
            )
        for label, v in (("y_o", self.upper.y_o), ("u_o", self.upper.u_o)):
            if v.shape[0] != n_nodes:
                raise DimensionError(f"{label} does not match the grid")
        if self.bounds.ua.shape[0] != n_nodes:
            raise DimensionError("control bounds do not match the grid")

    @cached_property
    def operator(self) -> EllipticOperator:
        """The factored Laplacian of the grid, built on first use."""
        return EllipticOperator(self.grid)

    @property
    def n(self) -> int:
        return self.x_set.n


_TOP_KEYS = {
    "grid", "sigma", "lower_objective", "upper_objective",
    "x_ad", "u_bounds", "tolerances", "metadata",
}


def problem_from_dict(data: dict) -> ProblemSpec:
    """Build a validated ProblemSpec from the JSON configuration schema."""
    if not isinstance(data, dict):
        raise ValidationError("problem description must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown problem keys: {sorted(unknown)}")
    for key in ("grid", "sigma", "lower_objective", "upper_objective", "x_ad", "u_bounds"):
        if key not in data:
            raise ValidationError(f"missing problem key {key!r}")

    grid_block = data["grid"]
    if not isinstance(grid_block, dict) or "N" not in grid_block:
        raise ValidationError("grid block must be an object with key 'N'")
    grid = build_grid(int(grid_block["N"]))

    sigma = float(data["sigma"])

    lo_block = data["lower_objective"]
    kind = lo_block.get("kind")
    if kind == "target_type":
        raw = lo_block.get("targets")
        if not isinstance(raw, list) or not raw:
            raise ValidationError("target_type needs a nonempty 'targets' list")
        targets = np.stack([
            grid_function(grid, t, name=f"targets[{i}]") for i, t in enumerate(raw)
        ])
        lower = LowerObjective(kind="target_type", targets=targets)
    elif kind == "pointwise":
        pts = lo_block.get("points")
        if not isinstance(pts, list) or not pts:
            raise ValidationError("pointwise needs a nonempty 'points' list")
        target = grid_function(grid, lo_block.get("target"), name="target")
        lower = LowerObjective(kind="pointwise", points=tuple(pts), target=target)
    else:
        raise ValidationError(f"unknown lower objective kind {kind!r}")

    up = data["upper_objective"]
    upper = UpperObjective(
        c_y=float(up.get("c_y", 0.0)),
        y_o=grid_function(grid, up.get("y_o", 0.0), name="y_o"),
        c_u=float(up.get("c_u", 0.0)),
        u_o=grid_function(grid, up.get("u_o", 0.0), name="u_o"),
        gamma=float(up.get("gamma", 0.0)),
    )

    xad = data["x_ad"]
    xkind = xad.get("kind")
    if xkind == "simplex":
        x_set = AdmissibleSetX(kind="simplex", n=lower.n)
    elif xkind == "box":
        bb = xad.get("bounds")
        if not isinstance(bb, dict) or "lo" not in bb or "hi" not in bb:
            raise ValidationError("box x_ad needs bounds with 'lo' and 'hi'")
        x_set = AdmissibleSetX(
            kind="box", n=lower.n,
            lo=np.asarray(bb["lo"], dtype=float),
            hi=np.asarray(bb["hi"], dtype=float),
        )
    else:
        raise ValidationError(f"unknown x_ad kind {xkind!r}")

    ub_block = data["u_bounds"]
    allow_inf = bool(ub_block.get("allow_infinite", False))
    bounds = ControlBounds(
        ua=grid_function(grid, ub_block.get("ua"), allow_infinite=allow_inf, name="ua"),
        ub=grid_function(grid, ub_block.get("ub"), allow_infinite=allow_inf, name="ub"),
    )
    if not allow_inf:
        if not (np.isfinite(bounds.ua).all() and np.isfinite(bounds.ub).all()):
            raise ValidationError("infinite control bounds need allow_infinite")

    tols = data.get("tolerances", {})
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError("metadata must be an object")

    return ProblemSpec(
        grid=grid,
        sigma=sigma,
        lower=lower,
        upper=upper,
        x_set=x_set,
        bounds=bounds,
        solver_tol=float(tols.get("solver_tol", 1e-10)),
        active_tol=float(tols.get("active_tol", 1e-6)),
        metadata=dict(metadata),
    )


def problem_to_dict(spec: ProblemSpec) -> dict:
    """Serialize a ProblemSpec to the JSON configuration schema."""
    if spec.lower.kind == "target_type":
        lo_block = {
            "kind": "target_type",
            "targets": [_encode_vector(t) for t in spec.lower.targets],
        }
    else:
        lo_block = {
            "kind": "pointwise",
            "points": [int(i) for i in spec.lower.points],
            "target": _encode_vector(spec.lower.target),
        }
    if spec.x_set.kind == "simplex":
        xad = {"kind": "simplex"}
    else:
        xad = {
            "kind": "box",
            "bounds": {
                "lo": _encode_vector(spec.x_set.lo),
                "hi": _encode_vector(spec.x_set.hi),
            },
        }
    allow_inf = not (
        np.isfinite(spec.bounds.ua).all() and np.isfinite(spec.bounds.ub).all()
    )
    data = {
        "grid": {"N": spec.grid.n_nodes},
        "sigma": float(spec.sigma),
        "lower_objective": lo_block,
        "upper_objective": {
            "c_y": float(spec.upper.c_y),
            "y_o": _encode_vector(spec.upper.y_o),
            "c_u": float(spec.upper.c_u),
            "u_o": _encode_vector(spec.upper.u_o),
            "gamma": float(spec.upper.gamma),
        },
        "x_ad": xad,
        "u_bounds": {
            "ua": _encode_vector(spec.bounds.ua),
            "ub": _encode_vector(spec.bounds.ub),
            "allow_infinite": bool(allow_inf),
        },
        "tolerances": {
            "solver_tol": float(spec.solver_tol),
            "active_tol": float(spec.active_tol),
        },
    }
    if spec.metadata:
        data["metadata"] = spec.metadata
    return data


def load_problem(path: str | os.PathLike) -> ProblemSpec:
    """Load and validate a problem configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"problem file {path} is not valid JSON: {exc}")
    return problem_from_dict(data)


def save_problem(spec: ProblemSpec, path: str | os.PathLike) -> None:
    """Write a problem configuration file that load_problem reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(spec), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
