"""Problem data for one inverse control instance.

Bundles the lower-level objective j (a vector of n convex functionals of the
state), the upper-level tracking objective F, the admissible parameter set
X_ad (simplex or box, both polyhedral with explicit vertex lists), and the
pointwise control bounds.  Instances are loaded from and saved to a JSON
configuration; see problem_from_dict for the schema.  read_json and
write_file are the package's one JSON reader and one file writer.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .discretization import EllipticOperator, Grid, build_grid
from .errors import (DimensionError, DomainError, InfeasibleError, ValidationError, _floats,
                     _integer, _number, _positive, _vector)


def _entry(value, refusal: str) -> float:
    """A JSON number, or "inf"/"-inf", as a float; ValidationError with refusal otherwise."""
    if (isinstance(value, str) and value in ("inf", "-inf")
            or isinstance(value, (int, float)) and not isinstance(value, bool)):
        return float(value)
    raise ValidationError(f"{refusal} {value!r}")


def grid_function(
    grid: Grid, value, allow_infinite: bool = False, name: str = "grid function"
) -> np.ndarray:
    """Evaluate a JSON grid-function description to a node vector.

    Accepts a number (constant), the strings "inf"/"-inf" for infinite
    constant bounds, or an explicit array whose entries may be numbers or
    "inf"/"-inf" strings.
    """
    n = grid.n_nodes
    if isinstance(value, (list, tuple)):
        out = np.array([_entry(v, f"{name}: bad array entry") for v in value], dtype=float)
        if out.shape[0] != n:
            raise DimensionError(
                f"{name}: array has length {out.shape[0]}, grid has {n} nodes"
            )
    else:
        bad = "unknown string" if isinstance(value, str) else "cannot interpret"
        out = np.full(n, _entry(value, f"{name}: {bad}"))
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
            targets = None if self.targets is None else _floats(self.targets, "targets")
            if targets is None or targets.ndim != 2:
                raise ValidationError(
                    "target_type objective needs a 2d stack of desired states"
                )
            object.__setattr__(self, "targets", targets)
            if self.points is not None or self.target is not None:
                raise ValidationError("target_type objective takes only targets")
        elif self.kind == "pointwise":
            if self.points is None or self.target is None:
                raise ValidationError(
                    "pointwise objective needs measurement nodes and a target"
                )
            object.__setattr__(self, "points",
                               tuple(_integer(i, "measurement node") for i in self.points))
            object.__setattr__(self, "target", _floats(self.target, "target"))
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


def eval_j(grid: Grid, obj: LowerObjective, y: np.ndarray) -> np.ndarray:
    """Component values j_i(y), a nonnegative vector of length n."""
    y = _vector(y, (grid.n_nodes,), "state")
    if obj.kind == "target_type":
        d = y[None, :] - obj.targets
        return grid.h * (d * d).sum(axis=1)
    idx = np.asarray(obj.points)
    d = y[idx] - obj.target[idx]
    return d * d


def eval_j_grad(grid: Grid, obj: LowerObjective, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Directional derivatives (j_i'(y) v)_i as a vector of length n."""
    y = _vector(y, (grid.n_nodes,), "state")
    v = _vector(v, (grid.n_nodes,), "direction")
    if obj.kind == "target_type":
        return 2.0 * grid.h * ((y[None, :] - obj.targets) @ v)
    idx = np.asarray(obj.points)
    return 2.0 * (y[idx] - obj.target[idx]) * v[idx]


def lower_coefficients(grid: Grid, obj: LowerObjective,
                       x: np.ndarray) -> tuple[np.ndarray | float, np.ndarray]:
    """(d, c) with x . j(y) = 1/2 <y, d y> - <c, y> + const under the weighted product.

    d = 2 sum(x), a scalar, and c = 2 x . y_d for the target kind; d = 2 x_i / h
    and c = d y_d at the measurement nodes for the pointwise kind, since a
    Dirac at node i is e_i / h.
    """
    if obj.kind == "target_type":
        return 2.0 * float(x.sum()), 2.0 * (x @ obj.targets)
    d = np.zeros(grid.n_nodes)
    np.add.at(d, np.asarray(obj.points), 2.0 * x / grid.h)
    return d, d * obj.target


def _row_dot(v: np.ndarray) -> float | np.ndarray:
    """v . v for a vector, or for each row of a matrix, summed as np.dot sums it."""
    if v.ndim == 1:
        return float(np.dot(v, v))
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


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
        for label in ("c_y", "c_u", "gamma"):
            w = _number(getattr(self, label), label)
            if not 0.0 <= w < math.inf:
                raise DomainError(f"{label} must be nonnegative and finite, got {w}")
        object.__setattr__(self, "y_o", _floats(self.y_o, "y_o"))
        object.__setattr__(self, "u_o", _floats(self.u_o, "u_o"))

    def value(self, grid: Grid, x: np.ndarray, y: np.ndarray, u: np.ndarray,
              work: np.ndarray | None = None) -> float | np.ndarray:
        """F at (x, y, u) as a float, or an array of F over stacked rows of x, y, u.

        work, an array of y's shape that may be y itself, takes y - y_o and
        then u - u_o in turn.
        """
        x = np.asarray(x, dtype=float)
        y = _vector(y, x.shape[:-1] + (grid.n_nodes,), "state")
        u = _vector(u, x.shape[:-1] + (grid.n_nodes,), "control")
        F = (0.5 * self.c_y * (grid.h * _row_dot(np.subtract(y, self.y_o, out=work)))
             + 0.5 * self.c_u * (grid.h * _row_dot(np.subtract(u, self.u_o, out=work))))
        # with gamma = 0 the parameter term would add +0.0 to a nonnegative F
        return F + 0.5 * self.gamma * _row_dot(x) if self.gamma else F

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
        object.__setattr__(self, "n", _integer(self.n, "parameter dimension", 1))
        if self.kind == "simplex":
            if self.lo is not None or self.hi is not None:
                raise ValidationError("simplex set takes no bounds")
        elif self.kind == "box":
            if self.lo is None or self.hi is None:
                raise ValidationError("box set needs lower and upper bounds")
            lo = _floats(self.lo, "lo")
            hi = _floats(self.hi, "hi")
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
        x = _vector(x, (self.n,), "point")
        if not np.isfinite(x).all():
            raise ValidationError(f"cannot project the non-finite point {x}")
        if self.kind == "box":
            return np.minimum(self.hi, np.maximum(self.lo, x))
        # sorting-based simplex projection of x - max(x), which has the same
        # projection; the largest entry, now 0, always passes the test.  The
        # prefix sums on Python floats round as np.cumsum's do
        x = x - x.max()
        total = shift = 0.0
        for k, s in enumerate(sorted(x.tolist(), reverse=True), 1):
            total += s
            if s - (total - 1.0) / k > 0.0:
                shift = (total - 1.0) / k
        return np.maximum(x - shift, 0.0)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            return False
        if self.kind == "box":
            return bool((x >= self.lo - tol).all() and (x <= self.hi + tol).all())
        return bool((x >= -tol).all() and abs(float(x.sum()) - 1.0) <= tol * self.n)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one uniformly distributed feasible point."""
        if self.kind == "simplex":
            return rng.dirichlet(np.ones(self.n))
        return self.lo + (self.hi - self.lo) * rng.random(self.n)

    def normal_cone_residual(self, x: np.ndarray, z: np.ndarray, tol: float = 1e-8) -> float:
        """Violation of z in N_{X_ad}(x): max over vertices v of z.(v - x), clipped at 0."""
        x = _vector(x, (self.n,), "point")
        z = _vector(z, (self.n,), "dual vector")
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
        ua = _floats(self.ua, "ua")
        ub = _floats(self.ub, "ub")
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

    def project(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # np.clip's value, zeros' signs included, without its Python wrapper
        return np.minimum(self.ub, np.maximum(self.ua, u, out=out), out=out)

    def inside(self, u: np.ndarray) -> bool:
        """Whether all of u lies strictly between max(ua) and min(ub), so that
        every entry is feasible and project(u) is u bitwise; NaN is not inside."""
        return bool(self.ua.max() < u.min() and u.max() < self.ub.min())

    def feasible(self, u: np.ndarray, tol: float) -> bool:
        u = _vector(u, self.ua.shape, "control")
        return bool((u >= self.ua - tol).all() and (u <= self.ub + tol).all())

    def normal_cone_residual(self, u: np.ndarray, lam: np.ndarray, tol_act: float = 1e-6) -> float:
        """Violation of lam in N_{U_ad}(u) via nodewise sign conditions.

        Where u is strictly above the lower bound the multiplier must be
        nonnegative, where u is strictly below the upper bound it must be
        nonpositive; strictness is measured with the active-set tolerance.
        Each node's violation is the larger of its two signs', 0 where
        neither applies, in one array and one reduction.
        """
        u = _vector(u, self.ua.shape, "control")
        lam = _vector(lam, self.ua.shape, "multiplier")
        if not ((u >= self.ua - tol_act) & (u <= self.ub + tol_act)).all():
            raise InfeasibleError("control violates its bounds beyond tolerance")
        return float(np.maximum(np.where(u < self.ub - tol_act, lam, 0.0),
                                np.where(u > self.ua + tol_act, -lam, 0.0)).max())


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
        for label in ("sigma", "solver_tol", "active_tol"):
            _positive(getattr(self, label), label)
        n_nodes = self.grid.n_nodes
        if self.lower.kind == "target_type":
            if self.lower.targets.shape[1] != n_nodes:
                raise DimensionError("desired states do not match the grid")
        else:
            if self.lower.target.shape != (n_nodes,):
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
            if v.shape != (n_nodes,):
                raise DimensionError(f"{label} does not match the grid")
        if self.bounds.ua.shape[0] != n_nodes:
            raise DimensionError("control bounds do not match the grid")
        data = {"targets": self.lower.targets, "target": self.lower.target,
                "y_o": self.upper.y_o, "u_o": self.upper.u_o}
        for label, v in data.items():
            if v is not None and not np.isfinite(v).all():
                raise ValidationError(f"{label} must be finite")

    @cached_property
    def operator(self) -> EllipticOperator:
        """The factored Laplacian of the grid, built on first use."""
        return EllipticOperator(self.grid)

    @property
    def n(self) -> int:
        return self.x_set.n


_KEYS = {  # the problem's keys with their blocks' keys; sigma is a number, metadata free-form
    "grid": {"N"}, "sigma": None, "lower_objective": {"kind", "targets", "points", "target"},
    "upper_objective": {"c_y", "y_o", "c_u", "u_o", "gamma"}, "x_ad": {"kind", "bounds"},
    "u_bounds": {"ua", "ub", "allow_infinite"}, "tolerances": {"solver_tol", "active_tol"},
    "metadata": None,
}


def _block(data: dict, key: str) -> dict:
    """data[key], an object of its block's keys; an absent key gives an empty one."""
    block = data.get(key, {})
    if not isinstance(block, dict):
        raise ValidationError(f"{key} must be an object, got {block!r}")
    unknown = set(block) - (_KEYS[key] or set(block))
    if unknown:
        raise ValidationError(f"unknown {key} keys: {sorted(unknown)}")
    return block


def _numbers(value, name: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list of numbers, got {value!r}")
    return np.array([_number(v, name) for v in value], dtype=float)


def problem_from_dict(data: dict) -> ProblemSpec:
    """Build a validated ProblemSpec from the JSON configuration schema.

    Every malformed field raises ValidationError: a key that its block does
    not have (metadata takes any), a block that is not an object, a scalar
    that is not a number, a node count or measurement node that is not an
    integer, a flag that is not true or false.
    """
    if not isinstance(data, dict):
        raise ValidationError("problem description must be a JSON object")
    unknown = set(data) - set(_KEYS)
    if unknown:
        raise ValidationError(f"unknown problem keys: {sorted(unknown)}")
    for key in ("grid", "sigma", "lower_objective", "upper_objective", "x_ad", "u_bounds"):
        if key not in data:
            raise ValidationError(f"missing problem key {key!r}")

    grid = build_grid(_integer(_block(data, "grid").get("N"), "grid.N"))

    lo_block = _block(data, "lower_objective")
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
        points = tuple(_integer(i, "lower_objective.points") for i in pts)
        lower = LowerObjective(kind="pointwise", points=points, target=target)
    else:
        raise ValidationError(f"unknown lower objective kind {kind!r}")

    up = _block(data, "upper_objective")
    upper = UpperObjective(
        c_y=_number(up.get("c_y", 0.0), "upper_objective.c_y"),
        y_o=grid_function(grid, up.get("y_o", 0.0), name="y_o"),
        c_u=_number(up.get("c_u", 0.0), "upper_objective.c_u"),
        u_o=grid_function(grid, up.get("u_o", 0.0), name="u_o"),
        gamma=_number(up.get("gamma", 0.0), "upper_objective.gamma"),
    )

    xad = _block(data, "x_ad")
    xkind = xad.get("kind")
    if xkind == "simplex":
        x_set = AdmissibleSetX(kind="simplex", n=lower.n)
    elif xkind == "box":
        bb = xad.get("bounds")
        if not isinstance(bb, dict) or set(bb) != {"lo", "hi"}:
            raise ValidationError("box x_ad needs bounds with 'lo' and 'hi' and no other key")
        x_set = AdmissibleSetX(
            kind="box", n=lower.n,
            lo=_numbers(bb["lo"], "x_ad.bounds.lo"),
            hi=_numbers(bb["hi"], "x_ad.bounds.hi"),
        )
    else:
        raise ValidationError(f"unknown x_ad kind {xkind!r}")

    ub_block = _block(data, "u_bounds")
    allow_inf = ub_block.get("allow_infinite", False)
    if not isinstance(allow_inf, bool):
        raise ValidationError(f"u_bounds.allow_infinite must be true or false, got {allow_inf!r}")
    bounds = ControlBounds(
        ua=grid_function(grid, ub_block.get("ua"), allow_infinite=allow_inf, name="ua"),
        ub=grid_function(grid, ub_block.get("ub"), allow_infinite=allow_inf, name="ub"),
    )

    tols = _block(data, "tolerances")
    metadata = _block(data, "metadata")

    return ProblemSpec(
        grid=grid,
        sigma=data["sigma"],
        lower=lower,
        upper=upper,
        x_set=x_set,
        bounds=bounds,
        solver_tol=_number(tols.get("solver_tol", 1e-10), "tolerances.solver_tol"),
        active_tol=_number(tols.get("active_tol", 1e-6), "tolerances.active_tol"),
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


def _refuse_constant(name: str):
    """json.load's parse_constant hook: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{name} is not a JSON number")


def read_json(path: str | os.PathLike) -> dict:
    """The JSON object in a file: OSError if the file cannot be read,
    ValidationError if it does not hold a JSON object.  NaN, Infinity and
    -Infinity, which json.load accepts but write_json refuses, are refused."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_refuse_constant)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path} does not hold a JSON object")
    return data


def write_file(path: str | os.PathLike, text: str) -> None:
    """Replace the file at path with text by way of a fresh file beside it, so
    a failed write leaves the old file and no partial one.  The fresh file is
    synced before it replaces the old one, so a crash cannot leave path empty.
    The file gets the mode open(path, "w") gives: 0o666 less the umask."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _numpy_to_json(obj):
    """json.dumps's default hook: numpy arrays as lists, numpy scalars as numbers."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: str | os.PathLike, data) -> None:
    """Write data, numpy arrays and scalars among it, as sorted, indented JSON
    with write_file."""
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False, default=_numpy_to_json)
    write_file(path, text + "\n")


def load_problem(path: str | os.PathLike) -> ProblemSpec:
    """Load and validate a problem configuration file."""
    return problem_from_dict(read_json(path))


def save_problem(spec: ProblemSpec, path: str | os.PathLike) -> None:
    """Write a problem configuration file that load_problem reads back."""
    write_json(path, problem_to_dict(spec))
