"""Objective and set primitives: finite-difference oracles, projections,
validation, and serialization round trips."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from invoc import (
    AdmissibleSetX,
    ControlBounds,
    EllipticOperator,
    LowerObjective,
    ProblemSpec,
    UpperObjective,
    build_grid,
    problem_from_dict,
    problem_to_dict,
    load_problem,
    save_problem,
)
from invoc import model
from invoc.discretization import inner, norm
from invoc.errors import (
    DimensionError,
    DomainError,
    InfeasibleError,
    ValidationError,
)
from invoc.model import (
    eval_j,
    eval_j_grad,
    grid_function,
    lower_coefficients,
)

from conftest import make_generated_spec


# ---------------------------------------------------------------- grid_function

def test_grid_function_generators():
    # numbers and arrays are the input formats; the former generator names
    # are unknown strings
    grid = build_grid(8)
    for name in ("sin_pi", "sin_2pi", "const:2.5"):
        with pytest.raises(ValidationError, match="unknown string"):
            grid_function(grid, name)
    assert_allclose(grid_function(grid, 3), np.full(8, 3.0))
    explicit = grid_function(grid, list(range(8)))
    assert_allclose(explicit, np.arange(8.0))


def test_grid_function_infinite_handling():
    grid = build_grid(4)
    v = grid_function(grid, "inf", allow_infinite=True)
    assert np.all(np.isinf(v)) and np.all(v > 0)
    mixed = grid_function(grid, [1.0, "inf", 2.0, "-inf"], allow_infinite=True)
    assert mixed[1] == np.inf and mixed[3] == -np.inf
    with pytest.raises(ValidationError):
        grid_function(grid, "inf")  # infinite not allowed by default
    with pytest.raises(ValidationError):
        grid_function(grid, "sin_42")
    with pytest.raises(ValidationError):
        grid_function(grid, "const:zzz")
    with pytest.raises(ValidationError):
        grid_function(grid, [1.0, "nope", 0.0, 0.0], allow_infinite=True)
    with pytest.raises(DimensionError):
        grid_function(grid, [1.0, 2.0])
    with pytest.raises(ValidationError):
        grid_function(grid, {"a": 1})


# ------------------------------------------------------------- lower objective

def test_lower_objective_validation():
    with pytest.raises(ValidationError):
        LowerObjective(kind="target_type")
    with pytest.raises(ValidationError):
        LowerObjective(kind="target_type", targets=np.zeros(4))
    with pytest.raises(ValidationError):
        LowerObjective(kind="target_type", targets=np.zeros((2, 4)), points=(1,))
    with pytest.raises(ValidationError):
        LowerObjective(kind="pointwise", points=(1, 2))
    with pytest.raises(ValidationError):
        LowerObjective(kind="pointwise", points=(), target=np.zeros(4))
    with pytest.raises(ValidationError):
        LowerObjective(kind="nonsense", targets=np.zeros((2, 4)))


def test_eval_j_zero_at_target():
    grid = build_grid(12)
    yd = np.sin(np.pi * grid.nodes)
    obj = LowerObjective(kind="target_type", targets=np.vstack([yd, 2 * yd]))
    j = eval_j(grid, obj, yd)
    assert j[0] == 0.0
    assert j[1] == pytest.approx(inner(grid, yd, yd))
    assert (eval_j(grid, obj, 3 * yd) >= 0.0).all()


def test_eval_j_pointwise_values():
    grid = build_grid(10)
    target = np.linspace(0.0, 1.0, 10)
    obj = LowerObjective(kind="pointwise", points=(2, 7), target=target)
    y = target.copy()
    y[7] += 0.5
    j = eval_j(grid, obj, y)
    assert j[0] == 0.0
    assert j[1] == pytest.approx(0.25)


@pytest.mark.parametrize("kind", ["target_type", "pointwise"])
def test_eval_j_grad_matches_finite_differences(kind):
    grid = build_grid(14)
    rng = np.random.default_rng(0)
    if kind == "target_type":
        obj = LowerObjective(kind=kind, targets=rng.standard_normal((3, 14)))
    else:
        obj = LowerObjective(kind=kind, points=(1, 6, 12),
                             target=rng.standard_normal(14))
    y = rng.standard_normal(14)
    v = rng.standard_normal(14)
    t = 1e-6
    fd = (eval_j(grid, obj, y + t * v) - eval_j(grid, obj, y - t * v)) / (2 * t)
    assert_allclose(eval_j_grad(grid, obj, y, v), fd, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("kind", ["target_type", "pointwise"])
def test_eval_j_adjoint_identities(kind):
    # <j'(y)* x, v>_h = x . (j'(y) v) and the same transposition for the
    # Hessian form; both sides go through different code paths, and a
    # repeated measurement node must add its components' weights
    grid = build_grid(14)
    rng = np.random.default_rng(1)
    if kind == "target_type":
        objs = [LowerObjective(kind=kind, targets=rng.standard_normal((3, 14)))]
    else:
        target = rng.standard_normal(14)
        objs = [LowerObjective(kind=kind, points=pts, target=target)
                for pts in ((0, 5, 13), (5, 0, 5))]
    y = rng.standard_normal(14)
    for obj in objs:
        _check_adjoint_identities(grid, obj, y, rng)


def _check_adjoint_identities(grid, obj, y, rng):
    # with (d, c) = lower_coefficients(x): j'(y)* x = d y - c, and
    # j''(y)(mu)* x = d mu against finite differences of x . (j'(y) v)
    for _ in range(5):
        v = rng.standard_normal(14)
        x = rng.random(3)
        d, c = lower_coefficients(grid, obj, x)
        lhs = inner(grid, d * y - c, v)
        rhs = float(np.dot(x, eval_j_grad(grid, obj, y, v)))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)
        mu = rng.standard_normal(14)
        hess_fd = float(np.dot(
            x, eval_j_grad(grid, obj, y + 1e-6 * mu, v) - eval_j_grad(grid, obj, y - 1e-6 * mu, v)
        )) / 2e-6
        assert inner(grid, d * mu, v) == pytest.approx(hess_fd, rel=1e-6, abs=1e-8)


def test_eval_j_dimension_checks():
    grid = build_grid(6)
    obj = LowerObjective(kind="target_type", targets=np.zeros((2, 6)))
    with pytest.raises(DimensionError):
        eval_j(grid, obj, np.zeros(5))
    with pytest.raises(DimensionError):
        eval_j_grad(grid, obj, np.zeros(6), np.zeros(7))


# ------------------------------------------------------------- upper objective

def test_upper_objective_value_and_gradients():
    grid = build_grid(9)
    rng = np.random.default_rng(4)
    up = UpperObjective(
        c_y=2.0, y_o=rng.standard_normal(9),
        c_u=0.5, u_o=rng.standard_normal(9), gamma=1.5,
    )
    x = rng.random(3)
    y = rng.standard_normal(9)
    u = rng.standard_normal(9)
    direct = (
        1.0 * inner(grid, y - up.y_o, y - up.y_o)
        + 0.25 * inner(grid, u - up.u_o, u - up.u_o)
        + 0.75 * float(np.dot(x, x))
    )
    assert up.value(grid, x, y, u) == pytest.approx(direct)
    # gradients against centered differences of value
    t = 1e-6
    dy = rng.standard_normal(9)
    fd = (up.value(grid, x, y + t * dy, u) - up.value(grid, x, y - t * dy, u)) / (2 * t)
    assert inner(grid, up.grad_y(y), dy) == pytest.approx(fd, rel=1e-6)
    du = rng.standard_normal(9)
    fd = (up.value(grid, x, y, u + t * du) - up.value(grid, x, y, u - t * du)) / (2 * t)
    assert inner(grid, up.grad_u(u), du) == pytest.approx(fd, rel=1e-6)
    dx = rng.standard_normal(3)
    fd = (up.value(grid, x + t * dx, y, u) - up.value(grid, x - t * dx, y, u)) / (2 * t)
    assert float(np.dot(up.grad_x(x), dx)) == pytest.approx(fd, rel=1e-6)


def test_upper_objective_rejects_negative_weights():
    with pytest.raises(ValidationError):
        UpperObjective(c_y=-1.0, y_o=np.zeros(4), c_u=1.0, u_o=np.zeros(4))


# -------------------------------------------------------------- admissible set

def test_simplex_projection_known_points():
    s = AdmissibleSetX(kind="simplex", n=2)
    assert_allclose(s.project(np.array([2.0, 0.0])), [1.0, 0.0])
    assert_allclose(s.project(np.array([0.6, 0.4])), [0.6, 0.4])
    assert_allclose(s.project(np.array([0.0, 0.0])), [0.5, 0.5])
    s3 = AdmissibleSetX(kind="simplex", n=3)
    assert_allclose(s3.project(np.zeros(3)), np.full(3, 1 / 3))


def test_simplex_projection_variational_inequality():
    # P(x) is the projection iff <x - P(x), v - P(x)> <= 0 for all feasible v
    rng = np.random.default_rng(9)
    for n in (2, 3, 5):
        s = AdmissibleSetX(kind="simplex", n=n)
        for _ in range(20):
            x = 3.0 * rng.standard_normal(n)
            px = s.project(x)
            assert s.contains(px, tol=1e-12)
            probes = [s.sample(rng) for _ in range(10)] + list(np.eye(n))
            for v in probes:
                assert float(np.dot(x - px, v - px)) <= 1e-10


def test_simplex_projection_of_large_entries():
    s3 = AdmissibleSetX(kind="simplex", n=3)
    assert_allclose(s3.project(np.array([1e17, 0.0, 0.0])), [1.0, 0.0, 0.0])
    assert_allclose(s3.project(np.array([1e16, 3.0, 0.0])), [1.0, 0.0, 0.0])
    assert_allclose(s3.project(np.array([1e300, 1e300, 0.0])), [0.5, 0.5, 0.0])
    # moderate points agree with the unshifted sorting formula
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        s = AdmissibleSetX(kind="simplex", n=n)
        for _ in range(50):
            x = 3.0 * rng.standard_normal(n)
            y = np.sort(x)[::-1]
            c = np.cumsum(y) - 1.0
            k = np.arange(1, n + 1)
            rho = k[y - c / k > 0.0][-1]
            assert_allclose(s.project(x), np.maximum(x - c[rho - 1] / rho, 0.0),
                            rtol=0.0, atol=1e-15)


def test_box_projection_and_vertices():
    b = AdmissibleSetX(kind="box", n=2, lo=np.array([0.2, 0.0]), hi=np.array([1.0, 2.0]))
    assert_allclose(b.project(np.array([-1.0, 5.0])), [0.2, 2.0])
    assert b.vertices().shape == (4, 2)
    assert b.contains(np.array([0.5, 1.0]))
    assert not b.contains(np.array([0.1, 1.0]))


def test_projection_rejects_non_finite_points():
    # the simplex projection used to fail an internal assert on these (an
    # IndexError under python -O); the box clip passed NaN through
    sets = (AdmissibleSetX(kind="simplex", n=2),
            AdmissibleSetX(kind="box", n=2, lo=np.zeros(2), hi=np.ones(2)))
    for x_set in sets:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError):
                x_set.project(np.array([0.5, bad]))


def test_admissible_set_validation():
    with pytest.raises(ValidationError):
        AdmissibleSetX(kind="simplex", n=0)
    with pytest.raises(ValidationError):
        AdmissibleSetX(kind="simplex", n=2, lo=np.zeros(2), hi=np.ones(2))
    with pytest.raises(ValidationError):
        AdmissibleSetX(kind="box", n=2)
    with pytest.raises(ValidationError):
        AdmissibleSetX(kind="box", n=2, lo=-np.ones(2), hi=np.ones(2))
    with pytest.raises(ValidationError):
        AdmissibleSetX(kind="box", n=2, lo=np.ones(2), hi=np.zeros(2))
    with pytest.raises(ValidationError):
        AdmissibleSetX(kind="ball", n=2)


def test_sample_is_feasible():
    rng = np.random.default_rng(12)
    s = AdmissibleSetX(kind="simplex", n=4)
    b = AdmissibleSetX(kind="box", n=3, lo=np.zeros(3), hi=np.array([1.0, 2.0, 0.5]))
    for _ in range(50):
        assert s.contains(s.sample(rng), tol=1e-12)
        assert b.contains(b.sample(rng), tol=1e-12)


def test_simplex_normal_cone_residual():
    s = AdmissibleSetX(kind="simplex", n=3)
    interior = np.full(3, 1 / 3)
    # constant vectors are normal at interior points (multiplier of sum = 1)
    assert s.normal_cone_residual(interior, np.full(3, 2.7)) == 0.0
    assert s.normal_cone_residual(interior, np.full(3, -1.3)) == 0.0
    # a tilt is not: the positive gap equals max_i z_i - z . x
    z = np.array([1.0, 0.0, 0.0])
    assert s.normal_cone_residual(interior, z) == pytest.approx(2 / 3)
    # at a vertex, pointing outward along the active constraints is normal
    vertex = np.array([1.0, 0.0, 0.0])
    assert s.normal_cone_residual(vertex, np.array([0.0, -5.0, -7.0])) == 0.0
    with pytest.raises(InfeasibleError):
        s.normal_cone_residual(np.array([0.9, 0.9, 0.9]), z)


def test_box_normal_cone_residual():
    b = AdmissibleSetX(kind="box", n=2, lo=np.zeros(2), hi=np.ones(2))
    assert b.normal_cone_residual(np.array([0.5, 0.5]), np.zeros(2)) == 0.0
    assert b.normal_cone_residual(np.array([1.0, 0.5]), np.array([3.0, 0.0])) == 0.0
    assert b.normal_cone_residual(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(0.5)


# -------------------------------------------------------------- control bounds

def test_control_bounds_validation_names_node():
    ua = np.zeros(5)
    ub = np.ones(5)
    ub[3] = -1.0
    with pytest.raises(ValidationError, match="node 3"):
        ControlBounds(ua=ua, ub=ub)
    with pytest.raises(ValidationError):
        ControlBounds(ua=np.full(4, np.inf), ub=np.full(4, np.inf))
    with pytest.raises(DimensionError):
        ControlBounds(ua=np.zeros(4), ub=np.ones(5))


def test_control_bounds_projection_and_signs():
    bounds = ControlBounds(ua=np.zeros(4), ub=np.ones(4))
    u = bounds.project(np.array([-1.0, 0.5, 2.0, 1.0]))
    assert_allclose(u, [0.0, 0.5, 1.0, 1.0])
    assert bounds.feasible(u, tol=0.0)
    # interior nodes force lam = 0, bound nodes force the matching sign
    lam = np.array([-2.0, 0.0, 3.0, 1.0])
    assert bounds.normal_cone_residual(u, lam) == 0.0
    lam_bad = np.array([-2.0, 0.5, 3.0, 1.0])
    assert bounds.normal_cone_residual(u, lam_bad) == pytest.approx(0.5)
    lam_bad2 = np.array([2.0, 0.0, 3.0, 1.0])  # positive at the lower bound
    assert bounds.normal_cone_residual(u, lam_bad2) == pytest.approx(2.0)
    with pytest.raises(InfeasibleError):
        bounds.normal_cone_residual(np.full(4, 5.0), lam)


def test_inside_needs_every_entry_strictly_within_the_tightest_bounds():
    # a stacked u is inside only if project(u) is u and every row is
    # feasible; against max(ua) and min(ub), so -0.5 and 1.5 in the first
    # column are feasible yet not inside, and NaN is never inside
    bounds = ControlBounds(ua=np.array([-1.0, 0.0]), ub=np.array([2.0, 1.0]))
    u = np.array([[0.5, 0.25], [0.75, 0.5]])
    assert bounds.inside(u) and np.array_equal(bounds.project(u), u)
    for bad in (0.0, 1.0, -0.5, 1.5, np.nan):
        w = u.copy()
        w[1, 0] = bad
        assert not bounds.inside(w)
    assert ControlBounds(ua=np.full(2, -np.inf), ub=np.full(2, np.inf)).inside(u)


def test_one_sided_bounds_allowed():
    bounds = ControlBounds(ua=np.full(3, -np.inf), ub=np.zeros(3))
    assert bounds.feasible(np.full(3, -1e9), tol=0.0)
    assert_allclose(bounds.project(np.array([-5.0, 1.0, 0.0])), [-5.0, 0.0, 0.0])


_SIMPLEX = AdmissibleSetX(kind="simplex", n=2)
_BOX = AdmissibleSetX(kind="box", n=2, lo=np.zeros(2), hi=np.ones(2))
_UPPER = UpperObjective(c_y=1.0, y_o=np.zeros(5), c_u=1.0, u_o=np.zeros(5))
_BOUNDS = ControlBounds(ua=np.zeros(5), ub=np.ones(5))
_GRID = build_grid(5)
_TARGETS = LowerObjective(kind="target_type", targets=np.zeros((2, 5)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: _UPPER.value(_GRID, np.ones(2), np.zeros(4), np.zeros(5)), DimensionError,
     r"state has shape \(4,\), expected \(5,\)"),
    (lambda: _UPPER.value(_GRID, np.ones(2), np.zeros(5), np.zeros(6)), DimensionError,
     r"control has shape \(6,\), expected \(5,\)"),
    (lambda: _SIMPLEX.project(np.ones(3)), DimensionError, r"point has shape \(3,\)"),
    (lambda: _BOX.project(np.ones((2, 2))), DimensionError, r"point has shape \(2, 2\)"),
    (lambda: _SIMPLEX.normal_cone_residual(np.full(2, 0.5), np.ones(3)), DimensionError,
     r"dual vector has shape \(3,\)"),
    (lambda: _BOX.normal_cone_residual(np.full(2, 0.5), np.ones(1)), DimensionError,
     r"dual vector has shape \(1,\)"),
    (lambda: _BOUNDS.normal_cone_residual(np.full(5, 0.5), np.zeros(4)), DimensionError,
     r"multiplier has shape \(4,\), expected \(5,\)"),
    (lambda: norm(_GRID, np.ones((5, 2))), DimensionError, r"u has shape \(5, 2\)"),
    (lambda: inner(_GRID, np.ones(5), np.ones((5, 2))), DimensionError, r"v has shape \(5, 2\)"),
    (lambda: eval_j(_GRID, _TARGETS, np.ones((5, 2))), DimensionError, r"state has shape \(5, 2\)"),
    (lambda: eval_j_grad(_GRID, _TARGETS, np.ones((5, 2)), np.ones(5)), DimensionError,
     r"state has shape \(5, 2\)"),
    (lambda: _BOUNDS.feasible(np.zeros(6), tol=0.0), DimensionError, r"control has shape \(6,\)"),
    (lambda: _SIMPLEX.normal_cone_residual(np.full(3, 0.5), np.ones(2)), DimensionError,
     r"point has shape \(3,\)"),
    (lambda: EllipticOperator(_GRID).apply(["a"] * 5), ValidationError,
     "state is not an array of numbers"),
], ids=["upper-short-state", "upper-long-control", "simplex-project", "box-project",
        "simplex-normal-cone", "box-normal-cone", "bounds-short-multiplier", "norm-matrix",
        "inner-matrix", "eval-j-matrix", "eval-j-grad-matrix", "bounds-long-feasible",
        "simplex-normal-cone-point", "apply-text"])
def test_primitives_refuse_a_wrong_shape(call, error, message):
    # _vector names the argument: an N x 2 array is not a grid vector, and
    # a point of the wrong length is refused before the feasibility test
    with pytest.raises(error, match=message) as err:
        call()
    assert type(err.value) is error


# ----------------------------------------------------------------- problem spec

def test_problem_spec_validation(unit_spec):
    with pytest.raises(ValidationError, match="sigma"):
        ProblemSpec(
            grid=unit_spec.grid, sigma=0.0, lower=unit_spec.lower,
            upper=unit_spec.upper, x_set=unit_spec.x_set, bounds=unit_spec.bounds,
        )
    # dimension cross-checks: wrong target width
    grid = build_grid(8)
    with pytest.raises(DimensionError):
        ProblemSpec(
            grid=grid, sigma=1.0,
            lower=LowerObjective(kind="target_type", targets=np.zeros((2, 9))),
            upper=UpperObjective(c_y=0.0, y_o=np.zeros(8), c_u=0.0, u_o=np.zeros(8)),
            x_set=AdmissibleSetX(kind="simplex", n=2),
            bounds=ControlBounds(ua=np.full(8, -1.0), ub=np.full(8, 1.0)),
        )


@pytest.mark.parametrize("name", ["sigma", "solver_tol", "active_tol", "c_y", "c_u", "gamma"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0, "1", None])
def test_problem_spec_refuses_a_non_finite_or_non_positive_scalar(name, value):
    # an infinite sigma or tolerance would pass every fixed-point check
    # vacuously; a non-number is refused by name, not by a bare TypeError.
    # The upper objective's weights may be 0 but not infinite
    spec = make_generated_spec(16, (0.3, 0.7))
    weight = name in ("c_y", "c_u", "gamma")

    def change():
        if weight:
            return replace(spec, upper=replace(spec.upper, **{name: value}))
        return replace(spec, **{name: value})

    if weight and value == 0.0:
        assert getattr(change().upper, name) == 0.0
        return
    reason = ("a number" if value is None or isinstance(value, str)
              else "nonnegative and finite" if weight else "positive and finite")
    with pytest.raises(ValidationError, match=f"{name} must be {reason}"):
        change()


def test_problem_round_trip_dict(unit_spec):
    data = problem_to_dict(unit_spec)
    back = problem_from_dict(data)
    assert back.grid.n_nodes == unit_spec.grid.n_nodes
    assert back.sigma == unit_spec.sigma
    assert_allclose(back.lower.targets, unit_spec.lower.targets)
    assert_allclose(back.upper.y_o, unit_spec.upper.y_o)
    assert_allclose(back.bounds.ua, unit_spec.bounds.ua)
    assert back.x_set.kind == unit_spec.x_set.kind
    assert back.metadata == unit_spec.metadata


def test_problem_metadata_takes_any_key(unit_spec):
    data = problem_to_dict(unit_spec)
    data["metadata"] = {"note": "any key", "x_star": [0.3, 0.7]}
    assert problem_from_dict(data).metadata == data["metadata"]


def test_problem_round_trip_file(tmp_path, pointwise_spec):
    path = tmp_path / "prob.json"
    save_problem(pointwise_spec, path)
    back = load_problem(path)
    assert back.lower.kind == "pointwise"
    assert back.lower.points == pointwise_spec.lower.points
    assert_allclose(back.lower.target, pointwise_spec.lower.target)
    assert back.upper.gamma == pointwise_spec.upper.gamma


def test_problem_round_trip_file_with_infinite_bounds(tmp_path, unit_spec):
    ub = np.ones(unit_spec.grid.n_nodes)
    ub[::2] = np.inf
    spec = replace(unit_spec, bounds=ControlBounds(ua=np.full(ub.shape, -np.inf), ub=ub))
    path = tmp_path / "prob.json"
    save_problem(spec, path)
    written = json.loads(path.read_text())["u_bounds"]
    assert written["allow_infinite"] is True
    assert set(written["ua"]) == {"-inf"} and written["ub"][:2] == ["inf", 1.0]
    back = load_problem(path)
    np.testing.assert_array_equal(back.bounds.ua, spec.bounds.ua)
    np.testing.assert_array_equal(back.bounds.ub, spec.bounds.ub)


def test_problem_from_dict_rejects_garbage():
    with pytest.raises(ValidationError):
        problem_from_dict({"n_nodes": 8})
    with pytest.raises(ValidationError):
        problem_from_dict([1, 2, 3])


def test_problem_from_dict_needs_allow_infinite_for_infinite_bounds(unit_spec):
    data = problem_to_dict(unit_spec)
    data["u_bounds"] = dict(data["u_bounds"], ua="-inf")
    with pytest.raises(ValidationError, match="ua: infinite values"):
        problem_from_dict(data)
    data["u_bounds"]["allow_infinite"] = True
    assert np.isneginf(problem_from_dict(data).bounds.ua).all()


# (block or None for the top level, key, value, message)
_MALFORMED = [
    ("grid", "N", "abc", "grid.N must be an integer"),
    ("grid", "N", 3.7, "grid.N must be an integer"),
    (None, "sigma", "abc", "sigma must be a number"),
    (None, "sigma", None, "sigma must be a number"),
    ("upper_objective", "c_y", "x", "upper_objective.c_y must be a number"),
    ("tolerances", "solver_tol", "a", "tolerances.solver_tol must be a number"),
    (None, "x_ad", [], "x_ad must be an object"),
    (None, "lower_objective", [], "lower_objective must be an object"),
    (None, "tolerances", 1e-10, "tolerances must be an object"),
    ("lower_objective", "points", ["a"], "lower_objective.points must be an integer"),
    ("lower_objective", "points", [1.5], "lower_objective.points must be an integer"),
    ("u_bounds", "allow_infinite", "false", "u_bounds.allow_infinite must be true or false"),
]


@pytest.mark.parametrize("block, key, value, message", _MALFORMED)
def test_problem_from_dict_names_a_malformed_field(pointwise_spec, block, key, value, message):
    data = problem_to_dict(pointwise_spec)
    (data if block is None else data[block])[key] = value
    with pytest.raises(ValidationError, match=message):
        problem_from_dict(data)


def test_problem_from_dict_rejects_non_numeric_box_bounds(box_unit_spec):
    data = problem_to_dict(box_unit_spec)
    data["x_ad"]["bounds"]["hi"] = [1.0, "a"]
    with pytest.raises(ValidationError, match="x_ad.bounds.hi must be a number"):
        problem_from_dict(data)


_DELETE = object()

# (fixture, path of keys into problem_to_dict's output, new value or _DELETE,
# error class, the message's start, which names the field)
_REFUSED = [
    ("unit_spec", ("u_bounds",), _DELETE, ValidationError, "missing problem key 'u_bounds'"),
    ("unit_spec", ("lower_objective", "targets"), "abc", ValidationError,
     "target_type needs a nonempty 'targets' list"),
    ("unit_spec", ("lower_objective", "targets"), [], ValidationError,
     "target_type needs a nonempty 'targets' list"),
    ("pointwise_spec", ("lower_objective", "points"), 4, ValidationError,
     "pointwise needs a nonempty 'points' list"),
    ("pointwise_spec", ("lower_objective", "points"), [], ValidationError,
     "pointwise needs a nonempty 'points' list"),
    ("unit_spec", ("lower_objective", "kind"), "quadratic", ValidationError,
     "unknown lower objective kind 'quadratic'"),
    ("unit_spec", ("upper_objective", "y_o"), [True] * 16, ValidationError,
     "y_o: bad array entry True"),
    ("unit_spec", ("upper_objective", "u_o"), [None] * 16, ValidationError,
     "u_o: bad array entry None"),
    ("pointwise_spec", ("lower_objective", "points"), [4, 16], ValidationError,
     "measurement nodes must lie in [0, 16)"),
    ("box_unit_spec", ("x_ad", "bounds", "lo"), 0.0, ValidationError,
     "x_ad.bounds.lo must be a list of numbers"),
    ("box_unit_spec", ("x_ad", "bounds", "lo"), [0.0, 0.0, 0.0], DimensionError,
     "box bounds must have length n"),
    ("box_unit_spec", ("x_ad", "bounds", "hi"), _DELETE, ValidationError,
     "box x_ad needs bounds with 'lo' and 'hi'"),
    ("unit_spec", ("x_ad", "kind"), "ball", ValidationError, "unknown x_ad kind 'ball'"),
    # a misspelled key in any block but metadata, which would load silently
    # with the key's default in its place
    ("unit_spec", ("grid", "n"), 16, ValidationError, "unknown grid keys: ['n']"),
    ("unit_spec", ("lower_objective", "targts"), [], ValidationError,
     "unknown lower_objective keys: ['targts']"),
    ("unit_spec", ("upper_objective", "gama"), 0.5, ValidationError,
     "unknown upper_objective keys: ['gama']"),
    ("unit_spec", ("x_ad", "bound"), {}, ValidationError, "unknown x_ad keys: ['bound']"),
    ("box_unit_spec", ("x_ad", "bounds", "hl"), [1.0, 1.0], ValidationError,
     "box x_ad needs bounds with 'lo' and 'hi' and no other key"),
    ("unit_spec", ("u_bounds", "lb"), [0.0] * 16, ValidationError,
     "unknown u_bounds keys: ['lb']"),
    ("unit_spec", ("tolerances", "solver_tl"), 1e-3, ValidationError,
     "unknown tolerances keys: ['solver_tl']"),
]


@pytest.mark.parametrize("fixture, keys, value, error, message", _REFUSED)
def test_problem_from_dict_refuses_a_malformed_block(request, fixture, keys, value, error, message):
    data = problem_to_dict(request.getfixturevalue(fixture))
    block = data
    for key in keys[:-1]:
        block = block[key]
    if value is _DELETE:
        del block[keys[-1]]
    else:
        block[keys[-1]] = value
    with pytest.raises(error) as err:
        problem_from_dict(data)
    assert type(err.value) is error and str(err.value).startswith(message)


def _spec_with(**changes):
    """A pointwise instance on 4 nodes, with keyword changes to its parts."""
    grid = build_grid(4)
    parts = dict(
        grid=grid, sigma=1.0,
        lower=LowerObjective(kind="pointwise", points=(1, 2), target=np.zeros(4)),
        upper=UpperObjective(c_y=1.0, y_o=np.zeros(4), c_u=1.0, u_o=np.zeros(4)),
        x_set=AdmissibleSetX(kind="simplex", n=2),
        bounds=ControlBounds(ua=np.full(4, -1.0), ub=np.full(4, 1.0)),
    )
    parts.update(changes)
    return ProblemSpec(**parts)


_CONSTRUCTOR_REFUSALS = [
    (lambda: grid_function(build_grid(4), [0.0, math.nan, 0.0, 0.0], name="y_o"),
     ValidationError, "y_o: contains NaN"),
    (lambda: LowerObjective(kind="pointwise", points=(1,), target=np.zeros(4),
                            targets=np.zeros((1, 4))),
     ValidationError, "pointwise objective takes no target stack"),
    (lambda: AdmissibleSetX(kind="box", n=2, lo=np.zeros(2), hi=np.array([1.0, np.inf])),
     ValidationError, "box bounds must be finite"),
    (lambda: ControlBounds(ua=np.array([-1.0, np.nan]), ub=np.ones(2)),
     ValidationError, "control bounds contain NaN"),
    (lambda: _spec_with(lower=LowerObjective(kind="pointwise", points=(1, 2),
                                             target=np.zeros(5))),
     DimensionError, "desired state does not match the grid"),
    (lambda: _spec_with(upper=UpperObjective(c_y=1.0, y_o=np.zeros(5), c_u=1.0,
                                             u_o=np.zeros(4))),
     DimensionError, "y_o does not match the grid"),
    (lambda: _spec_with(upper=UpperObjective(c_y=1.0, y_o=np.zeros(4), c_u=1.0,
                                             u_o=np.zeros(3))),
     DimensionError, "u_o does not match the grid"),
    (lambda: _spec_with(bounds=ControlBounds(ua=np.full(5, -1.0), ub=np.full(5, 1.0))),
     DimensionError, "control bounds do not match the grid"),
    (lambda: _spec_with(x_set=AdmissibleSetX(kind="simplex", n=3)),
     DimensionError, "admissible set dimension 3 does not match objective dimension 2"),
    # non-finite data, which problem_from_dict refuses too: a NaN in y_o
    # would make grid_search return the value nan without an error
    (lambda: _spec_with(upper=UpperObjective(c_y=1.0, y_o=np.array([0.0, math.nan, 0.0, 0.0]),
                                             c_u=1.0, u_o=np.zeros(4))),
     ValidationError, "y_o must be finite"),
    (lambda: _spec_with(upper=UpperObjective(c_y=1.0, y_o=np.zeros(4), c_u=1.0,
                                             u_o=np.array([0.0, math.inf, 0.0, 0.0]))),
     ValidationError, "u_o must be finite"),
    (lambda: _spec_with(lower=LowerObjective(kind="pointwise", points=(1, 2),
                                             target=np.array([0.0, 0.0, math.nan, 0.0]))),
     ValidationError, "target must be finite"),
    (lambda: _spec_with(lower=LowerObjective(kind="target_type", targets=np.full((2, 4), -math.inf))),
     ValidationError, "targets must be finite"),
    (lambda: AdmissibleSetX(kind="simplex", n=2.0), ValidationError,
     "parameter dimension must be an integer"),
    (lambda: AdmissibleSetX(kind="simplex", n=0), DomainError, "parameter dimension must be at least 1"),
    (lambda: LowerObjective(kind="pointwise", points=(1.7, 2.2), target=np.zeros(4)),
     ValidationError, "measurement node must be an integer, got 1.7"),
    # non-numeric arrays, which numpy would refuse with a bare ValueError
    (lambda: UpperObjective(c_y=1.0, y_o=["a"] * 4, c_u=1.0, u_o=np.zeros(4)),
     ValidationError, "y_o is not an array of numbers"),
    (lambda: LowerObjective(kind="target_type", targets=[["a", "b"]]),
     ValidationError, "targets is not an array of numbers"),
    (lambda: ControlBounds(ua=["a"], ub=[1.0]), ValidationError, "ua is not an array of numbers"),
    (lambda: AdmissibleSetX(kind="box", n=2, lo=["a", "b"], hi=np.ones(2)),
     ValidationError, "lo is not an array of numbers"),
]


@pytest.mark.parametrize("build, error, message", _CONSTRUCTOR_REFUSALS, ids=[
    "nan-grid-function", "pointwise-with-targets", "infinite-box", "nan-control-bounds",
    "pointwise-target-length", "y_o-length", "u_o-length", "bounds-length", "x_set-dimension",
    "nan-y_o", "inf-u_o", "nan-target", "inf-targets", "float-dimension", "zero-dimension",
    "float-node", "text-y_o", "text-targets", "text-control-bounds", "text-box",
])
def test_constructors_refuse_malformed_parts(build, error, message):
    assert _spec_with().n == 2  # the unchanged parts make a valid instance
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value).startswith(message)


def test_write_json_writes_numpy_arrays_and_scalars(tmp_path):
    path = tmp_path / "data.json"
    model.write_json(path, {"a": np.arange(2.0), "i": np.int64(3), "b": np.bool_(True),
                            "f": np.float32(0.5), "g": np.float64(0.1), "t": (1, 2)})
    assert json.loads(path.read_text()) == {
        "a": [0.0, 1.0], "i": 3, "b": True, "f": 0.5, "g": 0.1, "t": [1, 2]}
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        model.write_json(path, {"s": {1}})


def test_load_problem_missing_and_malformed(tmp_path):
    with pytest.raises(OSError):
        load_problem(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_problem(bad)


@pytest.mark.parametrize("block, key", [(None, "sigma"), ("tolerances", "solver_tol")])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_problem_refuses_non_standard_literals(tmp_path, pointwise_spec, block, key, literal):
    # json.load reads these literals, which write_json never writes; an
    # infinite solver_tol would pass every fixed-point check vacuously
    data = problem_to_dict(pointwise_spec)
    (data if block is None else data[block])[key] = "@"
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(data).replace('"@"', literal))
    with pytest.raises(ValidationError, match=re.escape(f"{path} is not valid JSON: {literal} ")):
        load_problem(path)


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "does not hold a JSON object"),
    ("\udcff", "is not valid JSON"),  # written with surrogateescape: byte 0xff
])
def test_read_json_takes_only_a_json_object(tmp_path, text, message):
    path = tmp_path / "data.json"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ValidationError, match=message):
        model.read_json(path)


@pytest.mark.parametrize("target, attribute", [
    (model.json.JSONEncoder, "iterencode"),  # before any byte is written
    (model.os, "replace"),  # after the fresh file is complete
])
def test_failed_save_keeps_the_previous_file(
    tmp_path, unit_spec, pointwise_spec, monkeypatch, target, attribute
):
    path = tmp_path / "prob.json"
    save_problem(unit_spec, path)
    before = path.read_bytes()

    def refuse(*args, **kwargs):
        raise OSError("refused")

    monkeypatch.setattr(target, attribute, refuse)
    with pytest.raises(OSError, match="refused"):
        save_problem(pointwise_spec, path)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]


def test_write_that_fails_partway_leaves_no_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    model.write_file(path, "old\n")
    real_fdopen = model.os.fdopen
    written = []

    def half_then_full_disk(fd, *args, **kwargs):
        fh = real_fdopen(fd, *args, **kwargs)
        real_write = fh.write

        def write(text):
            real_write(text[:len(text) // 2])
            fh.flush()
            written.append(model.os.fstat(fd).st_size)
            raise OSError(28, "No space left on device")

        fh.write = write
        return fh

    monkeypatch.setattr(model.os, "fdopen", half_then_full_disk)
    with pytest.raises(OSError, match="No space left"):
        model.write_file(path, "x" * 10_000)
    assert written == [5_000]
    assert path.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == [path]
