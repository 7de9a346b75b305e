"""Lower-level solver against a dense bound-constrained least-squares oracle."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import invoc.lower
from invoc import (
    AdmissibleSetX,
    ControlBounds,
    LowerObjective,
    ProblemSpec,
    UpperObjective,
    build_grid,
    lipschitz_probe,
    solve_lower,
)
from invoc.discretization import inner, norm
from invoc.errors import ConvergenceError, DimensionError, DomainError

from test_stationarity import _w_not_c_fixture
from util_dense import (
    _least_squares_form,
    dense_matrix,
    h_norm,
    lower_value_dense,
    solve_lower_dense,
)


def test_matches_dense_oracle_unconstrained(unit_spec):
    x = np.array([0.35, 0.65])
    sol = solve_lower(unit_spec, x, tol=1e-12)
    y_ref, u_ref = solve_lower_dense(unit_spec, x)
    assert h_norm(unit_spec.grid, sol.u - u_ref) <= 1e-8
    assert h_norm(unit_spec.grid, sol.y - y_ref) <= 1e-8


def test_matches_dense_oracle_with_binding_bounds(bounded_spec):
    x = np.array([0.3, 0.7])
    sol = solve_lower(bounded_spec, x, tol=1e-12)
    y_ref, u_ref = solve_lower_dense(bounded_spec, x)
    assert h_norm(bounded_spec.grid, sol.u - u_ref) <= 1e-8
    # the cap actually binds somewhere, otherwise this test is vacuous
    at_cap = np.isclose(sol.u, bounded_spec.bounds.ub, atol=1e-9)
    assert at_cap.any()
    # multiplier sign at the upper bound: lam >= 0
    assert sol.lam[at_cap].min() >= -1e-9


def test_matches_dense_oracle_pointwise(pointwise_spec):
    x = np.array([0.5, 0.5])
    sol = solve_lower(pointwise_spec, x, tol=1e-12)
    _, u_ref = solve_lower_dense(pointwise_spec, x)
    assert h_norm(pointwise_spec.grid, sol.u - u_ref) <= 1e-8


def test_kkt_residual_certifies_solution(unit_spec):
    sol = solve_lower(unit_spec, np.array([0.3, 0.7]), tol=1e-11)
    assert sol.kkt_residual <= 1e-9
    # recompute the pieces independently of the solver's own bookkeeping
    grid, op = unit_spec.grid, unit_spec.operator
    a = dense_matrix(grid)
    assert norm(grid, a @ sol.y - sol.u) <= 1e-9
    assert norm(grid, unit_spec.sigma * sol.u - sol.p + sol.lam) <= 1e-12
    interior = (sol.u > unit_spec.bounds.ua + 1e-6) & (sol.u < unit_spec.bounds.ub - 1e-6)
    assert np.abs(sol.lam[interior]).max() <= 1e-9


def test_planted_parameter_recovers_tracking_targets(unit_spec):
    # the instance was generated by tracking the solve at x_star
    x_star = np.asarray(unit_spec.metadata["x_star"])
    sol = solve_lower(unit_spec, x_star, tol=1e-12)
    assert h_norm(unit_spec.grid, sol.u - unit_spec.upper.u_o) <= 1e-9
    assert h_norm(unit_spec.grid, sol.y - unit_spec.upper.y_o) <= 1e-9


def test_warm_starts_agree(unit_spec):
    rng = np.random.default_rng(0)
    x = np.array([0.6, 0.4])
    cold = solve_lower(unit_spec, x)
    warm = solve_lower(unit_spec, x, warm_start=rng.standard_normal(16))
    assert h_norm(unit_spec.grid, cold.u - warm.u) <= 1e-9
    again = solve_lower(unit_spec, x, warm_start=cold.u)
    assert again.iterations <= 1


def test_boundary_parameter_is_valid(unit_spec):
    # vertices of the simplex are admissible parameters
    sol = solve_lower(unit_spec, np.array([1.0, 0.0]), tol=1e-11)
    assert sol.kkt_residual <= 1e-9


def test_zero_parameter_gives_zero_control(unit_spec):
    # with x = 0 the objective is pure regularization
    sol = solve_lower(unit_spec, np.array([0.0, 0.0]), tol=1e-12)
    assert h_norm(unit_spec.grid, sol.u) <= 1e-11


def test_parameter_validation(unit_spec):
    with pytest.raises(DomainError):
        solve_lower(unit_spec, np.array([-0.1, 1.1]))
    with pytest.raises(DimensionError):
        solve_lower(unit_spec, np.array([0.2, 0.3, 0.5]))
    with pytest.raises(DomainError):
        solve_lower(unit_spec, np.array([0.5, 0.5]), tol=0.0)
    with pytest.raises(DimensionError):
        solve_lower(unit_spec, np.array([0.5, 0.5]), warm_start=np.zeros(3))


def test_convergence_error_carries_residual(unit_spec, monkeypatch):
    # an unreachable tolerance fails the final check deterministically
    with pytest.raises(ConvergenceError) as err:
        solve_lower(unit_spec, np.array([0.5, 0.5]), tol=1e-300)
    assert err.value.residuals["fixed_point"] > 1e-300
    # so does a kernel starved of band solves, at the cold start u = 0
    monkeypatch.setattr("invoc.lower._MAX_SOLVES", 0)
    with pytest.raises(ConvergenceError) as err:
        solve_lower(unit_spec, np.array([0.5, 0.5]), tol=1e-10)
    assert err.value.residuals["fixed_point"] > 1e-10


def test_kernel_matches_dense_bvls(unit_spec, pointwise_spec, bounded_spec):
    # the exact kernel against scipy's BVLS on the dense reduced problem,
    # with no bound, a pointwise objective, and a binding upper bound
    for spec, x in (
        (unit_spec, np.array([0.3, 0.7])),
        (pointwise_spec, np.array([0.5, 0.5])),
        (bounded_spec, np.array([0.3, 0.7])),
    ):
        sol = solve_lower(spec, x, tol=1e-12)
        y_ref, u_ref = solve_lower_dense(spec, x)
        scale = 1.0 + h_norm(spec.grid, u_ref)
        assert h_norm(spec.grid, sol.u - u_ref) <= 1e-10 * scale
        assert h_norm(spec.grid, sol.y - y_ref) <= 1e-10 * scale
        assert sol.kkt_residual <= 1e-12


def test_lipschitz_probe_reports_deltas(unit_spec):
    out = lipschitz_probe(unit_spec, np.array([0.3, 0.7]), np.array([0.4, 0.6]))
    assert set(out) == {"dx", "du", "dy", "dp", "dlam"}
    assert out["dx"] == pytest.approx(np.sqrt(2) * 0.1)
    # solutions move, and boundedly so
    assert 0.0 < out["du"] <= 100.0 * out["dx"]


def test_cycling_active_sets_still_converge(monkeypatch):
    # on this tight box the plain active-set steps from the cold start
    # u = P(0) alternate between two set pairs; projected Newton must take
    # over and finish
    spec, point, _, _ = _w_not_c_fixture()
    x = point["x"]
    newton_calls = []
    real = invoc.lower._projected_newton

    def counting(*args):
        newton_calls.append(1)
        return real(*args)

    monkeypatch.setattr(invoc.lower, "_projected_newton", counting)
    sol = solve_lower(spec, x, tol=1e-13)
    assert newton_calls  # the fallback actually ran
    _, u_ref = solve_lower_dense(spec, x)
    assert h_norm(spec.grid, sol.u - u_ref) <= 1e-10
    assert sol.kkt_residual <= 1e-12


def _relaxed_dense(spec, x, alpha, c_y, c_u, y_o, u_o):
    """BVLS solution (y, u) of min c_y/2 ||y - y_o||^2 + c_u/2 ||u - u_o||^2
    + alpha f(x, y, u) with y = S u, the relaxed program's u-subproblem."""
    c, d, s = _least_squares_form(spec, x)
    root_y, root_u = np.sqrt(c_y * spec.grid.h), np.sqrt(c_u * spec.grid.h)
    n_nodes = spec.grid.n_nodes
    mat = np.vstack([np.sqrt(alpha) * c, root_y * s, root_u * np.eye(n_nodes)])
    rhs = np.concatenate([np.sqrt(alpha) * d, root_y * y_o, root_u * u_o])
    res = scipy.optimize.lsq_linear(mat, rhs, bounds=(spec.bounds.ua, spec.bounds.ub),
                                    method="bvls", tol=1e-14)
    return s @ res.x, res.x


@given(
    n_nodes=st.integers(4, 128),
    log_sigma=st.floats(-4.0, 0.0),
    kind=st.sampled_from(["target_type", "pointwise"]),
    x=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    shift=st.floats(-20.0, 20.0),
    log_lo=st.floats(-2.0, 2.0),
    log_hi=st.floats(-2.0, 2.0),
    relaxed=st.one_of(st.none(), st.tuples(
        st.floats(-3.0, 3.0), st.floats(0.0, 2.0), st.floats(1e-2, 2.0), st.floats(-20.0, 20.0)
    )),
    data=st.data(),
)
def test_kernel_matches_bvls_across_regimes(
    n_nodes, log_sigma, kind, x, shift, log_lo, log_hi, relaxed, data
):
    # bounds 1e-2 to 1e2 away from a shifted centre, against controls of
    # size about 10, bind on the near side, stay slack on the far side, and
    # need not contain the cold start u = 0; relaxed draws (log alpha, c_y,
    # c_u, size of u_o) for the relaxed program's u-subproblem in place of
    # the lower QP
    grid = build_grid(n_nodes)
    w = grid.nodes
    if kind == "target_type":
        lower = LowerObjective(
            kind="target_type", targets=np.vstack([np.sin(np.pi * w), np.sin(2.0 * np.pi * w)])
        )
    else:
        points = data.draw(st.lists(st.integers(0, n_nodes - 1), min_size=2, max_size=2))
        lower = LowerObjective(kind="pointwise", points=points, target=np.sin(np.pi * w))
    zeros = np.zeros(n_nodes)
    spec = ProblemSpec(
        grid=grid, sigma=10.0**log_sigma, lower=lower,
        upper=UpperObjective(c_y=1.0, y_o=zeros, c_u=1.0, u_o=zeros),
        x_set=AdmissibleSetX(kind="simplex", n=2),
        bounds=ControlBounds(ua=np.full(n_nodes, shift - 10.0**log_lo),
                             ub=np.full(n_nodes, shift + 10.0**log_hi)),
    )
    x = np.array(x)
    if relaxed is None:
        sol = solve_lower(spec, x)
        y, u = sol.y, sol.u
        y_ref, u_ref = solve_lower_dense(spec, x)
        assert sol.kkt_residual <= 1e-9 * (1.0 + h_norm(grid, u_ref))

        def value(y, u):
            return lower_value_dense(spec, x, y, u)
    else:
        log_alpha, c_y, c_u, size = relaxed
        alpha, y_o, u_o = 10.0**log_alpha, 0.3 * np.sin(np.pi * w), size * np.sin(3.0 * np.pi * w)
        low = invoc.lower.lower_qp(spec, x)
        qp = invoc.lower.TrackingQP(d=c_y + alpha * low.d, c=c_y * y_o + alpha * low.c,
                                    s=c_u + alpha * spec.sigma, b=c_u * u_o)
        y, u, _, _ = invoc.lower._solve_qp(spec, qp, spec.solver_tol)
        y_ref, u_ref = _relaxed_dense(spec, x, alpha, c_y, c_u, y_o, u_o)

        def value(y, u):
            return (0.5 * c_y * h_norm(grid, y - y_o) ** 2 + 0.5 * c_u * h_norm(grid, u - u_o) ** 2
                    + alpha * lower_value_dense(spec, x, y, u))
    scale = 1.0 + h_norm(grid, u_ref)
    assert h_norm(grid, u - u_ref) <= 1e-8 * scale
    # the kernel's point is at least as good as BVLS's, up to roundoff
    best = value(y_ref, u_ref)
    assert value(y, u) <= best + 1e-12 * (1.0 + abs(best))
