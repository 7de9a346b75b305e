"""Relaxation path driver: schedules, recombination, failure handling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from invoc import (
    ProblemSpec,
    UpperObjective,
    extract_candidate,
    run_path,
    solve_lower,
    trace_rows,
)
from invoc.discretization import norm
from invoc.errors import ConvergenceError, InsufficientPathError, ValidationError

from util_dense import (
    dense_matrix,
    lower_value_dense,
    phi_dense,
    simplex_points,
    solve_lower_dense,
    upper_value_dense,
)


def _dense_state(spec, u):
    return np.linalg.solve(dense_matrix(spec.grid), u)


@pytest.fixture(scope="module")
def slack_spec(unit_spec):
    # F ignores x and tracks an interior control, so the gap constraint
    # never binds at huge eps and the initial point is already stationary
    n_nodes = unit_spec.grid.n_nodes
    u_o = 0.2 * np.sin(np.pi * unit_spec.grid.nodes)
    return ProblemSpec(
        grid=unit_spec.grid, sigma=unit_spec.sigma, lower=unit_spec.lower,
        upper=UpperObjective(c_y=0.0, y_o=np.zeros(n_nodes), c_u=1.0, u_o=u_o),
        x_set=unit_spec.x_set, bounds=unit_spec.bounds,
    )


@pytest.fixture(scope="module")
def unit_trace(unit_spec):
    return run_path(unit_spec, eps0=1e-2, ratio=0.5, steps=6)


def test_schedule_validation(unit_spec):
    with pytest.raises(ValidationError):
        run_path(unit_spec, eps0=0.0)
    with pytest.raises(ValidationError):
        run_path(unit_spec, eps0=-1.0)
    with pytest.raises(ValidationError):
        run_path(unit_spec, ratio=0.0)
    with pytest.raises(ValidationError):
        run_path(unit_spec, ratio=1.0)
    with pytest.raises(ValidationError):
        run_path(unit_spec, steps=1)


def test_inactive_constraint_is_a_fixed_point(slack_spec):
    trace = run_path(slack_spec, eps0=1e6, ratio=0.5, steps=2)
    assert trace.converged
    assert len(trace.records) == 3
    first = trace.records[0]
    for rec in trace.records:
        assert rec.relaxed.alpha == 0.0
        assert np.array_equal(rec.relaxed.x, first.relaxed.x)
        assert np.array_equal(rec.relaxed.u, first.relaxed.u)
        # zero recombination at alpha = 0
        assert np.all(rec.mu == 0.0) and np.all(rec.w == 0.0)
        assert_allclose(rec.rho, rec.relaxed.p)
        assert_allclose(rec.xi, rec.relaxed.lam)


def test_geometric_schedule_and_record_indexing(unit_trace):
    assert len(unit_trace.records) == 7
    for k, rec in enumerate(unit_trace.records):
        assert rec.k == k
        assert rec.eps == pytest.approx(1e-2 * 0.5**k)
    eps_list = [r.eps for r in unit_trace.records]
    assert all(a > b for a, b in zip(eps_list, eps_list[1:]))


def test_feasibility_bound_every_step(unit_spec, unit_trace):
    sigma = unit_spec.sigma
    for rec in unit_trace.records:
        assert 0.5 * sigma * rec.du_lower**2 <= rec.eps + 1e-8
        # same bound in its proof form
        assert rec.du_lower <= np.sqrt(2.0 * (rec.eps + 1e-8) / sigma)


def test_cauchy_diagnostics_and_limit_block(unit_spec, unit_trace):
    trace = unit_trace
    assert trace.converged
    assert len(trace.cauchy["dx"]) == 6
    assert len(trace.cauchy["du"]) == 6
    assert len(trace.cauchy["alpha"]) == 7
    assert trace.cauchy["final_dx"] == trace.cauchy["dx"][-1]
    assert set(trace.limit) == {
        "x", "y", "u", "z", "mu", "w", "rho", "xi", "p", "lam",
        "eps_final", "upper_value", "cauchy_dx", "cauchy_du",
    }
    assert trace.limit["eps_final"] == pytest.approx(1e-2 * 0.5**6)
    assert trace.multipliers_bounded
    assert 0.0 <= trace.multiplier_sup < 1e8
    # shallow run: the coarseness warning must fire
    assert not trace.deep_enough
    assert any("coarse" in w for w in trace.warnings)


def test_limit_recentered_on_solution_map(unit_spec, unit_trace):
    limit = unit_trace.limit
    low = solve_lower(unit_spec, limit["x"], tol=1e-12)
    assert norm(unit_spec.grid, limit["u"] - low.u) <= 1e-8
    assert norm(unit_spec.grid, limit["y"] - low.y) <= 1e-8
    assert norm(unit_spec.grid, limit["p"] - low.p) <= 1e-8
    # recentered pair satisfies the state equation exactly
    res = unit_spec.operator.apply(limit["y"]) - limit["u"]
    assert norm(unit_spec.grid, res) <= 1e-10


def test_recombination_identities(unit_spec, unit_trace):
    # mu = alpha (y - psi_y), w = alpha (u - psi_u), rho = p - alpha phi_p,
    # xi = lam - alpha phi_lam, all against a fresh tight lower solve
    rec = unit_trace.records[-1]
    sol = rec.relaxed
    low = solve_lower(unit_spec, sol.x, tol=1e-13)
    g = unit_spec.grid
    assert norm(g, rec.mu - sol.alpha * (sol.y - low.y)) <= 1e-7
    assert norm(g, rec.w - sol.alpha * (sol.u - low.u)) <= 1e-7
    assert norm(g, rec.rho - (sol.p - sol.alpha * low.p)) <= 1e-7
    assert norm(g, rec.xi - (sol.lam - sol.alpha * low.lam)) <= 1e-7


def test_upper_values_nondecreasing_on_clean_run(unit_trace):
    # shrinking feasible sets push the optimum up; violations would have
    # been recorded as local-minimum warnings
    vals = [r.relaxed.upper_value for r in unit_trace.records]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-6 * (1.0 + abs(a))
    assert not any("local-minimum" in w for w in unit_trace.warnings)


def test_extract_candidate_shapes(unit_trace):
    point, mult = extract_candidate(unit_trace)
    assert set(point) == {"x", "y", "u"}
    assert set(mult) == {"z", "mu", "w", "rho", "xi", "p", "lam"}
    assert_allclose(point["x"], unit_trace.limit["x"])
    assert_allclose(point["u"], unit_trace.limit["u"])


def test_failure_marker_keeps_partial_trace(unit_spec, monkeypatch):
    from invoc import path as path_mod

    real = path_mod.solve_relaxed

    def flaky(spec, eps, **kwargs):
        if eps < 6e-3:
            raise ConvergenceError("forced failure", residuals={"x": 1.0})
        return real(spec, eps, **kwargs)

    monkeypatch.setattr(path_mod, "solve_relaxed", flaky)
    trace = run_path(unit_spec, eps0=1e-2, ratio=0.5, steps=4)
    assert not trace.converged
    assert len(trace.records) == 1
    assert trace.failure["k"] == 1
    assert trace.failure["eps"] == pytest.approx(5e-3)
    assert "forced failure" in trace.failure["message"]
    assert trace.failure["residuals"] == {"x": 1.0}
    assert trace.limit == {}
    with pytest.raises(InsufficientPathError):
        extract_candidate(trace)


def test_trace_rows_export(unit_trace):
    rows = trace_rows(unit_trace)
    assert len(rows) == 7
    for k, row in enumerate(rows):
        assert row["k"] == k
        for key in ("eps", "upper_value", "gap", "alpha", "du_lower"):
            assert key in row
        assert any(key.startswith("res_") for key in row)


@pytest.mark.parametrize("name", ["bounded_spec", "tilted_spec"])
def test_deep_path_with_large_multipliers(name, request):
    # alpha grows past 1e5 on these instances; every level must still meet
    # its gap against a dense lower solve, which needs gaps resolved far
    # below the roundoff of f - phi, and the limit must beat the dense
    # reduced objective on the resolution-100 simplex lattice
    spec = request.getfixturevalue(name)
    trace = run_path(spec, steps=40, feas_tol=1e-12, stat_tol=1e-7, comp_tol=1e-12)
    assert trace.failure is None and len(trace.records) == 41
    assert max(r.relaxed.alpha for r in trace.records) > 1e5
    for rec in trace.records:
        sol = rec.relaxed
        gap = (lower_value_dense(spec, sol.x, _dense_state(spec, sol.u), sol.u)
               - phi_dense(spec, sol.x))
        assert gap <= rec.eps + 1e-12 + 1e-15
    lattice = []
    for x in simplex_points(100):
        y, u = solve_lower_dense(spec, x)
        lattice.append(upper_value_dense(spec, x, y, u))
    assert min(lattice) - 1e-3 <= trace.limit["upper_value"] <= min(lattice) + 1e-9


def test_default_path_on_pointwise_instance(pointwise_spec):
    # alpha is about 3e-3 at eps 0.5 here: a multiplier that only passes
    # |alpha (eps - gap)| <= comp_tol can be a few percent off, which moves
    # the envelope gradient by more than stat_tol
    trace = run_path(pointwise_spec)
    assert trace.failure is None and len(trace.records) == 21
    assert 0.0 < trace.records[1].relaxed.alpha < 1e-2
    for rec in trace.records:
        assert rec.relaxed.converged
        assert rec.relaxed.residuals["x"] <= 1e-6
