"""Relaxed-program solver: inactive-constraint limits, a dense brute-force
oracle on a tiny instance, and independent KKT residual checks."""

import numpy as np
import pytest

from invoc import (
    AdmissibleSetX,
    ControlBounds,
    LowerObjective,
    ProblemSpec,
    RelaxedSolution,
    UpperObjective,
    build_grid,
    relaxed_kkt_residuals,
    solve_lower,
    solve_relaxed,
)
from invoc.discretization import inner, norm
from invoc.errors import ConvergenceError, DomainError
from invoc.value import lower_objective_value, phi

from util_dense import dense_matrix, h_inner, phi_dense, simplex_points, upper_value_dense


@pytest.fixture(scope="module")
def tilted_sol(tilted_spec):
    # one genuinely active solve shared by the tilted-instance tests
    return solve_relaxed(tilted_spec, eps=1e-2)


def _dummy_warm(spec, x, u, alpha=0.0, eps=1.0):
    n_nodes = spec.grid.n_nodes
    return RelaxedSolution(
        eps=eps, x=np.asarray(x, float), y=np.zeros(n_nodes), u=np.asarray(u, float),
        alpha=alpha, z=np.zeros(spec.n), p=np.zeros(n_nodes), lam=np.zeros(n_nodes),
        upper_value=0.0, gap=0.0, inner_iterations=0, outer_iterations=0,
        converged=False,
    )


def test_huge_eps_returns_control_target(unit_spec):
    # with the gap constraint slack everywhere and F = (c_u/2)||u - u_o||^2,
    # the solver must land on u_o itself
    n_nodes = unit_spec.grid.n_nodes
    u_o = 0.2 * np.sin(np.pi * unit_spec.grid.nodes)
    spec = ProblemSpec(
        grid=unit_spec.grid, sigma=unit_spec.sigma, lower=unit_spec.lower,
        upper=UpperObjective(c_y=0.0, y_o=np.zeros(n_nodes), c_u=1.0, u_o=u_o),
        x_set=unit_spec.x_set, bounds=unit_spec.bounds,
    )
    warm = _dummy_warm(spec, x=[0.7, 0.3], u=np.ones(n_nodes), eps=1e6)
    sol = solve_relaxed(spec, eps=1e6, warm=warm)
    assert sol.converged
    assert sol.alpha == 0.0
    assert norm(spec.grid, sol.u - u_o) <= 1e-6
    assert sol.gap <= 1e6


def test_upper_objective_without_control_terms(unit_spec):
    # with c_y = c_u = 0, F = (gamma/2)|x|^2 ignores (y, u): the alpha = 0
    # subproblem is singular, any control is optimal, and x must reach the
    # simplex point of least norm
    n_nodes = unit_spec.grid.n_nodes
    spec = ProblemSpec(
        grid=unit_spec.grid, sigma=unit_spec.sigma, lower=unit_spec.lower,
        upper=UpperObjective(c_y=0.0, y_o=np.zeros(n_nodes), c_u=0.0,
                             u_o=np.zeros(n_nodes), gamma=1.0),
        x_set=unit_spec.x_set, bounds=unit_spec.bounds,
    )
    warm = _dummy_warm(spec, x=[0.9, 0.1], u=np.zeros(n_nodes))
    sol = solve_relaxed(spec, eps=1e-3, warm=warm)
    assert sol.converged and sol.alpha == 0.0
    np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-7)
    assert sol.gap <= 1e-3
    assert max(sol.residuals.values()) <= 1e-8


def test_gap_bound_holds_at_solution(unit_spec, tilted_spec, tilted_sol):
    # feasibility of the relaxed program, measured against a fresh lower
    # solve rather than the solver's own value samples
    cases = [(unit_spec, 1e-3, solve_relaxed(unit_spec, eps=1e-3)),
             (tilted_spec, 1e-2, tilted_sol)]
    for spec, eps, sol in cases:
        low = solve_lower(spec, sol.x, tol=1e-12)
        gap = (
            lower_objective_value(spec, sol.x, sol.y, sol.u)
            - lower_objective_value(spec, sol.x, low.y, low.u)
        )
        assert gap <= eps + 1e-8
        # the half-sigma distance bound implied by optimality of the lower level
        du = norm(spec.grid, sol.u - low.u)
        assert 0.5 * spec.sigma * du * du <= eps + 1e-8


def test_solution_is_feasible_in_sets(tilted_spec, tilted_sol):
    sol = tilted_sol
    assert tilted_spec.x_set.contains(sol.x, tol=1e-9)
    assert tilted_spec.bounds.feasible(sol.u, tol=1e-12)
    assert norm(tilted_spec.grid, tilted_spec.operator.apply(sol.y) - sol.u) <= 1e-10


def _brute_force_upper(spec, eps, resolution=100):
    """Lattice-x exhaustive minimum of F over the eps-relaxed feasible set.

    For fixed x the feasible controls form a convex set and F is a convex
    quadratic, so the constrained minimum is found by bisection on the
    multiplier of the gap constraint; everything runs on dense matrices.
    """
    grid = spec.grid
    n_nodes = grid.n_nodes
    s = np.linalg.solve(dense_matrix(grid), np.eye(n_nodes))
    sts = s.T @ s
    up = spec.upper
    targets = spec.lower.targets

    def u_of_eta(x, eta):
        sx = float(np.sum(x))
        xt = x @ targets
        lhs = (
            up.c_y * sts + up.c_u * np.eye(n_nodes)
            + eta * (2.0 * sx * sts + spec.sigma * np.eye(n_nodes))
        )
        rhs = up.c_y * (s.T @ up.y_o) + up.c_u * up.u_o + 2.0 * eta * (s.T @ xt)
        return np.linalg.solve(lhs, rhs)

    best = np.inf
    for x in simplex_points(resolution):
        phi_x = phi_dense(spec, x)

        def gap_of(eta):
            u = u_of_eta(x, eta)
            y = s @ u
            f = float(np.dot(x, grid.h * np.sum((y[None, :] - targets) ** 2, axis=1)))
            f += 0.5 * spec.sigma * h_inner(grid, u, u)
            return f - phi_x, u

        g0, u0 = gap_of(0.0)
        if g0 <= eps:
            u_star = u0
        else:
            lo_eta, hi_eta = 0.0, 1.0
            while gap_of(hi_eta)[0] > eps:
                hi_eta *= 2.0
                assert hi_eta < 1e12
            for _ in range(200):
                mid = 0.5 * (lo_eta + hi_eta)
                if gap_of(mid)[0] > eps:
                    lo_eta = mid
                else:
                    hi_eta = mid
            u_star = gap_of(hi_eta)[1]
        assert np.max(np.abs(u_star)) < 49.0  # bounds never bind here
        value = upper_value_dense(spec, x, s @ u_star, u_star)
        best = min(best, value)
    return best


def _tilted_tiny(c_u):
    # N=4 copy of the tilted instance; with c_u = 0 the u-subproblem's
    # control weight is alpha sigma alone and vanishes at alpha = 0
    grid = build_grid(4)
    w = grid.nodes
    return ProblemSpec(
        grid=grid, sigma=1e-2,
        lower=LowerObjective(
            kind="target_type", targets=np.vstack([np.sin(np.pi * w), np.sin(2.0 * np.pi * w)])
        ),
        upper=UpperObjective(c_y=1.0, y_o=0.3 * np.sin(np.pi * w), c_u=c_u,
                             u_o=np.zeros(4), gamma=5e-3),
        x_set=AdmissibleSetX(kind="simplex", n=2),
        bounds=ControlBounds(ua=np.full(4, -50.0), ub=np.full(4, 50.0)),
    )


@pytest.mark.parametrize("case", ["planted", "tilted", "tilted_c_u_0"])
def test_tiny_instance_matches_brute_force(tiny_spec, case):
    # alpha is about 94 on the tilted instance and 0.03 with c_u = 0, at eps 1e-2
    spec = tiny_spec if case == "planted" else _tilted_tiny(0.0 if case == "tilted_c_u_0" else 1.0)
    eps = 1e-4
    sol = solve_relaxed(spec, eps=eps)
    assert sol.converged
    reference = _brute_force_upper(spec, eps)
    assert abs(sol.upper_value - reference) <= 1e-3


def test_constructed_inactive_solution_has_zero_residuals(unit_spec):
    # at the planted parameter the tracking targets are met exactly, so the
    # tuple (x*, psi(x*), alpha=0, p=0, lam=0, z=0) solves the system
    x_star = np.asarray(unit_spec.metadata["x_star"])
    low = solve_lower(unit_spec, x_star, tol=1e-12)
    sol = RelaxedSolution(
        eps=1e-3, x=x_star, y=low.y, u=low.u, alpha=0.0,
        z=np.zeros(2), p=np.zeros(16), lam=np.zeros(16),
        upper_value=0.0, gap=0.0, inner_iterations=0, outer_iterations=0,
        converged=True,
    )
    res = relaxed_kkt_residuals(unit_spec, sol)
    assert set(res) == {"x", "y", "u", "state", "comp", "lam"}
    assert max(res.values()) <= 1e-9


def test_perturbed_control_grows_gradient_residual(unit_spec):
    # moving u by delta changes the u-equation by (c_u + alpha sigma) delta
    x_star = np.asarray(unit_spec.metadata["x_star"])
    low = solve_lower(unit_spec, x_star, tol=1e-12)
    delta = np.sin(2 * np.pi * unit_spec.grid.nodes)
    delta *= 1e-3 / norm(unit_spec.grid, delta)
    sol = RelaxedSolution(
        eps=1e-3, x=x_star, y=low.y, u=low.u + delta, alpha=0.0,
        z=np.zeros(2), p=np.zeros(16), lam=np.zeros(16),
        upper_value=0.0, gap=0.0, inner_iterations=0, outer_iterations=0,
        converged=True,
    )
    res = relaxed_kkt_residuals(unit_spec, sol)
    c_u = unit_spec.upper.c_u
    assert res["u"] == pytest.approx((c_u + sol.alpha * unit_spec.sigma) * 1e-3, rel=1e-6)
    assert res["comp"] == 0.0  # alpha = 0 keeps complementarity exact


def test_alpha_scaling_in_perturbation_formula(tilted_spec, tilted_sol):
    # same growth law at a genuinely active solution with alpha > 0
    sol = tilted_sol
    assert sol.alpha > 0.0
    base = relaxed_kkt_residuals(tilted_spec, sol)
    delta = np.sin(2 * np.pi * tilted_spec.grid.nodes)
    delta *= 1e-3 / norm(tilted_spec.grid, delta)
    bumped = RelaxedSolution(
        eps=sol.eps, x=sol.x, y=sol.y, u=sol.u + delta, alpha=sol.alpha,
        z=sol.z, p=sol.p, lam=sol.lam, upper_value=sol.upper_value, gap=sol.gap,
        inner_iterations=0, outer_iterations=0, converged=True,
    )
    res = relaxed_kkt_residuals(tilted_spec, bumped)
    expected = (tilted_spec.upper.c_u + sol.alpha * tilted_spec.sigma) * 1e-3
    assert res["u"] == pytest.approx(expected, rel=5e-3, abs=base["u"])


def test_warm_and_cold_agree(unit_spec):
    cold = solve_relaxed(unit_spec, eps=1e-3)
    stage = solve_relaxed(unit_spec, eps=2e-3)
    warm = solve_relaxed(unit_spec, eps=1e-3, warm=stage)
    assert abs(cold.upper_value - warm.upper_value) <= 1e-6


def test_relaxed_solution_self_residuals(tilted_spec, tilted_sol):
    res = relaxed_kkt_residuals(tilted_spec, tilted_sol)
    assert res["state"] <= 1e-10
    assert res["comp"] <= 1e-8
    # equation residuals track the requested stationarity tolerance (1e-7
    # by default); the multiplier reconstructions add a modest constant
    assert res["lam"] <= 1e-5
    assert max(res["x"], res["y"], res["u"]) <= 1e-5


def test_eps_validation(unit_spec):
    with pytest.raises(DomainError):
        solve_relaxed(unit_spec, eps=0.0)
    with pytest.raises(DomainError):
        solve_relaxed(unit_spec, eps=-1e-3)


def test_convergence_error_carries_best(tilted_spec):
    with pytest.raises(ConvergenceError) as err:
        solve_relaxed(tilted_spec, eps=1e-2, stat_tol=1e-30)
    best = err.value.best
    assert isinstance(best, RelaxedSolution)
    assert not best.converged
    assert set(err.value.residuals) >= {"x", "y", "u", "state", "comp", "lam"}
