"""Relaxed-program solver: inactive-constraint limits, a dense brute-force
oracle on a tiny instance, and independent KKT residual checks."""

import dataclasses
import math

import numpy as np
import pytest

import invoc.lower
import invoc.relax
from invoc import (
    AdmissibleSetX,
    ControlBounds,
    LowerObjective,
    ProblemSpec,
    RelaxedSolution,
    UpperObjective,
    build_grid,
    relaxed_kkt_residuals,
    run_path,
    solve_lower,
    solve_relaxed,
)
from invoc.discretization import norm
from invoc.errors import ConvergenceError, DimensionError, DomainError, ValidationError
from invoc.lower import LowerSolution, _band_solve, _solve_qp, _tangent, lower_qp
from invoc.relax import _member, _newton, _Point, _Solver
from invoc.value import lower_objective_value, value_sample

from conftest import make_capped_member_spec, make_generated_spec
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


def _bare(spec, sol, u):
    """sol with control u and NaN in every field the residual map must not read."""
    nan = np.full(spec.grid.n_nodes, np.nan)
    return dataclasses.replace(sol, u=u, y=nan, p=nan, lam=nan, z=np.full(spec.n, np.nan))


def _fixed_point_growth(spec, x, alpha, delta):
    """||H delta|| / r from dense matrices: the u-subproblem at (x, alpha) has
    the reduced Hessian H = S d S + s I, S = A^{-1}, and away from the bounds
    moving u by delta moves u - P_U(u + lam/r) by -H delta / r, r = max(s, sigma)."""
    up, low = spec.upper, lower_qp(spec, x)
    d = np.broadcast_to(up.c_y + alpha * low.d, delta.shape)
    s = up.c_u + alpha * spec.sigma
    inv = np.linalg.inv(dense_matrix(spec.grid))
    return norm(spec.grid, inv @ (d * (inv @ delta)) + s * delta) / max(s, spec.sigma)


def test_constructed_inactive_solution_has_zero_residuals(unit_spec):
    # at the planted parameter the tracking targets are met exactly, so
    # (x*, psi_u(x*), alpha=0) solves the system; y, p, lam and z are not read
    x_star = np.asarray(unit_spec.metadata["x_star"])
    low = solve_lower(unit_spec, x_star, tol=1e-12)
    sol = _bare(unit_spec, _dummy_warm(unit_spec, x_star, low.u, eps=1e-3), low.u)
    res = relaxed_kkt_residuals(unit_spec, sol)
    assert set(res) == {"x", "fixed_point", "comp", "lam"}
    assert max(res.values()) <= 1e-9


def test_perturbed_control_grows_gradient_residual(unit_spec):
    # the fixed-point residual is the projected-gradient residual at step 1/r
    x_star = np.asarray(unit_spec.metadata["x_star"])
    low = solve_lower(unit_spec, x_star, tol=1e-12)
    delta = np.sin(2 * np.pi * unit_spec.grid.nodes)
    delta *= 1e-3 / norm(unit_spec.grid, delta)
    sol = _bare(unit_spec, _dummy_warm(unit_spec, x_star, low.u, eps=1e-3), low.u + delta)
    res = relaxed_kkt_residuals(unit_spec, sol)
    expected = _fixed_point_growth(unit_spec, x_star, 0.0, delta)
    assert res["fixed_point"] == pytest.approx(expected, rel=1e-6)
    assert res["comp"] == 0.0  # alpha = 0 keeps complementarity exact


def test_alpha_scaling_in_perturbation_formula(tilted_spec, tilted_sol):
    # same growth law at a genuinely active solution with alpha > 0
    sol = tilted_sol
    assert sol.alpha > 0.0
    base = relaxed_kkt_residuals(tilted_spec, sol)
    delta = np.sin(2 * np.pi * tilted_spec.grid.nodes)
    delta *= 1e-3 / norm(tilted_spec.grid, delta)
    res = relaxed_kkt_residuals(tilted_spec, _bare(tilted_spec, sol, sol.u + delta))
    expected = _fixed_point_growth(tilted_spec, sol.x, sol.alpha, delta)
    assert res["fixed_point"] == pytest.approx(expected, rel=1e-6, abs=base["fixed_point"])


def test_warm_and_cold_agree(unit_spec):
    cold = solve_relaxed(unit_spec, eps=1e-3)
    stage = solve_relaxed(unit_spec, eps=2e-3)
    warm = solve_relaxed(unit_spec, eps=1e-3, warm=stage)
    assert abs(cold.upper_value - warm.upper_value) <= 1e-6


def _bits(record, counts=True):
    """A record's fields as bytes, recursively, for bitwise comparison;
    counts=False leaves out the lower solutions' iterations, which depend
    on their warm start."""
    if dataclasses.is_dataclass(record):
        return tuple(_bits(getattr(record, f.name), counts) for f in dataclasses.fields(record)
                     if counts or not (isinstance(record, LowerSolution) and f.name == "iterations"))
    if isinstance(record, dict):
        return tuple((k, _bits(v, counts)) for k, v in sorted(record.items()))
    if isinstance(record, tuple):  # the carried member and its kernel solution
        return tuple(_bits(v, counts) for v in record)
    return None if record is None else np.asarray(record).tobytes()


def test_solution_carries_its_cold_value_sample(tilted_spec, tilted_sol):
    # the residuals are taken about the stored sample, which is the cold
    # sample that relaxed_kkt_residuals takes afresh
    assert _bits(tilted_sol.sample) == _bits(value_sample(tilted_spec, tilted_sol.x))
    assert tilted_sol.residuals == relaxed_kkt_residuals(tilted_spec, tilted_sol)


@pytest.mark.parametrize("name", ["unit_spec", "tilted_spec", "bounded_spec", "pointwise_spec"])
def test_warm_sample_never_changes_the_result(unit_spec, name, request):
    # unit_spec, where it was made, reuses the sample; the other three sample
    # afresh, warm-started from it.  The bare start's result is the same
    # bitwise but for the samples' counts
    spec = request.getfixturevalue(name)
    warm = solve_relaxed(unit_spec, eps=1e-3)
    bare = dataclasses.replace(warm, sample=None)
    sol, fresh = solve_relaxed(spec, eps=5e-4, warm=warm), solve_relaxed(spec, eps=5e-4, warm=bare)
    assert sol.value_iterations <= fresh.value_iterations
    assert _bits(dataclasses.replace(sol, value_iterations=0), counts=False) == _bits(
        dataclasses.replace(fresh, value_iterations=0), counts=False)


def test_a_start_away_from_its_sample_samples_once_from_its_control(tilted_spec, monkeypatch):
    # a start whose x is not its sample's, as a predicted one, gets one fresh
    # sample at its projected x, warm-started from the old sample's control,
    # and value_iterations counts that sample's band solves with the trials'
    warm = solve_relaxed(tilted_spec, eps=1e-2)
    start = dataclasses.replace(warm, x=warm.x + np.array([0.05, -0.05]))
    calls, sample = [], invoc.relax.value_sample

    def spied(spec, x, warm_start=None):
        calls.append((np.asarray(x).tobytes(), warm_start, sample(spec, x, warm_start=warm_start)))
        return calls[-1][2]

    monkeypatch.setattr(invoc.relax, "value_sample", spied)
    sol = solve_relaxed(tilted_spec, eps=5e-3, warm=start)
    x0 = tilted_spec.x_set.project(start.x).tobytes()
    assert [c[0] for c in calls].count(x0) == 1 and calls[0][0] == x0
    assert calls[0][1] is warm.sample.lower.u and calls[0][2].lower.iterations > 0
    assert sol.value_iterations == sum(c[2].lower.iterations for c in calls)


@pytest.mark.parametrize("name", ["unit_spec", "tilted_spec", "bounded_spec", "pointwise_spec"])
def test_warm_member_is_reused_on_its_own_spec_only(unit_spec, name, request):
    # a solution carries its spec's alpha = 0 u-subproblem, solved once: on
    # that spec a warm start skips its solve and changes nothing else; on
    # another it is solved afresh, as its band system was built with the
    # other spec's coefficients (reused, it stalled the tilted solve).  A
    # start without a member samples afresh as well, so on unit_spec its
    # sample's band solves are left out of the comparison
    spec = request.getfixturevalue(name)
    warm = solve_relaxed(unit_spec, eps=1e-3)
    assert warm.alpha == 0.0 and warm.member[0] is unit_spec and warm.member[1] is not None
    sol = solve_relaxed(spec, eps=5e-4, warm=warm)
    fresh = solve_relaxed(spec, eps=5e-4, warm=dataclasses.replace(warm, member=None))
    if spec is unit_spec:
        assert sol.inner_iterations < fresh.inner_iterations
        assert sol.value_iterations <= fresh.value_iterations
        sol, fresh = (dataclasses.replace(s, inner_iterations=0, value_iterations=0, member=None)
                      for s in (sol, fresh))
    assert _bits(sol) == _bits(fresh)


@pytest.mark.parametrize("name", ["unit_spec", "box_unit_spec", "bounded_spec"])
def test_gap_phase_levels_do_not_depend_on_the_member(name, request):
    # with gamma = 0 a start at alpha = 0 minimises the gap at the x-free
    # control u0; solving u0 afresh from the start's u gives it bitwise, so a
    # start with its member and one without reach the same level
    spec = request.getfixturevalue(name)
    warm = solve_relaxed(spec, eps=1e-2)
    assert warm.alpha == 0.0 and warm.member[1] is not None
    start = dataclasses.replace(warm, x=np.array([0.9, 0.1]))
    sol = solve_relaxed(spec, eps=5e-3, warm=start)
    fresh = solve_relaxed(spec, eps=5e-3, warm=dataclasses.replace(start, member=None))
    assert sol.alpha == 0.0 and sol.outer_iterations > 0
    assert sol.inner_iterations < fresh.inner_iterations
    sol, fresh = (dataclasses.replace(s, inner_iterations=0, member=None) for s in (sol, fresh))
    assert _bits(sol) == _bits(fresh)


def test_warm_sample_is_taken_over_on_its_own_spec_only(unit_spec, tilted_spec, monkeypatch):
    # a warm sample is reused only where the start's member was made on the
    # spec being solved; from another spec, or with no member, the start
    # samples its x afresh from the old sample's control, even where, as on
    # tilted_spec, which shares unit_spec's lower problem, the old sample
    # would pass the kernel's fixed-point check; its solve converges at
    # alpha 631.4
    warm = solve_relaxed(unit_spec, eps=1e-3)
    calls, sample = [], invoc.relax.value_sample

    def spied(spec, x, warm_start=None):
        calls.append((np.asarray(x).tobytes(), warm_start is warm.sample.lower.u))
        return sample(spec, x, warm_start=warm_start)

    monkeypatch.setattr(invoc.relax, "value_sample", spied)
    start = (warm.sample.x.tobytes(), True)
    for spec, warm_start, fresh in [(unit_spec, warm, False),
                                    (unit_spec, dataclasses.replace(warm, member=None), True),
                                    (tilted_spec, warm, True)]:
        calls.clear()
        sol = solve_relaxed(spec, eps=5e-4, warm=warm_start)
        assert sol.converged and (calls[:1] == [start]) == fresh
        assert sum(call == start for call in calls) == fresh
    assert sol.alpha == pytest.approx(631.4, rel=1e-4)


def test_a_warm_sample_from_another_spec_never_steers_the_solve(tilted_spec, tilted_sol):
    # swapping tilted_spec's targets keeps its lower QP at x = (0.5, 0.5) but
    # swaps grad phi there, so the old spec's sample passes the fixed-point
    # check yet carries the wrong gradient; taken over, it stalled this solve
    # after 0 x-steps.  The start samples afresh and ends where one with no
    # sample does, in every field but the samples' band solves
    swapped = dataclasses.replace(tilted_spec, lower=dataclasses.replace(
        tilted_spec.lower, targets=tilted_spec.lower.targets[::-1]))
    vs = value_sample(tilted_spec, np.array([0.5, 0.5]))
    start = dataclasses.replace(tilted_sol, x=vs.x, sample=vs)
    sol = solve_relaxed(swapped, eps=5e-3, warm=start)
    bare = solve_relaxed(swapped, eps=5e-3, warm=dataclasses.replace(start, sample=None))
    assert sol.converged and sol.outer_iterations > 0
    assert sol.alpha == pytest.approx(151.18, rel=1e-4)
    assert _bits(dataclasses.replace(sol, value_iterations=0), counts=False) == _bits(
        dataclasses.replace(bare, value_iterations=0), counts=False)


@pytest.mark.parametrize("name, value, error, message", [
    ("x", np.array([0.2, 0.3, 0.5]), DimensionError, r"warm\.x has shape \(3,\), expected \(2,\)"),
    ("x", np.array([np.nan, 0.5]), DomainError, r"warm\.x must be finite"),
    ("alpha", math.inf, DomainError, r"warm\.alpha must be finite"),
    ("alpha", math.nan, DomainError, r"warm\.alpha must be finite"),
    ("alpha", "1", ValidationError, r"warm\.alpha must be a number"),
    ("step", math.nan, DomainError, r"warm\.step must be positive and finite"),
    ("step", 0.0, DomainError, r"warm\.step must be positive and finite"),
    ("alpha", -1.0, None, None),
], ids=["x-shape", "x-nan", "alpha-inf", "alpha-nan", "alpha-str", "step-nan", "step-zero", "alpha-negative"])
def test_malformed_warm_start_is_refused_by_name(tilted_spec, tilted_sol, name, value, error, message):
    # each field of the start is checked where it is read, tilted_sol's step
    # because its alpha > 0; a negative alpha clips to 0
    assert tilted_sol.alpha > 0.0
    start = dataclasses.replace(tilted_sol, **{name: value})
    if error is None:
        at_zero = dataclasses.replace(tilted_sol, alpha=0.0)
        assert _bits(solve_relaxed(tilted_spec, eps=5e-3, warm=start)) == _bits(
            solve_relaxed(tilted_spec, eps=5e-3, warm=at_zero))
        return
    with pytest.raises(error, match=message):
        solve_relaxed(tilted_spec, eps=5e-3, warm=start)


def test_warm_start_from_another_grid_names_warm_u(unit_spec):
    warm = solve_relaxed(unit_spec, eps=1e-3)
    with pytest.raises(DimensionError, match=r"warm\.u has shape \(16,\), expected \(64,\)"):
        solve_relaxed(make_generated_spec(64, (0.3, 0.7)), eps=5e-4, warm=warm)


def test_relaxed_solution_self_residuals(tilted_spec, tilted_sol):
    res = relaxed_kkt_residuals(tilted_spec, tilted_sol)
    assert res["fixed_point"] <= tilted_spec.solver_tol
    assert res["comp"] <= 1e-8
    # the x-equation tracks the requested stationarity tolerance (1e-7 by
    # default); the multiplier reconstructions add a modest constant
    assert max(res["x"], res["lam"]) <= 1e-5


def test_residuals_hold_at_large_n():
    # the u-subproblem's own check stays at roundoff at N = 1024, where
    # ||A y - u|| re-applied A and read 1.7e-11
    spec = make_generated_spec(1024, (0.25, 0.75), gamma=1e-3)
    sol = solve_relaxed(spec, eps=1e-3)
    assert sol.converged and set(sol.residuals) == {"x", "fixed_point", "comp", "lam"}
    assert max(v for k, v in sol.residuals.items() if k != "x") <= 1e-12


def test_eps_validation(unit_spec):
    with pytest.raises(DomainError):
        solve_relaxed(unit_spec, eps=0.0)
    with pytest.raises(DomainError):
        solve_relaxed(unit_spec, eps=-1e-3)
    with pytest.raises(DomainError):
        solve_relaxed(unit_spec, eps=math.inf)
    for bad in ("1", None):
        with pytest.raises(ValidationError, match="relaxation parameter must be a number"):
            solve_relaxed(unit_spec, eps=bad)
        for name in ("feas_tol", "stat_tol", "comp_tol"):
            with pytest.raises(ValidationError, match=f"{name} must be a number"):
                solve_relaxed(unit_spec, eps=1e-2, **{name: bad})
    with pytest.raises(DomainError, match="stat_tol must be positive and finite"):
        solve_relaxed(unit_spec, eps=1e-2, stat_tol=0.0)


def test_convergence_error_carries_best(tilted_spec):
    with pytest.raises(ConvergenceError) as err:
        solve_relaxed(tilted_spec, eps=1e-2, stat_tol=1e-30)
    best = err.value.best
    assert isinstance(best, RelaxedSolution)
    assert not best.converged
    assert set(err.value.residuals) == {"x", "fixed_point", "comp", "lam"}


@pytest.mark.parametrize("max_steps", [1, 3, 8])
def test_stalled_solve_reports_every_x_step_it_made(tilted_spec, monkeypatch, max_steps):
    # the best point's counts are the whole failed solve's, not those up to
    # the best point; at 1 step the best point is not the last.  After step 7
    # no step moves x beyond roundoff, so a cap of 8 ends the loop there
    monkeypatch.setattr(invoc.relax, "_MAX_STEPS", max_steps)
    steps = min(max_steps, 7)
    with pytest.raises(ConvergenceError, match=f"stalled after {steps} x-steps") as err:
        solve_relaxed(tilted_spec, eps=1e-2, stat_tol=1e-30)
    assert err.value.best.outer_iterations == steps
    assert ("no step moves x beyond roundoff" in str(err.value)) == (max_steps == 8)


def test_kernel_failure_before_the_first_point_carries_no_best(unit_spec, monkeypatch):
    monkeypatch.setattr(invoc.lower, "_MAX_SOLVES", 0)
    with pytest.raises(ConvergenceError, match="relaxed solve at eps 0.01: QP solve") as err:
        solve_relaxed(unit_spec, eps=1e-2)
    assert err.value.best is None
    assert set(err.value.residuals) == {"fixed_point"}
    trace = run_path(unit_spec, eps0=1e-2, steps=4)
    assert not trace.records and trace.failure["k"] == 0
    assert trace.failure["residuals"] == err.value.residuals


def test_kernel_failure_before_the_first_step_carries_the_start():
    # the alpha = 0 member fails in the kernel after 200 band solves, before
    # any x-step: best is the start about its cold sample, and its counts
    # take in the failing kernel call's solves and the sample's
    spec = make_capped_member_spec()
    with pytest.raises(ConvergenceError, match="relaxed solve at eps 1: QP solve missed") as err:
        solve_relaxed(spec, eps=1.0)
    best = err.value.best
    assert isinstance(best, RelaxedSolution) and not best.converged
    assert best.x.tolist() == [0.5, 0.5] and best.alpha == 0.0 and best.outer_iterations == 0
    assert best.inner_iterations >= 200 and best.value_iterations >= 1
    assert best.residuals == relaxed_kkt_residuals(spec, best)


def test_kernel_failure_after_an_accepted_step_carries_the_best_point(unit_spec, monkeypatch):
    # the kernel fails from the first trial sample warm-started off an
    # accepted trial's sample, not the start's, so one x-step was accepted
    samples, sample = [], invoc.relax.value_sample

    def failing_after_first_step(spec, x, warm_start=None):
        if warm_start is not None and warm_start is not samples[0].lower.u:
            monkeypatch.setattr(invoc.lower, "_MAX_SOLVES", 0)
        samples.append(sample(spec, x, warm_start=warm_start))
        return samples[-1]

    monkeypatch.setattr(invoc.relax, "value_sample", failing_after_first_step)
    with pytest.raises(ConvergenceError, match="relaxed solve at eps 0.001: QP solve") as err:
        solve_relaxed(unit_spec, eps=1e-3)
    best = err.value.best
    assert isinstance(best, RelaxedSolution) and not best.converged
    assert best.outer_iterations <= 1
    assert best.sample in samples and best.sample.x.tobytes() == best.x.tobytes()
    assert set(err.value.residuals) == {"fixed_point"}


@pytest.mark.parametrize("name", ["unit_spec", "bounded_spec", "pointwise_spec"])
def test_gap_slope_matches_finite_difference(name, request):
    # the Newton search's slope d gap/d alpha and the kernel's tangent
    # (y', u') against central differences in alpha, at alphas where the
    # active set stays put across the stencil
    spec = request.getfixturevalue(name)
    bounds = spec.bounds
    vs = value_sample(spec, [0.6, 0.4])  # off the planted x*, where the gap is 0
    low = lower_qp(spec, vs.x)
    solver = _Solver(spec, eps=1.0, feas_tol=1e-8, comp_tol=1e-8)

    def active(u):
        return (u <= bounds.ua) | (u >= bounds.ub)

    binding = 0
    for alpha in (0.5, 3.0, 20.0):
        pt = solver._solve(vs, alpha, None)
        step = 1e-4 * alpha
        plus, minus = (solver._solve(vs, a, pt.u) for a in (alpha + step, alpha - step))
        assert (active(plus.u) == active(pt.u)).all() and (active(minus.u) == active(pt.u)).all()
        binding += int(active(pt.u).sum())
        fd = (plus.gap - minus.gap) / (2.0 * step)
        assert pt.slope < 0.0
        assert abs(pt.slope - fd) <= 1e-6 * abs(fd)

        qp = _member(spec, low, alpha)
        sol = _solve_qp(spec, qp, 1e-12)
        y_t, u_t, solves = _tangent(spec, qp, sol, low)
        assert solves == 0  # the kernel's own factors serve
        # factors of another fixed set are not reused: the tangent factors once
        stale = sol._replace(factors=_band_solve(sol.system, ~sol.factors[2], 0.0)[2])
        again = _tangent(spec, qp, stale, low)
        assert again[2] == 1
        np.testing.assert_array_equal(again[0], y_t)
        np.testing.assert_array_equal(again[1], u_t)
        ends = [_solve_qp(spec, _member(spec, low, a), 1e-12, sol.u)
                for a in (alpha + step, alpha - step)]
        for got, key in ((y_t, "y"), (u_t, "u")):
            want = (getattr(ends[0], key) - getattr(ends[1], key)) / (2.0 * step)
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
    # the bounded instance holds nodes on its bound; the others hold none
    assert (binding > 0) == (name == "bounded_spec")


@pytest.mark.parametrize("name", ["bounded_spec", "tilted_spec", "gamma"])
def test_early_exit_changes_no_decision(name, request):
    # a search stopped once its dual value exceeds the Armijo threshold
    # rejects exactly the trials the full search rejects: by weak duality
    # the dual value at any alpha is at most the one at the root.  With
    # gamma = 0 the bounded level at eps 1e-4 ends at alpha = 0, so it
    # takes gamma 1e-3 to keep its bound binding at alpha > 0
    if name == "gamma":
        spec = make_generated_spec(32, (0.25, 0.75), gamma=1e-3)
    else:
        spec = request.getfixturevalue(name)
    if name == "bounded_spec":
        spec = dataclasses.replace(spec, upper=dataclasses.replace(spec.upper, gamma=1e-3))
    eps = 1e-4
    sol = solve_relaxed(spec, eps)
    assert sol.alpha > 0.0
    rng = np.random.default_rng(0)
    stopped = 0
    for _ in range(10):
        scale = 10.0 ** rng.uniform(-4.0, -1.0)
        vs = value_sample(spec, spec.x_set.project(sol.x + scale * rng.normal(size=spec.n)))
        full_solver = _Solver(spec, eps, feas_tol=1e-8, comp_tol=1e-8)
        full = full_solver.dual(full_solver.evaluate(vs, sol.alpha, sol.u))
        for sign in (-1.0, 1.0):
            # above the roundoff in which a dual value near the root may
            # exceed the root's
            bound = full + sign * 10.0 ** rng.uniform(-12.0, -1.0) * (1.0 + abs(full))
            solver = _Solver(spec, eps, feas_tol=1e-8, comp_tol=1e-8)
            early = solver.dual(solver.evaluate(vs, sol.alpha, sol.u, bound))
            assert (early > bound) == (full > bound)
            assert early <= full + 1e-15 * (1.0 + abs(full))
            assert solver.solves <= full_solver.solves
            stopped += solver.solves < full_solver.solves
    assert stopped > 0


@pytest.mark.parametrize("g0, kappa, eps", [(1.0, 3.0, 1e-4), (2.5e-2, 0.07, 1e-9), (4.0, 1e3, 0.5)])
def test_newton_solves_a_one_mode_gap_in_one_step(g0, kappa, eps):
    # gap = g0 / (1 + kappa alpha)^2 has gap^(-1/2) linear in alpha, so one
    # Newton step on it lands on the root, from alpha = 0 and from any
    # alpha within the step's factor-10 reach; every step stays in (lo, hi)
    root = (math.sqrt(g0 / eps) - 1.0) / kappa

    def point(alpha):
        gap = g0 / (1.0 + kappa * alpha) ** 2
        return _Point(vs=None, alpha=alpha, y=None, u=None, upper=0.0,
                      gap=gap, slope=-2.0 * kappa * gap / (1.0 + kappa * alpha))

    for alpha in [0.0] + [root * f for f in (0.11, 0.5, 0.99, 1.0, 1.01, 3.0, 9.0)]:
        pt = point(alpha)
        lo, hi = (alpha, math.inf) if pt.gap > eps else (0.0, alpha)
        guess = _newton(pt, eps, lo, hi)
        assert guess == pytest.approx(root, rel=1e-12)
        assert lo < guess < hi or guess == alpha
    for alpha, factor in ((1e-3 * root, 10.0), (1e3 * root, 0.1)):
        pt = point(alpha)
        lo, hi = (alpha, math.inf) if pt.gap > eps else (0.0, alpha)
        assert _newton(pt, eps, lo, hi) == pytest.approx(factor * alpha, rel=1e-15)
        # a tighter bracket takes the step's place with its geometric mean
        lo, hi = (alpha, 2.0 * alpha) if pt.gap > eps else (0.5 * alpha, alpha)
        assert _newton(pt, eps, lo, hi) == pytest.approx(math.sqrt(lo * hi), rel=1e-15)
    # no root along the tangent: a factor of 10 toward the root, or 1 from 0
    flat = dataclasses.replace(point(root), slope=0.0)
    assert _newton(dataclasses.replace(flat, gap=2.0 * eps), eps, root, math.inf) == 10.0 * root
    assert _newton(dataclasses.replace(flat, gap=0.0), eps, 0.0, root) == root / 10.0
    assert _newton(dataclasses.replace(flat, alpha=0.0, gap=2.0 * eps), eps, 0.0, math.inf) == 1.0
