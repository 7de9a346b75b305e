"""Lower-level solver against a dense bound-constrained least-squares oracle."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import invoc.lower
import invoc.relax
from invoc import (
    AdmissibleSetX,
    ControlBounds,
    LowerObjective,
    LowerSolution,
    ProblemSpec,
    UpperObjective,
    build_grid,
    solve_lower,
)
from invoc.discretization import norm
from invoc.errors import ConvergenceError, DimensionError, DomainError, ValidationError

from conftest import make_capped_member_spec, make_generated_spec, make_unplanted_spec
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


@pytest.fixture(scope="module")
def planted_1024_spec():
    return make_generated_spec(1024, (0.3, 0.7))


@pytest.mark.parametrize("name", ["unit_spec", "bounded_spec", "pointwise_spec",
                                  "planted_1024_spec"])
def test_kkt_residual_covers_the_fixed_point_residual(name, request):
    # kkt_residual is the kernel's fixed-point residual and lam's sign
    # residual, nothing else: a re-applied A y - u would grow like N^2
    spec = request.getfixturevalue(name)
    sol = solve_lower(spec, np.array([0.3, 0.7]))
    qp = invoc.lower.lower_qp(spec, sol.x)
    fixed_point = invoc.lower._fixed_point_residual(spec, qp, sol.u)[0]
    sign = spec.bounds.normal_cone_residual(sol.u, sol.lam, spec.active_tol)
    assert sol.kkt_residual == max(fixed_point, sign)


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
    with pytest.raises(ValidationError, match="tol must be a number"):
        solve_lower(unit_spec, np.array([0.5, 0.5]), tol="1")
    with pytest.raises(DimensionError):
        solve_lower(unit_spec, np.array([0.5, 0.5]), warm_start=np.zeros(3))


@pytest.mark.parametrize("x, warm_start, error, name", [
    (["a", 0.7], None, ValidationError, "parameter"),
    ([0.3, 0.7], 5.0, DimensionError, "warm_start"),
    ([0.3, 0.7], np.zeros((16, 2)), DimensionError, "warm_start"),
    ([0.3, 0.7], ["a"] * 16, ValidationError, "warm_start"),
], ids=["parameter-text", "warm-scalar", "warm-matrix", "warm-text"])
def test_malformed_array_argument_is_refused_by_name(unit_spec, x, warm_start, error, name):
    # each used to surface as numpy's bare ValueError or an IndexError
    with pytest.raises(error) as err:
        solve_lower(unit_spec, x, warm_start=warm_start)
    assert type(err.value) is error and str(err.value).startswith(name)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_rejected(unit_spec, bad):
    with pytest.raises(DomainError, match="non-finite"):
        solve_lower(unit_spec, np.array([bad, 0.5]))


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


def test_convergence_error_carries_final_iterate(bounded_spec):
    # the kernel's failure carries, as the public LowerSolution at x, the
    # iterate it checked, which is bound-feasible and has the residual the
    # error reports
    x = np.array([0.3, 0.7])
    with pytest.raises(ConvergenceError) as err:
        solve_lower(bounded_spec, x, tol=1e-30)
    best, bounds = err.value.best, bounded_spec.bounds
    assert type(best) is LowerSolution and np.array_equal(best.x, x)
    assert np.all((bounds.ua <= best.u) & (best.u <= bounds.ub))
    assert best.u.max() == bounds.ub.max()  # the bound binds
    fresh, y, p = invoc.lower._fixed_point_residual(
        bounded_spec, invoc.lower.lower_qp(bounded_spec, x), best.u)
    assert fresh == err.value.residuals["fixed_point"] <= best.kkt_residual
    assert np.array_equal(y, best.y) and np.array_equal(p, best.p)
    assert np.array_equal(best.lam, best.p - bounded_spec.sigma * best.u)
    assert best.iterations >= 1


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


def _repeated_point_spec():
    # two components measure the same node, so their weights add there
    grid = build_grid(16)
    return ProblemSpec(
        grid=grid, sigma=1e-2,
        lower=LowerObjective(kind="pointwise", points=(4, 4), target=np.sin(np.pi * grid.nodes)),
        upper=UpperObjective(c_y=0.0, y_o=np.zeros(16), c_u=1.0, u_o=np.zeros(16)),
        x_set=AdmissibleSetX(kind="simplex", n=2),
        bounds=ControlBounds(ua=np.full(16, -50.0), ub=np.full(16, 50.0)),
    )


def _tight_box(n_nodes, below, tol=None):
    """make_unplanted_spec(n_nodes, sigma=1e-4) at x = (0.3, 0.7), its control
    bounds narrowed to u0 + [-below, 1 - below] max|u0| about the solution u0
    at tol under the default bounds, and u0."""
    spec, x = make_unplanted_spec(n_nodes, sigma=1e-4), np.array([0.3, 0.7])
    u0 = solve_lower(spec, x, tol=tol).u
    width = np.abs(u0).max()
    bounds = ControlBounds(ua=u0 - below * width, ub=u0 + (1.0 - below) * width)
    return replace(spec, bounds=bounds), x, u0


@pytest.mark.parametrize("case", ["w_not_c"] + [
    f"n{n_nodes}_{below}{tol}" for tol in ("", "_1e-12")
    for n_nodes in (16, 32, 64) for below in (0.75, 0.25)])
def test_cycling_active_sets_still_converge(case, monkeypatch):
    # on these tight boxes the plain active-set steps from the cold start
    # u = P(0) come back to a set pair; projected Newton must take over and
    # finish.  A tight box about u0 keeps u0 as the solution, and the final
    # active-set step from Newton's (empty) sets, refined by the same rule as
    # u0, returns it bitwise.  Newton's steps are reduced solves, whose
    # condition does not grow with N, so at tol 1e-12 it reaches its stop test
    # in a few solves, where steps through the band system spent all 200
    if case == "w_not_c":
        spec, point, _, _ = _w_not_c_fixture()
        x, tol, u0 = point["x"], 1e-13, None
    else:
        n_nodes, below, *tol = case[1:].split("_")
        tol = float(tol[0]) if tol else None
        spec, x, u0 = _tight_box(int(n_nodes), float(below), tol)
        tol = tol or spec.solver_tol
    newton_calls = []
    real = invoc.lower._projected_newton

    def counting(*args):
        newton_calls.append(1)
        return real(*args)

    monkeypatch.setattr(invoc.lower, "_projected_newton", counting)
    sol = solve_lower(spec, x, tol=tol)
    assert newton_calls  # the fallback actually ran
    _, u_ref = solve_lower_dense(spec, x)
    assert h_norm(spec.grid, sol.u - u_ref) <= 1e-10
    assert sol.kkt_residual <= max(tol, 1e-12)
    if u0 is not None:
        np.testing.assert_array_equal(sol.u, u0)
    if tol == 1e-12:
        assert sol.iterations <= 30


@pytest.mark.parametrize("n_nodes, sigma", [(4096, 1e-2), (32, 1e-4)])
def test_refinement_step_reaches_tol_on_the_kernels_factors(n_nodes, sigma, monkeypatch):
    # the band system in (y, p) has condition about N^2, and its u misses tol
    # 1e-12 here (1.992e-11 and 3.147e-12); one refinement step on the
    # reduced equation in u, a back-substitution on the same factors, clears
    # it.  This is the solve that builds make_generated_spec(N, (0.3, 0.7))
    factorizations = []
    real = invoc.lower.dgbtrf

    def counting(*args, **kwargs):
        factorizations.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(invoc.lower, "dgbtrf", counting)
    spec, x = make_unplanted_spec(n_nodes, sigma=sigma), np.array([0.3, 0.7])
    sol = solve_lower(spec, x, tol=1e-12)
    assert sol.kkt_residual <= 1e-12
    assert sol.iterations == 1 and len(factorizations) == 1
    if n_nodes <= 64:
        _, u_ref = solve_lower_dense(spec, x)
        assert h_norm(spec.grid, sol.u - u_ref) <= 1e-10


def _count_work(monkeypatch):
    """Counts of the kernel's band factorizations, of those made inside
    projected Newton and of its evaluations, kept up to date as the kernel
    runs."""
    lower = invoc.lower
    work = {"factorizations": 0, "newton_factorizations": 0, "evaluations": 0, "newton": 0}
    dgbtrf, newton, residual = lower.dgbtrf, lower._projected_newton, lower._fixed_point_residual

    def counting_dgbtrf(*args, **kwargs):
        work["factorizations"] += 1
        work["newton_factorizations"] += work["newton"]
        return dgbtrf(*args, **kwargs)

    def counting_newton(*args):
        work["newton"] += 1
        try:
            return newton(*args)
        finally:
            work["newton"] -= 1

    def counting_residual(*args, **kwargs):
        work["evaluations"] += work["newton"]
        return residual(*args, **kwargs)

    monkeypatch.setattr(lower, "dgbtrf", counting_dgbtrf)
    monkeypatch.setattr(lower, "_projected_newton", counting_newton)
    monkeypatch.setattr(lower, "_fixed_point_residual", counting_residual)
    return work


def test_newton_iterate_stands_when_its_active_set_step_is_not_exact(bounded_spec, monkeypatch):
    # with the exactness test failing every time, the active-set steps come
    # back to a set pair, projected Newton takes over, and the active-set step
    # from its sets is refused as well: Newton's iterate is the result
    work = _count_work(monkeypatch)
    monkeypatch.setattr(invoc.lower, "_exact", lambda u, target: False)
    x = np.array([0.3, 0.7])
    sol = solve_lower(bounded_spec, x, tol=1e-10)
    assert sol.kkt_residual <= 1e-10 and work["evaluations"] >= 1
    # each band factorization and each of Newton's evaluations is one solve
    assert sol.iterations == work["factorizations"] + work["evaluations"]
    _, u_ref = solve_lower_dense(bounded_spec, x)
    assert h_norm(bounded_spec.grid, sol.u - u_ref) <= 1e-10


def test_newton_steps_reuse_the_factors_of_a_repeated_frozen_set(monkeypatch):
    # on the six tight boxes at tol 1e-12 projected Newton's steps often hold
    # the frozen set of the step before; such a step is a back-substitution
    # on that step's factors, counted as no solve, and u stays u0 bitwise
    work = _count_work(monkeypatch)
    reduced, frozen = invoc.lower._reduced_solve, []

    def recording(*args):
        if work["newton"]:
            frozen.append(args[3].tobytes())
        return reduced(*args)

    monkeypatch.setattr(invoc.lower, "_reduced_solve", recording)
    steps = factorizations = 0
    for n_nodes in (16, 32, 64):
        for below in (0.75, 0.25):
            spec, x, u0 = _tight_box(n_nodes, below, 1e-12)
            frozen.clear()
            work.update(factorizations=0, newton_factorizations=0, evaluations=0)
            sol = solve_lower(spec, x, tol=1e-12)
            np.testing.assert_array_equal(sol.u, u0)
            assert sol.iterations == work["factorizations"] + work["evaluations"]
            # one Newton run per solve: a step factors only where its frozen set is new
            assert frozen and work["newton_factorizations"] == 1 + sum(
                a != b for a, b in zip(frozen, frozen[1:]))
            steps += len(frozen)
            factorizations += work["newton_factorizations"]
    assert factorizations < steps


def test_refinement_step_factors_afresh_where_the_sets_moved(bounded_spec, monkeypatch):
    # two band solves leave u = P_U(v) with bound nodes the last factors do
    # not fix; the refinement step factors once more, counts it, and clears tol
    work = _count_work(monkeypatch)
    monkeypatch.setattr(invoc.lower, "_MAX_SOLVES", 2)
    x = np.array([0.3, 0.7])
    sol = solve_lower(bounded_spec, x, tol=1e-10)
    assert sol.kkt_residual <= 1e-10
    assert sol.iterations == work["factorizations"] == 3 and work["evaluations"] == 0
    _, u_ref = solve_lower_dense(bounded_spec, x)
    assert h_norm(bounded_spec.grid, sol.u - u_ref) <= 1e-10


def test_newton_halves_a_step_its_armijo_test_refuses(monkeypatch):
    # the objective refuses Newton's first full step once: the Armijo search
    # evaluates the half step next, and the result still passes its check
    spec, x, _ = _tight_box(16, 0.75)
    real, controls = invoc.lower._objective, []

    def refuse_once(spec, qp, y, u):
        controls.append(u)
        return np.inf if len(controls) == 2 else real(spec, qp, y, u)

    monkeypatch.setattr(invoc.lower, "_objective", refuse_once)
    sol = solve_lower(spec, x)
    start, full, half = controls[:3]
    inside = (full > spec.bounds.ua) & (full < spec.bounds.ub)
    assert inside.any()
    assert_allclose((half - start)[inside], 0.5 * (full - start)[inside], rtol=0,
                    atol=1e-14 * np.abs(full).max())
    assert sol.kkt_residual <= spec.solver_tol
    _, u_ref = solve_lower_dense(spec, x)
    assert h_norm(spec.grid, sol.u - u_ref) <= 1e-10


def test_singular_band_system_raises_convergence_error():
    n_nodes = 4
    system = (np.zeros((7, 2 * n_nodes)), np.zeros(2 * n_nodes), 1.0)
    with pytest.raises(ConvergenceError, match=r"optimality system is singular \(dgbtrf info 1\)"):
        invoc.lower._band_solve(system, np.zeros(n_nodes, dtype=bool), 0.0)


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
        y, u = invoc.lower._solve_qp(spec, qp, spec.solver_tol)[:2]
        y_ref, u_ref = _relaxed_dense(spec, x, alpha, c_y, c_u, y_o, u_o)

        def value(y, u):
            return (0.5 * c_y * h_norm(grid, y - y_o) ** 2 + 0.5 * c_u * h_norm(grid, u - u_o) ** 2
                    + alpha * lower_value_dense(spec, x, y, u))
    scale = 1.0 + h_norm(grid, u_ref)
    assert h_norm(grid, u - u_ref) <= 1e-8 * scale
    # the kernel's point is at least as good as BVLS's, up to roundoff
    best = value(y_ref, u_ref)
    assert value(y, u) <= best + 1e-12 * (1.0 + abs(best))


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="stops at 200 solves, fixed-point residual 0.61 (ROADMAP item 22)")
def test_kernel_solves_the_relaxed_member_at_s_zero_with_binding_caps():
    # with c_u = 0 the relaxed u-subproblem at alpha = 0 has s = 0: least
    # squares in S u against y_o under caps +-7, where BVLS ends with 48 of
    # the 49 nodes on a cap; run_path fails at its level 0 on this member
    spec = make_capped_member_spec()
    grid, y_o, zeros = spec.grid, spec.upper.y_o, spec.upper.u_o
    x = np.array([0.5, 0.5])
    qp = invoc.relax._member(spec, invoc.lower.lower_qp(spec, x), 0.0)
    sol = invoc.lower._solve_qp(spec, qp, spec.solver_tol)
    assert sol.residual <= spec.solver_tol
    _, u_ref = _relaxed_dense(spec, x, 0.0, 1.0, 0.0, y_o, zeros)
    assert h_norm(grid, sol.u - u_ref) <= 1e-8 * h_norm(grid, u_ref)
