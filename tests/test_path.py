"""Relaxation path driver: schedules, recombination, failure handling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import invoc.relax
import invoc.value
from invoc import (
    AdmissibleSetX,
    ControlBounds,
    LowerObjective,
    ProblemSpec,
    UpperObjective,
    build_grid,
    classify,
    extract_candidate,
    grid_search,
    make_default_problem,
    relaxed_kkt_residuals,
    run_path,
    solve_lower,
    solve_relaxed,
    trace_rows,
)
from invoc.discretization import norm
from invoc.errors import ConvergenceError, InsufficientPathError, ValidationError
from invoc.path import _finalize, _predict, _recombine
from invoc.presets import plant

from conftest import make_bounded_spec, make_capped_member_spec, make_generated_spec, make_tilted_spec
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
    # a non-number is refused by name, not by a bare TypeError of the comparison
    for name in ("eps0", "ratio"):
        for bad in ("1", None):
            with pytest.raises(ValidationError, match=f"{name} must be a number"):
                run_path(unit_spec, **{name: bad})
    with pytest.raises(ValidationError):
        run_path(unit_spec, steps=1)
    for steps in (2.5, math.inf, True, "3"):
        with pytest.raises(ValidationError, match="steps must be an integer"):
            run_path(unit_spec, steps=steps)
    trace = run_path(unit_spec, eps0=1e-2, steps=np.int64(2))
    assert trace.converged and type(trace.steps) is int


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
    # level 0 solves levels 1 and 2 too, which are carried over unsolved:
    # they keep its solution, and the trace counts its work once
    assert [rec.start for rec in trace.records] == ["cold", "carried", "carried"]
    assert all(rec.relaxed is first.relaxed for rec in trace.records)
    for name in ("inner_iterations", "outer_iterations"):
        assert [row[name] for row in trace_rows(trace)] == [getattr(first.relaxed, name), 0, 0]
        assert trace.work[name] == getattr(first.relaxed, name)


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
    assert trace.converged and len(trace.records) == 7
    # the Cauchy diagnostics are the last step's, in x and in u
    last, prev = trace.records[-1].relaxed, trace.records[-2].relaxed
    assert trace.limit["cauchy_dx"] == float(np.linalg.norm(last.x - prev.x))
    assert trace.limit["cauchy_du"] == norm(unit_spec.grid, last.u - prev.u)
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


def test_planted_local_minimum_switch_trips_the_sandwich_check(unit_spec, monkeypatch):
    # level 1 reports an upper value 1e-7 too high, as if the solver had
    # moved to another stationary point: F rises beyond alpha_1 (eps_0 - eps_1)
    # and then falls from level 1 to 2, by far less than 1e-6 each way.  The
    # planted levels all end at alpha = 0 on x*, so each would be carried
    # over from level 0; here every level is solved, by the gap's phase
    from invoc import path as path_mod

    monkeypatch.setattr(path_mod, "_carries", lambda *args: False)

    real = path_mod.solve_relaxed

    def switched(spec, eps, **kwargs):
        sol = real(spec, eps, **kwargs)
        if eps == 2.5e-3:
            sol = replace(sol, upper_value=sol.upper_value + 1e-7)
        return sol

    clean = run_path(unit_spec, eps0=1e-2, ratio=0.25, steps=4)
    assert not any("local-minimum" in w for w in clean.warnings)
    monkeypatch.setattr(path_mod, "solve_relaxed", switched)
    trace = run_path(unit_spec, eps0=1e-2, ratio=0.25, steps=4)
    switches = [w for w in trace.warnings if "local-minimum" in w]
    assert len(switches) == 2
    assert "between steps 0 and 1" in switches[0]
    assert "between steps 1 and 2" in switches[1]


def test_extract_candidate_shapes(unit_trace):
    point, mult = extract_candidate(unit_trace)
    assert set(point) == {"x", "u"}
    assert set(mult) == {"z", "mu", "w", "rho", "xi"}
    assert_allclose(point["x"], unit_trace.limit["x"])
    assert_allclose(point["u"], unit_trace.limit["u"])


def test_failure_marker_keeps_partial_trace(tilted_spec, monkeypatch):
    from invoc import path as path_mod

    real = path_mod.solve_relaxed

    def flaky(spec, eps, **kwargs):
        if eps < 6e-3:
            raise ConvergenceError("forced failure", residuals={"x": 1.0})
        return real(spec, eps, **kwargs)

    monkeypatch.setattr(path_mod, "solve_relaxed", flaky)
    # the tilted path binds from level 0 on, so level 1 is solved, and fails
    trace = run_path(tilted_spec, eps0=1e-2, ratio=0.25, steps=4)
    assert not trace.converged
    assert len(trace.records) == 1
    assert trace.failure["k"] == 1
    assert trace.failure["eps"] == pytest.approx(2.5e-3)
    assert "forced failure" in trace.failure["message"]
    assert trace.failure["residuals"] == {"x": 1.0}
    assert trace.limit == {}
    with pytest.raises(InsufficientPathError):
        extract_candidate(trace)


def _stalling_spec():
    """A pointwise n = 2 instance whose level 7 stalls where V has a kink."""
    grid = build_grid(5)
    target = np.sin(np.pi * grid.nodes)
    return ProblemSpec(
        grid=grid, sigma=0.1606,
        lower=LowerObjective(kind="pointwise", points=(1, 4), target=target),
        upper=UpperObjective(c_y=1.0, y_o=0.334 * target, c_u=0.0, u_o=np.zeros(5), gamma=1.3e-3),
        x_set=AdmissibleSetX(kind="simplex", n=2),
        bounds=ControlBounds(ua=np.full(5, -1.18), ub=np.full(5, 1.18)),
    )


def test_stalled_level_ends_at_its_roundoff_floor_and_counts_its_work(monkeypatch):
    # level 7's x-loop halves its step down to one ulp of x, which the
    # Armijo slack accepted: 200 such steps made 27,580 + 9,288 band
    # solves.  A move within x's roundoff now ends the loop as a stall, and
    # the failed level's work, which its best point carries, is counted
    from invoc import path as path_mod

    real, errors = path_mod.solve_relaxed, []

    def kept(spec, eps, **kwargs):
        try:
            return real(spec, eps, **kwargs)
        except ConvergenceError as err:
            errors.append(err)
            raise

    monkeypatch.setattr(path_mod, "solve_relaxed", kept)
    trace = run_path(_stalling_spec())
    assert trace.failure["k"] == 7 and trace.failure["eps"] == 2.0**-7
    assert "stalled" in trace.failure["message"]
    assert "no step moves x beyond roundoff" in trace.failure["message"]
    (err,) = errors
    work = {name: getattr(err.best, name)
            for name in ("inner_iterations", "value_iterations", "outer_iterations")}
    assert trace.failure["work"] == work
    assert work["outer_iterations"] < 200 and work["value_iterations"] <= 1000
    for name, count in work.items():
        assert trace.work[name] == count + sum(
            getattr(r.relaxed, name) for r in trace.records if r.start != "carried")


def test_level_failing_before_its_first_step_counts_its_work():
    # level 0's alpha = 0 member fails in the kernel after 200 band solves,
    # before any x-step: the trace counts them with the start sample's
    trace = run_path(make_capped_member_spec())
    assert trace.failure["k"] == 0 and not trace.records
    assert "after 200 solves" in trace.failure["message"]
    work = trace.failure["work"]
    assert work["inner_iterations"] >= 200 and work["value_iterations"] >= 1
    assert trace.work == work


def test_level_whose_start_sample_fails_counts_its_work(monkeypatch):
    # the start's own value sample fails in the kernel after 2 active-set
    # steps and the refinement step, before any start level exists to carry
    # them: the trace counts that lower solve's band solves
    spec = make_bounded_spec(64)
    monkeypatch.setattr(invoc.lower, "_MAX_SOLVES", 2)
    trace = run_path(spec)
    assert trace.failure["k"] == 0 and not trace.records
    assert "QP solve missed tol 1e-10 after 3 solves" in trace.failure["message"]
    work = {"inner_iterations": 0, "value_iterations": 3, "outer_iterations": 0}
    assert trace.failure["work"] == work and trace.work == work


def test_unbounded_multipliers_are_flagged(unit_spec, unit_trace):
    # a multiplier sup norm above 1e8 says the bounded-multiplier premise fails
    trace = replace(unit_trace, multiplier_sup=1e9, warnings=[])
    _finalize(unit_spec, trace)
    assert not trace.multipliers_bounded
    assert any("sup norm 1.000e+09" in w and "premise looks violated" in w for w in trace.warnings)


def test_finalize_warns_as_the_test_on_every_pair_does():
    # _finalize skips the weak-duality test where a carried record shares its
    # predecessor's alpha = 0 solution.  With F moved up and down by 1e-3 on
    # alternate solutions of the bounded path (13 carried levels, then
    # solved ones at alpha > 0), its warnings are those of the test on every
    # consecutive pair
    spec = make_bounded_spec(16)
    trace = run_path(spec)
    sols = list({id(r.relaxed): r.relaxed for r in trace.records}.values())
    moved = {id(s): replace(s, upper_value=s.upper_value + (-1.0) ** j * 1e-3)
             for j, s in enumerate(sols)}
    recs = [replace(r, relaxed=moved[id(r.relaxed)]) for r in trace.records]
    assert sum(a.relaxed is b.relaxed for a, b in zip(recs, recs[1:])) == 13
    want = []
    for a, b in zip(recs, recs[1:]):
        rise = b.relaxed.upper_value - a.relaxed.upper_value
        lo, hi = a.relaxed.alpha * (a.eps - b.eps), b.relaxed.alpha * (a.eps - b.eps)
        slack = 1e-9 * (1.0 + abs(a.relaxed.upper_value))
        if not lo - slack <= rise <= hi + slack:
            want.append(f"upper value rose by {rise:.3e} between steps {a.k} and {b.k}, "
                        f"outside [{lo:.3e}, {hi:.3e}]; likely a local-minimum switch")
    again = replace(trace, records=recs, warnings=[])
    _finalize(spec, again)
    assert want and [w for w in again.warnings if "local-minimum" in w] == want
    assert [w for w in again.warnings if "local-minimum" not in w] == trace.warnings


def test_trace_rows_export(unit_trace):
    rows = trace_rows(unit_trace)
    assert len(rows) == 7
    for k, row in enumerate(rows):
        assert row["k"] == k
        for key in ("eps", "upper_value", "gap", "alpha", "du_lower"):
            assert key in row
        assert row["start"] == unit_trace.records[k].start
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
    # the recorded complementarity meets the path's comp_tol
    assert max(r.relaxed.residuals["comp"] for r in trace.records) <= 1e-12
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


def test_multiplier_search_stays_near_its_root():
    # at eps = 1/64 (level 6) a search whose step lands on the top of its
    # bracket must not restart decades below the root: a secant with that
    # fallback took 41 band solves at this level, Newton on the exact slope 6
    spec = make_default_problem()
    trace = run_path(spec, steps=40, feas_tol=1e-12, stat_tol=1e-7, comp_tol=1e-12)
    assert trace.failure is None and len(trace.records) == 41
    assert trace.records[6].eps == 1.5625e-2
    assert trace.records[6].relaxed.inner_iterations <= 10
    point, multipliers = extract_candidate(trace)
    assert classify(spec, point, multipliers, tol=1e-4).classification == "S"


def test_multiplier_searches_at_positive_alpha_stay_near_their_roots():
    # the search above now runs on no level of its path, which carries level
    # 0; on the unplanted deep path every predicted level searches at
    # alpha > 0, at most 20 band solves (at k = 6)
    spec = make_tilted_spec(63)
    trace = run_path(spec, **DEEP)
    assert trace.failure is None and len(trace.records) == 41
    searched = [r.relaxed for r in trace.records if r.start == "predicted"]
    assert len(searched) == 35
    assert all(sol.alpha > 0.0 and 0 < sol.inner_iterations <= 25 for sol in searched)
    point, multipliers = extract_candidate(trace)
    assert classify(spec, point, multipliers, tol=1e-4).classification == "S"


def test_each_level_samples_its_lower_solution_once(monkeypatch):
    # one cold lower solve, for the first start; every level keeps the
    # sample its x was accepted with, and the next level's start and the
    # limit reuse it
    cold = []
    solve = invoc.value.solve_lower

    def counted(spec, x, tol=None, warm_start=None):
        cold.append(warm_start is None)
        return solve(spec, x, tol=tol, warm_start=warm_start)

    monkeypatch.setattr(invoc.value, "solve_lower", counted)
    trace = run_path(make_default_problem(),
                     steps=40, feas_tol=1e-12, stat_tol=1e-7, comp_tol=1e-12)
    assert trace.failure is None
    assert sum(cold) == 1


def _sample_values(vs):
    # every value of a sample as bytes; lower.iterations is left out, as it
    # counts the band solves that made the sample, which depend on its start
    low = vs.lower
    return [np.asarray(v).tobytes() for v in (vs.x, vs.phi, vs.grad_phi, low.x, low.y,
                                              low.u, low.p, low.lam, low.kkt_residual)]


@pytest.mark.parametrize("name", ["default", "bounded_spec"])
def test_every_level_keeps_a_cold_exact_sample(name, request):
    # the sample a level's x was accepted with is the cold sample at that x
    # bitwise, so its residuals are the independent check's
    spec = make_default_problem() if name == "default" else request.getfixturevalue(name)
    trace = run_path(spec, steps=40, feas_tol=1e-12, stat_tol=1e-7, comp_tol=1e-12)
    assert trace.failure is None and len(trace.records) == 41
    for rec in trace.records:
        sol = rec.relaxed
        assert _sample_values(sol.sample) == _sample_values(invoc.value.value_sample(spec, sol.x))
        assert relaxed_kkt_residuals(spec, sol) == sol.residuals


def test_levels_the_previous_level_solves_are_carried_over(monkeypatch):
    # a level whose predecessor ends at alpha = 0 with gap <= eps, where its
    # x stays stationary, is recorded without a solve; solving it anyway
    # from that predecessor gives back the same point bitwise
    from invoc import path as path_mod
    from invoc import relax

    calls = []

    def counted(spec, eps, **kwargs):
        calls.append(eps)
        return relax.solve_relaxed(spec, eps, **kwargs)

    monkeypatch.setattr(path_mod, "solve_relaxed", counted)
    spec = make_default_problem()
    tols = {"feas_tol": 1e-12, "stat_tol": 1e-7, "comp_tol": 1e-12}
    trace = run_path(spec, steps=40, **tols)
    assert trace.failure is None and len(trace.records) == 41
    assert calls == [r.eps for r in trace.records if r.start != "carried"]
    carried = [r for r in trace.records if r.start == "carried"]
    assert carried
    rows = trace_rows(trace)
    for rec in carried:
        sol, prev = rec.relaxed, trace.records[rec.k - 1].relaxed
        assert sol is prev and sol.eps > rec.eps
        row = rows[rec.k]
        assert row["inner_iterations"] == row["value_iterations"] == row["outer_iterations"] == 0
        again = relax.solve_relaxed(spec, rec.eps, warm=prev, **tols)
        for name in ("x", "y", "u", "p", "lam", "z"):
            assert getattr(again, name).tobytes() == getattr(sol, name).tobytes(), name
        assert (again.alpha, again.gap, again.upper_value) == (sol.alpha, sol.gap, sol.upper_value)
        assert again.residuals == sol.residuals
        assert again.sample is sol.sample


def _level_bits(sol):
    """The fields of a level that relax._level derives, as bytes."""
    values = [sol.y, sol.p, sol.lam, sol.z, sol.gap, sol.upper_value]
    return ([np.asarray(v).tobytes() for v in values]
            + [(k, np.float64(v).tobytes()) for k, v in sorted(sol.residuals.items())])


@pytest.mark.parametrize("name", ["tilted63_deep", "bounded16"])
def test_each_solved_level_is_its_own_rebuild(name):
    # relax._level is the one builder of a level: rebuilt from the level's
    # own (eps, x, alpha, u, sample), every solved level comes back bitwise
    deep = name == "tilted63_deep"
    spec = make_tilted_spec(63) if deep else make_bounded_spec(16)
    trace = run_path(spec, **(DEEP if deep else {}))
    solved = [r.relaxed for r in trace.records if r.start != "carried"]
    assert trace.failure is None and solved
    for sol in solved:
        again = invoc.relax._level(spec, sol.eps, sol.x, sol.alpha, sol.u, sol.sample,
                                   inner_iterations=0, outer_iterations=0, converged=True)
        assert _level_bits(again) == _level_bits(sol), sol.eps


def _path_case(name):
    """(spec, run_path keywords) of the named path."""
    if name == "generated64_deep":
        return make_generated_spec(64, (0.3, 0.7)), DEEP
    return (make_bounded_spec(64) if name == "bounded64" else make_tilted_spec(63)), {}


@pytest.mark.parametrize("name, solves", [("generated64_deep", 37), ("bounded64", 110),
                                          ("tilted63", 143)])
def test_paths_solve_the_alpha_zero_member_once(name, solves):
    # the alpha = 0 u-subproblem does not depend on x, so a path solves it
    # once and a level that restarts at alpha = 0 from its predecessor's
    # sample reuses its tangent and gap too; solving it at every x took
    # 51, 121 and 172 band solves on these paths
    spec, tols = _path_case(name)
    trace = run_path(spec, **tols)
    assert trace.failure is None
    assert trace.work["inner_iterations"] <= solves


@pytest.mark.parametrize("name, total", [("generated64_deep", 4), ("bounded64", 82),
                                         ("tilted63", 216)])
def test_trace_work_sums_every_band_solve(name, total):
    # a level's band solves are its u-subproblems' (inner) and its value
    # samples', a predicted start's included.  With gamma = 0 the planted
    # path minimises the convex gap at alpha = 0 with no multiplier search,
    # and the bounded one searches only where alpha > 0; the tilted path
    # has gamma > 0
    spec, tols = _path_case(name)
    trace = run_path(spec, **tols)
    assert trace.failure is None
    rows = trace_rows(trace)
    for field in ("inner_iterations", "value_iterations", "outer_iterations"):
        assert trace.work[field] == sum(row[field] for row in rows) == sum(
            getattr(r.relaxed, field) for r in trace.records if r.start != "carried")
    assert trace.work["inner_iterations"] + trace.work["value_iterations"] <= total


def _planted(kind, box, n):
    """An N = 16 instance planted at an interior x*, with n components of j."""
    grid = build_grid(16)
    w = grid.nodes
    if kind == "target_type":
        lower = LowerObjective(kind=kind, targets=np.stack(
            [np.sin((i + 1) * np.pi * w) for i in range(n)]))
    else:
        lower = LowerObjective(kind=kind, points=(2, 6, 10)[:n], target=np.sin(np.pi * w))
    x_set = (AdmissibleSetX(kind="box", n=n, lo=np.zeros(n), hi=np.ones(n)) if box
             else AdmissibleSetX(kind="simplex", n=n))
    zeros = np.zeros(16)
    x_star = np.array((0.3, 0.7) if n == 2 else (0.2, 0.3, 0.5))
    spec = ProblemSpec(grid=grid, sigma=1e-2, lower=lower,
                       upper=UpperObjective(c_y=1.0, y_o=zeros, c_u=1.0, u_o=zeros),
                       x_set=x_set, bounds=ControlBounds(ua=np.full(16, -50.0),
                                                         ub=np.full(16, 50.0)))
    return plant(spec, x_star), x_star


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("box", [False, True], ids=["simplex", "box"])
@pytest.mark.parametrize("kind", ["target_type", "pointwise"])
def test_planted_limits_land_on_x_star(kind, box, n):
    # with gamma = 0 the gap G at the x-free control is convex and zero at
    # x* alone, and the first level minimises it to the roundoff of its
    # gradient, so every later level carries over and the limit is x*
    spec, x_star = _planted(kind, box, n)
    trace = run_path(spec)
    assert trace.failure is None
    assert all(r.relaxed.alpha == 0.0 for r in trace.records)
    assert np.abs(trace.limit["x"] - x_star).max() <= 1e-10
    assert trace.limit["upper_value"] <= 1e-20
    assert trace.records[0].relaxed.outer_iterations > 0
    assert trace.work["outer_iterations"] == trace.records[0].relaxed.outer_iterations


def test_gap_phase_hands_over_where_alpha_zero_cannot_reach(monkeypatch):
    # min G is 7.0e-5 on the bounded instance, so level 14 (eps 6.1e-5)
    # cannot end at alpha = 0: at its predecessor's minimiser of G the
    # Frank-Wolfe minorant proves it on that level's sample alone, and the
    # multiplier search and x-loop end the level at alpha > 0
    spec = make_bounded_spec(64)
    trace = run_path(spec)
    assert trace.failure is None
    level = next(r for r in trace.records if r.relaxed.alpha > 0.0)
    warm = trace.records[level.k - 1].relaxed
    assert level.k == 14 and warm.alpha == 0.0 and warm.gap > level.eps + 1e-8
    calls = []
    sample, evaluate = invoc.relax.value_sample, invoc.relax._Solver.evaluate

    def sampled(*args, **kwargs):
        calls.append("sample")
        return sample(*args, **kwargs)

    def searched(self, *args, **kwargs):
        calls.append("search")
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(invoc.relax, "value_sample", sampled)
    monkeypatch.setattr(invoc.relax._Solver, "evaluate", searched)
    sol = solve_relaxed(spec, level.eps, warm=warm)
    assert calls[0] == "search"
    assert sol.alpha > 0.0 and sol.x.tobytes() == level.relaxed.x.tobytes()


def test_gamma_positive_paths_keep_their_work():
    # with gamma > 0 F depends on x and no level minimises the gap: the
    # counts and limits measured before that phase existed
    cases = [
        (make_tilted_spec(16),
         [1, 0, 0, 0, 34, 22, 18, 7, 7, 7, 7, 7, 5, 5, 5, 5, 4, 2, 4, 2, 2],
         [0, 0, 0, 0, 11, 5, 4, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0, 1, 0, 0],
         [0.31852253270829145, 0.6814774672917085]),
        (make_generated_spec(16, (0.3, 0.7), gamma=1e-3),
         [1, 0, 0, 0, 0, 0, 30, 59, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 5, 3, 3],
         [0, 0, 0, 0, 0, 0, 10, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
         [0.3015678706746435, 0.6984321293253564]),
    ]
    for spec, inner, outer, x in cases:
        trace = run_path(spec)
        assert trace.failure is None
        rows = trace_rows(trace)
        assert [row["inner_iterations"] for row in rows] == inner
        assert [row["outer_iterations"] for row in rows] == outer
        assert_allclose(trace.limit["x"], x, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("name", ["generated64_deep", "tilted63"])
def test_carried_levels_copy_their_recombination(name):
    # a carried level keeps its predecessor's solution and multipliers, and
    # multiplier_sup is taken as each solved level is recorded: bitwise the
    # recombination of every record and the sup over all of them
    spec, tols = _path_case(name)
    trace = run_path(spec, **tols)
    recs = trace.records
    assert trace.failure is None and any(r.start == "carried" for r in recs[1:])
    for prev, rec in zip(recs, recs[1:]):
        again = _recombine(spec, rec.k, rec.relaxed, rec.start)
        assert (rec.k, rec.start, np.float64(rec.du_lower).tobytes()) == (
            again.k, again.start, np.float64(again.du_lower).tobytes())
        assert (rec.eps == again.eps) == (rec.start != "carried")  # again has the solve's eps
        for field in ("mu", "w", "rho", "xi"):
            assert getattr(rec, field).tobytes() == getattr(again, field).tobytes(), (rec.k, field)
            if rec.start == "carried":
                assert getattr(rec, field) is getattr(prev, field)
    sup = 0.0
    for r in recs:
        sup = max(sup, r.relaxed.alpha, norm(spec.grid, r.mu), norm(spec.grid, r.w),
                  norm(spec.grid, r.rho), norm(spec.grid, r.xi))
    assert np.float64(trace.multiplier_sup).tobytes() == np.float64(sup).tobytes()


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


def test_unplanted_limit_converges_at_second_order_in_h():
    # the discrete bilevel solution approximates the continuous one: on
    # nested grids each difference of x_N and of F_N is a quarter of the last
    limits = [run_path(make_tilted_spec(n)).limit for n in (15, 31, 63, 127)]
    dx = [np.linalg.norm(b["x"] - a["x"]) for a, b in zip(limits, limits[1:])]
    dF = [abs(b["upper_value"] - a["upper_value"]) for a, b in zip(limits, limits[1:])]
    for diffs in (dx, dF):
        for ratio in (diffs[0] / diffs[1], diffs[1] / diffs[2]):
            assert 4.0 / 1.3 <= ratio <= 4.0 * 1.3


def test_gamma_path_within_its_work_budget():
    # with gamma > 0 the x-loop takes many steps and rejects many trials;
    # the early stop of a rejected trial's multiplier search, the carried
    # step length, the predicted starts and Newton on gap^(-1/2) keep the
    # path near 170-200 band solves (981 and 551 with a plain warm start at
    # every level and Newton on log gap)
    for gamma, budget in ((1e-3, 300), (1e-2, 255)):
        trace = run_path(make_generated_spec(32, (0.25, 0.75), gamma=gamma))
        assert trace.failure is None and len(trace.records) == 21
        assert "predicted" in [r.start for r in trace.records]
        assert trace.work["inner_iterations"] <= budget, gamma


def test_bound_path_within_its_work_budget():
    # the binding bound holds alpha > 0 from level 1 on; the path's
    # u-subproblems take 53 band solves here, 52 of them in the multiplier
    # searches of levels 14-20
    trace = run_path(make_bounded_spec(64))
    assert trace.failure is None and len(trace.records) == 21
    assert trace.work["inner_iterations"] <= 130


def test_criterion_5_relaxation_feasibility_at_positive_alpha():
    # the acceptance gate's criterion 5 on an unplanted instance, where 17
    # of the default path's 21 levels end at alpha > 0
    spec = make_tilted_spec(63)
    trace = run_path(spec)
    assert trace.failure is None
    assert sum(r.relaxed.alpha > 0.0 for r in trace.records) == 17
    worst = max(max(0.5 * spec.sigma * r.du_lower ** 2 - r.eps, r.relaxed.gap - r.eps)
                for r in trace.records)
    assert worst <= 1e-8


def test_criterion_7_oracle_agreement_at_positive_alpha():
    # the acceptance gate's criterion 7 on the same instance's deep path,
    # whose limit has alpha -> infinity and F > 0
    spec = make_tilted_spec(63)
    trace = run_path(spec, **DEEP)
    assert trace.failure is None and trace.records[-1].relaxed.alpha > 0.0
    assert abs(trace.limit["upper_value"] - grid_search(spec, 200).best_value) <= 1e-3


@pytest.mark.xfail(strict=True, reason="stalls at eps 2^-6 on a smooth piece (ROADMAP item 4)")
def test_box_path_with_gamma_completes():
    # the planted box instance with gamma = 1e-3 completes at N = 16, but at
    # N = 32 and 64 the x-loop stalls after 200 x-steps at k = 6 with
    # alpha about 3e-3, where no control bound is active
    box = AdmissibleSetX(kind="box", n=2, lo=np.zeros(2), hi=np.ones(2))
    trace = run_path(make_generated_spec(32, (0.3, 0.7), x_set=box, gamma=1e-3))
    assert trace.failure is None and len(trace.records) == 21


def test_predictor_caps_alpha_growth_at_the_inverse_eps_rate(tilted_spec):
    # alpha_a far below alpha_b would extrapolate a huge alpha; the start
    # takes alpha_b eps_b / eps instead, and a slower fit stands
    b = solve_relaxed(tilted_spec, 1e-2)
    assert b.alpha > 0.0
    for ratio, want in ((1e-6, 2.0), (1.0 / 1.2, 1.2)):
        a = replace(b, eps=2e-2, alpha=ratio * b.alpha)
        start = _predict(a, b, 5e-3)
        assert start.alpha == pytest.approx(want * b.alpha, rel=1e-12)


def test_step_length_survives_carry_over(monkeypatch):
    # the first level solved after carried ones starts from the solution
    # they keep, step length and all: on the bounded path levels 1-13 are
    # carried and level 14 is solved
    from invoc import path as path_mod

    real, warms = path_mod.solve_relaxed, []

    def stepped(spec, eps, warm=None, **kwargs):
        warms.append(warm)
        return replace(real(spec, eps, warm=warm, **kwargs), step=0.375)

    monkeypatch.setattr(path_mod, "solve_relaxed", stepped)
    trace = run_path(make_bounded_spec(64))
    assert trace.failure is None
    assert [r.start for r in trace.records[1:14]] == 13 * ["carried"]
    assert trace.records[14].start == "warm" and warms[1] is trace.records[13].relaxed
    assert warms[1].step == 0.375


def test_warm_step_length_only_with_a_positive_multiplier(tilted_spec, monkeypatch):
    # at alpha = 0 the last secant measured a V whose constraint was
    # inactive, so the first trial takes step length 1 whatever warm.step
    # is; with alpha > 0 it takes warm.step.  The tilted level at eps 0.1
    # ends at alpha = 0, the one at 1e-2 at alpha > 0
    trials = []
    sample = invoc.relax.value_sample

    def recorded(spec, x, warm_start=None):
        if warm_start is not None:  # a trial x of the x-loop
            trials.append(np.asarray(x).tobytes())
        return sample(spec, x, warm_start=warm_start)

    monkeypatch.setattr(invoc.relax, "value_sample", recorded)
    for spec, eps, kept in ((tilted_spec, 0.1, False), (tilted_spec, 1e-2, True)):
        warm = solve_relaxed(spec, eps)
        assert (warm.alpha > 0.0) == kept
        runs = []
        for step in (1.0, 1e-3):
            trials.clear()
            sol = solve_relaxed(spec, 0.1 * eps, warm=replace(warm, step=step))
            runs.append((list(trials), sol.x.tobytes(), sol.inner_iterations))
        assert runs[0][0] and runs[1][0]
        assert (runs[0][0][0] != runs[1][0][0]) == kept
        if not kept:
            assert runs[0] == runs[1]


DEEP = {"steps": 40, "feas_tol": 1e-12, "stat_tol": 1e-7, "comp_tol": 1e-12}


def _reference_path(spec, steps=20, **tols):
    """run_path's levels at eps0 1 and ratio 1/2, each started from its
    predecessor: the path without its predictor.  A level that its
    predecessor solves repeats that solution."""
    tols = {"feas_tol": 1e-8, "stat_tol": 1e-7, "comp_tol": 1e-8, **tols}
    sols, warm = [], None
    for k in range(steps + 1):
        eps = 0.5**k
        if warm is None or warm.alpha > 0.0 or warm.gap > eps:
            warm = solve_relaxed(spec, eps, warm=warm, **tols)
        sols.append(warm)
    return sols


def _solved(sols):
    """The solutions of a list of levels that are not their predecessor's."""
    return [sol for i, sol in enumerate(sols) if i == 0 or sol is not sols[i - 1]]


@pytest.mark.parametrize("name", ["default", "generated64"])
def test_planted_deep_path_equals_the_plain_warm_start_path(name):
    # every solved level of a planted path ends at alpha = 0, so no level
    # is predicted and the path is the plain warm-start loop bitwise
    spec = make_default_problem() if name == "default" else make_generated_spec(64, (0.3, 0.7))
    trace = run_path(spec, **DEEP)
    reference = _reference_path(spec, **DEEP)
    assert trace.failure is None and len(trace.records) == len(reference) == 41
    assert trace.records[0].start == "cold"
    assert {r.start for r in trace.records[1:]} <= {"warm", "carried"}
    assert [r.start == "carried" for r in trace.records[1:]] == [
        sol is prev for prev, sol in zip(reference, reference[1:])]
    for rec, ref in zip(trace.records, reference):
        sol = rec.relaxed
        for name in ("x", "y", "u", "z", "p", "lam"):
            assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), (rec.k, name)
        assert (sol.alpha, sol.gap, sol.upper_value, sol.step) == (
            ref.alpha, ref.gap, ref.upper_value, ref.step)
        assert (sol.inner_iterations, sol.outer_iterations) == (
            ref.inner_iterations, ref.outer_iterations)
        assert sol.residuals == ref.residuals


@pytest.mark.parametrize("tols", [{}, DEEP], ids=["default", "deep"])
def test_predicted_starts_reach_the_same_limit_with_less_work(tols):
    # the unplanted limit has alpha -> infinity, and the x_k and alpha_k
    # that the predictor extrapolates lie on a smooth path in sqrt(eps)
    spec = make_tilted_spec(63)
    trace = run_path(spec, **tols)
    reference = _reference_path(spec, **tols)
    assert trace.failure is None and len(trace.records) == len(reference)
    starts = [r.start for r in trace.records]
    assert "predicted" in starts
    last = reference[-1]
    low = last.sample.lower
    assert np.max(np.abs(trace.limit["x"] - last.x)) <= 1e-6
    assert trace.limit["upper_value"] == pytest.approx(
        spec.upper.value(spec.grid, last.x, low.y, low.u), rel=1e-9)
    assert trace.records[-1].relaxed.upper_value == pytest.approx(last.upper_value, rel=1e-9)
    solves = trace.work["inner_iterations"]
    assert solves <= 0.75 * sum(sol.inner_iterations for sol in _solved(reference))


def test_unplanted_paths_at_large_n():
    # the kernel's u carried an error of up to 2e-10 here before its
    # refinement step: the default path at N = 1023 missed solver_tol 1e-10
    # at k = 17, and the deep path at N = 511 took 5,358 band solves on the
    # stationarity noise floor that error set (224 now)
    trace = run_path(make_tilted_spec(1023))
    assert trace.failure is None and len(trace.records) == 21
    trace = run_path(make_tilted_spec(511), **DEEP)
    assert trace.failure is None and len(trace.records) == 41
    assert trace.work["inner_iterations"] < 4096


def _forced_failures(monkeypatch, eps_failing):
    """Make the relaxed solves at eps_failing raise from a predicted start,
    after the real attempt."""
    from invoc import path as path_mod

    predicted, attempts = [], []
    real_predict, real_solve = path_mod._predict, path_mod.solve_relaxed

    def predict(*args):
        predicted.append(real_predict(*args))
        return predicted[-1]

    def flaky(spec, eps, warm=None, **kwargs):
        sol = real_solve(spec, eps, warm=warm, **kwargs)
        if eps == eps_failing and any(warm is start for start in predicted):
            attempts.append(sol)
            raise ConvergenceError("forced failure from a predicted start",
                                   best=replace(sol, converged=False), residuals={"x": 1.0})
        return sol

    monkeypatch.setattr(path_mod, "_predict", predict)
    monkeypatch.setattr(path_mod, "solve_relaxed", flaky)
    return attempts


def test_failed_predicted_start_fails_the_path(tilted_spec, monkeypatch):
    # each level is solved once: a failure from the predicted start ends the
    # path at that level, as a failure from any other start does
    clean = run_path(tilted_spec)
    k = [r.start for r in clean.records].index("predicted") + 1
    assert clean.records[k].start == "predicted"
    attempts = _forced_failures(monkeypatch, clean.records[k].eps)
    trace = run_path(tilted_spec)
    assert len(attempts) == 1 and not trace.converged
    assert trace.failure["k"] == k and trace.failure["eps"] == clean.records[k].eps
    assert trace.failure["message"] == "forced failure from a predicted start"
    assert trace.failure["residuals"] == {"x": 1.0}
    assert len(trace.records) == k
    for rec, ref in zip(trace.records, clean.records):
        assert rec.start == ref.start
        assert rec.relaxed.x.tobytes() == ref.relaxed.x.tobytes() and rec.relaxed.alpha == ref.relaxed.alpha
    assert trace.limit == {}
    with pytest.raises(InsufficientPathError):
        extract_candidate(trace)
