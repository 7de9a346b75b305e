"""Lattice oracle: planted optima, nesting under refinement, tie-breaking,
the batched solves against the dense reference and the per-row kernel, and
which rows reach the kernel."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import invoc.lower
import invoc.oracle
from invoc import (
    AdmissibleSetX,
    ControlBounds,
    LowerObjective,
    LowerSolution,
    ProblemSpec,
    UpperObjective,
    build_grid,
    grid_search,
    make_box_variant,
    solve_lower,
)
from invoc.errors import ConvergenceError, ValidationError
from invoc.lower import _fixed_point_residual, _solve_qp, lower_qp

from conftest import make_generated_spec
from test_lower import _repeated_point_spec
from util_dense import solve_lower_dense, upper_value_dense


def _pure_parameter_spec(base: ProblemSpec, x_set: AdmissibleSetX) -> ProblemSpec:
    # F depends on x alone, so the oracle minimum is the projection of the
    # origin onto the admissible set
    n_nodes = base.grid.n_nodes
    return ProblemSpec(
        grid=base.grid, sigma=base.sigma, lower=base.lower,
        upper=UpperObjective(c_y=0.0, y_o=np.zeros(n_nodes),
                             c_u=0.0, u_o=np.zeros(n_nodes), gamma=1.0),
        x_set=x_set, bounds=base.bounds,
    )


def test_pure_parameter_minimum_simplex(unit_spec):
    spec = _pure_parameter_spec(unit_spec, AdmissibleSetX(kind="simplex", n=2))
    result = grid_search(spec, resolution=10)
    assert_allclose(result.best_x, [0.5, 0.5], atol=1e-15)
    assert result.best_value == pytest.approx(0.25, rel=1e-13)
    assert result.sample_count == 11
    assert result.lattice == "simplex"
    assert result.samples is None


def test_pure_parameter_minimum_box(unit_spec):
    box = AdmissibleSetX(kind="box", n=2,
                         lo=np.array([0.2, 0.2]), hi=np.array([1.0, 1.0]))
    spec = _pure_parameter_spec(unit_spec, box)
    result = grid_search(spec, resolution=5)
    assert_allclose(result.best_x, [0.2, 0.2], atol=1e-15)
    assert result.best_value == pytest.approx(0.04, rel=1e-13)
    assert result.sample_count == 36
    assert result.lattice == "box"


def test_refinement_nests_and_recovers_plant(unit_spec):
    # 0.3 = 3/10 = 6/20 = 12/40, so the planted parameter lies on all three
    # lattices and refinement can only improve the best value
    values = []
    for resolution in (10, 20, 40):
        result = grid_search(unit_spec, resolution)
        assert_allclose(result.best_x, [0.3, 0.7], atol=1e-15)
        values.append(result.best_value)
    assert values[0] <= 1e-10
    assert values[1] <= values[0] + 1e-15
    assert values[2] <= values[1] + 1e-15


def test_nested_lattice_values_agree(unit_spec):
    coarse = grid_search(unit_spec, 10, keep_samples=True)
    fine = grid_search(unit_spec, 20, keep_samples=True)
    assert_allclose(fine.samples[::2, :2], coarse.samples[:, :2], atol=1e-15)
    assert_allclose(fine.samples[::2, 2], coarse.samples[:, 2], atol=1e-9)


def test_constant_objective_tie_breaks_to_first_point(unit_spec):
    n_nodes = unit_spec.grid.n_nodes
    flat = ProblemSpec(
        grid=unit_spec.grid, sigma=unit_spec.sigma, lower=unit_spec.lower,
        upper=UpperObjective(c_y=0.0, y_o=np.zeros(n_nodes),
                             c_u=0.0, u_o=np.zeros(n_nodes), gamma=0.0),
        x_set=unit_spec.x_set, bounds=unit_spec.bounds,
    )
    result = grid_search(flat, resolution=7)
    assert_allclose(result.best_x, [0.0, 1.0], atol=1e-15)
    assert result.best_value == 0.0


def test_batched_values_match_dense_reference(unit_spec):
    result = grid_search(unit_spec, 6, keep_samples=True)
    assert result.samples.shape == (7, 3)
    for row in result.samples:
        x = row[:2]
        y, u = solve_lower_dense(unit_spec, x)
        assert row[2] == pytest.approx(
            upper_value_dense(unit_spec, x, y, u), abs=5e-8
        )
    k = int(np.argmin(result.samples[:, 2]))
    assert_allclose(result.samples[k, :2], result.best_x, atol=1e-15)
    assert result.samples[k, 2] == result.best_value


def test_three_parameter_simplex_lattice():
    grid = build_grid(8)
    w = grid.nodes
    targets = np.vstack([np.sin(np.pi * w), np.sin(2 * np.pi * w), w * (1 - w)])
    spec = ProblemSpec(
        grid=grid, sigma=1e-2,
        lower=LowerObjective(kind="target_type", targets=targets),
        upper=UpperObjective(c_y=0.0, y_o=np.zeros(8),
                             c_u=0.0, u_o=np.zeros(8), gamma=1.0),
        x_set=AdmissibleSetX(kind="simplex", n=3),
        bounds=ControlBounds(ua=np.full(8, -50.0), ub=np.full(8, 50.0)),
    )
    result = grid_search(spec, resolution=6)
    assert result.sample_count == 28  # (6+1)(6+2)/2 barycentric points
    assert_allclose(result.best_x, np.full(3, 1.0 / 3.0), atol=1e-15)


def test_compare_reports_gap(unit_spec):
    result = grid_search(unit_spec, 10)
    assert result.sample_count == 11

    # an on-lattice candidate can never beat the lattice best
    x = np.array([0.4, 0.6])
    low = solve_lower(unit_spec, x, tol=1e-12)
    value = unit_spec.upper.value(unit_spec.grid, x, low.y, low.u)
    assert value - result.best_value >= -1e-9


def test_dimension_and_resolution_validation(unit_spec):
    grid = build_grid(8)
    w = grid.nodes
    targets = np.vstack([w, w ** 2, w ** 3, np.sin(np.pi * w)])
    wide = ProblemSpec(
        grid=grid, sigma=1e-2,
        lower=LowerObjective(kind="target_type", targets=targets),
        upper=UpperObjective(c_y=0.0, y_o=np.zeros(8),
                             c_u=0.0, u_o=np.zeros(8), gamma=1.0),
        x_set=AdmissibleSetX(kind="simplex", n=4),
        bounds=ControlBounds(ua=np.full(8, -50.0), ub=np.full(8, 50.0)),
    )
    with pytest.raises(ValidationError, match="at most 3"):
        grid_search(wide, 5)
    with pytest.raises(ValidationError, match="resolution"):
        grid_search(unit_spec, 1)
    # a fractional resolution would put box points outside X_ad, and the
    # simplex lattice would fail inside itertools
    for spec in (make_box_variant(), unit_spec):
        with pytest.raises(ValidationError, match="resolution must be an integer"):
            grid_search(spec, 2.5)
    for bad in ("1", None):
        with pytest.raises(ValidationError, match="tol must be a number"):
            grid_search(unit_spec, 4, tol=bad)
    with pytest.raises(ValidationError, match="tol must be positive and finite"):
        grid_search(unit_spec, 4, tol=math.inf)
    with pytest.raises(ValidationError, match="resolution must be an integer"):
        grid_search(unit_spec, True)
    result = grid_search(unit_spec, np.int64(4))
    assert result.sample_count == 5 and type(result.resolution) is int


def test_batch_iteration_cap_raises(unit_spec, bounded_spec, monkeypatch):
    # on bounded_spec the bound binds at some lattice rows, and a kernel
    # allowed no band solve leaves such a row at P_U of its warm start,
    # which its fixed-point check rejects
    monkeypatch.setattr(invoc.lower, "_MAX_SOLVES", 0)
    with pytest.raises(ConvergenceError, match="fixed-point residual") as excinfo:
        grid_search(bounded_spec, 5)
    assert excinfo.value.residuals["fixed_point"] > 0.0
    monkeypatch.undo()
    # no bound binds on unit_spec; an unreachable tol makes the batched check
    # reject every row, and the kernel raises
    with pytest.raises(ConvergenceError, match="fixed-point residual") as excinfo:
        grid_search(unit_spec, 5, tol=1e-300)
    assert excinfo.value.residuals["fixed_point"] > 0.0


def test_kernel_failure_carries_a_lower_solution(bounded_spec):
    # the first lattice row the kernel fails on is reported as the public
    # LowerSolution at that row, with the residual the error reports
    with pytest.raises(ConvergenceError, match="fixed-point residual") as excinfo:
        grid_search(bounded_spec, 5, tol=1e-30)
    best = excinfo.value.best
    assert type(best) is LowerSolution
    assert best.x.sum() == pytest.approx(1.0) and np.array_equal(np.round(5 * best.x), 5 * best.x)
    fresh, y, p = _fixed_point_residual(bounded_spec, lower_qp(bounded_spec, best.x), best.u)
    assert fresh == excinfo.value.residuals["fixed_point"] <= best.kkt_residual
    assert np.array_equal(y, best.y) and np.array_equal(p, best.p)
    assert np.array_equal(best.lam, best.p - bounded_spec.sigma * best.u)


def test_target_search_builds_no_dense_matrix():
    # the sine transform needs no N x N array: at N = 2048 a search's traced
    # peak stays below an eighth of the 32 MiB that one would take
    spec = _box(make_generated_spec(2048, (0.25, 0.75)))
    tracemalloc.start()
    try:
        grid_search(spec, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 2048 * 8 / 8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_box_lattice_is_the_meshgrid_bitwise(n):
    # each axis written into one array gives the meshgrid lattice, in its order
    lo, hi, m = np.array([0.1, 0.0, 0.7])[:n], np.array([1.3, 0.5 ** 0.5, 2.0])[:n], 7
    axes = [lo[d] + (hi[d] - lo[d]) * np.arange(m + 1) / m for d in range(n)]
    want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    assert np.array_equal(invoc.oracle._box_lattice(lo, hi, m), want)


@pytest.mark.parametrize("m", [2, 7, 200])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_simplex_lattice_matches_the_product_filter_bitwise(n, m):
    # the product of the first n - 1 coordinates filtered by their sum, the
    # last coordinate the rest: the same floats in the same order
    want = np.asarray([k + (m - sum(k),) for k in itertools.product(range(m + 1), repeat=n - 1)
                       if sum(k) <= m], dtype=float) / m
    got = invoc.oracle._simplex_lattice(n, m)
    assert got.shape == want.shape == (math.comb(m + n - 1, n - 1), n)
    assert got.tobytes() == want.tobytes()


def test_search_leaves_no_basis_on_the_operator():
    # the sine transform holds no basis: no N x N array stays reachable
    # from the spec's operator, which lives as long as the spec
    spec = make_generated_spec(16, (0.3, 0.7))
    grid_search(spec, 10)
    n, seen, stack = spec.grid.n_nodes, set(), [spec.operator]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            assert obj.shape != (n, n)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    assert len(seen) > 3  # the walk reached the grid and the factor


def _box(spec: ProblemSpec) -> ProblemSpec:
    """spec on the unit box."""
    n = spec.n
    return replace(spec, x_set=AdmissibleSetX(kind="box", n=n, lo=np.zeros(n), hi=np.ones(n)))


def _three_parameter_tracking_spec() -> ProblemSpec:
    grid = build_grid(12)
    w = grid.nodes
    targets = np.vstack([np.sin(np.pi * w), np.sin(2 * np.pi * w), w * (1 - w)])
    return ProblemSpec(
        grid=grid, sigma=1e-2,
        lower=LowerObjective(kind="target_type", targets=targets),
        upper=UpperObjective(c_y=1.0, y_o=0.1 * np.sin(np.pi * w),
                             c_u=1.0, u_o=np.zeros(12), gamma=1e-2),
        x_set=AdmissibleSetX(kind="simplex", n=3),
        bounds=ControlBounds(ua=np.full(12, -50.0), ub=np.full(12, 50.0)),
    )


def _clipped_box(spec: ProblemSpec, share: float = 0.6, u_max: float | None = None) -> ProblemSpec:
    """spec on the unit box, its upper control bound clipped to share u_max,
    by default max(u) of the lower solution at x = (1, 1), so that it binds
    on part of the box."""
    u_max = float(solve_lower(spec, np.ones(2)).u.max()) if u_max is None else u_max
    cap = share * u_max
    return replace(_box(spec), bounds=ControlBounds(ua=spec.bounds.ua,
                                                    ub=np.full(spec.grid.n_nodes, cap)))


@pytest.mark.parametrize("name", ["bounded_box", "pointwise", "bounded_pointwise",
                                  "repeated_point", "simplex3"])
def test_batched_values_match_per_row_kernel(name, bounded_spec, pointwise_spec):
    spec = {
        "bounded_box": lambda: _box(bounded_spec),
        "pointwise": lambda: pointwise_spec,
        "bounded_pointwise": lambda: _clipped_box(pointwise_spec),
        "repeated_point": lambda: _box(_repeated_point_spec()),
        "simplex3": _three_parameter_tracking_spec,
    }[name]()
    _assert_values_match_kernel(spec, grid_search(spec, 12, keep_samples=True))


def _assert_values_match_kernel(spec: ProblemSpec, result):
    X, vals = result.samples[:, :-1], result.samples[:, -1]
    want = []
    for x in X:
        y, u = _solve_qp(spec, lower_qp(spec, x), 1e-12)[:2]
        want.append(spec.upper.value(spec.grid, x, y, u))
    assert_allclose(vals, want, rtol=1e-12, atol=0.0)


def _processing_order(X):
    """The order in which the target kind's rows are solved: sorted by
    d = 2 sum(x), ties in lattice order."""
    return np.argsort(X.sum(axis=1), kind="stable")


def test_batched_values_match_per_row_kernel_across_blocks(bounded_spec, monkeypatch):
    # 169 rows in blocks of 21: eight full blocks and a last one of one row,
    # the rows taken in processing order
    spec = _box(bounded_spec)
    monkeypatch.setattr(invoc.oracle, "_BLOCK", 21)
    kernel, calls = invoc.oracle._solve_qp, []

    def recorded(spec, qp, tol, warm):
        sol = kernel(spec, qp, tol, warm)
        calls.append((qp.c.tobytes(), warm, sol.u))
        return sol

    monkeypatch.setattr(invoc.oracle, "_solve_qp", recorded)
    result = grid_search(spec, 12, keep_samples=True)
    _assert_values_match_kernel(spec, result)
    X = result.samples[:, :-1]
    lattice = {lower_qp(spec, x).c.tobytes(): i for i, x in enumerate(X)}
    position = np.argsort(_processing_order(X))  # each lattice row's place in processing order
    block = position // 21
    rows = [lattice[key] for key, *_ in calls]
    # the kernel takes the blocks in processing order and a block's rows in
    # lattice order, which differs from the processing order in some block
    assert rows == sorted(rows, key=lambda i: (block[i], i))
    assert any(position[a] > position[b] for a, b in zip(rows, rows[1:]) if block[a] == block[b])
    # the bound binds in several blocks and at the one-row last block
    assert len({block[i] for i in rows}) >= 2 and position[rows[-1]] == 168
    # each kernel row is warm-started from the last kernel solution, across
    # blocks too, and the first from P_U(0)
    assert calls[0][1] is None
    assert any(block[a] != block[b] for a, b in zip(rows, rows[1:]))
    for (_, _, u), (_, warm, _) in zip(calls, calls[1:]):
        assert np.array_equal(warm, u)


@pytest.mark.parametrize("case, block", [(2, 20), (3, 50), ("pointwise", 20),
                                         ("repeated_point", 20)])
def test_superposed_rows_solve_their_own_equations_across_blocks(case, block, unit_spec,
                                                                 pointwise_spec, monkeypatch):
    # every block's rows, of either kind, pass through the one check; each
    # row's y and p solve A y = u and A p = c - d y to roundoff with the c
    # and d of its own lower_qp, a repeated measurement node included, and
    # its u matches the per-row kernel.  For the target kind, rows of one d
    # run over a block boundary, so that each block builds its own basis
    spec = _box({2: lambda: unit_spec, 3: _three_parameter_tracking_spec,
                 "pointwise": lambda: pointwise_spec, "repeated_point": _repeated_point_spec}[case]())
    monkeypatch.setattr(invoc.oracle, "_BLOCK", block)
    check, blocks = invoc.oracle._projected_residual, []

    def recorded(spec, qp, u, y, p, out=None):
        blocks.append((u.copy(), y.copy(), p.copy()))
        return check(spec, qp, u, y, p, out=out)

    monkeypatch.setattr(invoc.oracle, "_projected_residual", recorded)
    result = grid_search(spec, 6 if case == 3 else 12, keep_samples=True)
    _assert_values_match_kernel(spec, result)
    X = result.samples[:, :-1]
    if spec.lower.kind == "target_type":
        X = X[_processing_order(X)]
        d = 2.0 * X.sum(axis=1)
        n = spec.n
        # some value of d has more than n rows on each side of a boundary
        assert any((d[s - block:s] == d[s - 1]).sum() > n and (d[s:s + block] == d[s]).sum() > n
                   for s in range(block, d.size, block))
    assert [len(u) for u, *_ in blocks] == [min(block, X.shape[0] - s) for s in range(0, X.shape[0], block)]
    A, scale = spec.operator.apply, 4.0 / spec.grid.h ** 2  # scale: the norm of A
    for x, u, y, p in zip(X, *(np.concatenate(a) for a in zip(*blocks))):
        qp = lower_qp(spec, x)
        assert np.abs(A(y) - u).max() <= 1e-14 * scale * np.abs(y).max()
        assert np.abs(A(p) - (qp.c - qp.d * y)).max() <= 1e-14 * scale * np.abs(p).max()
        want = _solve_qp(spec, qp, 1e-12).u
        assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()


def test_control_outside_the_bounds_reaches_the_kernel_when_the_targets_are_inside(
        unit_spec, monkeypatch):
    # a closed-form row has u = v = p/sigma in exact arithmetic, so a block
    # whose targets all lie inside the bounds while a control does not
    # arises only from roundoff.  Here it is made so: every row's u is set
    # to its v, the cap to one float above the largest v, and that entry of
    # its row to two floats above.  The block's check skips the projection
    # and passes the row, and the per-row bound test sends it, alone, to
    # the kernel
    spec = _box(unit_spec)
    real, blocks, calls, edit = invoc.oracle._target_rows, [], [], {}

    def edited_rows(spec, X):
        order, rows = real(spec, X)

        def filled(start, Xb, buffers):
            rows(start, Xb, buffers)
            U, _, P = buffers
            np.divide(P, spec.sigma, out=U)
            if start in edit:
                i, j, value = edit[start]
                U[i, j] = value
            blocks.append((start, Xb.copy(), U.copy()))
        return order, filled

    monkeypatch.setattr(invoc.oracle, "_target_rows", edited_rows)
    grid_search(spec, 12)
    start, Xb, V = max(blocks, key=lambda b: b[2].max())
    i, j = np.unravel_index(np.argmax(V), V.shape)
    cap = np.nextafter(V[i, j], np.inf)
    spec = replace(spec, bounds=ControlBounds(ua=spec.bounds.ua,
                                              ub=np.full(spec.grid.n_nodes, cap)))
    edit[start] = (i, j, np.nextafter(cap, np.inf))
    blocks.clear()
    check, kernel, checked = invoc.oracle._projected_residual, invoc.oracle._solve_qp, []

    def recorded(spec, qp, u, y, p, out=None):
        v = p / spec.sigma  # before the check, which writes over p
        checked.append((u.copy(), v, check(spec, qp, u, y, p, out=out)))
        return checked[-1][2]

    def counted(spec, qp, tol, warm):
        calls.append(qp.c.tobytes())
        return kernel(spec, qp, tol, warm)

    monkeypatch.setattr(invoc.oracle, "_projected_residual", recorded)
    monkeypatch.setattr(invoc.oracle, "_solve_qp", counted)
    result = grid_search(spec, 12, keep_samples=True)
    bounds = spec.bounds
    k = [b[0] for b in blocks].index(start)
    u, v, residual = checked[k]
    assert bounds.inside(v) and not bounds.inside(u) and residual[i] <= 1e-12
    diff = u - np.minimum(bounds.ub, np.maximum(bounds.ua, v))
    assert np.array_equal(residual, np.sqrt(spec.grid.h) * np.sqrt(invoc.model._row_dot(diff)))
    assert calls == [lower_qp(spec, Xb[i]).c.tobytes()]
    _assert_values_match_kernel(spec, result)


@pytest.mark.parametrize("share, flags", [(0.9, {(True, True), (False, False)}),
                                          (1.0, {(True, True), (True, False)})])
def test_block_wide_bound_test_matches_the_elementwise_one(share, flags, unit_spec, monkeypatch):
    # with the cap at 0.9 max(u) of x = (1, 1) the bound binds in some blocks
    # and not in others; at max(u) the last block's targets v = p/sigma lie
    # inside the bounds and its controls do not.  Each block's residuals
    # are bitwise those with the projection minimum(ub, maximum(ua, v)),
    # and the rows sent to the kernel are those that fail the per-row test
    monkeypatch.setattr(invoc.oracle, "_BLOCK", 21)
    check, kernel, blocks, calls = invoc.oracle._projected_residual, invoc.oracle._solve_qp, [], set()

    def recorded(spec, qp, u, y, p, out=None):
        v = p / spec.sigma  # before the check, which may write over p
        residual = check(spec, qp, u, y, p, out=out)
        blocks.append((u.copy(), v, residual))
        return residual

    def counted(spec, qp, tol, warm):
        calls.add(qp.c.tobytes())
        return kernel(spec, qp, tol, warm)

    monkeypatch.setattr(invoc.oracle, "_projected_residual", recorded)
    # max(u) is one float below the search's own closed-form u at x = (1, 1),
    # the one row of the last block in d order, which no bound changes, so
    # at share 1 that row goes to the kernel.  There u and v agree to
    # roundoff and the edge needs max(v) below the cap.  Whether v ends that
    # far below u is a roundoff draw of the basis (about one in ten), and
    # each target scale in [1, 2) draws again
    for scale in 1.0 + np.arange(64) / 64:
        lower = LowerObjective(kind="target_type", targets=scale * unit_spec.lower.targets)
        grid_search(_box(replace(unit_spec, lower=lower)), 12)
        u, v, _ = blocks[-1]
        blocks.clear()
        if np.nextafter(u.max(), 0.0) > v.max():
            break
    assert np.nextafter(u.max(), 0.0) > v.max(), "no target scale puts v below u at x = (1, 1)"
    spec = _clipped_box(replace(unit_spec, lower=lower), share, u_max=np.nextafter(u.max(), 0.0))
    ua, ub = spec.bounds.ua, spec.bounds.ub
    monkeypatch.setattr(invoc.oracle, "_solve_qp", counted)
    X = grid_search(spec, 12, keep_samples=True).samples[:, :-1]
    X = X[_processing_order(X)]
    inside = lambda w: bool(ua.max() < w.min() and w.max() < ub.min())  # noqa: E731
    assert {(inside(v), inside(u)) for u, v, _ in blocks} == flags
    want, start = set(), 0
    for u, v, residual in blocks:
        diff = u - np.minimum(ub, np.maximum(ua, v))
        assert np.array_equal(residual, np.sqrt(spec.grid.h) * np.sqrt(invoc.model._row_dot(diff)))
        solved = ((u >= ua) & (u <= ub)).all(axis=1) & (residual <= 1e-12)
        want |= {lower_qp(spec, x).c.tobytes() for x in X[start:start + len(u)][~solved]}
        start += len(u)
    assert calls == want and want


@pytest.mark.parametrize("n", [2, 3])
def test_block_size_changes_no_sample_beyond_roundoff(n, unit_spec, monkeypatch):
    # a block takes the runs of equal d that fall in it from the search's
    # run table, so every row still passes on its closed form, whatever
    # the block size; only how runs split into bases and the products'
    # shapes change, which moves a value by roundoff
    spec = _box(unit_spec if n == 2 else _three_parameter_tracking_spec())

    def no_kernel(*args):
        raise AssertionError("a row reached the kernel")

    monkeypatch.setattr(invoc.oracle, "_solve_qp", no_kernel)
    results = []
    for block in (7, 21, 1024):
        monkeypatch.setattr(invoc.oracle, "_BLOCK", block)
        results.append(grid_search(spec, 12 if n == 2 else 6, keep_samples=True))
    _assert_values_match_kernel(spec, results[0])
    first = results[0].samples
    for other in (result.samples for result in results[1:]):
        assert np.array_equal(other[:, :-1], first[:, :-1])
        assert np.abs(other[:, -1] - first[:, -1]).max() <= 64 * np.finfo(float).eps * np.abs(first[:, -1]).max()


def test_target_kind_forms_no_stacked_c(bounded_spec, pointwise_spec, monkeypatch):
    # neither kind forms a block's stacked c and d: for the target kind and
    # for the pointwise kind, lower_coefficients is called with one
    # parameter, once per kernel row
    coefficients, kernel, shapes, calls = invoc.lower.lower_coefficients, invoc.oracle._solve_qp, [], []

    def recorded(grid, obj, x):
        shapes.append(np.ndim(x))
        return coefficients(grid, obj, x)

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(invoc.lower, "lower_coefficients", recorded)
    monkeypatch.setattr(invoc.oracle, "_solve_qp", counted)
    for spec in (_box(bounded_spec), _clipped_box(pointwise_spec)):
        shapes.clear()
        calls.clear()
        grid_search(spec, 12)
        assert shapes == [1] * len(calls) and calls


@pytest.mark.parametrize("name", ["bounded_box", "irrational_box", "simplex3", "box3"])
def test_target_rows_solve_columns_per_distinct_d(name, unit_spec, bounded_spec, monkeypatch):
    # a run of r rows of one d in a block costs 2 min(n, r) Laplacian solve
    # columns: its basis, or its rows where they are no more than n; the
    # kernel's rows make their own solves on top.  On a box with edges
    # 1 and 1/sqrt(2) no two rows share a d
    spec = {
        "bounded_box": lambda: _box(bounded_spec),
        "irrational_box": lambda: replace(unit_spec, x_set=AdmissibleSetX(
            kind="box", n=2, lo=np.zeros(2), hi=np.array([1.0, 0.5 ** 0.5]))),
        "simplex3": _three_parameter_tracking_spec,
        "box3": lambda: _box(_three_parameter_tracking_spec()),
    }[name]()
    monkeypatch.setattr(invoc.oracle, "_BLOCK", 40)
    operator_solve, kernel = type(spec.operator).solve, invoc.oracle._solve_qp
    columns, in_kernel = {"oracle": 0, "kernel": 0}, []

    def counted(self, rhs, out=None):
        columns["kernel" if in_kernel else "oracle"] += 1 if rhs.ndim == 1 else rhs.shape[1]
        return operator_solve(self, rhs, out=out)

    def flagged(*args):
        in_kernel.append(1)
        try:
            return kernel(*args)
        finally:
            in_kernel.pop()

    monkeypatch.setattr(type(spec.operator), "solve", counted)
    monkeypatch.setattr(invoc.oracle, "_solve_qp", flagged)
    result = grid_search(spec, 12 if spec.n == 2 else 6, keep_samples=True)
    d = 2.0 * np.sort(result.samples[:, :-1].sum(axis=1), kind="stable")
    want = 0
    for start in range(0, d.size, 40):
        _, runs = np.unique(d[start:start + 40], return_counts=True)
        want += 2 * np.minimum(spec.n, runs).sum()
    assert columns["oracle"] == want
    assert want == 2 * d.size if name == "irrational_box" else want < d.size
    assert (columns["kernel"] > 0) == (name == "bounded_box")


def test_kernel_only_where_a_bound_binds(unit_spec, bounded_spec, pointwise_spec, monkeypatch):
    calls = []
    kernel = invoc.oracle._solve_qp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(invoc.oracle, "_solve_qp", counted)
    grid_search(_box(unit_spec), 20)
    assert calls == []
    result = grid_search(_box(bounded_spec), 20)
    assert 0 < len(calls) < result.sample_count
    # a control above its bound by less than tol passes the fixed-point
    # check, and still goes to the kernel
    n_nodes = unit_spec.grid.n_nodes
    cap = float(unit_spec.upper.u_o.max()) - 1e-12
    grazing = ProblemSpec(
        grid=unit_spec.grid, sigma=unit_spec.sigma, lower=unit_spec.lower,
        upper=unit_spec.upper, x_set=unit_spec.x_set,
        bounds=ControlBounds(ua=np.full(n_nodes, -50.0), ub=np.full(n_nodes, cap)),
    )
    calls.clear()
    grid_search(grazing, 10)
    planted = lower_qp(grazing, np.array([0.3, 0.7])).c
    assert any(np.array_equal(qp.c, planted) for qp in calls)
    # the same holds for the pointwise kind, a repeated measurement node included
    calls.clear()
    grid_search(_box(pointwise_spec), 20)
    grid_search(_box(_repeated_point_spec()), 20)
    assert calls == []
    result = grid_search(_clipped_box(pointwise_spec), 20)
    assert 0 < len(calls) < result.sample_count


def test_default_tol_holds_at_n1024():
    # the closed-form rows' fixed-point residuals stay below 1e-12 at N = 1024
    spec = make_generated_spec(1024, (0.3, 0.7))
    result = grid_search(spec, 200)
    assert np.array_equal(result.best_x, grid_search(spec, 200, tol=1e-9).best_x)


def test_pointwise_rows_need_no_kernel_at_n1023(monkeypatch):
    # the pointwise closed form's rows pass the check on their own at
    # N = 1023: no row reaches the kernel, and sampled rows match it
    grid = build_grid(1023)
    w = grid.nodes
    spec = ProblemSpec(
        grid=grid, sigma=1e-2,
        lower=LowerObjective(kind="pointwise", points=(256, 700), target=np.sin(np.pi * w)),
        upper=UpperObjective(c_y=1.0, y_o=0.2 * np.sin(np.pi * w), c_u=1.0, u_o=np.zeros(1023), gamma=1e-3),
        x_set=AdmissibleSetX(kind="box", n=2, lo=np.zeros(2), hi=np.ones(2)),
        bounds=ControlBounds(ua=np.full(1023, -50.0), ub=np.full(1023, 50.0)),
    )

    def no_kernel(*args):
        raise AssertionError("a row reached the kernel")

    monkeypatch.setattr(invoc.oracle, "_solve_qp", no_kernel)
    result = grid_search(spec, 40, keep_samples=True)
    sample = np.linspace(0, result.sample_count - 1, 20).astype(int)
    _assert_values_match_kernel(spec, replace(result, samples=result.samples[sample]))
