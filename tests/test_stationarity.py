"""Stationarity certification: zero systems, an engineered W-but-not-C
candidate built from dense algebra, active sets, and scaling invariants."""

import math

import numpy as np
import pytest

from invoc import (
    AdmissibleSetX,
    ControlBounds,
    LowerObjective,
    ProblemSpec,
    UpperObjective,
    active_sets,
    build_grid,
    classify,
    make_default_problem,
    solve_lower,
)
from invoc.errors import DimensionError, InfeasibleError, ValidationError
from invoc.model import eval_j_grad

from conftest import make_unplanted_spec

from util_dense import dense_matrix, h_inner

_ALL_IDS = {
    "CSt_x", "CSt_y", "CSt_u", "CSt_p", "CSt_z",
    "CSt_ll_sign_a", "CSt_ll_sign_b", "CSt_xi", "CSt_w",
    "CSt_clarke", "CSt_strong_a", "CSt_strong_b",
}
_W_IDS = [k for k in _ALL_IDS if k not in {"CSt_clarke", "CSt_strong_a", "CSt_strong_b"}]


def _zero_upper_spec(base: ProblemSpec, bounds: ControlBounds | None = None) -> ProblemSpec:
    n_nodes = base.grid.n_nodes
    return ProblemSpec(
        grid=base.grid, sigma=base.sigma, lower=base.lower,
        upper=UpperObjective(c_y=0.0, y_o=np.zeros(n_nodes),
                             c_u=0.0, u_o=np.zeros(n_nodes), gamma=0.0),
        x_set=base.x_set, bounds=bounds if bounds is not None else base.bounds,
    )


def _zero_candidate(spec, x):
    low = solve_lower(spec, x, tol=1e-13)
    point = {"x": x, "u": low.u}
    n_nodes = spec.grid.n_nodes
    multipliers = {
        "z": np.zeros(spec.n), "mu": np.zeros(n_nodes), "w": np.zeros(n_nodes),
        "rho": np.zeros(n_nodes), "xi": np.zeros(n_nodes),
    }
    return point, multipliers


def test_zero_system_classifies_strong(unit_spec):
    spec = _zero_upper_spec(unit_spec)
    point, mult = _zero_candidate(spec, np.array([0.6, 0.4]))
    cert = classify(spec, point, mult)
    assert set(cert.residuals) == _ALL_IDS
    assert cert.classification == "S"
    assert max(cert.residuals.values()) <= 1e-10
    assert cert.tol == 1e-5


def test_sign_flip_at_inactive_node_rejected(unit_spec):
    # hand-flip xi at an inactive node of a valid point: CSt_xi picks it up
    # and the classification drops below W once tol < the planted residual
    spec = _zero_upper_spec(unit_spec)
    point, mult = _zero_candidate(spec, np.array([0.6, 0.4]))
    bad = dict(mult)
    xi = mult["xi"].copy()
    xi[5] = -(abs(xi[5]) + 1e-3)
    bad["xi"] = xi
    cert = classify(spec, point, bad, tol=1e-4)
    assert cert.residuals["CSt_xi"] == pytest.approx(1e-3)
    assert cert.classification == "none"
    # same tuple at a tolerance above the planted violation is W again
    loose = classify(spec, point, bad, tol=1e-2)
    assert loose.classification in ("W", "C", "S")


def _w_not_c_fixture():
    """Candidate satisfying every W-condition with xi_i w_i < 0 at one
    biactive node, so C fails; built entirely from dense linear algebra."""
    n_nodes = 16
    grid = build_grid(n_nodes)
    sigma = 1e-2
    x_bar = np.array([0.5, 0.5])
    c = float(np.sum(x_bar))
    node = 7
    delta = 0.1

    a = dense_matrix(grid)
    a_inv = np.linalg.inv(a)
    e = np.zeros(n_nodes)
    e[node] = 1.0
    # choose mu so that rho - sigma w = delta e_i with rho = -2c A^{-1} mu
    # and w = A mu; then xi := delta e_i closes the u-equation exactly
    mu = -np.linalg.solve(2.0 * c * a_inv + sigma * a, delta * e)
    w = a @ mu
    rho = -2.0 * c * (a_inv @ mu)
    xi = delta * e
    assert xi[node] * w[node] < -1e-2  # the planted Clarke violation

    # targets: second desired state differs by a vector h-orthogonal to mu,
    # which makes j'(y) mu constant across components and z a simplex normal
    yd1 = np.sin(np.pi * grid.nodes)
    raw = np.sin(2.0 * np.pi * grid.nodes)
    v = raw - (h_inner(grid, raw, mu) / h_inner(grid, mu, mu)) * mu
    lower = LowerObjective(kind="target_type", targets=np.vstack([yd1, yd1 + v]))

    wide = ControlBounds(ua=np.full(n_nodes, -50.0), ub=np.full(n_nodes, 50.0))
    seed = ProblemSpec(
        grid=grid, sigma=sigma, lower=lower,
        upper=UpperObjective(c_y=0.0, y_o=np.zeros(n_nodes),
                             c_u=0.0, u_o=np.zeros(n_nodes)),
        x_set=AdmissibleSetX(kind="simplex", n=2), bounds=wide,
    )
    u0 = solve_lower(seed, x_bar, tol=1e-13).u
    # lower bound touches the unconstrained solution exactly at the node
    ua = u0 - 1.0
    ua[node] = u0[node]
    spec = ProblemSpec(
        grid=grid, sigma=sigma, lower=lower, upper=seed.upper,
        x_set=seed.x_set, bounds=ControlBounds(ua=ua, ub=u0 + 1.0),
    )
    low = solve_lower(spec, x_bar, tol=1e-13)
    z = -eval_j_grad(grid, lower, low.y, mu)
    point = {"x": x_bar, "u": low.u}
    multipliers = {"z": z, "mu": mu, "w": w, "rho": rho, "xi": xi}
    return spec, point, multipliers, node


def test_engineered_candidate_is_w_but_not_c():
    spec, point, mult, node = _w_not_c_fixture()
    cert = classify(spec, point, mult, tol=1e-5)
    for key in _W_IDS:
        assert cert.residuals[key] <= 1e-5, key
    assert cert.residuals["CSt_clarke"] == pytest.approx(
        -mult["xi"][node] * mult["w"][node]
    )
    assert cert.residuals["CSt_clarke"] > 1e-2
    assert cert.classification == "W"
    # the node sits on the lower bound with vanishing multiplier
    assert node in cert.active.biactive_a.tolist()
    assert node not in cert.active.inactive.tolist()
    # S-side diagnostics flag the same node
    assert cert.residuals["CSt_strong_a"] == pytest.approx(mult["xi"][node])


def test_active_sets_interior_everywhere(unit_spec):
    low = solve_lower(unit_spec, np.array([0.3, 0.7]))
    sets = active_sets(unit_spec, low.u, low.lam)
    n_nodes = unit_spec.grid.n_nodes
    assert sets.inactive.size == n_nodes
    assert sets.i_a_plus.size == n_nodes
    assert sets.i_b_minus.size == n_nodes
    assert sets.biactive_a.size == 0
    assert sets.biactive_b.size == 0
    assert sets.tol_act == unit_spec.active_tol


def test_active_sets_all_on_lower_bound(unit_spec):
    n_nodes = unit_spec.grid.n_nodes
    u = unit_spec.bounds.ua.copy()
    sets = active_sets(unit_spec, u, np.zeros(n_nodes))
    assert sets.biactive_a.size == n_nodes
    assert sets.i_a_plus.size == 0
    assert sets.inactive.size == 0


@pytest.mark.parametrize("u, lam, error, name", [
    (np.zeros(15), np.zeros(16), DimensionError, "u has shape (15,)"),
    (np.zeros(16), ["a"] * 16, ValidationError, "lam is not an array of numbers"),
])
def test_active_sets_refuse_a_malformed_vector(unit_spec, u, lam, error, name):
    # a short u used to reach numpy's broadcast error
    with pytest.raises(error) as err:
        active_sets(unit_spec, u, lam)
    assert type(err.value) is error and str(err.value).startswith(name)


def test_active_sets_tolerance_sensitivity(bounded_spec):
    # default instance: counts stable (wide bounds); binding instance:
    # at most a couple of borderline nodes may migrate across tol_act
    default = make_default_problem()
    low = solve_lower(default, np.array([0.5, 0.5]))
    counts = []
    for tol_act in (1e-7, 1e-6, 1e-5):
        s = active_sets(default, low.u, low.lam, tol_act=tol_act)
        counts.append((s.i_a_plus.size, s.i_b_minus.size, s.biactive_a.size))
    assert counts[0] == counts[1] == counts[2]

    lowb = solve_lower(bounded_spec, np.array([0.3, 0.7]))
    sizes = []
    for tol_act in (1e-7, 1e-6, 1e-5):
        s = active_sets(bounded_spec, lowb.u, lowb.lam, tol_act=tol_act)
        sizes.append(s.i_b_minus.size)
    assert max(sizes) - min(sizes) <= 2
    # the cap genuinely binds on this instance
    s = active_sets(bounded_spec, lowb.u, lowb.lam)
    assert s.i_b_minus.size < bounded_spec.grid.n_nodes


def test_infeasible_candidates_rejected(unit_spec):
    spec = _zero_upper_spec(unit_spec)
    point, mult = _zero_candidate(spec, np.array([0.6, 0.4]))
    off_simplex = dict(point, x=np.array([0.9, 0.9]))
    with pytest.raises(InfeasibleError, match="admissible"):
        classify(spec, off_simplex, mult)
    out_of_bounds = dict(point, u=np.full(16, 100.0))
    with pytest.raises(InfeasibleError):
        classify(spec, out_of_bounds, mult)
    not_optimal = dict(point, u=point["u"] + 0.1)
    with pytest.raises(InfeasibleError, match="optimal"):
        classify(spec, not_optimal, mult)


def test_tolerance_validation(unit_spec):
    point, mult = _zero_candidate(unit_spec, np.array([0.6, 0.4]))
    for bad in ("1", None):
        with pytest.raises(ValidationError, match="tol must be a number"):
            classify(unit_spec, point, mult, tol=bad)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="tol must be positive and finite"):
            classify(unit_spec, point, mult, tol=bad)


@pytest.mark.parametrize("key", ["x", "u", "z", "mu", "w", "rho", "xi"])
def test_missing_field_raises_validation_error(unit_spec, key):
    point, mult = _zero_candidate(unit_spec, np.array([0.6, 0.4]))
    point.pop(key, None)
    mult.pop(key, None)
    with pytest.raises(ValidationError, match=f"missing field '{key}'"):
        classify(unit_spec, point, mult)


def test_exact_lower_solution_certifies_at_large_n():
    # feasibility is the fixed-point test on fresh solves (9e-12 here);
    # re-applying A to y would carry roundoff growing like N^2 (1.2e-9)
    spec = make_unplanted_spec(8192)
    x = np.array([0.3, 0.7])
    zeros = np.zeros(spec.grid.n_nodes)
    point = {"x": x, "u": solve_lower(spec, x).u}
    mult = {"z": np.zeros(2), "mu": zeros, "w": zeros, "rho": zeros, "xi": zeros}
    cert = classify(spec, point, mult)
    assert set(cert.residuals) == _ALL_IDS


def test_scale_consistency_with_zero_upper_gradient(unit_spec):
    # with F' = 0 the equation residuals are exactly positively homogeneous
    # in (z, mu, w, rho, xi)
    spec = _zero_upper_spec(unit_spec)
    x = np.array([0.6, 0.4])
    point, base = _zero_candidate(spec, x)
    rng = np.random.default_rng(8)
    mult = dict(base)
    mult["z"] = rng.standard_normal(2)
    mult["mu"] = rng.standard_normal(16)
    mult["w"] = rng.standard_normal(16)
    mult["rho"] = rng.standard_normal(16)
    mult["xi"] = rng.standard_normal(16)
    ref = classify(spec, point, mult)
    for t in (2.0, 10.0):
        scaled = dict(mult)
        for key in ("z", "mu", "w", "rho", "xi"):
            scaled[key] = t * mult[key]
        cert = classify(spec, point, scaled)
        for key in ("CSt_x", "CSt_y", "CSt_u", "CSt_p"):
            assert cert.residuals[key] == pytest.approx(
                t * ref.residuals[key], rel=1e-12
            )


def test_equation_residuals_quadratic_in_joint_scaling(tilted_spec):
    # each equation residual is the weighted norm of an affine function of
    # the multiplier tuple, so its square is a quadratic polynomial in a
    # joint scaling t; fit on four samples, the fifth must be predicted
    low = solve_lower(tilted_spec, np.array([0.4, 0.6]), tol=1e-12)
    point = {"x": np.array([0.4, 0.6]), "u": low.u}
    rng = np.random.default_rng(5)
    base = {
        "z": rng.standard_normal(2), "mu": rng.standard_normal(16),
        "w": rng.standard_normal(16), "rho": rng.standard_normal(16),
        "xi": rng.standard_normal(16),
    }
    ts = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    samples = {k: [] for k in ("CSt_x", "CSt_y", "CSt_u", "CSt_p")}
    for t in ts:
        mult = dict(base)
        for key in ("z", "mu", "w", "rho", "xi"):
            mult[key] = t * base[key]
        cert = classify(tilted_spec, point, mult)
        for key in samples:
            samples[key].append(cert.residuals[key] ** 2)
    for key, vals in samples.items():
        coef = np.polyfit(ts[:4], vals[:4], 2)
        predicted = np.polyval(coef, ts[4])
        assert predicted == pytest.approx(vals[4], rel=1e-9, abs=1e-20), key


def test_classification_consistent_with_residuals(unit_spec):
    # random multiplier tuples: the reported class must be recomputable
    # from the residual map alone
    spec = _zero_upper_spec(unit_spec)
    point, base = _zero_candidate(spec, np.array([0.5, 0.5]))
    rng = np.random.default_rng(21)
    for trial in range(25):
        scale = 10.0 ** rng.uniform(-12, 0)
        mult = dict(base)
        for key, size in (("z", 2), ("mu", 16), ("w", 16), ("rho", 16), ("xi", 16)):
            mult[key] = scale * rng.standard_normal(size)
        cert = classify(spec, point, mult, tol=1e-5)
        res = cert.residuals
        is_w = all(res[k] <= 1e-5 for k in _W_IDS)
        is_c = is_w and res["CSt_clarke"] <= 1e-5
        is_s = is_c and max(res["CSt_strong_a"], res["CSt_strong_b"]) <= 1e-5
        expected = "S" if is_s else "C" if is_c else "W" if is_w else "none"
        assert cert.classification == expected
        # monotone chain: S implies C implies W
        if cert.classification == "S":
            assert is_c and is_w
        if cert.classification == "C":
            assert is_w
