"""Value function: dense oracle agreement, gradient, concavity, exact solves."""

import numpy as np
import pytest

from invoc import (
    grad_phi,
    phi,
    probe_concavity,
    probe_taylor,
    sample_segment,
    value_sample,
)
from invoc.errors import DimensionError, DomainError, ValidationError
from invoc.value import lower_objective_value

from util_dense import phi_dense


def test_phi_matches_dense_oracle(unit_spec, bounded_spec, pointwise_spec):
    for spec in (unit_spec, bounded_spec, pointwise_spec):
        for x in (np.array([0.3, 0.7]), np.array([0.8, 0.2])):
            assert phi(spec, x) == pytest.approx(phi_dense(spec, x), rel=1e-8, abs=1e-11)


def test_phi_zero_at_planted_parameter_is_positive_elsewhere(unit_spec):
    # phi itself is not zero at x_star (the lower optimum does not reach the
    # targets), but it must equal the lower objective at its own solution
    vs = value_sample(unit_spec, np.array([0.3, 0.7]))
    assert vs.phi == pytest.approx(
        lower_objective_value(unit_spec, vs.x, vs.lower.y, vs.lower.u)
    )
    assert vs.phi > 0.0


def test_grad_phi_matches_finite_differences(unit_spec):
    # phi'(x) = j(y(x)): verify against centered differences in R^n_+
    x = np.array([0.45, 0.35])  # off the simplex on purpose; phi lives on R^n_+
    g = grad_phi(unit_spec, x)
    t = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = t
        fd = (phi(unit_spec, x + e) - phi(unit_spec, x - e)) / (2 * t)
        assert g[i] == pytest.approx(fd, rel=5e-5, abs=1e-9)


def test_grad_phi_is_j_at_optimal_state(unit_spec):
    from invoc.model import eval_j

    vs = value_sample(unit_spec, np.array([0.25, 0.75]))
    np.testing.assert_allclose(
        vs.grad_phi, eval_j(unit_spec.grid, unit_spec.lower, vs.lower.y)
    )
    assert (vs.grad_phi >= 0.0).all()


def test_concavity_probe_nonpositive(unit_spec, box_unit_spec):
    assert probe_concavity(unit_spec, trials=40, seed=1) <= 1e-10
    assert probe_concavity(box_unit_spec, trials=40, seed=2) <= 1e-10
    with pytest.raises(ValidationError):
        probe_concavity(unit_spec, trials=0)
    for trials in (2.5, True):  # True would run one trial
        with pytest.raises(ValidationError, match="trials must be an integer"):
            probe_concavity(unit_spec, trials)
    assert probe_concavity(unit_spec, np.int64(2), seed=1) <= 1e-10


def test_concavity_along_explicit_segment(unit_spec):
    # midpoint rule on a fixed segment, independent of the probe's sampling
    x1 = np.array([0.9, 0.1])
    x2 = np.array([0.1, 0.9])
    mid = 0.5 * (x1 + x2)
    assert phi(unit_spec, mid) >= 0.5 * phi(unit_spec, x1) + 0.5 * phi(unit_spec, x2) - 1e-12


def test_taylor_probe_bounded_across_radii(unit_spec):
    x_bar = np.array([0.4, 0.6])
    c1 = probe_taylor(unit_spec, x_bar, radius=1e-2, trials=30, seed=3)
    c2 = probe_taylor(unit_spec, x_bar, radius=1e-3, trials=30, seed=3)
    assert c1 > 0.0 and c2 > 0.0
    # remainder is quadratically small, so the ratio constant stays put
    assert c2 <= 3.0 * c1
    with pytest.raises(ValidationError):
        probe_taylor(unit_spec, x_bar, radius=0.0, trials=5)
    with pytest.raises(ValidationError):
        probe_taylor(unit_spec, x_bar, radius=1e-2, trials=0)
    with pytest.raises(ValidationError, match="trials must be an integer"):
        probe_taylor(unit_spec, x_bar, radius=1e-2, trials=2.5)
    for radius in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="radius must be positive and finite"):
            probe_taylor(unit_spec, x_bar, radius=radius, trials=5)
    for bad in ("1", None):
        with pytest.raises(ValidationError, match="radius must be a number"):
            probe_taylor(unit_spec, x_bar, radius=bad, trials=5)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            probe_taylor(unit_spec, x_bar, radius=1e-2, trials=5, seed=bad)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            probe_concavity(unit_spec, 2, seed=bad)
    with pytest.raises(ValidationError, match="seed must be an integer"):
        probe_concavity(unit_spec, 2, seed=1.5)


def test_value_sample_is_exact_whatever_the_warm_start(unit_spec, monkeypatch):
    import invoc.relax
    import invoc.value

    x = np.array([0.2, 0.8])
    first = value_sample(unit_spec, x)
    rng = np.random.default_rng(4)
    for warm in (first.lower.u, rng.standard_normal(16), np.full(16, 60.0)):
        again = value_sample(unit_spec, x, warm_start=warm)
        assert again is not first  # solved again, not cached
        assert again.phi == first.phi
        np.testing.assert_array_equal(again.grad_phi, first.grad_phi)
        np.testing.assert_array_equal(again.lower.u, first.lower.u)

    # the relaxed solver solves the lower problem once per distinct x it
    # evaluates, and its result keeps the sample of the last accepted x
    solved, solve = [], invoc.value.solve_lower

    def recording_solve(spec, x, **kwargs):
        solved.append(np.asarray(x).tobytes())
        return solve(spec, x, **kwargs)

    monkeypatch.setattr(invoc.value, "solve_lower", recording_solve)
    sol = invoc.relax.solve_relaxed(unit_spec, 1e-2)
    assert len(set(solved)) == len(solved) > 1  # x moves, never solved twice
    assert solved[-1] == sol.x.tobytes()


def test_value_sample_builds_its_lower_qp_once(unit_spec, monkeypatch):
    # solve_lower builds the lower QP at x for its kernel, and the sample
    # keeps that one as lower.qp
    import invoc.lower

    built, coefficients = [], invoc.lower.lower_coefficients

    def recorded(grid, obj, x):
        built.append(np.asarray(x).tobytes())
        return coefficients(grid, obj, x)

    monkeypatch.setattr(invoc.lower, "lower_coefficients", recorded)
    vs = value_sample(unit_spec, [0.2, 0.8])
    assert built == [vs.x.tobytes()]
    d, c = coefficients(unit_spec.grid, unit_spec.lower, vs.x)
    np.testing.assert_array_equal(vs.lower.qp.d, d)
    np.testing.assert_array_equal(vs.lower.qp.c, c)


def test_domain_restriction(unit_spec):
    with pytest.raises(DomainError):
        phi(unit_spec, np.array([-0.2, 1.2]))


def test_sample_segment_counts(unit_spec):
    x1 = np.array([0.3, 0.7])
    x2 = np.array([0.7, 0.3])
    out = sample_segment(unit_spec, x1, x2, count=5)
    assert len(out) == 5
    np.testing.assert_allclose(out[0].x, x1)
    np.testing.assert_allclose(out[-1].x, x2)
    # equal endpoints collapse to one sample
    assert len(sample_segment(unit_spec, x1, x1, count=7)) == 1
    with pytest.raises(ValidationError):
        sample_segment(unit_spec, x1, x2, count=0)
    for count in (2.5, True):
        with pytest.raises(ValidationError, match="count must be an integer"):
            sample_segment(unit_spec, x1, x2, count=count)
    assert len(sample_segment(unit_spec, x1, x2, count=np.int64(2))) == 2


def test_phi_concave_even_with_binding_bounds(bounded_spec):
    assert probe_concavity(bounded_spec, trials=30, seed=5) <= 1e-10


@pytest.mark.parametrize("call, error, name", [
    (lambda spec: probe_concavity(spec, 2, seed=-1), DomainError, "seed"),
    (lambda spec: probe_taylor(spec, [0.4, 0.6], 1e-2, 2, seed=-1), DomainError, "seed"),
    (lambda spec: probe_taylor(spec, [0.3, "x"], 1e-2, 2), ValidationError, "x_bar"),
    (lambda spec: sample_segment(spec, [0.3, 0.7], [0.3], 3), DimensionError, "x_to"),
    (lambda spec: sample_segment(spec, [[0.3, 0.7]], [0.3, 0.7], 3), DimensionError, "x_from"),
    (lambda spec: sample_segment(spec, [0.3, 0.7], [0.6, 0.4], 0), DomainError, "count"),
], ids=["concavity-seed", "taylor-seed", "taylor-x_bar", "segment-x_to", "segment-x_from",
        "segment-count"])
def test_malformed_argument_is_refused_by_name(unit_spec, call, error, name):
    # a negative seed used to reach numpy's bare ValueError, a text entry
    # its float conversion, and a short endpoint was broadcast
    with pytest.raises(error) as err:
        call(unit_spec)
    assert type(err.value) is error and str(err.value).startswith(name)
