"""Grid and operator tests against dense linear algebra and closed forms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from invoc import EllipticOperator, build_grid
from invoc.discretization import eigenvalues, inner, norm, sine_transform
from invoc.errors import DimensionError, DomainError, GridError

from util_dense import dense_matrix, solve_tridiagonal_extended


def test_grid_geometry():
    grid = build_grid(9)
    assert grid.n_nodes == 9
    assert grid.h == pytest.approx(0.1)
    assert_allclose(grid.nodes, np.arange(1, 10) / 10.0)


def test_grid_rejects_too_few_nodes():
    with pytest.raises(GridError):
        build_grid(1)
    with pytest.raises(GridError):
        build_grid(0)


def test_norm_is_the_two_norm_formula_bitwise():
    # norm takes sqrt(u . u) by math.sqrt, which is np.linalg.norm's own
    # formula for a float vector without its call overhead
    rng = np.random.default_rng(7)
    for n in (2, 3, 17, 64, 1000, 4095):
        grid = build_grid(n)
        for scale in (1e-12, 1e-3, 1.0, 1e3):
            v = scale * rng.standard_normal(n)
            old = float(np.sqrt(grid.h) * np.linalg.norm(v))
            assert np.float64(norm(grid, v)).tobytes() == np.float64(old).tobytes()


def test_weighted_inner_and_norm():
    grid = build_grid(24)
    ones = np.ones(grid.n_nodes)
    assert inner(grid, ones, ones) == pytest.approx(grid.h * 24)
    v = np.sin(np.pi * grid.nodes)
    assert norm(grid, v) == pytest.approx(np.sqrt(grid.h * np.sum(v * v)))


def test_length_mismatch_rejected():
    grid = build_grid(8)
    op = EllipticOperator(grid)
    with pytest.raises(DimensionError):
        inner(grid, np.ones(8), np.ones(7))
    with pytest.raises(DimensionError):
        op.apply(np.ones(9))
    with pytest.raises(DimensionError):
        op.solve(np.ones(5))


def test_apply_matches_dense_matrix():
    grid = build_grid(17)
    op = EllipticOperator(grid)
    a = dense_matrix(grid)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(grid.n_nodes)
        assert_allclose(op.apply(v), a @ v, rtol=1e-13, atol=1e-9)
        # A is symmetric, so apply serves for the adjoint too
        assert_allclose(op.apply(v), a.T @ v, rtol=1e-13, atol=1e-9)


@pytest.mark.parametrize("n_nodes", [2, 5, 64, 1023])
def test_sine_transform_is_the_dense_sine_product(n_nodes):
    # the product with sqrt(2h) sin(pi j k h) along the last axis of a stack,
    # to roundoff in each entry's sum of absolute terms; applied twice it
    # returns its input
    grid = build_grid(n_nodes)
    k = np.arange(1, n_nodes + 1)
    Q = np.sqrt(2.0 * grid.h) * np.sin(np.pi * grid.h * (np.outer(k, k) % (2 * (n_nodes + 1))))
    V = np.random.default_rng(n_nodes).standard_normal((2, 3, n_nodes))
    got = sine_transform(grid, V)
    assert got.shape == V.shape
    assert (np.abs(got - V @ Q) <= 1e-14 * (np.abs(V) @ np.abs(Q))).all()
    assert np.abs(sine_transform(grid, got) - V).max() <= 1e-14 * np.abs(V).max()


@pytest.mark.parametrize("n_nodes", [2, 3, 16, 64])
def test_sine_vectors_are_the_eigenvectors(n_nodes):
    # A (Q e_k) = l_k Q e_k to roundoff, the l_k ascending
    grid = build_grid(n_nodes)
    op, l = EllipticOperator(grid), eigenvalues(grid)
    assert l.shape == (n_nodes,) and (np.diff(l) > 0).all()
    for lk, q in zip(l, sine_transform(grid, np.eye(n_nodes))):
        assert np.abs(op.apply(q) - lk * q).max() <= 1e-14 * l.max()


def test_solve_matches_dense_solve():
    grid = build_grid(33)
    op = EllipticOperator(grid)
    a = dense_matrix(grid)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(grid.n_nodes)
    assert_allclose(op.solve(b), np.linalg.solve(a, b), rtol=1e-11, atol=1e-13)
    assert_allclose(op.solve(b), np.linalg.solve(a.T, b), rtol=1e-11, atol=1e-13)


def test_solve_apply_roundtrip():
    grid = build_grid(50)
    op = EllipticOperator(grid)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(grid.n_nodes)
    assert norm(grid, op.apply(op.solve(b)) - b) <= 1e-10 * max(1.0, norm(grid, b))


def test_matrix_rhs_solve_matches_columnwise():
    # bitwise: a lattice row's verification must not depend on its block
    grid = build_grid(12)
    op = EllipticOperator(grid)
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal((grid.n_nodes, 6))
    block = op.solve(rhs)
    assert block.shape == (grid.n_nodes, 6)
    for col in range(6):
        assert np.array_equal(block[:, col], op.solve(rhs[:, col]))


@pytest.mark.parametrize("n_nodes, bound", [(64, 1e-14), (1024, 2e-13), (4096, 1e-11)])
def test_solve_forward_error_against_extended_precision(n_nodes, bound):
    # relative 2-norm error against Thomas elimination in np.longdouble; the
    # error grows with cond(A) ~ N^2, so the bound is per N
    grid = build_grid(n_nodes)
    op = EllipticOperator(grid)
    rhs = np.random.default_rng(n_nodes).standard_normal((n_nodes, 4))
    ref = solve_tridiagonal_extended(grid, rhs)
    err = np.linalg.norm((op.solve(rhs) - ref).astype(float), axis=0)
    assert np.all(err <= bound * np.linalg.norm(ref.astype(float), axis=0))


def test_discrete_sine_eigenpairs():
    # sin(pi k w) are exact eigenvectors with eigenvalue (2 - 2 cos(pi k h))/h^2
    grid = build_grid(31)
    op = EllipticOperator(grid)
    for k in (1, 2, 5):
        v = np.sin(np.pi * k * grid.nodes)
        lam = (2.0 - 2.0 * np.cos(np.pi * k * grid.h)) / grid.h**2
        assert norm(grid, op.apply(v) - lam * v) <= 1e-9 * lam
        assert eigenvalues(grid)[k - 1] == pytest.approx(lam, rel=1e-13)


def test_poisson_constant_load_is_nodally_exact():
    # -y'' = 1 with zero boundary: y = w (1 - w) / 2; second differences of a
    # quadratic are exact, so the discrete solution matches at the nodes
    grid = build_grid(40)
    op = EllipticOperator(grid)
    y = op.solve(np.ones(grid.n_nodes))
    exact = 0.5 * grid.nodes * (1.0 - grid.nodes)
    assert np.max(np.abs(y - exact)) <= 1e-12


def test_adjoint_identity():
    grid = build_grid(21)
    op = EllipticOperator(grid)
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.standard_normal(grid.n_nodes)
        v = rng.standard_normal(grid.n_nodes)
        lhs = inner(grid, op.apply(u), v)
        rhs = inner(grid, u, op.apply(v))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        lhs = inner(grid, op.solve(u), v)
        rhs = inner(grid, u, op.solve(v))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_banded_solve_matches_dense_and_rejects_bad_input():
    grid = build_grid(19)
    op = EllipticOperator(grid)
    a = dense_matrix(grid)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(grid.n_nodes)
    block = rng.standard_normal((grid.n_nodes, 4))
    assert op.solve(b).shape == b.shape
    assert_allclose(op.solve(b), np.linalg.solve(a, b), rtol=1e-12, atol=1e-14)
    assert op.solve(block).shape == block.shape
    assert_allclose(op.solve(block), np.linalg.solve(a, block), rtol=1e-12, atol=1e-14)
    for bad in (np.nan, np.inf, -np.inf):
        corrupt = b.copy()
        corrupt[5] = bad
        with pytest.raises(DomainError):
            op.solve(corrupt)
        corrupt = block.copy()
        corrupt[2, 1] = bad
        with pytest.raises(DomainError):
            op.solve(corrupt)
    with pytest.raises(DimensionError):
        op.solve(np.zeros(grid.n_nodes + 1))

