"""Dense reference for the benchmark's correctness checks.

The stiffness matrix is assembled explicitly and the lower problem is solved
with scipy's bounded-variable least squares (BVLS), as in the test suite's
dense oracles.  Nothing here calls the package's banded solver or its
projected-gradient loops, so agreement with the package is evidence rather
than a tautology.  Only the tracking (`target_type`) objective is covered,
which is the one every workload uses.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize


def stiffness(n: int, h: float) -> np.ndarray:
    """Tridiagonal (-1, 2, -1)/h^2 Dirichlet Laplacian as a full array."""
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return a / (h * h)


class DenseReference:
    """Lower solutions, values and the reduced upper objective of one instance."""

    def __init__(self, spec):
        if spec.lower.kind != "target_type":
            raise ValueError("the dense reference covers the tracking objective only")
        grid = spec.grid
        self.n = grid.n_nodes
        self.h = grid.h
        self.sigma = float(spec.sigma)
        self.targets = np.asarray(spec.lower.targets, dtype=float)
        self.ua = np.asarray(spec.bounds.ua, dtype=float)
        self.ub = np.asarray(spec.bounds.ub, dtype=float)
        self.upper = spec.upper
        self.A = stiffness(self.n, self.h)
        self.S = np.linalg.solve(self.A, np.eye(self.n))

    def h_norm(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(self.h * np.dot(v, v)))

    def lower(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(y, u) minimizing x . j(y) + (sigma/2)||u||_h^2 over the bounds, by BVLS.

        With g(u) = 0.5 ||C u - d||^2 the rows are sqrt(sigma h) I and, per
        target, sqrt(2 x_i h) S against sqrt(2 x_i h) y_d^i.
        """
        x = np.asarray(x, dtype=float)
        blocks = [np.sqrt(self.sigma * self.h) * np.eye(self.n)]
        rhs = [np.zeros(self.n)]
        for xi, yd in zip(x, self.targets):
            c = np.sqrt(max(2.0 * xi * self.h, 0.0))
            blocks.append(c * self.S)
            rhs.append(c * yd)
        res = scipy.optimize.lsq_linear(
            np.vstack(blocks), np.concatenate(rhs),
            bounds=(self.ua, self.ub), method="bvls", tol=1e-14,
        )
        return self.S @ res.x, res.x

    def lower_value(self, x, y, u) -> float:
        """f(x, y, u) = x . j(y) + (sigma/2) ||u||_h^2 from scratch."""
        dy = np.asarray(y, dtype=float)[None, :] - self.targets
        j = self.h * np.sum(dy * dy, axis=1)
        return float(np.dot(np.asarray(x, dtype=float), j)
                     + 0.5 * self.sigma * self.h * np.dot(u, u))

    def phi(self, x) -> float:
        y, u = self.lower(x)
        return self.lower_value(x, y, u)

    def upper_value(self, x, y, u) -> float:
        up = self.upper
        dy = np.asarray(y, dtype=float) - up.y_o
        du = np.asarray(u, dtype=float) - up.u_o
        x = np.asarray(x, dtype=float)
        return float(0.5 * up.c_y * self.h * np.dot(dy, dy)
                     + 0.5 * up.c_u * self.h * np.dot(du, du)
                     + 0.5 * up.gamma * np.dot(x, x))

    def reduced(self, x) -> float:
        """F(x, psi_y(x), psi_u(x)) with the BVLS lower solution."""
        y, u = self.lower(x)
        return self.upper_value(x, y, u)

    def reduced_unconstrained(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduced upper values of every row of X where no control bound binds.

        Without bounds the lower optimality condition reads
        (sigma I + 2 s S^2) u = 2 S sum_i x_i y_d^i with s = sum_i x_i; in the
        eigenbasis A = Q diag(l) Q^T that is u^ = 2 l b^ / (sigma l^2 + 2 s).
        The lower problem is strictly convex, so wherever this point lies
        inside the bounds it is the bound-constrained solution too.  Returns
        the values and the mask of rows where that holds.
        """
        X = np.asarray(X, dtype=float)
        lam, Q = np.linalg.eigh(self.A)
        bhat = (X @ self.targets) @ Q  # rows: Q^T sum_i x_i y_d^i
        s = X.sum(axis=1)
        uhat = 2.0 * lam[None, :] * bhat / (self.sigma * lam[None, :] ** 2 + 2.0 * s[:, None])
        U = uhat @ Q.T
        Y = (uhat / lam[None, :]) @ Q.T
        up = self.upper
        vals = (0.5 * up.c_y * self.h * np.sum((Y - up.y_o) ** 2, axis=1)
                + 0.5 * up.c_u * self.h * np.sum((U - up.u_o) ** 2, axis=1)
                + 0.5 * up.gamma * np.sum(X * X, axis=1))
        inside = np.all((U >= self.ua) & (U <= self.ub), axis=1)
        return vals, inside
