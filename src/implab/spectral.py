"""Dirichlet Laplacian on (0, l) in the sine eigenbasis.

The operator ``A = -d^2/dxi^2`` with zero boundary conditions is diagonal in
the orthonormal basis ``e_k(xi) = sqrt(2/l) sin(k pi xi / l)``, so fractional
powers, the analytic semigroup and all norms reduce to per-mode scalar
arithmetic on coefficient vectors.  A state is simply a length-N float array
of coefficients ("spectral vector"); membership in the ball U^alpha_rho means
``frac_norm(x, alpha) <= rho``.

Nonlinearities are evaluated pseudo-spectrally: synthesize on a uniform
physical grid, apply the pointwise map, project back by trapezoid quadrature.
On a uniform grid with endpoints the trapezoid rule integrates products of
the basis sines exactly up to aliasing, hence the 4N anti-aliasing rule for
quadratic/cubic maps.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = [
    "DirichletLaplacian",
    "AliasingError",
]


class AliasingError(ValueError):
    """Physical grid too coarse for the requested projection."""


class DirichletLaplacian:
    """Truncated Dirichlet Laplacian: N modes on the interval (0, l).

    Its transforms run on the uniform grid of n_xi intervals; the grid, the
    basis on it and the quadrature weights are built once, on first use.
    """

    def __init__(self, l: float = 1.0, n_modes: int = 16, n_xi: int = 256):
        if l <= 0.0:
            raise ValueError("interval length must be positive")
        if n_modes < 1:
            raise ValueError("need at least one mode")
        self.l = float(l)
        self.n_modes = int(n_modes)
        self.n_xi = int(n_xi)
        k = np.arange(1, self.n_modes + 1)
        self.eigenvalues = (k * np.pi / self.l) ** 2
        self._frac_weights = {}

    # -- norms ---------------------------------------------------------

    def frac_weights(self, alpha: float) -> np.ndarray:
        """lambda_k^alpha, computed once per alpha (a read-only array)."""
        w = self._frac_weights.get(alpha)
        if w is None:
            if alpha < 0.0:
                raise ValueError("alpha must be nonnegative")
            w = self.eigenvalues**alpha
            w.flags.writeable = False
            self._frac_weights[alpha] = w
        return w

    def frac_norm(self, x, alpha: float) -> float | np.ndarray:
        """|x|_alpha = (sum_k lambda_k^{2 alpha} x_k^2)^{1/2}.

        Accepts batched input of shape (..., N); reduces over the last axis.
        """
        x = np.asarray(x, dtype=float)
        w = self.frac_weights(alpha)
        val = np.sqrt(np.sum((w * x) ** 2, axis=-1))
        return float(val) if val.ndim == 0 else val

    # -- the uniform grid of the pseudo-spectral transforms -------------

    @cached_property
    def xi(self) -> np.ndarray:
        """Uniform grid on [0, l] with n_xi + 1 nodes, endpoints included."""
        return np.linspace(0.0, self.l, self.n_xi + 1)

    @cached_property
    def basis(self) -> np.ndarray:
        """The sine basis (N, n_xi + 1) on ``xi``; rejects n_xi + 1 < 4N (aliasing)."""
        if self.xi.size < 4 * self.n_modes:
            raise AliasingError(
                "aliasing risk: grid has %d points, need >= 4N = %d"
                % (self.xi.size, 4 * self.n_modes)
            )
        return self.basis_matrix(self.xi)

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite trapezoid weights of ``xi``."""
        h = np.diff(self.xi)
        w = np.zeros_like(self.xi)
        w[:-1] += 0.5 * h
        w[1:] += 0.5 * h
        return w

    def basis_matrix(self, xi) -> np.ndarray:
        """Matrix B with B[k, i] = e_{k+1}(xi_i)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        k = np.arange(1, self.n_modes + 1)[:, None]
        return np.sqrt(2.0 / self.l) * np.sin(k * np.pi * xi[None, :] / self.l)

    def eval_physical(self, x) -> np.ndarray:
        """u on the grid from coefficients x of shape (..., N)."""
        return np.asarray(x, dtype=float) @ self.basis

    def project(self, u) -> np.ndarray:
        """Coefficients <u, e_k> by trapezoid quadrature on the grid.

        ``u`` is a callable on (0, l) or grid values of shape (..., n_xi + 1).
        Round-trips with ``eval_physical`` on the span of the first N modes.
        """
        vals = np.asarray(u(self.xi) if callable(u) else u, dtype=float)
        if vals.shape[-1] != self.xi.size:
            raise ValueError("value array does not match the grid")
        return (vals * self.weights) @ self.basis.T

    def nonlinear_image(self, x, pointwise_map) -> np.ndarray:
        """project(pointwise_map(eval_physical(x))), in batches of _IMAGE_ROWS states.

        The batches share one grid buffer, which holds the synthesized and
        then the weighted mapped values, and write into one output: each
        batch allocates only what ``pointwise_map`` does.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and x.shape[0] > _IMAGE_ROWS:
            out = np.empty((x.shape[0], self.n_modes))
            grid = np.empty((_IMAGE_ROWS, self.xi.size))
            for lo in range(0, x.shape[0], _IMAGE_ROWS):
                u = grid[: min(_IMAGE_ROWS, x.shape[0] - lo)]
                np.matmul(x[lo : lo + _IMAGE_ROWS], self.basis, out=u)
                np.multiply(pointwise_map(u), self.weights, out=u)
                np.matmul(u, self.basis.T, out=out[lo : lo + _IMAGE_ROWS])
            return out
        return self.project(pointwise_map(self.eval_physical(x)))


# States per batch in nonlinear_image: bounds its (rows, n) grid-value
# temporaries, which would otherwise dominate peak memory on long time grids.
_IMAGE_ROWS = 512
