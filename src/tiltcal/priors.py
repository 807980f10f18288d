"""Prior risk models and linear changes of variables.

A Gaussian prior is the workhorse; a generic prior exposes just enough
callbacks (conditional density, sampler, quadrature rule) for the tilting
machinery to operate on non-Gaussian models such as lognormal pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy import linalg
from scipy.special import roots_hermite

from .errors import NonSampleableConditional, QuadratureFailure, SingularBlock, SingularMap

__all__ = [
    "FactorVector",
    "GaussianPrior",
    "GaussianConditional",
    "gaussian_conditional",
    "LinearViewMap",
    "transform_prior",
    "GenericPrior",
]

_SYM_TOL = 1e-12
_PD_TOL = 1e-10


@dataclass(frozen=True)
class FactorVector:
    """A point in factor space with coordinate labels."""

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        if values.ndim != 1:
            raise ValueError("values must be a 1-D vector")
        if len(self.labels) != values.size:
            raise ValueError("labels and values must have equal length")
        if not np.all(np.isfinite(values)):
            raise ValueError("factor values must be finite")


def _as_symmetric(matrix: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    scale = max(np.abs(matrix).max(), 1.0)
    if np.abs(matrix - matrix.T).max() > _SYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance")
    return (matrix + matrix.T) / 2.0


@dataclass(frozen=True)
class GaussianPrior:
    """Multivariate normal prior with mean vector and covariance matrix."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = _as_symmetric(self.covariance, "covariance")
        if mean.ndim != 1 or cov.shape[0] != mean.size:
            raise ValueError("mean and covariance dimensions disagree")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("prior parameters must be finite")
        eigs = np.linalg.eigvalsh(cov)
        if eigs.min() < -_PD_TOL * max(eigs.max(), 1e-300):
            raise ValueError("covariance is not positive semidefinite")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        root = _psd_root(self.covariance)
        return self.mean + rng.standard_normal((n, self.dim)) @ root.T

    def logpdf(self, z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = _gaussian_logpdf(z - self.mean, self.covariance, SingularBlock,
                               "covariance is singular; density undefined")
        return out if out.size > 1 else float(out[0])

    def pdf(self, z):
        return np.exp(self.logpdf(z))


def _psd_root(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor, falling back to an eigenvalue root for PSD matrices."""
    try:
        return linalg.cholesky(cov, lower=True)
    except linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)


def _require_pd(matrix: np.ndarray, error: type, message: str, tol: float = _PD_TOL):
    """Raise ``error(message)`` unless the smallest eigenvalue exceeds tol times the largest."""
    eigs = np.linalg.eigvalsh(matrix)
    if eigs.size and eigs.min() <= tol * max(eigs.max(), 1e-300):
        raise error(message)


def _gaussian_logpdf(dev: np.ndarray, cov: np.ndarray, error: type, message: str) -> np.ndarray:
    """log N(dev; 0, cov) per row of dev; ``error(message)`` when cov has no Cholesky factor."""
    try:
        chol = linalg.cholesky(cov, lower=True)
    except linalg.LinAlgError as exc:
        raise error(message) from exc
    sol = linalg.solve_triangular(chol, dev.T, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (np.sum(sol**2, axis=0) + logdet + cov.shape[0] * np.log(2.0 * np.pi))


def _hermite_tensor(dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Hermite rule normalized for N(0, I).

    Raises QuadratureFailure beyond 3 dims, where the n**dim tensor is too big.
    """
    if dim == 0:
        return np.zeros((1, 0)), np.ones(1)
    if dim > 3:
        raise QuadratureFailure("Gauss-Hermite tensor rule is practical only up to 3 dims")
    t, w = roots_hermite(n)
    nodes = t[:, None]
    weights = w / np.sqrt(np.pi)
    for _ in range(dim - 1):
        nodes = np.column_stack(
            [np.repeat(nodes, n, axis=0), np.tile(t, nodes.shape[0])[:, None]]
        )
        weights = np.outer(weights, w / np.sqrt(np.pi)).ravel()
    return nodes, weights


@dataclass(frozen=True)
class GaussianConditional:
    """Affine conditional law Y | X = x  ~  N(intercept + slope x, cov)."""

    intercept: np.ndarray
    slope: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        for name in ("intercept", "slope", "cov"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def mean(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim == 1:
            return self.intercept + self.slope @ x
        return self.intercept + x @ self.slope.T

    @property
    def y_dim(self) -> int:
        return self.intercept.size

    @property
    def x_dim(self) -> int:
        return self.slope.shape[1]

    def shifted(self, delta: np.ndarray) -> "GaussianConditional":
        return GaussianConditional(self.intercept + delta, self.slope, self.cov)

    @cached_property
    def root(self) -> np.ndarray:
        """Square root L of the covariance, L L^T = cov."""
        return _psd_root(self.cov)

    def sample(self, x, rng: np.random.Generator) -> np.ndarray:
        """One draw of Y | X = x per row of x (shape (n, x_dim)); returns (n, y_dim)."""
        x = np.asarray(x, dtype=float)
        return self.mean(x) + rng.standard_normal((x.shape[0], self.y_dim)) @ self.root.T

    def rule(self, x, n: int, rng: np.random.Generator | None = None):
        """Gauss-Hermite rule for Y | X = x with n nodes per dimension.

        Returns nodes of shape (len(x), n^y_dim, y_dim) and their (n^y_dim,)
        log-weights; the rule is deterministic, so ``rng`` is not used.
        """
        t_nodes, weights = _hermite_tensor(self.y_dim, n)
        offsets = np.sqrt(2.0) * t_nodes @ self.root.T
        with np.errstate(divide="ignore"):
            log_w = np.log(weights)
        return self.mean(x)[:, None, :] + offsets, log_w


def gaussian_conditional(prior: GaussianPrior, split: int) -> GaussianConditional:
    """Condition the last N-split coordinates on the first ``split``.

    Returns the affine conditional-mean map and the (constant) Schur
    complement covariance.  Raises SingularBlock when the X-block is not
    positive definite at relative tolerance.
    """
    n = prior.dim
    if not 0 <= split <= n:
        raise ValueError("split must lie in [0, dim]")
    cov = prior.covariance
    if split == 0:
        return GaussianConditional(
            prior.mean.copy(), np.zeros((n, 0)), cov.copy()
        )
    sxx = cov[:split, :split]
    _require_pd(sxx, SingularBlock, "X-block covariance is singular at tolerance 1e-10")
    syx = cov[split:, :split]
    syy = cov[split:, split:]
    slope = linalg.solve(sxx, syx.T, assume_a="pos").T
    schur = syy - slope @ syx.T
    schur = (schur + schur.T) / 2.0
    intercept = prior.mean[split:] - slope @ prior.mean[:split]
    return GaussianConditional(intercept, slope, schur)


@dataclass(frozen=True)
class LinearViewMap:
    """Invertible linear map V from raw factors Z to view coordinates (X, Y).

    Rows 0..k1-1 define the marginal-constrained block X; rows k1..k2-1 are
    the moment-view coordinates.
    """

    matrix: np.ndarray
    k1: int
    k2: int

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("view map must be a square matrix")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("view map entries must be finite")
        n = matrix.shape[0]
        if not 0 <= self.k1 <= self.k2 <= n:
            raise ValueError("need 0 <= k1 <= k2 <= N")
        scale = float(np.prod(np.linalg.norm(matrix, axis=1)))
        det = np.linalg.det(matrix)
        if abs(det) <= 1e-10 * max(scale, 1e-300):
            raise SingularMap("view map is singular at tolerance")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def identity(cls, n: int, k1: int, k2: int) -> "LinearViewMap":
        return cls(np.eye(n), k1, k2)

    @classmethod
    def from_permutation(cls, order: Sequence[int], k1: int, k2: int) -> "LinearViewMap":
        """Map placing raw coordinate order[i] at view coordinate i."""
        n = len(order)
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of 0..N-1")
        return cls(np.eye(n)[list(order)], k1, k2)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def jacobian(self) -> float:
        """Constant |det V| of the change of variables."""
        return float(abs(np.linalg.det(self.matrix)))

    def inverse_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    def apply(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z @ self.matrix.T if z.ndim > 1 else self.matrix @ z

    def invert(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        sol = np.linalg.solve(self.matrix, u.T if u.ndim > 1 else u)
        return sol.T if u.ndim > 1 else sol


def transform_prior(prior: GaussianPrior, view_map: LinearViewMap) -> GaussianPrior:
    """Exact law of V Z for a Gaussian Z: N(V mu, V Sigma V^T)."""
    v = view_map.matrix
    if v.shape[0] != prior.dim:
        raise ValueError("view map and prior dimensions disagree")
    return GaussianPrior(v @ prior.mean, v @ prior.covariance @ v.T)


@dataclass(frozen=True)
class GenericPrior:
    """Prior specified by evaluators instead of a parametric family.

    All callbacks are batched over x: ``conditional_density(y, x)`` takes
    matching leading shapes, ``conditional_sampler(x, rng)`` returns one y
    per x row (shape (n,) or (n, y_dim)), and ``conditional_quadrature(x, n)``
    returns nodes of shape (len(x), n, y_dim) or (len(x), n) with weights
    (len(x), n) integrating functions of y against f(y | x).  Evaluators
    must be pure given their inputs and the explicitly passed generator.

    The dual needs the quadrature rule or the sampler (seeded draws then
    form a nested Monte Carlo rule); the existence and independence checks
    need the sampler; posterior sampling needs both.  Every operation needs
    the identity view map, as the callbacks live in the prior's coordinates.
    """

    x_dim: int
    y_dim: int
    conditional_density: Callable | None = None
    conditional_sampler: Callable | None = None
    conditional_quadrature: Callable | None = None
    label: str = field(default="generic")

    @property
    def dim(self) -> int:
        return self.x_dim + self.y_dim

    def sample(self, x, rng: np.random.Generator) -> np.ndarray:
        """One draw of Y | X = x per row of x; shape (n, y_dim)."""
        if self.conditional_sampler is None:
            raise NonSampleableConditional("generic prior provides no conditional sampler")
        y = np.asarray(self.conditional_sampler(x, rng), dtype=float)
        return y if y.ndim == 2 else y[:, None]

    def rule(self, x, n: int, rng: np.random.Generator | None = None):
        """Rule for Y | X = x: nodes (len(x), n, y_dim) and log-weights.

        The quadrature callback, else (only given a generator) n equally
        weighted sampler draws per x: nested Monte Carlo, noise ~ 1/sqrt(n).
        """
        if self.conditional_quadrature is not None:
            nodes, weights = self.conditional_quadrature(x, n)
            nodes = np.asarray(nodes, dtype=float)
            with np.errstate(divide="ignore"):
                log_w = np.log(np.asarray(weights, dtype=float))
            return (nodes if nodes.ndim == 3 else nodes[:, :, None]), log_w
        if self.conditional_sampler is not None and rng is not None:
            nodes = np.stack([self.sample(x, rng) for _ in range(n)], axis=1)
            return nodes, np.full(n, np.log(1.0 / n))
        raise NonSampleableConditional(
            "generic prior provides no conditional quadrature rule "
            "(nor a sampler with a seeded generator)"
        )
