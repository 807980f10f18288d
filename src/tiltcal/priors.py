"""Prior risk models and linear changes of variables.

A Gaussian prior is the workhorse; a generic prior exposes just enough
callbacks (conditional sampler, quadrature rule) for the tilting machinery
to operate on non-Gaussian models such as lognormal pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy import linalg
from scipy.special import erfcx, log_ndtr, ndtri_exp, roots_hermite

from .errors import NonSampleableConditional, QuadratureFailure, SingularBlock, SingularMap

__all__ = [
    "GaussianPrior",
    "GaussianConditional",
    "gaussian_conditional",
    "LinearViewMap",
    "transform_prior",
    "GenericPrior",
]

_SYM_TOL = 1e-12
_PD_TOL = 1e-10
# Blocked draws size each float temporary to stay in cache: 1 MiB for the
# importance sampler's few (calibration._BLOCK_VALUES, set from this), a quarter
# of that for the dozen or so (pieces x rows) temporaries that
# GaussianConditional.sample_tilted keeps alive at once.  So sample_tilted
# draws blocks of rows of at most this many piece values.
_TILT_BLOCK = 1 << 15


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


@lru_cache(maxsize=8)
def _hermite_tensor(dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Hermite rule normalized for N(0, I).

    Memoised, so its arrays are shared and read-only.  Raises
    QuadratureFailure beyond 3 dims, where the n**dim tensor is too big.
    """
    if dim == 0:
        nodes, weights = np.zeros((1, 0)), np.ones(1)
    elif dim > 3:
        raise QuadratureFailure("Gauss-Hermite tensor rule is practical only up to 3 dims")
    else:
        t, w = roots_hermite(n)
        nodes = t[:, None]
        weights = w / np.sqrt(np.pi)
        for _ in range(dim - 1):
            nodes = np.column_stack(
                [np.repeat(nodes, n, axis=0), np.tile(t, nodes.shape[0])[:, None]]
            )
            weights = np.outer(weights, w / np.sqrt(np.pi)).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class TiltPieces:
    """A call/put-tilted Gaussian Y | X as truncated-normal pieces (``tilt_pieces``).

    Arrays are (pieces, rows).  Piece p of row i is N(mean[i] + shift[p] sd,
    sd^2) truncated to the standardised edges ``lo`` .. ``hi`` (in units of sd
    from that mean; -inf and +inf at the ends).  ``above`` marks a piece wholly
    above its own mean, which is read mirrored, in -z, so that its inner edge
    (nearer its mean) and its outer edge are lower tails; ``log_inner`` and
    ``log_outer`` are log Phi there.  ``log_std_mass`` is log(Phi(hi) -
    Phi(lo)) and ``log_mass`` the piece's log-mass under the tilt.
    """

    mean: np.ndarray
    sd: float
    shift: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    above: np.ndarray
    log_inner: np.ndarray
    log_outer: np.ndarray
    log_std_mass: np.ndarray
    log_mass: np.ndarray

    @cached_property
    def y_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance of Y on each piece, from the truncated-normal moments.

        With r = phi(edge) / (Phi(hi) - Phi(lo)), the standardised mean is
        r_lo - r_hi and the second moment 1 + lo r_lo - hi r_hi (Tallis 1961).
        r is exp(log phi - log mass), except where the inner edge, as a lower
        tail, lies below -5: there both logs are large and nearly cancel, so
        r takes the Mills ratio phi / Phi from ``erfcx``.  The mean is clipped
        to the piece and the variance to [0, (width / 2)^2], which bounds the
        rounding of pieces too thin for their phi differences; a piece without
        mass gets r = 0.
        """
        shape = self.log_std_mass.shape
        if self.sd == 0.0:
            return np.broadcast_to(self.mean, shape), np.zeros(shape)
        held = np.isfinite(self.log_std_mass)
        log_mass = np.where(held, self.log_std_mass, np.inf)
        log_phi0 = -0.5 * np.log(2.0 * np.pi)
        r_lo, r_hi = np.zeros(shape), np.zeros(shape)
        with np.errstate(over="ignore"):  # only where the erfcx branch replaces r
            r_lo[1:] = np.exp(log_phi0 - 0.5 * self.lo[1:] ** 2 - log_mass[1:])
            r_hi[:-1] = np.exp(log_phi0 - 0.5 * self.hi[:-1] ** 2 - log_mass[:-1])
        inner = np.where(self.above, -self.lo, self.hi)  # as a lower tail
        far = held & (inner < -5.0)
        if far.any():
            up, u = self.above[far], inner[far]
            v = np.where(up, -self.hi[far], self.lo[far])  # the outer edge, likewise
            r_in = (np.sqrt(2.0 / np.pi) / erfcx(-u / np.sqrt(2.0))
                    / -np.expm1(self.log_outer[far] - self.log_inner[far]))
            with np.errstate(over="ignore"):  # an outer edge past ~1e154 sd: phi there is 0
                r_out = r_in * np.exp(0.5 * (u - v) * (u + v))
            r_lo[far], r_hi[far] = np.where(up, r_in, r_out), np.where(up, r_out, r_in)
        second = np.ones(shape)
        second[1:] += self.lo[1:] * r_lo[1:]
        second[:-1] -= self.hi[:-1] * r_hi[:-1]
        z_mean = np.clip(r_lo - r_hi, self.lo, self.hi)
        with np.errstate(over="ignore"):  # a piece past ~1e154 sd: its clip gives 0
            z_var = np.clip(second - z_mean**2, 0.0, (0.5 * (self.hi - self.lo)) ** 2)
        return self.mean + self.sd * (self.shift + z_mean), self.sd**2 * z_var


@dataclass(frozen=True)
class GaussianConditional:
    """Affine conditional law Y | X = x  ~  N(intercept + slope x, cov)."""

    intercept: np.ndarray
    slope: np.ndarray
    cov: np.ndarray

    # sample(x[:m], rng) is sample(x, rng)[:m] from the same generator state
    draws_by_row = True

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

    def shifted(self, delta: np.ndarray) -> "GaussianConditional":
        return GaussianConditional(self.intercept + delta, self.slope, self.cov)

    @cached_property
    def root(self) -> np.ndarray:
        """Square root L of the covariance, L L^T = cov."""
        return _psd_root(self.cov)

    def sample(self, x, rng: np.random.Generator) -> np.ndarray:
        """One draw of Y | X = x per row of x; returns (n, y_dim).

        The draw is ``normals @ root.T`` with the mean added in place; with no
        X columns that mean is the intercept alone, so no (n, 0) product is formed.
        """
        x = np.asarray(x, dtype=float)
        y = rng.standard_normal((x.shape[0], self.y_dim)) @ self.root.T
        y += self.intercept if self.slope.shape[1] == 0 else self.mean(x)
        return y

    def tilt_pieces(self, x, knots, intercepts, slopes) -> "TiltPieces":
        """Y | X = x tilted by exp(a_p + b_p y) on piece p, one column per row of x.

        For y_dim == 1.  Piece p lies between ``knots[p - 1]`` and ``knots[p]``
        (ascending, with -inf and +inf at the ends); a_p and b_p are
        ``intercepts[p]`` and ``slopes[p]``.  Given x the tilted law is a
        mixture of truncated normals (Tallis 1961): piece p is N(m + b_p s^2, s^2)
        on its interval, with log-mass a_p + b_p m + b_p^2 s^2 / 2 + log(Phi(beta_p)
        - Phi(alpha_p)), taken with ``log_ndtr`` at the finite edges only and
        through the complement for a piece above its own mean.  With zero Schur
        variance Y = m(x): the piece holding m(x) has all of the mass.
        """
        mean = self.mean(np.asarray(x, dtype=float))[:, 0]
        sd = float(abs(self.root[0, 0]))
        a, b = (np.asarray(v, dtype=float)[:, None] for v in (intercepts, slopes))
        knots = np.asarray(knots, dtype=float)
        bs = b * sd
        shape = (b.size, mean.size)
        lo, hi = np.full(shape, -np.inf), np.full(shape, np.inf)
        above = np.zeros(shape, dtype=bool)
        if sd == 0.0:
            log_std_mass = np.where(np.arange(b.size)[:, None] == np.searchsorted(knots, mean),
                                    0.0, -np.inf)
            return TiltPieces(mean, sd, bs, lo, hi, above, log_std_mass, np.full(shape, -np.inf),
                              log_std_mass, log_std_mass + a + b * mean)
        # Piece p has standardised edges alpha_p = z0[p - 1] - b_p s and
        # beta_p = z0[p] - b_p s; it is mirrored where alpha_p > 0.
        z0 = (knots[:, None] - mean) / sd
        alpha, beta = lo[1:], hi[:-1]
        np.subtract(z0, bs[1:], out=alpha)
        np.subtract(z0, bs[:-1], out=beta)
        above[1:] = alpha > 0
        log_lo = np.empty(shape)  # log Phi at the lower edge, mirrored where above
        log_lo[0] = -np.inf
        log_lo[1:] = log_ndtr(-np.abs(alpha))
        log_hi = np.empty(shape)  # and at the upper edge
        log_hi[:-1] = log_ndtr(np.where(above[:-1], -beta, beta))
        log_hi[-1] = np.where(above[-1], -np.inf, 0.0)
        log_inner = np.where(above, log_lo, log_hi)
        log_outer = np.where(above, log_hi, log_lo)
        # A piece too thin to hold mass gets -inf, and so does one whose inner edge
        # has log Phi = -inf (over ~1.3e154 sd out), where (-inf) - (-inf) is NaN.
        with np.errstate(divide="ignore", invalid="ignore"):
            log_std_mass = log_inner + np.log(-np.expm1(log_outer - log_inner))
        log_std_mass[log_inner == -np.inf] = -np.inf
        log_mass = log_std_mass + (a + 0.5 * bs**2) + b * mean
        return TiltPieces(mean, sd, bs, lo, hi, above, log_inner, log_outer, log_std_mass,
                          log_mass)

    def sample_tilted(self, x, rng: np.random.Generator, knots, intercepts,
                      slopes) -> np.ndarray:
        """One exact draw per row of x of Y | X = x tilted by exp(a_p + b_p y) on piece p.

        The pieces are ``tilt_pieces(x, knots, intercepts, slopes)``.  Row i
        takes the uniforms ``rng.random((len(x), 2))[i]``: the first picks a
        piece by its mass, the second inverts Phi inside it from the lower
        tail, or from the upper tail where its CDF passes 1/2.  So
        ``sample_tilted(x[:m], ...)`` gives the first m rows of the whole call,
        and the rows are drawn in blocks of at most ``_TILT_BLOCK`` piece
        values, which change no value.  With zero Schur variance Y = m(x).
        """
        rows = max(1, _TILT_BLOCK // len(intercepts))
        if len(x) > rows:
            return np.concatenate([self.sample_tilted(x[i:i + rows], rng, knots, intercepts, slopes)
                                   for i in range(0, len(x), rows)])
        p = self.tilt_pieces(x, knots, intercepts, slopes)
        u = rng.random((p.mean.size, 2))
        if p.sd == 0.0:
            return p.mean[:, None]
        knots = np.asarray(knots, dtype=float)
        bounds = np.concatenate([[-np.inf], knots, [np.inf]])
        cum = np.exp(p.log_mass - p.log_mass.max(axis=0)).cumsum(axis=0)
        piece = np.sum(cum[:-1] < (1.0 - u[:, 0]) * cum[-1], axis=0)
        # Invert inside the chosen piece at v = u + 2^-54, the midpoint of u's cell:
        # Phi(z) = Phi(alpha) + v mass, read as Phi(-z) = Phi(-beta) + (1 - v) mass
        # where mirrored, and as 1 - Phi(z) = Phi(-beta) + (1 - v) mass past 1/2.
        cols = np.arange(p.mean.size)
        log_m, flip, bp = p.log_std_mass[piece, cols], p.above[piece, cols], p.shift[piece, 0]
        log_v, log_1mv = np.log(u[:, 1] + 2.0**-54), np.log((1.0 - u[:, 1]) - 2.0**-54)
        log_p = np.logaddexp(p.log_outer[piece, cols], np.where(flip, log_1mv, log_v) + log_m)
        upper = (log_p > -np.log(2.0)) & ~flip  # only a piece straddling its mean gets there
        if upper.any():
            inner = p.hi[piece[upper], cols[upper]]
            log_p[upper] = np.logaddexp(log_ndtr(-inner), log_1mv[upper] + log_m[upper])
        z = ndtri_exp(log_p)
        z[upper ^ flip] *= -1.0
        y = np.clip(p.mean + bp * p.sd + p.sd * z, bounds[piece], bounds[piece + 1])
        return y[:, None]

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
    the moment-view coordinates.  ``inverse`` is V^-1, computed once, read-only.
    """

    matrix: np.ndarray
    k1: int
    k2: int
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

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
        for name, arr in (("matrix", matrix), ("inverse", np.linalg.inv(matrix))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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

    def apply(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z @ self.matrix.T if z.ndim > 1 else self.matrix @ z

    def invert(self, u) -> np.ndarray:
        """Factors V^-1 u of view coordinates u, F-ordered per row as ``np.linalg.solve``
        gives them; the identity map returns u itself."""
        u = np.asarray(u, dtype=float)
        if np.array_equal(self.matrix, np.eye(self.n)):
            return u
        return (self.inverse @ u.T).T


def transform_prior(prior: GaussianPrior, view_map: LinearViewMap) -> GaussianPrior:
    """Exact law of V Z for a Gaussian Z: N(V mu, V Sigma V^T)."""
    v = view_map.matrix
    if v.shape[0] != prior.dim:
        raise ValueError("view map and prior dimensions disagree")
    return GaussianPrior(v @ prior.mean, v @ prior.covariance @ v.T)


@dataclass(frozen=True)
class GenericPrior:
    """Prior specified by evaluators instead of a parametric family.

    Both callbacks are batched over x: ``conditional_sampler(x, rng)``
    returns one y per x row (shape (n,) or (n, y_dim)), and
    ``conditional_quadrature(x, n)`` returns nodes of shape (len(x), n, y_dim)
    or (len(x), n) with weights (len(x), n) integrating functions of y
    against f(y | x); y of any other width raises ValueError.  Evaluators
    must be pure given their inputs and the explicitly passed generator.

    The dual and the independence check need the quadrature rule or the
    sampler (seeded draws then form a nested Monte Carlo rule); the
    existence check needs the sampler; posterior sampling needs both.  Every operation needs
    the identity view map, as the callbacks live in the prior's coordinates.
    """

    x_dim: int
    y_dim: int
    conditional_sampler: Callable | None = None
    conditional_quadrature: Callable | None = None

    # the sampler may use the generator in any pattern, so it always gets a whole chunk
    draws_by_row = False

    def sample(self, x, rng: np.random.Generator) -> np.ndarray:
        """One draw of Y | X = x per row of x; shape (n, y_dim)."""
        if self.conditional_sampler is None:
            raise NonSampleableConditional("generic prior provides no conditional sampler")
        y = np.asarray(self.conditional_sampler(x, rng), dtype=float)
        return self._checked(y if y.ndim == 2 else y[:, None], "conditional_sampler")

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
            return self._checked(nodes if nodes.ndim == 3 else nodes[:, :, None],
                                 "conditional_quadrature"), log_w
        if self.conditional_sampler is not None and rng is not None:
            nodes = np.stack([self.sample(x, rng) for _ in range(n)], axis=1)
            return nodes, np.full(n, np.log(1.0 / n))
        raise NonSampleableConditional(
            "generic prior provides no conditional quadrature rule "
            "(nor a sampler with a seeded generator)"
        )

    def _checked(self, y: np.ndarray, callback: str) -> np.ndarray:
        """y, unless its last axis is not y_dim long: then ValueError naming the callback."""
        if y.shape[-1] != self.y_dim:
            raise ValueError(f"{callback} returned {y.shape[-1]} columns of y; "
                             f"the prior declares y_dim={self.y_dim}")
        return y
