"""Solving for the tilting multipliers that enforce moment views.

The posterior has the form  f_lam(y | x) * g(x)  with

    f_lam(y | x) = exp(sum_i lam_i h_i(x, y)) f(y | x) / Z_lam(x),

and lam is the stationary point of the strictly convex dual

    F(lam) = E_g[ log Z_lam(X) ] - lam . c,

whose gradient is E_lam[h_i] - c_i and whose Hessian is the g-average of
the conditional covariance of h under the tilted law.  Two backends
evaluate F: a closed form for Gaussian priors with coordinate views, and a
quadrature/grid backend for everything else (outer nodes over x drawn from
the marginal view, inner nodes over y from a per-x conditional rule).

Past the closed form the prior is seen only through ``conditional_law``, its
law of Y given X with draws ``sample(x, rng)`` and a per-x rule ``rule(x, n)``;
``QuadratureProblem.from_prior`` builds the quadrature backend from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import (
    InconclusiveSample,
    NonIntegrablePayoff,
    NonIntegrableTilt,
    SingularConditionalCovariance,
)
from .priors import (
    GaussianPrior,
    GenericPrior,
    _require_pd,
    gaussian_conditional,
    transform_prior,
)
from .views import ViewSet

__all__ = [
    "DualState",
    "CalibrationReport",
    "TiltedPosterior",
    "GaussianLinearProblem",
    "QuadratureProblem",
    "build_dual_problem",
    "dual_eval",
    "solve_lambda_gaussian_linear",
    "solve_lambda_newton",
    "existence_check",
    "independence_check",
]

_LOGZ_CAP = 1.0e4


@dataclass(frozen=True)
class DualState:
    """Dual function value, gradient and Hessian at a multiplier vector."""

    lam: np.ndarray
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


@dataclass
class CalibrationReport:
    """Outcome of a multiplier solve, with convergence and uniqueness diagnostics."""

    lam: np.ndarray
    residuals: np.ndarray
    dual_value: float
    iterations: int
    converged: bool
    tolerance: float
    independence_min_eig: float = float("nan")
    used_gradient_fallback: bool = False
    message: str = ""
    dual_path: tuple[float, ...] = ()

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


class GaussianLinearProblem:
    """Closed-form dual for a Gaussian prior with coordinate moment views.

    After the change of variables, Y | X is Gaussian with constant Schur
    covariance S, so log Z_lam(x) = lam . m(x) + lam . S_mm lam / 2 and the
    x-average only enters through E_g[X].
    """

    def __init__(self, prior: GaussianPrior, views: ViewSet):
        if not views.is_coordinate_linear:
            raise ValueError("GaussianLinearProblem requires coordinate moment views")
        self.views = views
        self.prior_t = transform_prior(prior, views.view_map)
        self.conditional = gaussian_conditional(self.prior_t, views.k1)
        self.coords = np.array(views.moment_coords, dtype=int)
        self.targets = views.targets
        if views.k1 > 0:
            self.e_g_x = np.atleast_1d(np.asarray(views.marginal.mean(), dtype=float))
        else:
            self.e_g_x = np.zeros(0)
        self.m_g = self.conditional.mean(self.e_g_x)
        schur = self.conditional.cov
        self.s_cols = schur[:, self.coords]
        self.s_mm = schur[np.ix_(self.coords, self.coords)]

    @property
    def n_moments(self) -> int:
        return self.coords.size

    def dual_state(self, lam) -> DualState:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        mg_m = self.m_g[self.coords]
        value = float(lam @ mg_m + 0.5 * lam @ self.s_mm @ lam - lam @ self.targets)
        gradient = mg_m + self.s_mm @ lam - self.targets
        return DualState(lam, value, gradient, self.s_mm.copy())

    def require_pd_block(self):
        """Raise SingularConditionalCovariance unless S_mm is positive definite."""
        _require_pd(self.s_mm, SingularConditionalCovariance,
                    "conditional covariance of the viewed coordinates is singular")

    def solve_closed_form(self) -> np.ndarray:
        if self.n_moments == 0:
            return np.zeros(0)
        self.require_pd_block()
        return linalg.solve(self.s_mm, self.targets - self.m_g[self.coords], assume_a="pos")

    def conditional_shift(self, lam) -> np.ndarray:
        """Shift of the full conditional mean of Y induced by the tilt."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        return self.s_cols @ lam


class QuadratureProblem:
    """Discrete/quadrature dual backend.

    Holds outer x nodes and weights, per-x inner y nodes and their
    log-weights (shape (n_x, n_y), or (n_y,) when every x shares them), and
    the precomputed view tensor h of shape (k, n_x, n_y).  All dual
    quantities reduce to stabilized log-sum-exp arithmetic on that tensor.
    """

    def __init__(self, x_nodes, x_weights, y_nodes, log_y_weights, h_tensor, targets):
        self.x_nodes = np.asarray(x_nodes, dtype=float)
        self.x_weights = np.asarray(x_weights, dtype=float)
        self.y_nodes = np.asarray(y_nodes, dtype=float)
        self.log_y_weights = np.asarray(log_y_weights, dtype=float)
        self.h = np.asarray(h_tensor, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        if self.h.ndim != 3:
            raise ValueError("h tensor must have shape (k, n_x, n_y)")
        if abs(self.x_weights.sum() - 1.0) > 1e-9:
            raise ValueError("x weights must sum to 1")

    @property
    def n_moments(self) -> int:
        return self.h.shape[0]

    @classmethod
    def from_discrete(cls, x_values, x_weights, cond_weights, y_values, moments):
        """Finite-support problem: cond_weights[i, j] = P(y_j | x_i).

        ``moments`` is a sequence of MomentView; the marginal view is already
        encoded in ``x_weights``.
        """
        x_values = np.asarray(x_values, dtype=float).reshape(len(x_weights), -1)
        y_values = np.asarray(y_values, dtype=float)
        if y_values.ndim == 1:
            y_values = y_values[:, None]
        n_x, n_y = np.asarray(cond_weights).shape
        y_nodes = np.broadcast_to(y_values, (n_x, n_y, y_values.shape[1]))
        h = _view_tensor(moments, x_values[:, None, :], y_nodes)
        targets = np.array([view.target for view in moments], dtype=float)
        with np.errstate(divide="ignore"):
            log_weights = np.log(np.asarray(cond_weights, dtype=float))
        return cls(x_values, x_weights, y_nodes, log_weights, h, targets)

    @classmethod
    def from_prior(cls, prior, views: ViewSet, *, n_x: int = 10_000, n_y: int = 64,
                   seed: int = 0) -> "QuadratureProblem":
        """Outer rule over the marginal view, and the prior's rule for Y | X per x node.

        A Gaussian prior gives a Gauss-Hermite rule with n_y nodes per
        conditional dimension; a generic prior its quadrature callback or,
        without one, n_y equally weighted sampler draws per outer node
        (seeded, so the problem is reproducible; the inner-integral noise
        then scales as 1/sqrt(n_y)).
        """
        law = conditional_law(prior, views)
        x_nodes, x_weights = _marginal_nodes(views, n_x)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        y_nodes, log_y_weights = law.rule(x_nodes, n_y, rng)
        h = _view_tensor(views.moments, x_nodes[:, None, :], y_nodes)
        return cls(x_nodes, x_weights, y_nodes, log_y_weights, h, views.targets)

    def _tilted_conditional(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """log Z_lam(x_i) and the tilted conditional weights per outer node."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        scores = self.log_y_weights + np.einsum("k,knj->nj", lam, self.h)
        log_z = _row_logsumexp(scores)
        return log_z, np.exp(scores - log_z[:, None])

    def posterior_weights(self, lam) -> np.ndarray:
        """Joint posterior weights over (x_i, y_j); rows scaled by x weight."""
        return self._tilted_conditional(lam)[1] * self.x_weights[:, None]

    def expectation(self, lam, values) -> float:
        """Posterior expectation of a precomputed (n_x, n_y) value table."""
        return float(np.sum(self.posterior_weights(lam) * values))

    def dual_state(self, lam) -> DualState:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        log_z, cond = self._tilted_conditional(lam)
        value = float(self.x_weights @ log_z - lam @ self.targets)
        cond_mean = np.einsum("knj,nj->kn", self.h, cond)
        gradient = cond_mean @ self.x_weights - self.targets
        joint = cond * self.x_weights[:, None]
        second = np.einsum("knj,mnj,nj->km", self.h, self.h, joint)
        cross = np.einsum("kn,mn,n->km", cond_mean, cond_mean, self.x_weights)
        hessian = second - cross
        hessian = (hessian + hessian.T) / 2.0
        return DualState(lam, value, gradient, hessian)


def _row_logsumexp(scores: np.ndarray) -> np.ndarray:
    """log sum_j exp(scores[i, j]) per row; raises when the tilt is not integrable.

    Holds one temporary of the size of ``scores``.
    """
    peak = np.max(scores, axis=1, keepdims=True)
    shifted = scores - peak
    np.exp(shifted, out=shifted)
    log_z = peak[:, 0] + np.log(np.sum(shifted, axis=1))
    if not np.all(np.isfinite(log_z)) or np.max(log_z) > _LOGZ_CAP:
        raise NonIntegrableTilt(
            "tilted conditional normalizer overflows; the tilt is not integrable"
        )
    return log_z


def _marginal_nodes(views: ViewSet, n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Outer integration rule over the marginal view (exact for grids)."""
    if views.k1 == 0:
        return np.zeros((1, 0)), np.ones(1)
    nodes, weights = views.marginal.quadrature_nodes(n_x)
    return nodes[:, None], weights


def _view_tensor(moments, x, y) -> np.ndarray:
    """Evaluate every moment view on broadcast (x, y) node arrays."""
    rows = []
    for view in moments:
        if view.coord is not None:
            rows.append(np.broadcast_to(y[..., view.coord], y.shape[:-1]).copy())
        else:
            rows.append(np.asarray(view.payoff(x, y), dtype=float))
    shape = y.shape[:-1]
    if not rows:
        return np.zeros((0,) + shape)
    return np.stack([np.broadcast_to(r, shape) for r in rows])


def _draw_x(marginal, k1: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of X from the marginal view, shape (n, k1)."""
    if k1 == 0:
        return np.zeros((n, 0))
    return np.atleast_2d(marginal.sample(n, rng)).reshape(n, k1)


def conditional_law(prior, views: ViewSet):
    """The prior's law of Y given X in view coordinates; the only prior-type dispatch.

    A Gaussian prior gives its ``GaussianConditional``; a ``GenericPrior`` is
    its own law and needs the identity view map.
    """
    if isinstance(prior, GaussianPrior):
        return gaussian_conditional(transform_prior(prior, views.view_map), views.k1)
    if isinstance(prior, GenericPrior):
        if not np.allclose(views.view_map.matrix, np.eye(views.view_map.n)):
            raise ValueError("generic priors require an identity view map")
        return prior
    raise TypeError(f"unsupported prior type {type(prior).__name__}")


def build_dual_problem(prior, views: ViewSet, *, n_x: int = 10_000, n_y: int = 64):
    """Closed form for a Gaussian prior with coordinate views, else quadrature."""
    if isinstance(prior, GaussianPrior) and views.is_coordinate_linear:
        return GaussianLinearProblem(prior, views)
    return QuadratureProblem.from_prior(prior, views, n_x=n_x, n_y=n_y)


def dual_eval(prior, views: ViewSet, lam, *, problem=None,
              n_x: int = 10_000, n_y: int = 64) -> DualState:
    """Evaluate the dual value, gradient and Hessian at lam."""
    if problem is None:
        problem = build_dual_problem(prior, views, n_x=n_x, n_y=n_y)
    return problem.dual_state(lam)


def solve_lambda_gaussian_linear(prior: GaussianPrior, views: ViewSet) -> np.ndarray:
    """Closed-form multipliers for a Gaussian prior with coordinate views."""
    return GaussianLinearProblem(prior, views).solve_closed_form()


def solve_lambda_newton(prior, views: ViewSet, *, lam0=None, tol: float = 1e-8,
                        max_iter: int = 100, problem=None,
                        n_x: int = 10_000, n_y: int = 64) -> CalibrationReport:
    """Damped Newton descent on the strictly convex dual from lam = 0.

    Uses backtracking line search on F (monotone dual values); when the
    Hessian factorization fails the step falls back to steepest descent and
    the report flags the linear-independence hypothesis.  Non-convergence
    returns the best iterate with ``converged=False`` instead of raising.
    """
    if problem is None:
        problem = build_dual_problem(prior, views, n_x=n_x, n_y=n_y)
    k = problem.n_moments
    lam = np.zeros(k) if lam0 is None else np.atleast_1d(np.asarray(lam0, dtype=float))
    state = problem.dual_state(lam)
    init_hessian = state.hessian
    fallback = False
    iterations = 0
    message = ""
    path = [state.value]
    for iterations in range(max_iter + 1):
        if np.max(np.abs(state.gradient), initial=0.0) <= tol:
            break
        if iterations == max_iter:
            message = f"no convergence in {max_iter} iterations"
            break
        try:
            cho = linalg.cho_factor(state.hessian)
            step = -linalg.cho_solve(cho, state.gradient)
        except linalg.LinAlgError:
            fallback = True
            scale = max(np.max(np.abs(np.diag(state.hessian))), 1.0)
            step = -state.gradient / scale
        slope = float(state.gradient @ step)
        if slope >= 0:
            fallback = True
            step = -state.gradient
            slope = -float(state.gradient @ state.gradient)
        t = 1.0
        accepted = None
        while t >= 2.0**-40:
            try:
                trial = problem.dual_state(lam + t * step)
            except NonIntegrableTilt:
                t /= 2.0
                continue
            if trial.value <= state.value + 1e-4 * t * slope:
                accepted = trial
                break
            t /= 2.0
        if accepted is None:
            message = "line search stalled"
            break
        lam = lam + t * step
        state = accepted
        path.append(state.value)
    residuals = np.abs(state.gradient)
    converged = bool(np.max(residuals, initial=0.0) <= tol)
    if k:
        eigs = np.linalg.eigvalsh((init_hessian + init_hessian.T) / 2.0)
        min_eig = float(eigs.min())
    else:
        min_eig = float("nan")
    return CalibrationReport(
        lam=state.lam,
        residuals=residuals,
        dual_value=state.value,
        iterations=iterations,
        converged=converged,
        tolerance=tol,
        independence_min_eig=min_eig,
        used_gradient_fallback=fallback,
        message=message,
        dual_path=tuple(path),
    )


@dataclass(frozen=True)
class TiltedPosterior:
    """Calibrated model: marginal view times the tilted prior conditional."""

    prior: object
    views: ViewSet
    lam: np.ndarray
    problem: object = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", np.atleast_1d(np.asarray(self.lam, dtype=float)))

    def expectation(self, func) -> float:
        """Posterior expectation of a vectorized payoff func(x, y) on the node tensor.

        Raises NonIntegrablePayoff when the payoff or its expectation is not finite.
        """
        problem = self.problem
        if not isinstance(problem, QuadratureProblem):
            raise TypeError("closed-form posteriors have no node tensor; use price_option")
        values = np.asarray(func(problem.x_nodes[:, None, :], problem.y_nodes), dtype=float)
        values = np.broadcast_to(values, problem.y_nodes.shape[:-1])
        if not np.all(np.isfinite(values)):
            raise NonIntegrablePayoff("payoff is not finite on the posterior support")
        value = problem.expectation(self.lam, values)
        if not np.isfinite(value):
            raise NonIntegrablePayoff("payoff expectation diverges under the posterior")
        return value


def _h_samples(prior, views: ViewSet, n_samples: int, rng: np.random.Generator,
               paired: bool = False):
    """Draws of (h_1..h_k)(X, Y) under the prior conditional tilted to g.

    With ``paired=True`` returns two conditionally independent h-vectors
    sharing the same X draws (for conditional-covariance estimation).
    """
    law = conditional_law(prior, views)
    x = _draw_x(views.marginal, views.k1, n_samples, rng)

    def h_of():
        return _view_tensor(views.moments, x, law.sample(x, rng)).T

    if paired:
        return h_of(), h_of()
    return h_of()


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    Importing tiltcal thus does not load ``scipy.optimize``; the first
    existence check does, for every k.  The name stays bound at module level
    because ``perfbench/tracing.py`` counts LP solves by rebinding
    ``calibration.linprog``; once the benchmark counts them another way this
    can become a local import in ``_hull_gauge``.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


# Column generation for _hull_gauge.  An artificial column costs far more per
# unit than the points of a non-flat standardised sample; the pricing
# tolerance is HiGHS's default dual feasibility tolerance.
_ARTIFICIAL_COST = 1.0e6
_PRICING_TOL = 1.0e-7
_GAUGE_ROUNDS = 20
_COLUMNS_PER_VIEW = 50


def _hull_gauge(h: np.ndarray, c: np.ndarray, tol: float) -> float:
    """Gauge of c in the convex hull of the rows of h about their mean.

    Taken on the per-column standardised sample z (mean 0) with the target v
    mapped the same way, as the LP  min 1'w  subject to  z'w = v, w >= 0,
    solved by column generation.  The restricted LP holds the sample's
    extreme points along the +-axes and the +-diagonal, plus 2k artificial
    columns +-e_i of cost ``_ARTIFICIAL_COST`` that keep it feasible when
    the cone of those points misses v.  Each round prices every point with
    its dual y in one product s = z y and adds the ``_COLUMNS_PER_VIEW * k``
    most violated points outside the set.  It stops when no point has
    s > 1 + ``_PRICING_TOL`` and no artificial column carries weight: then
    y / (1 + _PRICING_TOL) is feasible for the full dual, so the restricted
    optimum is within ``_PRICING_TOL`` relative of the full-sample gauge.
    Raises InconclusiveSample when the sample is degenerate, when a round
    adds nothing yet the stopping rule fails (a point already in the set
    still violates, or an artificial column keeps weight), or after
    ``_GAUGE_ROUNDS`` rounds.
    """
    if h.shape[1] == 0 or np.ptp(h, axis=0).min() <= 0.0:
        raise InconclusiveSample("sampled h-image is degenerate (zero spread)")
    mean, std = h.mean(axis=0), h.std(axis=0)
    z = (h - mean) / std
    v = (c - mean) / std
    singular = np.linalg.svd(z, compute_uv=False)
    if singular[-1] <= tol * singular[0]:
        raise InconclusiveSample("sampled h-image is flat (spans fewer than k dimensions)")
    n, k = z.shape
    directions = np.vstack([np.eye(k), np.ones((1, k))])
    projections = z @ directions.T
    restricted = np.zeros(n, dtype=bool)
    restricted[np.argmax(projections, axis=0)] = True
    restricted[np.argmin(projections, axis=0)] = True
    artificial = np.hstack([np.eye(k), -np.eye(k)])
    for _ in range(_GAUGE_ROUNDS):
        columns = np.flatnonzero(restricted)
        res = linprog(np.r_[np.ones(columns.size), np.full(2 * k, _ARTIFICIAL_COST)],
                      A_eq=np.hstack([z[columns].T, artificial]), b_eq=v,
                      bounds=(0.0, None), method="highs")
        if res.status != 0:
            raise InconclusiveSample(f"hull-gauge LP failed: {res.message}")
        price = z @ res.eqlin.marginals
        violated = price > 1.0 + _PRICING_TOL
        entering = np.flatnonzero(violated & ~restricted)
        if entering.size == 0:
            if violated.any():
                raise InconclusiveSample("hull-gauge LP dual violates its own columns")
            if np.any(res.x[columns.size:] > 0.0):
                raise InconclusiveSample("hull-gauge LP keeps an artificial column; "
                                         "sampled h-image is too thin")
            return float(res.fun)
        batch = _COLUMNS_PER_VIEW * k
        if entering.size > batch:
            entering = entering[np.argpartition(price[entering], -batch)[-batch:]]
        restricted[entering] = True
    raise InconclusiveSample(f"hull-gauge column generation took over {_GAUGE_ROUNDS} rounds")


def existence_check(prior, views: ViewSet, c=None, n_samples: int = 100_000,
                    seed: int = 0, tol: float = 1e-6) -> str:
    """Monte Carlo depth of the targets c in the convex hull of the h-image.

    Samples (h_1, ..., h_k)(X, Y) under the untilted conditional with X ~ g.
    The depth is 1 - gamma, with gamma the gauge (Minkowski functional) of
    the sample's hull about the sample mean: 1 at the mean, 0 on the
    boundary, negative outside.  Returns "interior" when depth > tol,
    "outside" when depth < -tol, else "boundary"; multipliers exist for
    interior targets.  The gauge is affine-invariant, so ``tol`` is relative
    and the class does not depend on the units of the views.  For every k it
    is one LP over the sample, solved by column generation: the LPs hold a
    few hundred points and each round prices the whole sample with one
    matrix-vector product.  Raises ValueError unless c holds one target per
    moment view, and InconclusiveSample when some view has no spread, when
    the standardised sample's smallest singular value is at most ``tol``
    times its largest, or when the column generation cannot certify its
    gauge.
    """
    k = len(views.moments)
    c = views.targets if c is None else np.atleast_1d(np.asarray(c, dtype=float))
    if c.shape != (k,):
        raise ValueError(f"expected {k} targets, one per moment view; got shape {c.shape}")
    h = _h_samples(prior, views, n_samples, np.random.default_rng(seed))
    depth = 1.0 - _hull_gauge(h, c, tol)
    if depth > tol:
        return "interior"
    if depth < -tol:
        return "outside"
    return "boundary"


def independence_check(prior, views: ViewSet, n_samples: int = 50_000,
                       seed: int = 0) -> float:
    """Smallest eigenvalue of the estimated dual Hessian at lam = 0.

    Estimates E_g[Cov(h | X)] from paired conditional draws; a positive
    value certifies (numerically) the linear-independence hypothesis that
    makes the calibrated model unique.
    """
    rng = np.random.default_rng(seed)
    h1, h2 = _h_samples(prior, views, n_samples, rng, paired=True)
    d = h1 - h2
    cov = d.T @ d / (2.0 * n_samples)
    cov = (cov + cov.T) / 2.0
    return float(np.linalg.eigvalsh(cov).min())
