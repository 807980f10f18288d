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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    InconclusiveSample,
    NonIntegrablePayoff,
    NonIntegrableTilt,
    NonSampleableConditional,
    SingularConditionalCovariance,
)
from .priors import (
    GaussianConditional,
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
    """Outcome of a multiplier solve, with existence/uniqueness diagnostics."""

    lam: np.ndarray
    residuals: np.ndarray
    dual_value: float
    iterations: int
    converged: bool
    tolerance: float
    existence: str = "unchecked"
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

    Holds outer x nodes and weights, per-x inner y nodes and weights, and
    the precomputed view tensor h of shape (k, n_x, n_y).  All dual
    quantities reduce to stabilized log-sum-exp arithmetic on that tensor.
    ``conditional`` is the prior law of Y | X behind a Gaussian prior's rule
    (None for other priors); the importance sampler draws from it.
    """

    conditional: GaussianConditional | None = None

    def __init__(self, x_nodes, x_weights, y_nodes, y_weights, h_tensor, targets):
        self.x_nodes = np.asarray(x_nodes, dtype=float)
        self.x_weights = np.asarray(x_weights, dtype=float)
        self.y_nodes = np.asarray(y_nodes, dtype=float)
        with np.errstate(divide="ignore"):
            self.log_y_weights = np.log(np.asarray(y_weights, dtype=float))
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
        return cls(x_values, x_weights, y_nodes, cond_weights, h, targets)

    @classmethod
    def from_gaussian(cls, prior: GaussianPrior, views: ViewSet,
                      n_x: int = 10_000, n_y: int = 64) -> "QuadratureProblem":
        """Gaussian prior with payoff views: Gauss-Hermite rule per x node."""
        cond = gaussian_conditional(transform_prior(prior, views.view_map), views.k1)
        x_nodes, x_weights = _marginal_nodes(views, n_x)
        offsets, t_weights = cond.hermite_rule(n_y)
        y_nodes = cond.mean(x_nodes)[:, None, :] + offsets[None, :, :]
        y_weights = np.broadcast_to(t_weights, (x_nodes.shape[0], t_weights.size))
        h = _view_tensor(views.moments, x_nodes[:, None, :], y_nodes)
        problem = cls(x_nodes, x_weights, y_nodes, y_weights, h, views.targets)
        problem.conditional = cond
        return problem

    @classmethod
    def from_generic(cls, prior: GenericPrior, views: ViewSet,
                     n_x: int = 10_000, n_y: int = 64,
                     seed: int = 0) -> "QuadratureProblem":
        """Generic prior: per-x conditional quadrature, or nested Monte Carlo.

        Without a quadrature rule the conditional sampler provides n_y
        equally weighted draws per outer node (seeded, so the problem is
        reproducible); the inner-integral noise then scales as 1/sqrt(n_y).
        """
        if not np.allclose(views.view_map.matrix, np.eye(views.view_map.n)):
            raise ValueError("generic priors require an identity view map")
        x_nodes, x_weights = _marginal_nodes(views, n_x)
        if prior.conditional_quadrature is not None:
            y_nodes, y_weights = prior.conditional_quadrature(x_nodes, n_y)
        elif prior.conditional_sampler is not None:
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            draws = [
                np.atleast_2d(np.asarray(prior.conditional_sampler(x_nodes, rng), float).T).T
                for _ in range(n_y)
            ]
            y_nodes = np.stack(draws, axis=1)
            y_weights = np.full(y_nodes.shape[:2], 1.0 / n_y)
        else:
            raise NonSampleableConditional(
                "generic prior provides neither a conditional quadrature rule "
                "nor a conditional sampler"
            )
        y_nodes = np.asarray(y_nodes, dtype=float)
        if y_nodes.ndim == 2:
            y_nodes = y_nodes[:, :, None]
        h = _view_tensor(views.moments, x_nodes[:, None, :], y_nodes)
        return cls(x_nodes, x_weights, y_nodes, y_weights, h, views.targets)

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


def build_dual_problem(prior, views: ViewSet, *, n_x: int = 10_000, n_y: int = 64):
    """Pick the dual backend for a prior/view combination."""
    if isinstance(prior, GaussianPrior):
        if views.is_coordinate_linear:
            return GaussianLinearProblem(prior, views)
        return QuadratureProblem.from_gaussian(prior, views, n_x=n_x, n_y=n_y)
    if isinstance(prior, GenericPrior):
        return QuadratureProblem.from_generic(prior, views, n_x=n_x, n_y=n_y)
    raise TypeError(f"unsupported prior type {type(prior).__name__}")


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
    x = _draw_x(views.marginal, views.k1, n_samples, rng)
    if isinstance(prior, GaussianPrior):
        sampler = gaussian_conditional(transform_prior(prior, views.view_map), views.k1).sample
    elif isinstance(prior, GenericPrior):
        if prior.conditional_sampler is None:
            raise NonSampleableConditional("generic prior provides no conditional sampler")
        sampler = prior.conditional_sampler
    else:
        raise TypeError(f"unsupported prior type {type(prior).__name__}")

    def h_of():
        y = np.asarray(sampler(x, rng), dtype=float)
        return _view_tensor(views.moments, x, y if y.ndim == 2 else y[:, None]).T

    if paired:
        return h_of(), h_of()
    return h_of()


def existence_check(prior, views: ViewSet, c=None, n_samples: int = 100_000,
                    seed: int = 0, tol: float = 1e-6) -> str:
    """Monte Carlo convex-hull membership of the targets in the h-image.

    Classifies the target vector against the sampled support of
    (h_1, ..., h_k)(X, Y) under the untilted conditional with X ~ g:
    exact hull geometry for k <= 3, linear-feasibility probing beyond.
    Returns "interior", "boundary" or "outside"; multipliers exist for
    interior targets.
    """
    c = views.targets if c is None else np.atleast_1d(np.asarray(c, dtype=float))
    k = c.size
    rng = np.random.default_rng(seed)
    h = _h_samples(prior, views, n_samples, rng)
    spread = float(np.max(np.ptp(h, axis=0), initial=0.0))
    if spread <= 0.0:
        raise InconclusiveSample("sampled h-image is degenerate (zero spread)")
    pad = tol * spread

    if k == 1:
        lo, hi = float(h.min()), float(h.max())
        if lo + pad < c[0] < hi - pad:
            return "interior"
        if c[0] < lo - pad or c[0] > hi + pad:
            return "outside"
        return "boundary"

    if k <= 3:
        try:
            hull = ConvexHull(h)
        except QhullError as exc:
            raise InconclusiveSample("sampled h-image is degenerate for hull") from exc
        margins = -(hull.equations[:, :-1] @ c + hull.equations[:, -1])
        worst = float(margins.min())
        if worst > pad:
            return "interior"
        if worst < -pad:
            return "outside"
        return "boundary"

    # k > 3: membership via the linear-feasibility problem
    #   find w >= 0 with  H^T w = c  and  1^T w = 1
    def feasible(point) -> bool:
        res = linprog(
            np.zeros(h.shape[0]),
            A_eq=np.vstack([h.T, np.ones((1, h.shape[0]))]),
            b_eq=np.concatenate([point, [1.0]]),
            bounds=(0.0, None),
            method="highs",
        )
        return bool(res.status == 0)

    if not feasible(c):
        return "outside"
    probes = [c + pad * sign * np.eye(k)[j] for j in range(k) for sign in (-1.0, 1.0)]
    if all(feasible(p) for p in probes):
        return "interior"
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
