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
Each backend hands out its own posterior type through ``posterior(lam)``,
and each posterior draws, prices and differentiates itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import linalg

from .densities import MarginalDensity
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
    LinearViewMap,
    _require_pd,
    gaussian_conditional,
    transform_prior,
)
from .views import MomentView, OptionPayoff, ViewSet

__all__ = [
    "DualState",
    "CalibrationReport",
    "GaussianMarginalPosterior",
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
_CHUNK = 1 << 16
# Newton accepts a step that fails the Armijo test when the dual value moved
# by at most this many units of its rounding, eps * max(1, |F|), and the
# largest gradient entry fell: near the solution the dual falls by only
# ~|gradient|^2 / H, below the rounding of its value.
_FLAT_ULPS = 8.0
# TiltedPosterior.draw takes log Z(x) for blocks of draws of at most this many
# rule nodes: 1 MiB per float temporary, small enough to stay in cache.  Its
# exact path keeps about a dozen (pieces x draws) temporaries alive at once, so
# its blocks hold a quarter as many piece values.
_BLOCK_VALUES = 1 << 17


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
        self.e_g_x = np.zeros(0) if views.marginal is None else np.array([views.marginal.mean()])
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
        """Newton's first step from lam = 0, which solves this quadratic dual exactly."""
        if self.n_moments == 0:
            return np.zeros(0)
        self.require_pd_block()
        state = self.dual_state(np.zeros(self.n_moments))
        return -linalg.cho_solve(linalg.cho_factor(state.hessian), state.gradient)

    def posterior(self, lam) -> "GaussianMarginalPosterior":
        """The calibrated model at multipliers lam: the prior conditional shifted by S_m lam."""
        return GaussianMarginalPosterior(self, lam)


@dataclass(frozen=True)
class GaussianMarginalPosterior:
    """Calibrated Gaussian-conditional model in view coordinates.

    ``problem`` is the ``GaussianLinearProblem`` whose dual ``lam`` solves;
    ``conditional``, the posterior law of Y given X = x, is its prior
    conditional shifted by S_m lam.  Raises SingularConditionalCovariance when
    the viewed Schur block S_mm is singular, since lam then does not determine
    the model.
    """

    problem: GaussianLinearProblem = field(repr=False)
    lam: np.ndarray
    conditional: GaussianConditional = field(init=False, repr=False)

    def __post_init__(self):
        self.problem.require_pd_block()
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "conditional",
                           self.problem.conditional.shifted(self.problem.s_cols @ lam))

    @property
    def view_map(self) -> LinearViewMap:
        return self.problem.views.view_map

    @property
    def marginal(self) -> MarginalDensity | None:
        """The density view on X; None when there is no marginal block."""
        return self.problem.views.marginal

    @property
    def prior_t(self) -> GaussianPrior:
        return self.problem.prior_t

    @property
    def k1(self) -> int:
        return self.problem.views.k1

    @property
    def e_g_x(self) -> np.ndarray:
        return self.problem.e_g_x

    @property
    def cond_cov(self) -> np.ndarray:
        return self.problem.conditional.cov

    def y_mean(self) -> np.ndarray:
        """Posterior mean of the Y block; equals the targets on viewed coords."""
        return self.conditional.mean(self.e_g_x)

    def z_mean(self) -> np.ndarray:
        """Posterior mean in original factor coordinates."""
        u = np.concatenate([self.e_g_x, self.y_mean()])
        return self.view_map.invert(u)

    def draw(self, n: int, rng: np.random.Generator,
             keep: int | None = None) -> tuple[np.ndarray, None]:
        """The first ``keep`` (default n) of n exact draws of (X, Y) in view coordinates.

        X ~ g then Y | X (``_draw_xy``); there are no log-weights.
        """
        return np.column_stack(_draw_xy(self.marginal, self.conditional, n, rng, keep)), None

    def price(self, payoff, n_samples: int, seed: int) -> tuple[float, float, str]:
        """Monte Carlo mean and standard error of payoff(x, y); NonIntegrablePayoff if inf/NaN.

        The standard deviation is numpy's two-pass one, so a large mean does not cancel it.
        """
        vals = np.concatenate([_on_nodes(payoff, xy[:, :self.k1], xy[:, self.k1:])
                               for xy, _ in _streams(self, n_samples, seed)])
        if not np.all(np.isfinite(vals)):
            raise NonIntegrablePayoff("payoff is not finite on sampled support")
        return float(vals.mean()), float(vals.std() / np.sqrt(n_samples)), "monte-carlo"

    def sensitivity_terms(self, r, r_weights, wrt_loc: bool):
        """V = S_mm, Cov(r, h | X) = cy . S_m for r = r_weights . (x, y), and dPi/d loc.

        dPi/d loc (None unless wrt_loc) is exactly c_x + c_y . slope at fixed multipliers.
        """
        if r_weights is None:
            raise ValueError("Gaussian-conditional posteriors need r_weights (linear r)")
        r_w = np.asarray(r_weights, dtype=float)
        cx, cy = r_w[:self.k1], r_w[self.k1:]
        d_loc = None
        if wrt_loc:
            _location_score(self.marginal)
            d_loc = float(cx[0] + cy @ self.conditional.slope[:, 0])
        return self.problem.s_mm.copy(), self.problem.s_cols.T @ cy, d_loc


class QuadratureProblem:
    """Discrete/quadrature dual backend.

    Holds outer x nodes and weights and the moment targets.  When the
    conditional law tilts exactly (``_exact_tilt``: a one-dimensional Gaussian
    Y | X with coordinate views and declared calls and puts), ``exact`` holds
    each view's piece coefficients, and the dual is a closed form in the
    truncated-normal piece moments at each outer node.  Otherwise the dual
    reduces to stabilized log-sum-exp arithmetic on per-x inner y nodes with
    their log-weights (shape (n_x, n_y), or (n_y,) when every x shares them)
    and the view tensor h of shape (k, n_x, n_y).  ``from_prior`` records the
    conditional law, its rule size ``n_y`` and the views, which its posterior
    samples with, and builds the tensor only when something needs it; all
    three are None for ``from_discrete``, whose posterior is not sampleable.
    """

    def __init__(self, x_nodes, x_weights, targets, *, tensor=None, law=None,
                 n_y: int | None = None, views: ViewSet | None = None):
        self.law = law
        self.n_y = n_y
        self.views = views
        self.x_nodes = np.asarray(x_nodes, dtype=float)
        self.x_weights = np.asarray(x_weights, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        if abs(self.x_weights.sum() - 1.0) > 1e-9:
            raise ValueError("x weights must sum to 1")
        self.exact = None if views is None else _exact_tilt(law, views.moments)
        if tensor is not None:
            self._tensor = tensor

    @cached_property
    def _tensor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y_nodes, log_y_weights, h): the law's rule at every outer node and the views on it.

        A generic law without a quadrature callback takes its n_y sampler
        draws per node from ``SeedSequence(0)``, so the rule is reproducible.
        """
        rng = np.random.default_rng(np.random.SeedSequence(0))
        y_nodes, log_y_weights = self.law.rule(self.x_nodes, self.n_y, rng)
        return y_nodes, log_y_weights, _view_tensor(self.views.moments,
                                                    self.x_nodes[:, None, :], y_nodes)

    @property
    def y_nodes(self) -> np.ndarray:
        return self._tensor[0]

    @property
    def log_y_weights(self) -> np.ndarray:
        return self._tensor[1]

    @property
    def h(self) -> np.ndarray:
        return self._tensor[2]

    @property
    def n_moments(self) -> int:
        return self.targets.size

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
        return cls(x_values, x_weights, targets, tensor=(y_nodes, log_weights, h))

    @classmethod
    def from_prior(cls, prior, views: ViewSet, *, n_x: int = 10_000,
                   n_y: int = 64) -> "QuadratureProblem":
        """Outer rule over the marginal view, and the prior's law of Y | X per x node.

        An exact problem builds no inner rule unless an undeclared payoff is
        priced on it.  Any other builds it here: a Gaussian prior a
        Gauss-Hermite rule with n_y nodes per conditional dimension, a
        generic prior its quadrature callback or, without one, n_y equally
        weighted sampler draws per outer node (the inner-integral noise then
        scales as 1/sqrt(n_y)).
        """
        law = conditional_law(prior, views)
        x_nodes, x_weights = _marginal_nodes(views, n_x)
        problem = cls(x_nodes, x_weights, views.targets, law=law, n_y=n_y, views=views)
        if problem.exact is None:
            problem._tensor  # a rule that cannot be built fails here, not in the solve
        return problem

    def posterior(self, lam) -> "TiltedPosterior":
        """The calibrated model at multipliers lam, tilted on this problem's nodes."""
        return TiltedPosterior(self, lam)

    def _tilted_conditional(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """log Z_lam(x_i) and the tilted conditional weights per outer node, on the tensor."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        scores = self.log_y_weights + np.einsum("k,knj->nj", lam, self.h)
        log_z = _row_logsumexp(scores)
        return log_z, np.exp(scores - log_z[:, None])

    def posterior_weights(self, lam) -> np.ndarray:
        """Joint posterior weights over (x_i, y_j) on the tensor; rows scaled by x weight."""
        return self._tilted_conditional(lam)[1] * self.x_weights[:, None]

    def expectation(self, lam, values) -> float:
        """Posterior expectation of a precomputed (n_x, n_y) value table on the tensor."""
        return float(np.sum(self.posterior_weights(lam) * values))

    def _pieces(self, lam, extra=()):
        """The exact tilt at lam on the outer nodes, with the strikes of ``extra`` as knots.

        Returns log Z(x), P(piece p | x) of shape (pieces, n_x), Y's mean and
        variance on each piece, and the piece coefficients (c, d) of the views
        followed by the extra payoffs.
        """
        moments = self.views.moments + tuple(MomentView(0.0, payoff=payoff) for payoff in extra)
        c, d = self.exact if not extra else _exact_tilt(self.law, moments)
        knots, a, b = _piecewise_tilt(moments, np.concatenate([lam, np.zeros(len(extra))]))
        pieces = self.law.tilt_pieces(self.x_nodes, knots, a, b)
        log_z = _row_logsumexp(pieces.log_mass.T)
        return (log_z, np.exp(pieces.log_mass - log_z), *pieces.y_moments, c, d)

    def dual_state(self, lam) -> DualState:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if self.exact is not None:
            log_z, cond, y_mean, y_var, c, d = self._pieces(lam)
            h = c[:, :, None] + d[:, :, None] * y_mean
            gradient = np.einsum("kpn,pn->kn", h, cond) @ self.x_weights - self.targets
            hessian = _total_cov(cond, self.x_weights, y_var, (h, d), (h, d))
        else:
            log_z, cond = self._tilted_conditional(lam)
            cond_mean = np.einsum("knj,nj->kn", self.h, cond)
            gradient = cond_mean @ self.x_weights - self.targets
            hessian = self._cov_with_h(cond * self.x_weights[:, None], cond_mean, self.h,
                                       cond_mean)
        value = float(self.x_weights @ log_z - lam @ self.targets)
        return DualState(lam, value, gradient, (hessian + hessian.T) / 2.0)

    def _cov_with_h(self, joint, h_mean, values, values_mean) -> np.ndarray:
        """E_g[Cov(values_m, h_k | X)] from the joint weights and the per-x means of h and values.

        ``values`` has shape (m, n_x, n_y); for values = h this is the dual Hessian."""
        second = np.einsum("knj,mnj,nj->km", values, self.h, joint)
        return second - np.einsum("kn,mn,n->km", values_mean, h_mean, self.x_weights)


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


def _on_nodes(func, x, y) -> np.ndarray:
    """func(x, y) as floats broadcast to the node shape y.shape[:-1]; scalars included."""
    return np.broadcast_to(np.asarray(func(x, y), dtype=float), y.shape[:-1])


def _view_tensor(moments, x, y) -> np.ndarray:
    """Every moment view on broadcast (x, y) node arrays, as one (k,) + y.shape[:-1] array."""
    out = np.empty((len(moments),) + y.shape[:-1])
    for row, view in zip(out, moments):
        row[...] = y[..., view.coord] if view.coord is not None else view.payoff(x, y)
    return out


def _location_score(marginal):
    """d log g / d loc of the marginal view g; ValueError when g has no location parameter."""
    score = getattr(marginal, "dlogpdf_dloc", None)
    if score is None:
        raise ValueError("location sensitivity needs a marginal view with a "
                         "differentiable location parameter")
    return score


def _streams(post, n: int, seed: int):
    """Yield the n draws of ``post`` from ``seed``, in view coordinates, and their log-weights.

    Stream i is a ``_CHUNK`` of draws from the i-th child of ``SeedSequence(seed)``, of
    which ``post.draw(_CHUNK, rng, keep)`` returns the rows the run keeps, bit for bit the
    first rows of the whole chunk.  So the first m rows are the same for every n >= m and
    the streams can be drawn in parallel or serially with the same result.
    """
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(-(-n // _CHUNK))):
        yield post.draw(_CHUNK, np.random.default_rng(child), min(n - i * _CHUNK, _CHUNK))


def _draw_xy(marginal, law, n: int, rng: np.random.Generator, keep: int | None = None,
             sample=None):
    """The first ``keep`` (default n) of n draws of X ~ g, then Y | X from law.

    Y is ``sample(x, rng)``, by default ``law.sample``.  X has shape (keep, 1),
    or (keep, 0) without a marginal view.  Its uniforms are drawn for all n
    rows, but only the kept rows are transformed and conditioned when the law
    draws row by row (``law.draws_by_row``); else, as a generic sampler may
    use the generator in any pattern, all n are and the rest are dropped.  At
    least two rows go through the transform, as a matrix product of one row
    takes another BLAS path, which may round differently.
    """
    keep = n if keep is None else keep
    rows = min(max(keep, 2), n) if law.draws_by_row else n
    x = np.zeros((rows, 0)) if marginal is None else marginal.ppf(rng.random(n)[:rows])[:, None]
    return x[:keep], (law.sample if sample is None else sample)(x, rng)[:keep]


def _declared(payoff) -> bool:
    """True for a declared ``OptionPayoff`` on Y-block coordinate 0."""
    return isinstance(payoff, OptionPayoff) and payoff.coord == 0


def _piecewise_tilt(moments, lam):
    """lam . h(y) on a one-dimensional Y block as linear pieces a_p + b_p y, if declared.

    Returns the knots (the sorted distinct strikes) and the intercepts a_p
    and slopes b_p of the pieces between them, piece p lying between knots
    p - 1 and p; or None unless every view is coordinate 0 of Y or a
    declared payoff on it (``_declared``).  A coordinate view adds its
    multiplier to every slope.
    """
    if not all(view.coord == 0 or _declared(view.payoff) for view in moments):
        return None
    knots = np.unique([view.payoff.strike for view in moments if view.coord is None])
    piece = np.arange(knots.size + 1)
    intercepts, slopes = np.zeros(piece.size), np.zeros(piece.size)
    for lam_i, view in zip(lam, moments):
        if view.coord is not None:
            slopes += lam_i
            continue
        payoff = view.payoff
        j = np.searchsorted(knots, payoff.strike)
        # a call pays y - K above its strike, a put K - y below it
        sign, on = (1.0, piece > j) if payoff.kind == "call" else (-1.0, piece <= j)
        slopes[on] += sign * lam_i
        intercepts[on] -= sign * lam_i * payoff.strike
    return knots, intercepts, slopes


def _exact_tilt(law, moments):
    """Each view's piece coefficients (c, d), h_k = c_kp + d_kp y on piece p, if the tilt is exact.

    The pieces are ``_piecewise_tilt``'s, and row k is its intercepts and
    slopes at the k-th unit vector.  The tilt is exact, for the dual, the
    prices and the draws alike, when ``law`` has ``tilt_pieces`` (a Gaussian
    conditional), Y is one-dimensional and every view is on it; else None.
    """
    zero = _piecewise_tilt(moments, np.zeros(len(moments)))
    if getattr(law, "tilt_pieces", None) is None or law.y_dim != 1 or zero is None:
        return None
    c, d = np.zeros((2, len(moments), zero[0].size + 1))
    for k, unit in enumerate(np.eye(len(moments))):
        _, c[k], d[k] = _piecewise_tilt(moments, unit)
    return c, d


def _total_cov(cond, x_weights, y_var, f, g) -> np.ndarray:
    """E_g[Cov(f_k, g_l | X)] for functions linear in y on each exact-tilt piece.

    ``f`` is (values, slopes): E[f_k | X = x_i, piece p] of shape (m, pieces,
    n_x) and the slope of f_k in y on each piece, (m, pieces); ``g`` likewise.
    By the law of total covariance over the pieces, given x it is the
    covariance of the piece means plus slope_f slope_g Var(Y | piece), each
    weighted by P(piece | x) (``cond``); the x-average takes ``x_weights``.
    """
    joint = cond * x_weights
    (f_val, f_slope), (g_val, g_slope) = f, g
    f_dev, g_dev = (v - np.einsum("kpn,pn->kn", v, cond)[:, None] for v in (f_val, g_val))
    return (np.einsum("kpn,lpn,pn->kl", f_dev, g_dev, joint)
            + (f_slope * np.sum(joint * y_var, axis=1)) @ g_slope.T)


def conditional_law(prior, views: ViewSet):
    """The prior's law of Y given X in view coordinates; one of two prior-type tests.

    A Gaussian prior gives its ``GaussianConditional``; a ``GenericPrior`` is
    its own law and needs the identity view map and the views' x_dim = k1 and
    y_dim = n - k1 (``build_dual_problem`` is the other).
    """
    if isinstance(prior, GaussianPrior):
        return gaussian_conditional(transform_prior(prior, views.view_map), views.k1)
    if isinstance(prior, GenericPrior):
        n = views.view_map.n
        if not np.allclose(views.view_map.matrix, np.eye(n)):
            raise ValueError("generic priors require an identity view map")
        if (prior.x_dim, prior.y_dim) != (views.k1, n - views.k1):
            raise ValueError(f"generic prior declares x_dim={prior.x_dim}, y_dim={prior.y_dim}; "
                             f"the views need x_dim={views.k1}, y_dim={n - views.k1}")
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


def _min_eigenvalue(hessian: np.ndarray) -> float:
    """Smallest eigenvalue of a dual Hessian; NaN when there are no moment views."""
    return float(np.linalg.eigvalsh(hessian).min()) if hessian.size else float("nan")


def solve_lambda_newton(prior, views: ViewSet, *, tol: float = 1e-8,
                        max_iter: int = 100, problem=None,
                        n_x: int = 10_000, n_y: int = 64) -> CalibrationReport:
    """Damped Newton descent on the strictly convex dual from lam = 0.

    Uses backtracking line search on F, whose values are monotone up to
    rounding: a step that fails the Armijo test is also taken when F moved
    only within its rounding and the largest gradient entry fell, so that
    ``tol`` may come close to the gradient's own rounding.  When the Hessian
    factorization fails the step falls back to steepest descent and the
    report flags the linear-independence hypothesis, whose certificate
    ``independence_min_eig`` is ``independence_check``'s value at lam = 0.
    Non-convergence returns the best iterate with ``converged=False``.
    """
    if problem is None:
        problem = build_dual_problem(prior, views, n_x=n_x, n_y=n_y)
    lam = np.zeros(problem.n_moments)
    state = problem.dual_state(lam)
    min_eig = _min_eigenvalue(state.hessian)
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
            flat = abs(trial.value - state.value) <= (
                _FLAT_ULPS * np.finfo(float).eps * max(1.0, abs(state.value)))
            if trial.value <= state.value + 1e-4 * t * slope or (
                    flat and np.max(np.abs(trial.gradient)) < np.max(np.abs(state.gradient))):
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
    """Calibrated model: marginal view times the tilted prior conditional.

    ``problem`` is the ``QuadratureProblem`` whose dual ``lam`` solves.  On an
    exact problem the posterior prices declared payoffs and linear statistics
    from its truncated-normal pieces; otherwise, and for undeclared payoffs,
    on its node tensor.  It samples with its law (and rule).
    """

    problem: QuadratureProblem = field(repr=False)
    lam: np.ndarray

    def __post_init__(self):
        if not isinstance(self.problem, QuadratureProblem):
            raise TypeError(f"TiltedPosterior needs a QuadratureProblem, not "
                            f"{type(self.problem).__name__}; use problem.posterior(lam)")
        object.__setattr__(self, "lam", np.atleast_1d(np.asarray(self.lam, dtype=float)))

    def expectation(self, func) -> float:
        """Posterior expectation of a vectorized payoff func(x, y).

        On an exact problem a declared ``OptionPayoff`` on y_0 is integrated
        exactly: its strike joins the knots, and it is linear on each piece.
        Any other payoff is summed on the node tensor.  Raises
        NonIntegrablePayoff when the payoff or its expectation is not finite.
        """
        problem = self.problem
        if problem.exact is not None and _declared(func):
            _, cond, y_mean, _, c, d = problem._pieces(self.lam, (func,))
            per_x = np.einsum("pn,pn->n", cond, c[-1][:, None] + d[-1][:, None] * y_mean)
            value = float(per_x @ problem.x_weights)
        else:
            values = _on_nodes(func, problem.x_nodes[:, None, :], problem.y_nodes)
            if not np.all(np.isfinite(values)):
                raise NonIntegrablePayoff("payoff is not finite on the posterior support")
            value = problem.expectation(self.lam, values)
        if not np.isfinite(value):
            raise NonIntegrablePayoff("payoff expectation diverges under the posterior")
        return value

    @property
    def view_map(self) -> LinearViewMap | None:
        """The problem's view map; None for a ``from_discrete`` problem, which has no views."""
        return getattr(self.problem.views, "view_map", None)

    def draw(self, n: int, rng: np.random.Generator,
             keep: int | None = None) -> tuple[np.ndarray, np.ndarray | None]:
        """The first ``keep`` (default n) of n draws of (X, Y), and their log-weights.

        Exact on an exact problem (``QuadratureProblem.exact``): Y | X is drawn
        from the tilted law itself (``sample_tilted`` at ``_piecewise_tilt``),
        in blocks of draws that change no value, and the log-weights are None.
        Otherwise the draws are prior-conditional (``_draw_xy``) and a draw's
        log-weight is lam . h(x, y) - log Z(x).  log Z(x) takes the problem's
        own law and rule size n_y, in blocks of draws of at most
        ``_BLOCK_VALUES`` rule nodes; each row depends only on its own draw, so
        the blocks change no value.  A ``from_discrete`` problem or a rule of
        more than n_y nodes per draw is NonSampleableConditional.
        """
        problem, lam = self.problem, self.lam
        law, views = problem.law, problem.views
        if problem.exact is not None:
            tilt = _piecewise_tilt(views.moments, lam)
            rows = max(1, _BLOCK_VALUES // (4 * tilt[1].size))

            def sample(x, rng):  # row by row, so the blocks change no value
                return np.concatenate([law.sample_tilted(x[i:i + rows], rng, *tilt)
                                       for i in range(0, x.shape[0] or 1, rows)])

            x, y = _draw_xy(views.marginal, law, n, rng, keep, sample)
            return np.column_stack([x, y]), None
        # A Gaussian tensor rule over d > 1 conditional dimensions (n_y^d nodes
        # per draw) would not fit in memory for a chunk of draws.
        if law is None or problem.y_nodes.shape[1] > problem.n_y:
            raise NonSampleableConditional(
                "importance sampling needs a from_prior problem whose rule has at most n_y "
                "nodes per draw: one conditional dimension for a Gaussian prior"
            )
        x, y = _draw_xy(views.marginal, law, n, rng, keep)
        log_z = np.empty(x.shape[0])
        rows = max(1, _BLOCK_VALUES // problem.y_nodes.shape[1])
        for start in range(0, x.shape[0], rows):
            block = x[start:start + rows]
            nodes, log_w = law.rule(block, problem.n_y)
            scores = np.einsum("k,knj->nj", lam,
                               _view_tensor(views.moments, block[:, None, :], nodes))
            scores += log_w
            log_z[start:start + rows] = _row_logsumexp(scores)
        log_weights = lam @ _view_tensor(views.moments, x, y) - log_z
        return np.column_stack([x, y]), log_weights

    def price(self, payoff, n_samples: int, seed: int) -> tuple[float, None, str]:
        """``expectation(payoff)``, by quadrature; it has no standard error."""
        return self.expectation(payoff), None, "quadrature"

    def sensitivity_terms(self, r, r_weights, wrt_loc: bool):
        """The dual Hessian V, E_g[Cov(r, h | X)] and the score integral dPi/d loc.

        Exact for r = r_weights . (x, y) on an exact problem, from the pieces'
        means and variances of Y; otherwise on the node tensor.
        """
        problem = self.problem
        k1 = problem.x_nodes.shape[1]
        if r_weights is not None and problem.exact is not None:
            cx, (cy,) = np.asarray(r_weights[:k1], dtype=float), r_weights[k1:]
            _, cond, y_mean, y_var, c, d = problem._pieces(self.lam)
            h = (c[:, :, None] + d[:, :, None] * y_mean, d)
            y = (y_mean[None], np.ones((1, d.shape[1])))
            v = _total_cov(cond, problem.x_weights, y_var, h, h)
            cov_rh = cy * _total_cov(cond, problem.x_weights, y_var, y, h)[0]
            r_mean = problem.x_nodes @ cx + cy * np.einsum("pn,pn->n", cond, y_mean)
            r_joint = (problem.x_weights * r_mean)[:, None]  # g(x) E[r | x], one column
        else:
            x, y = problem.x_nodes[:, None, :], problem.y_nodes
            if r_weights is not None:
                r = lambda x, y: x @ np.asarray(r_weights[:k1]) + y @ np.asarray(r_weights[k1:])
            r_vals = _on_nodes(r, x, y)
            cond = problem._tilted_conditional(self.lam)[1]
            joint = cond * problem.x_weights[:, None]
            h_mean = np.einsum("knj,nj->kn", problem.h, cond)
            v = problem._cov_with_h(joint, h_mean, problem.h, h_mean)
            r_mean = np.einsum("nj,nj->n", cond, r_vals)
            cov_rh = problem._cov_with_h(joint, h_mean, r_vals[None], r_mean[None])[0]
            r_joint = joint * r_vals
        d_loc = None
        if wrt_loc:
            score = _location_score(getattr(problem.views, "marginal", None))
            d_loc = float(np.sum(r_joint * score(problem.x_nodes[:, 0])[:, None]))
        return (v + v.T) / 2.0, cov_rh, d_loc


def _h_samples(prior, views: ViewSet, n_samples: int, rng: np.random.Generator):
    """Draws of (h_1..h_k)(X, Y) under the prior conditional tilted to g."""
    x, y = _draw_xy(views.marginal, conditional_law(prior, views), n_samples, rng)
    return _view_tensor(views.moments, x, y).T


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


def independence_check(prior, views: ViewSet, *, problem=None,
                       n_x: int = 10_000, n_y: int = 64) -> float:
    """Smallest eigenvalue of the dual Hessian E_g[Cov(h | X)] at lam = 0.

    A positive value certifies (numerically) the linear-independence
    hypothesis that makes the calibrated model unique; NaN without moment
    views.  The problem is ``problem``, else ``build_dual_problem`` at n_x
    and n_y, as in ``solve_lambda_newton``; given the same problem or sizes,
    it is that solve's ``independence_min_eig`` bit for bit.
    """
    if problem is None:
        problem = build_dual_problem(prior, views, n_x=n_x, n_y=n_y)
    return _min_eigenvalue(problem.dual_state(np.zeros(problem.n_moments)).hessian)
