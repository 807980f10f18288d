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
    _TILT_BLOCK,
    _require_pd,
    gaussian_conditional,
    transform_prior,
)
from .views import OptionPayoff, ViewSet

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

# A tilt is refused as not integrable where log Z_lam(x) - lam . E[h | x], the
# relative entropy of the prior conditional to the tilted one at x, exceeds this.
_LOGZ_CAP = 1.0e4
_CHUNK = 1 << 16
# Newton accepts a step that fails the Armijo test when the dual value moved
# by at most this many units of its rounding, eps * max(1, |F|), and the
# largest gradient entry fell: near the solution the dual falls by only
# ~|gradient|^2 / H, below the rounding of its value.
_FLAT_ULPS = 8.0
# TiltedPosterior.draw's importance sampler takes log Z(x) for blocks of draws
# of at most this many rule nodes; priors._TILT_BLOCK states the cache budget.
_BLOCK_VALUES = 4 * _TILT_BLOCK
# The existence check draws Y and factors its h-image in blocks of this many
# points, so that next to the image it holds only O(block) temporaries; a
# remainder of fewer than _H_MIN_ROWS points joins the block before it.
_H_BLOCK = 8_192
_H_MIN_ROWS = 8
# The existence check's depth tolerance, relative as the depth is: a target
# within it of the hull's boundary is "boundary", and the standardised sample
# is flat when its singular values span less than it.
_DEPTH_TOL = 1e-6


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

    def portfolio_law(self, c) -> tuple[float, float, float]:
        """(alpha, beta, var): c . (X, Y) given X = x is N(beta + alpha x, var).

        ``c`` is in view coordinates.  alpha = c_x + c_y . slope (0 without an
        X block), beta = c_y . intercept and var = c_y' cov c_y, clamped at 0 so
        that a null direction of the conditional covariance never reads negative.
        """
        cond, k1 = self.conditional, self.k1
        cx, cy = c[:k1], c[k1:]
        alpha = float(cx[0] + cy @ cond.slope[:, 0]) if k1 else 0.0
        return alpha, float(cy @ cond.intercept), max(float(cy @ cond.cov @ cy), 0.0)

    def draw_portfolio(self, c, n: int, rng: np.random.Generator,
                       keep: int | None = None) -> tuple[np.ndarray, None]:
        """The first ``keep`` (default n) of n exact draws of c . (X, Y), c in view coordinates.

        X is ``draw``'s (``_draw_xy``); then, in place of Y, one standard normal
        per row gives beta + alpha x + sqrt(var) eps (``portfolio_law``).
        There are no log-weights.  An x that is not finite is a ValueError;
        the combination may overflow to inf or NaN without a warning, for the
        caller to reject.
        """
        def combine(x, rng):
            if not np.all(np.isfinite(x)):
                raise ValueError("samples must be finite")
            eps = rng.standard_normal(x.shape[0])
            with np.errstate(over="ignore", invalid="ignore"):
                alpha, beta, var = self.portfolio_law(c)
                if self.k1:
                    r = x[:, 0]
                    r *= alpha
                    r += beta
                else:
                    r = np.full(x.shape[0], beta)
                eps *= np.sqrt(var)
                r += eps
            return r

        return _draw_xy(self.marginal, self.conditional, n, rng, keep, combine)[1], None

    def price(self, payoff, n_samples: int, seed: int) -> tuple[float, float, str]:
        """Monte Carlo mean and standard error of payoff(x, y).

        The standard deviation is numpy's two-pass one, so a large mean does
        not cancel it.  Raises NonIntegrablePayoff when a payoff value, the
        mean or the standard error is not finite.
        """
        vals = np.concatenate([_on_nodes(payoff, xy[:, :self.k1], xy[:, self.k1:])
                               for xy, _ in _streams(self.draw, n_samples, seed)])
        if not np.all(np.isfinite(vals)):
            raise NonIntegrablePayoff("payoff is not finite on sampled support")
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std_error = float(vals.mean()), float(vals.std() / np.sqrt(n_samples))
        if not (np.isfinite(mean) and np.isfinite(std_error)):
            raise NonIntegrablePayoff("payoff's sample mean or standard error overflows")
        return mean, std_error, "monte-carlo"

    def sensitivity_terms(self, r, r_weights, wrt_loc: bool):
        """V = S_mm, Cov(r, h | X) = cy . S_m for r = r_weights . (x, y), and dPi/d loc.

        dPi/d loc (None unless wrt_loc) is exactly alpha = c_x + c_y . slope
        (``portfolio_law``) at fixed multipliers.  Like ``draw_portfolio`` it
        may overflow to inf or NaN without a warning, for the caller to reject.
        """
        if r_weights is None:
            raise ValueError("Gaussian-conditional posteriors need r_weights (linear r)")
        r_w = np.asarray(r_weights, dtype=float)
        d_loc = None
        if wrt_loc:
            _location_score(self.marginal)
            with np.errstate(over="ignore", invalid="ignore"):
                d_loc = self.portfolio_law(r_w)[0]
        return self.problem.s_mm.copy(), self.problem.s_cols.T @ r_w[self.k1:], d_loc


@dataclass(frozen=True)
class _Cells:
    """The tilt at lam on cells of Y | X: exact-tilt pieces (``_pieces``) or nodes (``_nodes``).

    ``log_z`` is log Z_lam(x), ``cond`` P(cell | x) of shape (cells, n_x),
    ``var_mass`` E_g[P(cell | X) Var(Y | cell, X)] per cell and ``y`` E[Y |
    cell, x] (cells, n_x, y_dim).  ``h`` holds the views' rows and ``extra``
    a priced payoff's or r's, each as E[row | cell, x] (rows, cells, n_x) and
    the row's slope in y on each cell (rows, cells).  A linear r = w . (x, y)
    is x @ w_x + y @ w_y on either kind of cell.
    """

    log_z: np.ndarray
    cond: np.ndarray
    var_mass: np.ndarray
    y: np.ndarray
    h: tuple[np.ndarray, np.ndarray]
    extra: tuple[np.ndarray, np.ndarray]

    def mean(self, values) -> np.ndarray:
        """E[f_k | X = x_i] for each row of ``values`` (rows, cells, n_x), as (rows, n_x)."""
        return np.einsum("kpn,pn->kn", values, self.cond)

    @cached_property
    def h_mean(self) -> np.ndarray:
        """E[h_k | X = x_i] for the views' rows, (k, n_x)."""
        return self.mean(self.h[0])

    @cached_property
    def h_dev(self) -> np.ndarray:
        """The views' deviations h - E[h | x] on the cells, formed once for every covariance."""
        return self.h[0] - self.h_mean[:, None]


class QuadratureProblem:
    """Discrete/quadrature dual backend.

    Holds outer x nodes and weights and the moment targets; the dual, prices
    and sensitivities read the tilt on the cells ``_cells`` picks.  When the
    conditional law tilts exactly (``_exact_tilt``: a one-dimensional Gaussian
    Y | X with coordinate-0 views and declared payoffs on y_0), ``exact`` holds
    the knots and piece coefficients and the cells are truncated-normal
    pieces.  Otherwise they are the nodes of a per-x inner rule: y nodes with
    log-weights (shape (n_x, n_y), or (n_y,) when every x shares them) and
    the view tensor h, stored as (k, n_y, n_x).  ``from_prior`` records the
    conditional law, its rule size ``n_y`` and the views, which its posterior
    samples with, and builds the tensor only when something needs it; all
    three are None for ``from_discrete``, which sets the tensor itself and
    whose posterior is not sampleable.
    """

    def __init__(self, x_nodes, x_weights, targets, *, law=None,
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

    @cached_property
    def _tensor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y_nodes, log_y_weights, h): the law's rule at every outer node and the views on it.

        Both in the cells' layout: (n_y, n_x, y_dim) and (k, n_y, n_x).  A
        generic law without a quadrature callback takes its n_y sampler draws
        per node from ``SeedSequence(0)``, so the rule is reproducible.
        """
        rng = np.random.default_rng(np.random.SeedSequence(0))
        y_nodes, log_y_weights = self.law.rule(self.x_nodes, self.n_y, rng)
        y_nodes = np.ascontiguousarray(y_nodes.transpose(1, 0, 2))
        return y_nodes, log_y_weights, _view_tensor(self.views.moments, self.x_nodes[None],
                                                    y_nodes)

    @property
    def y_nodes(self) -> np.ndarray:  # (n_x, n_y, y_dim)
        return self._tensor[0].transpose(1, 0, 2)

    @property
    def log_y_weights(self) -> np.ndarray:
        return self._tensor[1]

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
        y_nodes = np.broadcast_to(y_values[:, None], (n_y, n_x, y_values.shape[1]))
        h = _view_tensor(moments, x_values[None], y_nodes)
        targets = np.array([view.target for view in moments], dtype=float)
        with np.errstate(divide="ignore"):
            log_weights = np.log(np.asarray(cond_weights, dtype=float))
        problem = cls(x_values, x_weights, targets)
        problem._tensor = y_nodes, log_weights, h
        return problem

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

    def posterior_weights(self, lam) -> np.ndarray:
        """Joint posterior weights over (x_i, y_j) on the nodes, (n_x, n_y); row i sums to x_i's."""
        return (self._nodes(np.atleast_1d(np.asarray(lam, dtype=float))).cond * self.x_weights).T

    def _cells(self, lam, extra=None) -> _Cells:
        """The tilt at lam on its cells, with the payoff ``extra(x, y)`` on them if given.

        The exact pieces whenever ``_exact_tilt`` gives a tilt for the views
        and ``extra``: a problem that tilts exactly, and ``extra`` None or on
        y_0 as a declared payoff; otherwise the nodes.
        """
        tilt = self.exact if extra is None or self.exact is None else _exact_tilt(
            self.law, self.views.moments, extra)
        return self._nodes(lam, extra) if tilt is None else self._pieces(lam, tilt)

    def _pieces(self, lam, tilt=None) -> _Cells:
        """The exact tilt at lam on its truncated-normal pieces at each outer node.

        ``tilt`` is ``_exact_tilt``'s (knots, c, d), by default ``exact``; rows
        past the views' are the extra ones.  A row c + d y on a piece has
        value c + d E[Y | piece, x] and slope d.
        """
        knots, c, d = self.exact if tilt is None else tilt
        k = len(self.views.moments)
        pieces = self.law.tilt_pieces(self.x_nodes, knots, lam @ c[:k], lam @ d[:k])
        log_z = _row_logsumexp(pieces.log_mass.T, self._prior_score(lam))
        cond = np.exp(pieces.log_mass - log_z)
        y_mean, y_var = pieces.y_moments
        rows = c[:, :, None] + d[:, :, None] * y_mean
        return _Cells(log_z, cond, np.sum(cond * self.x_weights * y_var, axis=1),
                      y_mean[..., None], (rows[:k], d[:k]), (rows[k:], d[k:]))

    def _nodes(self, lam, extra=None) -> _Cells:
        """The tilt at lam on the inner rule's nodes, with ``extra(x, y)`` on them if given.

        A node is a point: E[Y | node, x] is the node itself, each row has
        slope 0 in y there, and Y variance 0.
        """
        y_nodes, log_y_weights, h = self._tensor
        scores = np.einsum("k,kjn->jn", lam, h)
        scores += np.atleast_2d(log_y_weights).T
        log_z = _row_logsumexp(scores.T, self._prior_score(lam))
        scores -= log_z
        cond = np.exp(scores, out=scores)
        rows = np.zeros((0,) + cond.shape)
        if extra is not None:
            rows = np.ascontiguousarray(_on_nodes(extra, self.x_nodes[None], y_nodes))[None]
        return _Cells(log_z, cond, np.zeros(cond.shape[0]), y_nodes,
                      (h, np.zeros(h.shape[:2])), (rows, np.zeros(rows.shape[:2])))

    @cached_property
    def _prior_h_mean(self) -> np.ndarray:
        """E[h | x_i] under the prior conditional at each outer node, (k, n_x).

        ``dual_state`` at lam = 0, where Newton starts, leaves it here.
        """
        return self._cells(np.zeros(self.n_moments)).h_mean

    def _prior_score(self, lam) -> np.ndarray | float:
        """lam . E[h | x_i] under the prior, which log Z_lam(x_i) exceeds by a relative entropy."""
        return lam @ self._prior_h_mean if lam.any() else 0.0

    def dual_state(self, lam) -> DualState:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        cells = self._cells(lam)
        if not lam.any():  # the prior's own cells: keep their E[h | x] for the cap
            vars(self).setdefault("_prior_h_mean", cells.h_mean)
        gradient = cells.h_mean @ self.x_weights - self.targets
        hessian = _total_cov(cells, self.x_weights)
        value = float(self.x_weights @ cells.log_z - lam @ self.targets)
        return DualState(lam, value, gradient, (hessian + hessian.T) / 2.0)


def _row_logsumexp(scores: np.ndarray, prior_score) -> np.ndarray:
    """log Z, log sum_j exp(scores[i, j]) per row; raises when the tilt is not integrable.

    ``prior_score`` is the tilt's prior mean lam . E[h] per row.  Z is a
    prior mean of exp(score), so log Z - prior_score is the relative entropy
    of the prior to the tilted law of that row, which does not move with the
    location of Y.  The tilt is refused when log Z is not finite or that
    relative entropy exceeds ``_LOGZ_CAP``.  Holds one temporary of the size
    of ``scores``.
    """
    peak = np.max(scores, axis=1, keepdims=True)
    shifted = scores - peak
    np.exp(shifted, out=shifted)
    log_z = peak[:, 0] + np.log(np.sum(shifted, axis=1))
    if not np.all(np.isfinite(log_z)) or np.max(log_z - prior_score) > _LOGZ_CAP:
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


def _view_tensor(moments, x, y, out=None) -> np.ndarray:
    """Every moment view on broadcast (x, y) node arrays, as one (k,) + y.shape[:-1] array.

    Written into ``out`` when given, which may be a strided view of larger rows.
    """
    out = np.empty((len(moments),) + y.shape[:-1]) if out is None else out
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


def _streams(draw, n: int, seed: int):
    """Yield ``draw(_CHUNK, rng, keep)`` for each stream of n draws from ``seed``.

    Stream i is a ``_CHUNK`` of draws from the i-th child of ``SeedSequence(seed)``, of
    which the run keeps the first ``min(n - i * _CHUNK, _CHUNK)`` rows.  A posterior's
    ``draw`` (and ``draw_portfolio``) returns those rows bit for bit as the first rows of
    the whole chunk, and their log-weights.  So the first m rows are the same for every
    n >= m and the streams can be drawn in parallel or serially with the same result.
    """
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(-(-n // _CHUNK))):
        yield draw(_CHUNK, np.random.default_rng(child), min(n - i * _CHUNK, _CHUNK))


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


# Y-block coordinate 0 as a row of the exact tilt: y itself, on one piece.
_Y0 = (np.zeros(0), np.zeros(1), np.ones(1))


def _exact_tilt(law, moments, *payoffs):
    """The knots and each row's piece coefficients (c, d), if the tilt is exact; else None.

    The rows are the views, then the priced ``payoffs``.  The tilt is exact
    when ``law`` has ``tilt_pieces`` (a Gaussian conditional), Y is
    one-dimensional and every row is on it: a coordinate-0 view (``_Y0``) or
    a declared payoff on coordinate 0, with its ``pieces``.  The knots are
    all rows' knots, sorted and distinct; piece p lies between knots p - 1
    and p and row k = c_kp + d_kp y on it, the coefficients of the row's own
    piece that holds p.  So the tilt at lam is (knots, lam @ c, lam @ d) for
    the dual, the prices and the draws alike.
    """
    rows = [_Y0 if view.coord == 0 else view.payoff for view in moments] + list(payoffs)
    if (getattr(law, "tilt_pieces", None) is None or law.y_dim != 1 or not all(
            row is _Y0 or isinstance(row, OptionPayoff) and row.coord == 0 for row in rows)):
        return None
    rows = [row if row is _Y0 else row.pieces for row in rows]
    # _Y0 adds no knot; it keeps the concatenation non-empty without moment views
    knots = np.unique(np.concatenate([own for own, _, _ in (_Y0, *rows)]))
    lower = np.concatenate([[-np.inf], knots])  # each piece's lower knot
    c, d = np.zeros((2, len(rows), lower.size))
    for k, (own, intercepts, slopes) in enumerate(rows):
        held = np.searchsorted(own, lower, side="right")
        c[k], d[k] = intercepts[held], slopes[held]
    return knots, c, d


def _total_cov(cells: _Cells, x_weights, rows=None) -> np.ndarray:
    """E_g[Cov(f_k, h_l | X)] for each row f of ``rows`` against the views' rows h.

    The one covariance formula: without ``rows`` f is h itself and this is
    the dual Hessian (k, k).  ``rows`` is (values, slopes) in ``_Cells``'
    layout: E[f_k | X = x_i, cell p] (m, cells, n_x) and f_k's slope in y on
    each cell (m, cells); the result is then (m, k).  By the law of total
    covariance over the cells, given x it is the covariance of the cell
    values plus slope_k slope_l Var(Y | cell), weighted by P(cell | x); the
    x-average takes ``x_weights``.  Deviations from each x's mean are formed
    before they are multiplied, so a mean large next to the spread cancels
    no digits, as it would in E[f g] - E[f] E[g] (Chan, Golub & LeVeque 1983);
    the views' are the cells' ``h_dev``, shared by every call on them.
    """
    h_dev, h_slopes = cells.h_dev, cells.h[1]
    values, slopes = cells.h if rows is None else rows
    dev = h_dev if rows is None else values - cells.mean(values)[:, None]
    return (np.einsum("kpn,lpn,pn->kl", dev, h_dev, cells.cond * x_weights)
            + (slopes * cells.var_mass) @ h_slopes.T)


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


def dual_eval(prior, views: ViewSet, lam) -> DualState:
    """The dual value, gradient and Hessian at lam on ``build_dual_problem``'s default problem.

    A problem of other sizes evaluates itself: ``problem.dual_state(lam)``.
    """
    return build_dual_problem(prior, views).dual_state(lam)


def solve_lambda_gaussian_linear(prior: GaussianPrior, views: ViewSet) -> np.ndarray:
    """Closed-form multipliers for a Gaussian prior with coordinate views."""
    return GaussianLinearProblem(prior, views).solve_closed_form()


def _min_eigenvalue(hessian: np.ndarray) -> float:
    """Smallest eigenvalue of a dual Hessian; NaN when there are no moment views."""
    return float(np.linalg.eigvalsh(hessian).min()) if hessian.size else float("nan")


def solve_lambda_newton(prior, views: ViewSet, *, tol: float = 1e-8,
                        max_iter: int = 100, problem=None) -> CalibrationReport:
    """Damped Newton descent on the strictly convex dual from lam = 0.

    It stops when each |dF/dlam_i| <= tol sqrt(H_ii(0)), H_ii(0) = E_g[Var(h_i
    | X)] at lam = 0, so the test does not depend on the views' units;
    ``residuals`` stay |dF/dlam_i| in the targets' units.  Uses backtracking
    line search on F, whose values are monotone up to rounding: a step that
    fails the Armijo test is also taken when F moved only within its
    rounding and the largest gradient entry fell, so that ``tol`` may come
    close to the gradient's own rounding.  When the Hessian factorization
    fails, or its step does not descend, the step falls back to steepest
    descent in the same units, -dF/dlam_i / H_ii(0), and the report flags
    the linear-independence hypothesis, whose certificate
    ``independence_min_eig`` is ``independence_check``'s value at lam = 0.
    Non-convergence returns the best iterate with ``converged=False``.  The
    problem is ``problem``, else ``build_dual_problem``'s default one.
    """
    if problem is None:
        problem = build_dual_problem(prior, views)
    lam = np.zeros(problem.n_moments)
    state = problem.dual_state(lam)
    min_eig = _min_eigenvalue(state.hessian)
    var0 = np.diag(state.hessian)
    stop = tol * np.sqrt(var0)
    fallback = False
    iterations = 0
    message = ""
    path = [state.value]
    for iterations in range(max_iter + 1):
        if np.all(np.abs(state.gradient) <= stop):
            break
        if iterations == max_iter:
            message = f"no convergence in {max_iter} iterations"
            break
        try:
            step = -linalg.cho_solve(linalg.cho_factor(state.hessian), state.gradient)
        except linalg.LinAlgError:
            step = None
        if step is None or state.gradient @ step >= 0:
            fallback = True
            step = -state.gradient / var0
        slope = float(state.gradient @ step)
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
    converged = bool(np.all(residuals <= stop))
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
    on its truncated-normal pieces; otherwise, and for undeclared payoffs,
    on its rule's nodes.  It samples with its law (and rule).
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

        On an exact problem a declared ``OptionPayoff`` on y_0 is read on the
        pieces, with its strike as one more knot; any other payoff on the
        nodes.  Raises NonIntegrablePayoff when the payoff or its expectation
        is not finite.
        """
        cells = self.problem._cells(self.lam, func)
        values = cells.extra[0]
        if not np.all(np.isfinite(values)):
            raise NonIntegrablePayoff("payoff is not finite on the posterior support")
        value = float(cells.mean(values)[0] @ self.problem.x_weights)
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
        from the tilted law itself (``sample_tilted`` at ``_exact_tilt``'s
        knots, lam @ c and lam @ d), and the log-weights are None.
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
            knots, c, d = problem.exact
            x, y = _draw_xy(views.marginal, law, n, rng, keep,
                            lambda x, rng: law.sample_tilted(x, rng, knots, lam @ c, lam @ d))
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
            prior_score = np.sum(scores * np.exp(log_w), axis=1)
            scores += log_w
            log_z[start:start + rows] = _row_logsumexp(scores, prior_score)
        log_weights = lam @ _view_tensor(views.moments, x, y) - log_z
        return np.column_stack([x, y]), log_weights

    def draw_portfolio(self, c, n: int, rng: np.random.Generator,
                       keep: int | None = None) -> tuple[np.ndarray, np.ndarray | None]:
        """``draw``'s rows projected on c (view coordinates), ``xy @ c``, and their log-weights.

        A row that is not finite is a ValueError; the projection may overflow
        to inf or NaN without a warning, for the caller to reject.
        """
        xy, log_w = self.draw(n, rng, keep)
        if not np.all(np.isfinite(xy)):
            raise ValueError("samples must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            return xy @ c, log_w

    def price(self, payoff, n_samples: int, seed: int) -> tuple[float, None, str]:
        """``expectation(payoff)``, by quadrature; it has no standard error."""
        return self.expectation(payoff), None, "quadrature"

    def sensitivity_terms(self, r, r_weights, wrt_loc: bool):
        """The dual Hessian V, E_g[Cov(r, h | X)] and the score integral dPi/d loc.

        Read on ``QuadratureProblem._cells``: with the payoff r, or on the
        problem's own cells for r = r_weights . (x, y), whose row there is
        x . w_x + E[Y | cell, x] . w_y, the latter an einsum that sums over y
        in order.  Its slope in y is Y's first weight: the slope on a piece,
        where y_dim is 1; a node has no Y variance, so it adds nothing there.
        V and Cov(r, h) are ``_total_cov``'s, the latter with r's row beside h's.
        """
        problem = self.problem
        cells = problem._cells(self.lam, r)
        rows = cells.extra
        if r_weights is not None:
            r_w = np.asarray(r_weights, dtype=float)
            k1 = problem.x_nodes.shape[1]
            rows = ((problem.x_nodes @ r_w[:k1] + np.einsum("pnj,j->pn", cells.y, r_w[k1:]))[None],
                    np.full((1, cells.cond.shape[0]), r_w[k1]))
        v = _total_cov(cells, problem.x_weights)
        d_loc = None
        if wrt_loc:
            score = _location_score(getattr(problem.views, "marginal", None))
            r_mean = cells.mean(rows[0])[0]
            d_loc = float((problem.x_weights * r_mean) @ score(problem.x_nodes[:, 0]))
        return (v + v.T) / 2.0, _total_cov(cells, problem.x_weights, rows)[0], d_loc


def _h_samples(prior, views: ViewSet, n_samples: int, rng: np.random.Generator):
    """n draws of (h_1..h_k)(X, Y) with X ~ g and Y | X the prior conditional, as (n, k).

    The array is the ``.T`` view of one C-ordered (k, n) array, the only copy
    of the image: ``existence_check`` standardises those rows in place.  X's
    uniforms and quantiles are drawn once for all n (``_draw_xy``).  When the
    law draws row by row (``law.draws_by_row``), Y is drawn and h filled in
    blocks of ``_H_BLOCK`` points, so no (n, y_dim) draw is held; a generic
    sampler gets all n rows in one call.  The blocks change no value: the
    normals come from the generator in the same order, and a last block of
    fewer than ``_H_MIN_ROWS`` points joins the one before it, as matrix
    products of one or a few rows take other BLAS paths that may round
    differently.
    """
    law = conditional_law(prior, views)
    h = np.empty((len(views.moments), n_samples))
    edges = list(range(0, n_samples, _H_BLOCK)) if law.draws_by_row else [0]
    if len(edges) > 1 and n_samples - edges[-1] < _H_MIN_ROWS:
        edges.pop()
    edges.append(n_samples)

    def sample(x, rng):
        for start, stop in zip(edges, edges[1:]):
            block = x[start:stop]
            _view_tensor(views.moments, block, law.sample(block, rng), out=h[:, start:stop])
        return h.T

    return _draw_xy(views.marginal, law, n_samples, rng, sample=sample)[1]


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call.

    Importing tiltcal thus does not load ``scipy.optimize``; the first
    existence check does, for every k.  The name stays bound at module level
    because ``perfbench/tracing.py`` counts LP solves by rebinding
    ``calibration.linprog``; once the benchmark counts them another way this
    can become a local import in ``_row_gauge``.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


# Column generation for _row_gauge.  An artificial column costs far more per
# unit than the points of a non-flat standardised sample; the pricing
# tolerance is HiGHS's default dual feasibility tolerance.
_ARTIFICIAL_COST = 1.0e6
_PRICING_TOL = 1.0e-7
_GAUGE_ROUNDS = 20
_COLUMNS_PER_VIEW = 50


def _hull_gauge(h: np.ndarray, c: np.ndarray, tol: float) -> float:
    """Gauge of c in the convex hull of the rows of h about their mean.

    h is (n, k), one row per point.  Its k rows of n are copied once into a
    C-ordered (k, n) array for ``_row_gauge``, so h itself is left untouched.
    """
    return _row_gauge(np.array(h.T, order="C"), c, tol)


def _singular_values(z: np.ndarray) -> np.ndarray:
    """Singular values of the (n, k) matrix z.T, from a blocked (TSQR) factorisation.

    R of each ``_H_BLOCK``-point block of z's columns, the Rs stacked, R of
    that stack, then the SVD of its k x k R: no (n, k) copy of z is made, as
    LAPACK's SVD of z.T would (Demmel, Grigori, Hoemmen & Langou 2012, SIAM J.
    Sci. Comput. 34:A206).  Householder QR is backward stable, so these are
    the singular values of z.T to within eps times the largest.
    """
    n = z.shape[1]
    rs = [np.linalg.qr(z[:, start:start + _H_BLOCK].T, mode="r")
          for start in range(0, n, _H_BLOCK)]
    return np.linalg.svd(np.linalg.qr(np.vstack(rs), mode="r"), compute_uv=False)


def _row_gauge(z: np.ndarray, c: np.ndarray, tol: float) -> float:
    """``_hull_gauge`` on the C-ordered (k, n) rows z of the points, standardised in place.

    Each row is replaced by (row - mean) / std with its own ``mean`` and
    ``std``, bit for bit what the ``axis=1`` reductions and a standardised
    copy would give, and no other (k, n) array is made: the flatness test
    takes its singular values from ``_singular_values``.  The gauge is
    taken on the standardised sample z, (k, n) with mean 0, with the
    target v mapped the same way, as the LP  min 1'w  subject to  z w = v,
    w >= 0, solved by column generation.  The restricted LP holds the
    sample's extreme points along the +-axes (each row's argmax and argmin)
    and the +-diagonal (those of the row sum), plus 2k artificial columns
    +-e_i of cost ``_ARTIFICIAL_COST`` that keep it feasible when the cone
    of those points misses v.  Each round prices every point with its dual
    y in one product s = y z and adds the ``_COLUMNS_PER_VIEW * k`` most
    violated points outside the set.  It stops when no point has
    s > 1 + ``_PRICING_TOL`` and no artificial column carries weight: then
    y / (1 + _PRICING_TOL) is feasible for the full dual, so the restricted
    optimum is within ``_PRICING_TOL`` relative of the full-sample gauge.
    Raises InconclusiveSample when some view has no spread, when z's
    smallest singular value is at most ``tol`` times its largest (those of
    the sample itself: the k x k Gram matrix would square the condition
    number and call thin images flat), when a round adds nothing yet the
    stopping rule fails (a point already in the set still violates, or an
    artificial column keeps weight), or after ``_GAUGE_ROUNDS`` rounds.
    """
    k, n = z.shape
    if k == 0 or np.ptp(z, axis=1).min() <= 0.0:
        raise InconclusiveSample("sampled h-image is degenerate (zero spread)")
    mean, std = np.empty(k), np.empty(k)
    for i, row in enumerate(z):
        mean[i], std[i] = row.mean(), row.std()
        row -= mean[i]
        row /= std[i]
    v = (c - mean) / std
    singular = _singular_values(z)
    if singular[-1] <= tol * singular[0]:
        raise InconclusiveSample("sampled h-image is flat (spans fewer than k dimensions)")
    restricted = np.zeros(n, dtype=bool)
    for row in (*z, z.sum(axis=0)):
        restricted[row.argmax()] = restricted[row.argmin()] = True
    artificial = np.hstack([np.eye(k), -np.eye(k)])
    for _ in range(_GAUGE_ROUNDS):
        columns = np.flatnonzero(restricted)
        res = linprog(np.r_[np.ones(columns.size), np.full(2 * k, _ARTIFICIAL_COST)],
                      A_eq=np.hstack([z[:, columns], artificial]), b_eq=v,
                      bounds=(0.0, None), method="highs")
        if res.status != 0:
            raise InconclusiveSample(f"hull-gauge LP failed: {res.message}")
        price = res.eqlin.marginals @ z
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
                    seed: int = 0) -> str:
    """Monte Carlo depth of the targets c in the convex hull of the h-image.

    Samples (h_1, ..., h_k)(X, Y) under the untilted conditional with X ~ g.
    The depth is 1 - gamma, with gamma the gauge (Minkowski functional) of
    the sample's hull about the sample mean: 1 at the mean, 0 on the
    boundary, negative outside.  Returns "interior" when depth >
    ``_DEPTH_TOL``, "outside" when depth < -``_DEPTH_TOL``, else "boundary";
    multipliers exist for interior targets.  The gauge is affine-invariant,
    so the tolerance is relative and the class does not depend on the units
    of the views.  For every k it
    is one LP over the sample, solved by column generation: the LPs hold a
    few hundred points and each round prices the whole sample with one
    matrix-vector product.  The check holds one copy of the image: the
    (k, n) rows ``_h_samples`` fills block by block, which ``_row_gauge``
    standardises in place and factors by a blocked QR for the flatness
    test, so its traced peak is about 1.3 times the image's 8 k n bytes at
    k = 10.  The inputs are checked before any draw: c must hold one finite
    target per moment view and ``n_samples`` be a positive integer; else
    ValueError.  With no moment views the empty target is interior and
    nothing is drawn.  Raises InconclusiveSample when some view has no
    spread, when the standardised sample's smallest singular value is at
    most ``_DEPTH_TOL`` times its largest, or when the column generation
    cannot certify its gauge.
    """
    k = len(views.moments)
    c = views.targets if c is None else np.atleast_1d(np.asarray(c, dtype=float))
    if c.shape != (k,):
        raise ValueError(f"expected {k} targets, one per moment view; got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError(f"targets c must be finite; got {c}")
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ValueError(f"n_samples must be a positive integer; got {n_samples!r}")
    if k == 0:
        return "interior"
    h = _h_samples(prior, views, n_samples, np.random.default_rng(seed))
    depth = 1.0 - _row_gauge(h.T, c, _DEPTH_TOL)  # the check owns the draw's one copy of the image
    if depth > _DEPTH_TOL:
        return "interior"
    if depth < -_DEPTH_TOL:
        return "outside"
    return "boundary"


def independence_check(prior, views: ViewSet, *, problem=None) -> float:
    """Smallest eigenvalue of the dual Hessian E_g[Cov(h | X)] at lam = 0.

    A positive value certifies (numerically) the linear-independence
    hypothesis that makes the calibrated model unique; NaN without moment
    views.  The problem is ``problem``, else ``build_dual_problem``'s default
    one, as in ``solve_lambda_newton``; on the same problem it is that
    solve's ``independence_min_eig`` bit for bit.
    """
    if problem is None:
        problem = build_dual_problem(prior, views)
    return _min_eigenvalue(problem.dual_state(np.zeros(problem.n_moments)).hessian)
