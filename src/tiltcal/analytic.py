"""Closed-form posterior for Gaussian priors with a marginal view on X.

With a Gaussian prior (after the linear change of variables), a density
view g on the X block and mean targets on Y coordinates, the calibrated
model is g(x) times a Gaussian conditional whose covariance is the prior
Schur complement and whose mean is the prior conditional mean shifted so
the targeted coordinates average to their targets under g.

That posterior, a ``GaussianMarginalPosterior``, is built in one place,
``GaussianLinearProblem.posterior``; ``build_posterior`` calls it at the
closed-form multipliers.  This module evaluates its densities.
"""

from __future__ import annotations

import importlib

import numpy as np

from .calibration import GaussianLinearProblem, GaussianMarginalPosterior
from .errors import QuadratureFailure, SingularConditionalCovariance
from .priors import GaussianPrior, _gaussian_logpdf
from .views import ViewSet

__all__ = [
    "build_posterior",
    "posterior_density_z",
    "posterior_marginal_linear",
    "posterior_marginal_y1",
]

# Marginal densities (see ``_marginal_from_view_weights``): kernel marks in
# units of h around c, the view quantiles used as marks, and the two
# Gauss-Legendre rules whose difference is the error estimate.
_KERNEL_MARKS = np.array([-10.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 10.0])
_TAIL_U = np.array([1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.15, 0.3, 0.5])
_VIEW_QUANTILES = np.concatenate([_TAIL_U, 1.0 - _TAIL_U])
_GL_LOW_X, _GL_LOW_W = np.polynomial.legendre.leggauss(16)
_GL_HIGH_X, _GL_HIGH_W = np.polynomial.legendre.leggauss(32)
_GL_LOW_N = _GL_LOW_X.size
_GL_NODES = np.concatenate([_GL_LOW_X, _GL_HIGH_X])
# Values per (points, panels, nodes) block: 2^15 doubles is 256 KiB.
_CHUNK_VALUES = 1 << 15
# Points whose error estimate misses the tolerance are retried with every
# panel halved, at most this many times, before QuadratureFailure.
_MAX_HALVINGS = 4


class _DeferredModule:
    """Module stand-in that imports the module when an attribute is read."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# ``integrate`` is not called here.  It stays bound at import time because
# ``perfbench/tracing.py`` rebinds it to count ``quad`` calls, and tracing may
# add no module attribute (``tests/test_tracing.py``); the stand-in keeps
# ``scipy.integrate`` out of ``import tiltcal``.  It goes away once the
# benchmark stops rebinding the name.
integrate = _DeferredModule("scipy.integrate")


def build_posterior(prior: GaussianPrior, views: ViewSet) -> GaussianMarginalPosterior:
    """Construct the closed-form posterior for coordinate mean views.

    The targeted Y coordinates hit their targets exactly by construction;
    untargeted coordinates shift through their conditional covariance with
    the targeted ones.
    """
    problem = GaussianLinearProblem(prior, views)
    return problem.posterior(problem.solve_closed_form())


def posterior_density_z(post: GaussianMarginalPosterior, z,
                        log: bool = False) -> float | np.ndarray:
    """Posterior density at original factor coordinates, Jacobian included.

    With ``log=True`` returns the log density (useful deep in the tails).
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 1
    pts = np.atleast_2d(z)
    u = pts @ post.view_map.matrix.T
    k1 = post.k1
    x, y = u[:, :k1], u[:, k1:]
    out = np.full(pts.shape[0], np.log(post.view_map.jacobian))
    if k1 > 0:
        out = out + np.asarray(post.marginal.logpdf(x[:, 0]), dtype=float)
    cond = post.conditional
    if cond.y_dim > 0:
        out = out + _gaussian_logpdf(
            y - cond.mean(x), cond.cov, SingularConditionalCovariance,
            "posterior conditional covariance is singular; density undefined",
        )
    if not log:
        out = np.exp(out)
    return float(out[0]) if scalar else out


def posterior_marginal_linear(post: GaussianMarginalPosterior, weights_z, s,
                              rel_tol: float = 1e-6) -> float | np.ndarray:
    """Posterior marginal density of the linear combination w . Z at s.

    Conditional on X = x the combination is Gaussian with an affine mean
    in x, so the marginal is a one-dimensional mixture integral over g.
    All points are evaluated at once by a composite Gauss-Legendre panel
    rule whose error estimate must stay within ``rel_tol`` relative, else
    QuadratureFailure is raised; exact in the degenerate cases (no x
    dependence, or a combination lying in the X block).
    """
    c = np.asarray(weights_z, dtype=float) @ post.view_map.inverse
    return _marginal_from_view_weights(post, c, s, rel_tol)


def posterior_marginal_y1(post: GaussianMarginalPosterior, s, coord: int = 0,
                          rel_tol: float = 1e-6) -> float | np.ndarray:
    """Posterior marginal density of the Y-block coordinate ``coord``."""
    c = np.zeros(post.view_map.n)
    c[post.k1 + coord] = 1.0
    return _marginal_from_view_weights(post, c, s, rel_tol)


def _marginal_from_view_weights(post: GaussianMarginalPosterior, c: np.ndarray, s,
                                rel_tol: float) -> float | np.ndarray:
    """Density of c . (X, Y) at s, with c in view coordinates.

    Closed forms when alpha = 0 (no x dependence, as with no X block) or no Y
    variance.  Otherwise the density at s is  int phi(s; beta + alpha x,
    sigma^2) g(x) dx, a Gaussian kernel of width h = sigma / |alpha| around
    c = (s - beta) / alpha in x.  It is integrated over the kernel window
    [c - 10h, c + 10h] joined with g's range [ppf(1e-12), ppf(1 - 1e-12)],
    cut into panels at the kernel marks c + h * {0, +-1, +-2, +-4} and at
    g's own quantiles (plus a grid view's knots), so that both the kernel
    and a narrow view spike are resolved.  Each panel is summed with 16 and
    with 32 Gauss-Legendre nodes; the 32-node sum is the value and the gap
    to the 16-node sum its error estimate, which must stay within
    ``rel_tol`` relative.  Points that miss it are retried with every panel
    halved, up to _MAX_HALVINGS times, before QuadratureFailure.  Points
    are processed in chunks that bound the (points, panels, nodes)
    temporaries to a few hundred KiB.
    """
    k1 = post.k1
    cond = post.conditional
    cx, cy = c[:k1], c[k1:]
    var = float(cy @ cond.cov @ cy)
    beta = float(cy @ cond.intercept)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))

    alpha = float(cx[0] + cy @ cond.slope[:, 0]) if k1 else 0.0
    if abs(alpha) < 1e-14 * max(1.0, abs(beta)):
        out = _normal_pdf(s_arr, beta, var)
        return _match_shape(out, s)

    g = post.marginal
    scale = np.sqrt(max(g.var(), 0.0)) if np.isfinite(g.var()) else 1.0
    if var <= 1e-14 * (alpha * scale) ** 2:
        # combination is an affine image of X alone
        out = g.pdf((s_arr - beta) / alpha) / abs(alpha)
        return _match_shape(out, s)

    sd = np.sqrt(var)
    h = sd / abs(alpha)
    centers = (s_arr - beta) / alpha
    # a grid view is piecewise linear, so no panel may straddle one of its knots
    view_marks = np.unique(np.concatenate(
        [g.ppf(_VIEW_QUANTILES), getattr(g, "knots", np.zeros(0))]
    ))
    out = np.empty_like(s_arr)
    err = np.empty_like(s_arr)
    rows = np.arange(s_arr.size)
    for halvings in range(1 + _MAX_HALVINGS):
        out[rows], err[rows] = _panel_sums(g, centers[rows], h, view_marks, halvings)
        rows = rows[err[rows] > rel_tol * np.abs(out[rows])]
        if rows.size == 0:
            break
    bad = ~np.isfinite(out) | (err > rel_tol * np.abs(out))
    if np.any(bad):
        raise QuadratureFailure(
            f"marginal quadrature did not reach relative error {rel_tol} "
            f"at s={s_arr[np.argmax(bad)]}"
        )
    out /= np.sqrt(2.0 * np.pi) * sd
    return _match_shape(out, s)


def _panel_sums(g, centers: np.ndarray, h: float, view_marks: np.ndarray, halvings: int):
    """Integral of exp(-((x - c) / h)^2 / 2) g(x) for each c in ``centers``.

    The panels of c run between its sorted kernel marks c + h * _KERNEL_MARKS
    and ``view_marks``, each split into 2^halvings equal parts, so they cover
    [c - 10h, c + 10h] joined with the view marks' range.  Returns the
    32-node sums and their error estimates: the distance to the 16-node
    sums, but never below the rounding unit of the sum.  Works through the
    centres in chunks of at most _CHUNK_VALUES nodes.
    """
    high = np.empty(centers.size)
    low = np.empty(centers.size)
    n_panels = (_KERNEL_MARKS.size + view_marks.size - 1) << halvings
    step = max(1, _CHUNK_VALUES // (n_panels * _GL_NODES.size))
    for start in range(0, centers.size, step):
        rows = slice(start, start + step)
        c = centers[rows, None]
        edges = np.sort(np.concatenate(
            [c + h * _KERNEL_MARKS, np.broadcast_to(view_marks, (c.size, view_marks.size))],
            axis=1,
        ), axis=1)
        for _ in range(halvings):
            edges = _halve_panels(edges)
        half = 0.5 * np.diff(edges, axis=1)[:, :, None]
        x = (edges[:, :-1, None] + half) + half * _GL_NODES
        f = np.exp(-0.5 * ((x - c[:, :, None]) / h) ** 2) * g.pdf(x) * half
        low[rows] = (f[:, :, :_GL_LOW_N] @ _GL_LOW_W).sum(axis=1)
        high[rows] = (f[:, :, _GL_LOW_N:] @ _GL_HIGH_W).sum(axis=1)
    return high, np.maximum(np.abs(high - low), np.finfo(float).eps * np.abs(high))


def _halve_panels(edges: np.ndarray) -> np.ndarray:
    """Panel edges (one row per point) with every panel split at its midpoint."""
    out = np.empty((edges.shape[0], 2 * edges.shape[1] - 1))
    out[:, ::2] = edges
    out[:, 1::2] = 0.5 * (edges[:, 1:] + edges[:, :-1])
    return out


def _normal_pdf(x, mean: float, var: float):
    if var <= 0:
        raise QuadratureFailure("degenerate conditional variance in marginal evaluation")
    z = (np.asarray(x, dtype=float) - mean) ** 2 / var
    return np.exp(-0.5 * z) / np.sqrt(2.0 * np.pi * var)


def _match_shape(out: np.ndarray, s):
    return float(out[0]) if np.ndim(s) == 0 else out
