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
# units of h around c (the outer two bound the kernel window), the view
# quantiles used as marks, and QUADPACK's 15-point Kronrod rule ``qk15``
# (Piessens et al. 1983) with the weights of the 7-point Gauss rule it embeds
# (zero at the Kronrod-only nodes); their difference is the error estimate.
_KERNEL_MARKS = np.array([-10.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 10.0])
_TAIL_U = np.array([1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.15, 0.3, 0.5])
_VIEW_QUANTILES = np.concatenate([_TAIL_U, 1.0 - _TAIL_U])
_XGK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
                0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327])
_K15_X = np.concatenate([-_XGK, _XGK[-2::-1]])
_K15_W = np.concatenate([_WGK, _WGK[-2::-1]])
_G7_W = np.concatenate([_WG, _WG[-2::-1]])
# Columns: the Kronrod sum and its gap to the Gauss sum.
_RULE = np.column_stack([_K15_W, _K15_W - _G7_W])
# The kernel exp(-u^2 / 2) is below e^-50 outside the window |u| <= 10 and g
# has mass at most 1 there, so the window rung leaves out at most e^-50.
_WINDOW_TAIL = np.exp(-50.0)
# Values per (points, panels, nodes) block: 2^15 doubles is 256 KiB.
_CHUNK_VALUES = 1 << 15
# Points whose error estimate misses the tolerance on the kernel window are
# retried on the window joined with g's range, then with every panel halved,
# at most this many times, before QuadratureFailure.
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
    All points are evaluated at once by a composite Gauss-Kronrod panel
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

    Given X = x the combination is N(beta + alpha x, sigma^2)
    (``post.portfolio_law``).  Closed forms when alpha = 0 (no x dependence,
    as with no X block) or no Y variance.  Otherwise the density at s is
    int phi(s; beta + alpha x, sigma^2) g(x) dx, a Gaussian kernel of width
    h = sigma / |alpha| around c = (s - beta) / alpha in x.  Panels are cut
    at the kernel marks c + h * {0, +-1, +-2, +-4, +-10} and at g's own
    quantiles (plus a grid view's knots), so that both the kernel and a
    narrow view spike are resolved, and each is summed with the 15-point
    Kronrod rule; the gap to its embedded 7-point Gauss rule is the error
    estimate, which must stay within ``rel_tol`` relative.  The first rung integrates over the kernel
    window [c - 10h, c + 10h] only, and its estimate carries e^-50 for the
    part it leaves out.  Points that miss the tolerance there are retried on
    the window joined with g's range [ppf(1e-12), ppf(1 - 1e-12)], then with
    every panel halved, up to _MAX_HALVINGS times, before QuadratureFailure.
    """
    alpha, beta, var = post.portfolio_law(c)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
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
    for rung in range(2 + _MAX_HALVINGS):
        out[rows], err[rows] = _panel_sums(g, centers[rows], h, view_marks,
                                           window=rung == 0, halvings=max(rung - 1, 0))
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


def _panel_sums(g, centers: np.ndarray, h: float, view_marks: np.ndarray, *,
                window: bool, halvings: int):
    """Integral of exp(-((x - c) / h)^2 / 2) g(x) for each c in ``centers``.

    The panels of c run between its sorted kernel marks c + h * _KERNEL_MARKS
    and the sorted ``view_marks``: with ``window`` only the marks strictly
    inside the kernel window [c - 10h, c + 10h], so that the panels cover the
    window, else all of them, so that they cover the window joined with the
    marks' range.  Each panel is split into 2^halvings equal parts.  Returns
    the 15-point Kronrod sums and their error estimates: the distance to the
    embedded 7-point Gauss sums, but never below the rounding unit of the
    sum, plus e^-50 with ``window`` for the integral outside it.

    Rows are taken in order of their number of marks, in chunks of at most
    _CHUNK_VALUES nodes; a chunk's rows with fewer marks than its last are
    padded with zero-width panels at the window's right end, which add
    exactly 0 to the sequential sum over panels.
    """
    kern = centers[:, None] + h * _KERNEL_MARKS
    if window:
        first = np.searchsorted(view_marks, kern[:, 0], side="right")
        counts = np.searchsorted(view_marks, kern[:, -1], side="left") - first
    else:
        first = np.zeros(centers.size, dtype=int)
        counts = np.full(centers.size, view_marks.size)
    order = np.argsort(counts, kind="stable")
    # nodes of the rows in that order, padded as if each ended a chunk
    nodes = ((_KERNEL_MARKS.size - 1 + counts[order]) << halvings) * _K15_X.size
    sums = np.empty((centers.size, 2))
    start = 0
    while start < order.size:
        # the most rows from ``start`` whose padded block fits in _CHUNK_VALUES
        span = nodes[start:start + max(1, _CHUNK_VALUES // nodes[start])]
        fits = np.count_nonzero(np.arange(1, span.size + 1) * span <= _CHUNK_VALUES)
        rows = order[start:start + max(1, fits)]
        pick = first[rows, None] + np.arange(counts[rows[-1]])
        marks = np.where(pick < (first + counts)[rows, None],
                         view_marks[np.minimum(pick, view_marks.size - 1)], kern[rows, -1:])
        edges = np.sort(np.concatenate([kern[rows], marks], axis=1), axis=1)
        for _ in range(halvings):
            edges = _halve_panels(edges)
        half = 0.5 * np.diff(edges, axis=1)[:, :, None]
        x = (edges[:, :-1, None] + half) + half * _K15_X
        f = np.exp(-0.5 * ((x - centers[rows, None, None]) / h) ** 2) * g.pdf(x) * half
        # summed in a fixed order, so that a row's value does not depend on its chunk
        sums[rows] = (f.sum(axis=1)[:, :, None] * _RULE).sum(axis=1)
        start += rows.size
    value = sums[:, 0]
    err = np.maximum(np.abs(sums[:, 1]), np.finfo(float).eps * np.abs(value))
    return value, err + _WINDOW_TAIL if window else err


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
