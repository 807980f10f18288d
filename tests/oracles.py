"""Independent oracle implementations used to cross-check the engine.

Everything here deliberately avoids the tilting/closed-form code paths:
a primal projected-gradient solver for the discrete KL projection, dense
tensor-product quadrature for 2-D pricing, bisection for scalar
multipliers, a block-inverse route to conditional covariances,
per-point adaptive quadrature for posterior marginal densities, the
marginal-density panel sums with rows padded to their chunk's widest,
raw-coordinate hull gauges, one LP over the whole standardised sample, the
column-generated gauge on the (n, k) point layout, and
the padded feasibility-probe classifier for the existence check, a VaR
bootstrap that builds and sorts every resample, ``scipy.stats``'
location-scale cdf/ppf for the density views, adaptive quadrature of a
grid view's pdf for its cdf and moments, mpmath's incomplete beta for the far
left tail of the t cdf and quantile, an mpmath root of the elementary t(3) cdf
for the t(3) quantile, a per-view loop for the moment-view tensor, the
exact tilt's piece coefficients written per payoff kind, a per-x two-pass
``math.fsum`` of the g-average of a conditional covariance, the
sensitivity terms read from one stacked (k + 1)^2 covariance of the views'
rows and r's, an importance-sampling draw whose normalizer takes one rule
over the whole stream, a call/put-tilted Gaussian law as ``scipy.stats``
truncated-normal pieces, piecewise Gauss-Legendre quadrature of the dual of
that law, adaptive quadrature of a density view's total mass, and a
posterior sample drawn as whole streams, solved back to factors by LU and
cut to n, the cdf of a portfolio return by 1-D adaptive quadrature over X
from block formulas on the prior covariance, the report CSV written cell by
cell through ``csv.writer``, and JSON reports streamed through ``json.dump``.
"""

from __future__ import annotations

import csv
import json
import math

import mpmath
import numpy as np
from scipy import integrate, stats
from scipy.optimize import linprog
from scipy.special import ndtr
from scipy.spatial import ConvexHull, QhullError

from tiltcal.analytic import (_CHUNK_VALUES, _K15_X, _KERNEL_MARKS, _RULE, _WINDOW_TAIL,
                              _halve_panels)
from tiltcal.calibration import (_ARTIFICIAL_COST, _COLUMNS_PER_VIEW, _GAUGE_ROUNDS,
                                 _PRICING_TOL)
from tiltcal.errors import InconclusiveSample, NonIntegrableTilt
from tiltcal.views import OptionPayoff


# ---------------------------------------------------------------------------
# cdf / ppf of the analytic density views through scipy.stats
# ---------------------------------------------------------------------------


def gaussian_cdf_stats(x, mean: float, stddev: float):
    return stats.norm.cdf(x, loc=mean, scale=stddev)


def gaussian_ppf_stats(u, mean: float, stddev: float):
    return stats.norm.ppf(u, loc=mean, scale=stddev)


def student_t_cdf_stats(x, df: float, loc: float, scale: float):
    return stats.t.cdf(x, df, loc=loc, scale=scale)


def student_t_ppf_stats(u, df: float, loc: float, scale: float):
    return stats.t.ppf(u, df, loc=loc, scale=scale)


def student_t_cdf_mpmath(t: float, df: float, dps: int = 50) -> float:
    """Standard t cdf at t <= 0: I_x(df/2, 1/2) / 2 with x = df / (df + t^2)."""
    with mpmath.workdps(dps):
        t = mpmath.mpf(t)
        x = df / (df + t * t)
        return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x,
                                    regularized=True) / 2)


def student_t_ppf_mpmath(u: float, df: float, dps: int = 50) -> float:
    """Standard t quantile at u < 1/2 by root finding on mpmath's incomplete beta.

    The left tail is u = I_x(df/2, 1/2) / 2 with x = df / (df + t^2); the
    root is taken in log x, started from the tail's leading term.
    """
    with mpmath.workdps(dps):
        a, half = mpmath.mpf(df) / 2, mpmath.mpf(1) / 2
        log_u = mpmath.log(mpmath.mpf(u))
        start = (log_u + mpmath.log(df) + mpmath.log(mpmath.beta(a, half))) / a
        log_x = mpmath.findroot(
            lambda lx: mpmath.log(mpmath.betainc(a, half, 0, mpmath.exp(lx),
                                                 regularized=True) / 2) - log_u,
            min(start, mpmath.mpf(-1)))
        x = mpmath.exp(log_x)
        return float(-mpmath.sqrt(df * (1 - x) / x))


def student_t3_ppf_mpmath(u: float, dps: int = 50) -> tuple[float, float]:
    """Standard t(3) quantile at 0 < u < 1 as hi + lo, hi the double nearest to it.

    With t = sqrt(3) tan(theta) the t(3) cdf is 1/2 + (2 theta + sin 2 theta) / (2 pi),
    so with l = min(u, 1 - u) (exact in mpmath):
    - below l = 1/4 Newton solves psi - sin psi = 2 pi l from the series start
      x (1 + x^2/60 + x^4/1400), x = (12 pi l)^(1/3), with psi - sin psi summed as
      its Taylor series below psi = 1/2 so that nothing cancels, and
      t = -sqrt(3) cot(psi / 2);
    - from 1/4 to 1/2 it solves r + sin r = c = 2 pi (1/2 - l) from the series
      start c/2 + c^3/96 + c^5/1920, and t = -sqrt(3) tan(r / 2).
    Both roots are real for every l, unlike a search on the incomplete beta near u = 1/2.
    """
    with mpmath.workdps(dps):
        u = mpmath.mpf(u)
        lower = min(u, 1 - u)
        eps = mpmath.mpf(10) ** -dps
        if lower < mpmath.mpf(1) / 4:
            c = 2 * mpmath.pi * lower

            def excess(p):  # p - sin p
                if p >= 0.5:
                    return p - mpmath.sin(p)
                term, total, k = p**3 / 6, mpmath.mpf(0), 1
                while abs(term) > eps * abs(total) / 100:
                    total += term
                    term *= -p * p / ((2 * k + 2) * (2 * k + 3))
                    k += 1
                return total

            x = mpmath.cbrt(6 * c)
            p = x * (1 + x**2 / 60 + x**4 / 1400)
            for _ in range(100):
                step = (excess(p) - c) / (2 * mpmath.sin(p / 2) ** 2)
                p -= step
                if abs(step) <= 1e5 * eps * p:
                    break
            t = -mpmath.sqrt(3) / mpmath.tan(p / 2)
        else:
            c = 2 * mpmath.pi * (mpmath.mpf(1) / 2 - lower)
            r = c / 2 + c**3 / 96 + c**5 / 1920
            for _ in range(100):
                step = (r + mpmath.sin(r) - c) / (1 + mpmath.cos(r))
                r -= step
                if abs(step) <= 1e5 * eps * r:
                    break
            t = -mpmath.sqrt(3) * mpmath.tan(r / 2)
        if u > mpmath.mpf(1) / 2:
            t = -t
        hi = float(t)
        return hi, float(t - hi)


def grid_cdf_quad(g, x) -> np.ndarray:
    """cdf of a grid view at each x: adaptive ``quad`` of its pdf from the first knot."""
    lo, top = float(g.knots[0]), float(g.knots[-1])
    out = []
    for xv in np.atleast_1d(np.asarray(x, dtype=float)):
        hi = min(max(xv, lo), top)
        pts = [k for k in g.knots if lo < k < hi]
        out.append(integrate.quad(g.pdf, lo, hi, points=pts or None, limit=200 + len(pts),
                                  epsabs=1e-15, epsrel=1e-13)[0])
    return np.array(out)


def grid_moments_quad(g) -> tuple[float, float]:
    """Mean and variance of a grid view: adaptive ``quad`` of x f and (x - m)^2 f per segment."""
    segments = list(zip(g.knots[:-1], g.knots[1:]))

    def integral(func):
        return sum(integrate.quad(lambda x: func(x) * g.pdf(x), a, b,
                                  epsabs=1e-15, epsrel=1e-13)[0] for a, b in segments)

    mean = integral(lambda x: x)
    return mean, integral(lambda x: (x - mean) ** 2)


def density_mass_quad(g) -> float:
    """Total mass of a density view: adaptive ``quad`` of its pdf.

    Per knot segment for a grid view; else over the two half-lines either
    side of its median.
    """
    knots = getattr(g, "knots", None)
    if knots is not None:
        return sum(integrate.quad(g.pdf, a, b, epsabs=1e-15, epsrel=1e-13)[0]
                   for a, b in zip(knots[:-1], knots[1:]))
    mid = float(g.ppf(0.5))
    return sum(integrate.quad(g.pdf, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
               for a, b in ((-np.inf, mid), (mid, np.inf)))


# ---------------------------------------------------------------------------
# Conditional covariance via the inverse-of-the-inverse identity
# ---------------------------------------------------------------------------


def conditional_cov_block_inverse(cov: np.ndarray, split: int) -> np.ndarray:
    """Cov(Y | X) as inv(inv(Sigma)[yy]) -- no Schur-complement formula."""
    prec = np.linalg.inv(cov)
    return np.linalg.inv(prec[split:, split:])


# ---------------------------------------------------------------------------
# Moment-view tensor, one view at a time
# ---------------------------------------------------------------------------


def view_tensor_loop(moments, x, y) -> np.ndarray:
    """h_i(x, y) for each view in turn, broadcast to y.shape[:-1] and stacked."""
    shape = y.shape[:-1]
    rows = []
    for view in moments:
        if view.coord is not None:
            rows.append(np.array(np.broadcast_to(y[..., view.coord], shape)))
        else:
            rows.append(np.broadcast_to(np.asarray(view.payoff(x, y), dtype=float), shape))
    return np.stack(rows) if rows else np.zeros((0,) + shape)


# ---------------------------------------------------------------------------
# The exact tilt's knots and piece coefficients, branch by payoff kind
# ---------------------------------------------------------------------------


def exact_tilt_by_kind(law, moments):
    """(knots, c, d) of calls, puts and coordinate-0 views, written per kind; else None.

    The knots are the sorted distinct strikes; on piece p, between knots
    p - 1 and p, view k is c_kp + d_kp y.  A coordinate view is y on every
    piece; a call pays y - K on the pieces above its strike, a put K - y on
    those below it, and each is 0 elsewhere.  The tilt is exact when ``law``
    has ``tilt_pieces``, Y is one-dimensional and every view is on y_0.
    """
    def declared(payoff):
        return isinstance(payoff, OptionPayoff) and payoff.coord == 0

    if (getattr(law, "tilt_pieces", None) is None or law.y_dim != 1
            or not all(view.coord == 0 or declared(view.payoff) for view in moments)):
        return None
    knots = np.unique([view.payoff.strike for view in moments if view.coord is None])
    piece = np.arange(knots.size + 1)
    c, d = np.zeros((2, len(moments), piece.size))
    for k, view in enumerate(moments):
        if view.coord is not None:
            d[k] = 1.0
        else:
            strike, j = view.payoff.strike, np.searchsorted(knots, view.payoff.strike)
            sign, on = (1.0, piece > j) if view.payoff.kind == "call" else (-1.0, piece <= j)
            c[k, on], d[k, on] = -sign * strike, sign
    return knots, c, d


# ---------------------------------------------------------------------------
# E_g[Cov(f, g | X)] x by x, in two passes of exact sums
# ---------------------------------------------------------------------------


def total_cov_loop(cond, x_weights, y_var, values, slopes) -> np.ndarray:
    """E_g[Cov(f_k, f_l | X)] for every pair of rows, one x at a time.

    ``cond`` is P(cell | x) of shape (cells, n_x), ``y_var`` Var(Y | cell, x)
    of the same shape (zeros on nodes), ``values`` E[f_k | cell, x] of shape
    (m, cells, n_x) and ``slopes`` the slope of f_k in y on each cell, (m,
    cells).  Per x, the first pass takes each row's mean by ``math.fsum``, the
    second the weighted products of the deviations plus slope_k slope_l
    Var(Y | cell); the x-average is one more ``math.fsum``.
    """
    m, n_x = values.shape[0], cond.shape[1]
    per_x = np.empty((m, m, n_x))
    for i in range(n_x):
        w = cond[:, i]
        dev = [values[k, :, i] - math.fsum(w * values[k, :, i]) for k in range(m)]
        for k in range(m):
            for l in range(m):
                per_x[k, l, i] = math.fsum(np.concatenate(
                    [w * dev[k] * dev[l], w * slopes[k] * slopes[l] * y_var[:, i]]))
    return np.array([[math.fsum(x_weights * per_x[k, l]) for l in range(m)] for k in range(m)])


def total_cov_stacked(post, r_weights, wrt_loc: bool = False):
    """A ``TiltedPosterior``'s V, E_g[Cov(r, h | X)] and dPi/d loc for r = r_weights . (x, y),
    read from one stacked covariance.

    r's row joins the views' rows in one (k + 1, cells, n_x) array: on the
    pieces of an exact problem x . w_x + w_y E[Y | piece, x] with slope w_y,
    on the nodes an einsum of w over each node's (x, y) with slope 0.  The
    two-pass formula then forms all (k + 1)^2 pairs, and V is the leading
    k x k block, symmetrised, and Cov(r, h) the last row's first k entries.
    dPi/d loc is the x-average of E[r | x] times the location score.
    """
    problem, lam = post.problem, post.lam
    r_w = np.asarray(r_weights, dtype=float)
    k1 = problem.x_nodes.shape[1]
    if problem.exact is not None:
        cells = problem._pieces(lam)
        knots, c, d = problem.exact
        y_mean = problem.law.tilt_pieces(problem.x_nodes, knots, lam @ c, lam @ d).y_moments[0]
        r_row = (problem.x_nodes @ r_w[:k1] + r_w[k1] * y_mean)[None]
        r_slope = np.full((1, knots.size + 1), r_w[k1])
    else:
        cells = problem._nodes(lam)
        r_row = (np.einsum("...j,j->...", problem.x_nodes[None], r_w[:k1])
                 + np.einsum("...j,j->...", problem._tensor[0], r_w[k1:]))[None]
        r_slope = np.zeros(r_row.shape[:2])
    values = np.concatenate([cells.h[0], r_row])
    slopes = np.concatenate([cells.h[1], r_slope])
    dev = values - np.einsum("kpn,pn->kn", values, cells.cond)[:, None]
    cov = (np.einsum("kpn,lpn,pn->kl", dev, dev, cells.cond * problem.x_weights)
           + (slopes * cells.var_mass) @ slopes.T)
    d_loc = None
    if wrt_loc:
        r_mean = np.einsum("pn,pn->n", cells.cond, r_row[0])
        score = problem.views.marginal.dlogpdf_dloc(problem.x_nodes[:, 0])
        d_loc = float((problem.x_weights * r_mean) @ score)
    v = cov[:-1, :-1]
    return (v + v.T) / 2.0, cov[-1, :-1], d_loc


# ---------------------------------------------------------------------------
# Importance-sampling draw with one inner rule over the whole stream
# ---------------------------------------------------------------------------


def tilted_draw_unblocked(post, n: int, rng: np.random.Generator):
    """``TiltedPosterior.draw`` with log Z(x) taken on one rule over all n draws.

    X ~ g, then Y | X from the problem's law; the log-weight of a draw is
    lam . h(x, y) - log Z(x), the normalizer by max-shifted exponentials on
    the law's n_y-node rule.  Raises NonIntegrableTilt when some log Z(x) is
    not finite or exceeds lam . E[h | x] on the rule, its prior mean, by more
    than 1e4.
    """
    problem, lam = post.problem, post.lam
    law, views = problem.law, problem.views
    x = np.zeros((n, 0)) if views.marginal is None else views.marginal.sample(n, rng)[:, None]
    y = law.sample(x, rng)
    nodes, log_w = law.rule(x, problem.n_y)
    scores = np.einsum("k,knj->nj", lam, view_tensor_loop(views.moments, x[:, None, :], nodes))
    prior_score = np.sum(scores * np.exp(log_w), axis=1)
    scores += log_w
    peak = np.max(scores, axis=1, keepdims=True)
    log_z = peak[:, 0] + np.log(np.sum(np.exp(scores - peak), axis=1))
    if not np.all(np.isfinite(log_z)) or np.max(log_z - prior_score) > 1.0e4:
        raise NonIntegrableTilt("tilted conditional normalizer overflows; "
                                "the tilt is not integrable")
    return np.column_stack([x, y]), lam @ view_tensor_loop(views.moments, x, y) - log_z


# ---------------------------------------------------------------------------
# Gaussian law tilted by calls, puts and y itself: its truncated-normal pieces
# ---------------------------------------------------------------------------


def tilted_gaussian_pieces(m: float, s: float, views):
    """N(m, s^2) tilted by exp(sum_i lam_i h_i(y)), as a mixture of truncated normals.

    ``views`` holds (kind, strike, lam) triples, kind "call" (h = (y - K)+),
    "put" (h = (K - y)+) or "coord" (h = y, strike ignored).  Piece p lies
    between edges[p] and edges[p + 1], the sorted distinct strikes with -inf
    and +inf at the ends.  Its tilt a + b y is read off lam . h at two points
    inside it, and its mass is exp(a + b m + b^2 s^2 / 2) times the
    ``scipy.stats.norm`` mass of the piece under N(m + b s^2, s^2), in logs
    (``logsf`` above that mean, ``logcdf`` below).  Returns (edges, masses,
    laws): the normalised masses and each piece's ``scipy.stats.truncnorm``.
    """
    def tilt(y):
        total = 0.0
        for kind, strike, lam in views:
            if kind == "coord":
                total += lam * y
            else:
                total += lam * max(y - strike if kind == "call" else strike - y, 0.0)
        return total

    edges = np.r_[-np.inf, np.unique([k for kind, k, _ in views if kind != "coord"]), np.inf]
    log_mass, laws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if np.isfinite(lo) and np.isfinite(hi):
            y1, y2 = lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3
        elif np.isfinite(lo) or np.isfinite(hi):
            y1, y2 = (lo + 1.0, lo + 2.0) if np.isfinite(lo) else (hi - 2.0, hi - 1.0)
        else:
            y1, y2 = 0.0, 1.0
        b = (tilt(y2) - tilt(y1)) / (y2 - y1)
        a = tilt(y1) - b * y1
        mu = m + b * s**2
        lo_z, hi_z = (lo - mu) / s, (hi - mu) / s
        if lo_z > 0:
            ends = stats.norm.logsf([lo_z, hi_z])
        else:
            ends = stats.norm.logcdf([hi_z, lo_z])
        log_piece = ends[0] + np.log1p(-np.exp(ends[1] - ends[0]))
        log_mass.append(a + b * m + 0.5 * (b * s) ** 2 + log_piece)
        laws.append(stats.truncnorm(lo_z, hi_z, loc=mu, scale=s))
    log_mass = np.array(log_mass)
    masses = np.exp(log_mass - log_mass.max())
    return edges, masses / masses.sum(), laws


def tilted_gaussian_draw_mpmath(m: float, s: float, views, u, dps: int = 50) -> np.ndarray:
    """The exact draw of ``tilted_gaussian_pieces``' law for each uniform pair in u, by mpmath.

    Row (u0, u1) takes the first piece whose cumulative mass reaches
    (1 - u0) times the total, then the quantile of its truncated normal at
    u1 + 2^-54, the midpoint of u1's 2^-53 cell: Phi^-1 is sqrt(2) erfinv(2q - 1)
    at ``dps`` digits.  Piece tilts are read off lam . h at two points as in
    ``tilted_gaussian_pieces``.
    """
    edges = [-mpmath.inf] + sorted({mpmath.mpf(k) for kind, k, _ in views if kind != "coord"})
    edges.append(mpmath.inf)
    out = []
    with mpmath.workdps(dps):
        m, s = mpmath.mpf(m), mpmath.mpf(s)

        def tilt(y):
            return mpmath.fsum(lam * (y if kind == "coord" else
                                      max(y - k if kind == "call" else k - y, 0))
                               for kind, k, lam in views)

        pieces = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if mpmath.isfinite(lo) and mpmath.isfinite(hi):
                y1, y2 = lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3
            elif mpmath.isfinite(lo) or mpmath.isfinite(hi):
                y1 = lo + 1 if mpmath.isfinite(lo) else hi - 2
                y2 = y1 + 1
            else:
                y1, y2 = mpmath.mpf(0), mpmath.mpf(1)
            b = (tilt(y2) - tilt(y1)) / (y2 - y1)
            a = tilt(y1) - b * y1
            mu = m + b * s**2
            lo_cdf, hi_cdf = (mpmath.ncdf((e - mu) / s) for e in (lo, hi))
            pieces.append((mu, lo_cdf, hi_cdf,
                           mpmath.exp(a + b * m + (b * s) ** 2 / 2) * (hi_cdf - lo_cdf)))
        total = mpmath.fsum(p[3] for p in pieces)
        for u0, u1 in np.asarray(u, dtype=float):
            cum, t = 0, (1 - mpmath.mpf(u0)) * total
            for mu, lo_cdf, hi_cdf, mass in pieces:
                cum += mass
                if cum >= t:
                    break
            q = lo_cdf + (mpmath.mpf(u1) + mpmath.mpf(2) ** -54) * (hi_cdf - lo_cdf)
            out.append(float(mu + s * mpmath.sqrt(2) * mpmath.erfinv(2 * q - 1)))
    return np.array(out)


# ---------------------------------------------------------------------------
# Dual of a call/put-tilted Gaussian Y | X by Gauss-Legendre, split at the kinks
# ---------------------------------------------------------------------------


def sinh_outer_rule(pdf, loc: float, scale: float, n: int, reach: float):
    """The n-point trapezoid rule in t for x = loc + scale sinh(t), |x - loc| <= reach scale.

    The weights are pdf(x) cosh(t), the two end ones halved, normalised to sum
    1.  With ``tilted_gaussian_legendre``'s inner integration it is the dense
    oracle of a quadrature problem's outer rule.
    """
    t = np.linspace(-np.arcsinh(reach), np.arcsinh(reach), n)
    x = loc + scale * np.sinh(t)
    w = pdf(x) * np.cosh(t)
    w[[0, -1]] *= 0.5
    return x, w / w.sum()


def tilted_gaussian_legendre(m, s: float, x_weights, h, lam, kinks, f=None, block: int = 500):
    """E_g[log Z], E_g[h], E_g[Cov(h | X)] and E_g[f] for Y | X = x_i ~ N(m_i, s^2) tilted
    by exp(lam . h(y)), by piecewise Gauss-Legendre quadrature in y.

    ``h(y)`` maps a 1-D array of y to the (k, len(y)) view values and ``f(y)``
    (optional) to len(y) values.  Each is continuous and linear between the
    ``kinks`` with slopes 0 or +-1 (calls, puts, y itself), so on each piece
    the tilted density is a Gaussian whose mean lies within reach s^2 of m_i,
    reach = sum |lam|.  The outer nodes are taken in order of m, in groups of
    at most ``block`` whose means lie within 8 s of each other, so that a
    sinh rule's far tail nodes each get a y grid of their own.  A group's y
    grid spans [min m - half, max m + half], half = (12 + reach s) s, is cut
    at the kinks and into panels no wider than s, and each panel takes a
    20-point Gauss-Legendre rule, on which the integrand is analytic.  Sums
    are in logs, and the covariance is taken from deviations about the mean.
    """
    m, x_weights, lam = (np.asarray(v, dtype=float) for v in (m, x_weights, lam))
    half = (12.0 + np.abs(lam).sum() * s) * s
    t, w = np.polynomial.legendre.leggauss(20)
    order = np.argsort(m, kind="stable")
    k = len(lam)
    log_z, mean, cov, f_mean = (np.empty(m.size), np.empty((m.size, k)),
                                np.empty((m.size, k, k)), np.empty(m.size))
    first = 0
    while first < m.size:
        last = min(np.searchsorted(m[order], m[order[first]] + 8.0 * s, side="right"),
                   first + block)
        rows = order[first:last]
        first = last
        lo, hi = m[rows].min() - half, m[rows].max() + half
        edges = np.unique(np.r_[lo, [kink for kink in kinks if lo < kink < hi], hi])
        y, log_w = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            cuts = np.linspace(a, b, int(np.ceil((b - a) / s)) + 1)
            mid, rad = (cuts[1:] + cuts[:-1]) / 2, (cuts[1:] - cuts[:-1]) / 2
            y.append((mid[:, None] + rad[:, None] * t).ravel())
            log_w.append(np.log(rad[:, None] * w).ravel())
        y, log_w = np.concatenate(y), np.concatenate(log_w)
        hy = np.asarray(h(y), dtype=float)
        scores = log_w + lam @ hy - np.log(s * np.sqrt(2.0 * np.pi))
        scores = scores - 0.5 * ((y - m[rows, None]) / s) ** 2
        peak = scores.max(axis=1, keepdims=True)
        log_z[rows] = peak[:, 0] + np.log(np.exp(scores - peak).sum(axis=1))
        q = np.exp(scores - log_z[rows, None])
        mean[rows] = q @ hy.T
        dev = hy[None] - mean[rows, :, None]
        cov[rows] = np.einsum("bj,bkj,blj->bkl", q, dev, dev)
        if f is not None:
            f_mean[rows] = q @ np.asarray(f(y), dtype=float)
    return (float(x_weights @ log_z), x_weights @ mean, np.einsum("b,bkl->kl", x_weights, cov),
            None if f is None else float(x_weights @ f_mean))


def solve_tilted_gaussian_legendre(m, s: float, x_weights, h, targets, kinks,
                                   tol: float = 1e-14, max_iter: int = 50) -> np.ndarray:
    """The multipliers at which ``tilted_gaussian_legendre``'s E_g[h] meets the targets.

    Newton's method from lam = 0 on the dual E_g[log Z] - lam . targets,
    halving a step until max |gradient| falls, to max |gradient| <= tol or
    until no step lowers it.
    """
    targets = np.asarray(targets, dtype=float)
    lam = np.zeros(targets.size)
    _, mean, cov, _ = tilted_gaussian_legendre(m, s, x_weights, h, lam, kinks)
    for _ in range(max_iter):
        grad = np.abs(mean - targets).max()
        if grad <= tol:
            break
        step = -np.linalg.solve(cov, mean - targets)
        for t in 0.5 ** np.arange(20):
            _, trial_mean, trial_cov, _ = tilted_gaussian_legendre(
                m, s, x_weights, h, lam + t * step, kinks)
            if np.abs(trial_mean - targets).max() < grad:
                break
        else:
            break
        lam, mean, cov = lam + t * step, trial_mean, trial_cov
    return lam


# ---------------------------------------------------------------------------
# Posterior sample: whole streams, each solved back by LU, stacked and cut to n
# ---------------------------------------------------------------------------


def sample_posterior_loop(post, n: int, seed: int, chunk: int = 1 << 16):
    """``sample_posterior``'s draws and weights, computed stream by stream.

    Stream i draws ``chunk`` rows from the i-th child of ``SeedSequence(seed)``
    and maps them back to factors with ``np.linalg.solve`` (the identity map
    keeps them as drawn).  The streams are stacked and cut to n rows; the
    weights are exp(log w - max) over those n rows, normalised to mean one.
    Returns ``(z, weights)``, weights None for exact draws.
    """
    v = post.view_map.matrix
    z, log_w = [], []
    for child in np.random.SeedSequence(seed).spawn(-(-n // chunk)):
        xy, lw = post.draw(chunk, np.random.default_rng(child))
        z.append(xy if np.array_equal(v, np.eye(v.shape[0])) else np.linalg.solve(v, xy.T).T)
        log_w.append(lw)
    z = np.vstack(z)[:n]
    if log_w[0] is None:
        return z, None
    kept = np.concatenate(log_w)[:n]
    w = np.exp(kept - kept.max())
    return z, w / w.mean()


# ---------------------------------------------------------------------------
# Portfolio return of a closed-form posterior: its cdf by quad over X
# ---------------------------------------------------------------------------


def portfolio_law_blocks(post, w_z) -> tuple[float, float, float]:
    """(alpha, beta, sigma) of w . Z given X = x, N(beta + alpha x, sigma^2).

    Built from the prior in view coordinates (``post.prior_t``), the view
    map and the views alone: c solves V' c = w, the Y | X regression and Schur
    block come from ``np.linalg.solve`` on the covariance blocks, and the mean
    views shift Y's conditional mean by S[:, m] lam, lam solving
    S_mm lam = targets - E[Y_m] at X = E_g X.
    """
    views = post.problem.views
    k1 = views.k1
    c = np.linalg.solve(post.view_map.matrix.T, np.asarray(w_z, dtype=float))
    mean, cov = post.prior_t.mean, post.prior_t.covariance
    m_x, m_y = mean[:k1], mean[k1:]
    if k1:
        slope = np.linalg.solve(cov[:k1, :k1], cov[:k1, k1:]).T
        schur = cov[k1:, k1:] - slope @ cov[:k1, k1:]
        e_x = np.array([views.marginal.mean()])
    else:
        slope, schur, e_x = np.zeros((m_y.size, 0)), cov, np.zeros(0)
    coords = [view.coord for view in views.moments]
    base = m_y + slope @ (e_x - m_x)
    lam = np.linalg.solve(schur[np.ix_(coords, coords)], views.targets - base[coords])
    intercept = m_y - slope @ m_x + schur[:, coords] @ lam
    cx, cy = c[:k1], c[k1:]
    alpha = float(cx[0] + cy @ slope[:, 0]) if k1 else 0.0
    return alpha, float(cy @ intercept), float(np.sqrt(cy @ schur @ cy))


def portfolio_cdf_quad(post, w_z, s, rel_tol: float = 1e-12) -> np.ndarray:
    """P(w . Z <= s) at each s under a closed-form posterior with a scalar or no X block.

    ``portfolio_law_blocks`` gives the law given X; the cdf is then
    int Phi((s - beta - alpha x) / sigma) g(x) dx, one adaptive
    ``scipy.integrate.quad`` per point on g's 1e-15 .. 1 - 1e-15 quantile
    range split at its median and 0.1% / 99.9% quantiles, plus the two tails
    out to infinity.  Without X, or with alpha = 0, it is Phi((s - beta) / sigma).
    """
    alpha, beta, sigma = portfolio_law_blocks(post, w_z)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    g = post.marginal
    if g is None or alpha == 0.0:
        return ndtr((s - beta) / sigma)
    lo, hi = g.ppf(np.array([1e-15, 1.0 - 1e-15]))
    pts = tuple(g.ppf(np.array([1e-3, 0.5, 1.0 - 1e-3])))
    kw = dict(epsabs=0.0, epsrel=rel_tol, limit=500)
    out = []
    for sv in s:
        f = lambda x: ndtr((sv - beta - alpha * x) / sigma) * g.pdf(x)
        out.append(integrate.quad(f, -np.inf, lo, **kw)[0]
                   + integrate.quad(f, lo, hi, points=pts, **kw)[0]
                   + integrate.quad(f, hi, np.inf, **kw)[0])
    return np.array(out)


# ---------------------------------------------------------------------------
# Primal projected-gradient KL minimizer on the constrained simplex
# ---------------------------------------------------------------------------


def _project_rows_simplex(v: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto {w >= 0, sum w = mass}."""
    n, m = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    cs = np.cumsum(u, axis=1)
    ks = np.arange(1, m + 1)
    cond = u - (cs - masses[:, None]) / ks > 0
    rho = m - np.argmax(cond[:, ::-1], axis=1) - 1
    tau = (cs[np.arange(n), rho] - masses) / (rho + 1)
    return np.maximum(v - tau[:, None], 0.0)


def _project_feasible(v, masses, a_mat, b_vec, aat_inv, floor,
                      tol=1e-13, max_iter=400):
    """Dykstra projection onto {rows sum to masses, q >= floor, A q = b}."""
    x = v.copy()
    p = np.zeros_like(v)
    q = np.zeros_like(v)
    shift = masses - v.shape[1] * floor
    for _ in range(max_iter):
        y = _project_rows_simplex(x + p - floor, shift) + floor
        p = x + p - y
        resid = a_mat @ (y + q).ravel() - b_vec
        x = y + q - (a_mat.T @ (aat_inv @ resid)).reshape(v.shape)
        q = y + q - x
        if (np.abs(x.sum(axis=1) - masses).max() < tol
                and np.abs(a_mat @ x.ravel() - b_vec).max() < tol
                and x.min() >= floor - tol):
            break
    return x


def discrete_kl(q: np.ndarray, p: np.ndarray) -> float:
    mask = q > 0
    return float(np.sum(q[mask] * np.log(q[mask] / p[mask])))


def min_kl_projected_gradient(p_joint, g_masses, h_tables, targets, *,
                              iters=2500, floor_frac=1e-7):
    """Minimize KL(q || p) over {q >= 0, row sums = g, sum h_l q = c_l}.

    Accelerated projected gradient (FISTA with function restart) with exact
    Dykstra projections.  Returns (q, kl_value).
    """
    nx, ny = p_joint.shape
    scale_h = [max(1.0, float(np.abs(h).max())) for h in h_tables]
    a_mat = np.stack([np.asarray(h, float).ravel() / s
                      for h, s in zip(h_tables, scale_h)])
    b_vec = np.asarray(targets, float) / np.asarray(scale_h)
    aat_inv = np.linalg.inv(a_mat @ a_mat.T)
    floor = floor_frac / (nx * ny)

    def project(v):
        return _project_feasible(v, g_masses, a_mat, b_vec, aat_inv, floor)

    def grad(qq):
        return np.log(np.clip(qq, floor, None) / p_joint) + 1.0

    q = project(g_masses[:, None] * (p_joint / p_joint.sum(axis=1, keepdims=True)))
    fq = discrete_kl(q, p_joint)
    z = q.copy()
    eta, t_mom = 1e-2, 1.0
    best_f, best_q = fq, q.copy()
    for _ in range(iters):
        g_z = grad(z)
        f_z = discrete_kl(np.clip(z, 0, None), p_joint)
        while True:
            qn = project(z - eta * g_z)
            d = qn - z
            fn = discrete_kl(qn, p_joint)
            if fn <= f_z + np.sum(g_z * d) + np.sum(d * d) / (2 * eta) + 1e-15:
                break
            eta *= 0.5
            if eta < 1e-13:
                break
        t_next = (1 + np.sqrt(1 + 4 * t_mom**2)) / 2
        z = qn + ((t_mom - 1) / t_next) * (qn - q)
        if fn > fq:
            z = qn.copy()
            t_next = 1.0
        q, fq, t_mom = qn, fn, t_next
        if fq < best_f:
            best_f, best_q = fq, q.copy()
        eta *= 1.3
    q = project(best_q)
    return q, discrete_kl(q, p_joint)


# ---------------------------------------------------------------------------
# Scalar-multiplier bisection on the monotone moment map
# ---------------------------------------------------------------------------


def bisect_scalar_multiplier(moment_of_lam, target, lo, hi, tol=1e-12,
                             max_iter=200):
    """Bisection for lam with E_lam[h] = target; the map is increasing."""
    f_lo = moment_of_lam(lo) - target
    f_hi = moment_of_lam(hi) - target
    if f_lo > 0 or f_hi < 0:
        raise ValueError("bracket does not straddle the target")
    for _ in range(max_iter):
        mid = (lo + hi) / 2
        if moment_of_lam(mid) - target <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Dense 2-D tensor-trapezoid pricer for the lognormal pipeline
# ---------------------------------------------------------------------------


def price_tilted_lognormal_2d(mu_log, cov_log, lam, strike_tilt, strike_price,
                              discount, g_marginal_pdf, n_x=1500, n_y=1500,
                              width=10.0):
    """Price e^{-D} E[(Y - K2)^+] under the tilted lognormal pair.

    Joint density: g(x) * f(y | x) * exp(lam (y - K1)^+) / Z(x), with
    (log x, log y) Gaussian.  Everything is integrated on a dense log-space
    tensor grid with the trapezoid rule, independent of the engine's
    Gauss-Hermite representation.
    """
    sd_x = np.sqrt(cov_log[0, 0])
    slope = cov_log[1, 0] / cov_log[0, 0]
    cvar = cov_log[1, 1] - cov_log[1, 0] ** 2 / cov_log[0, 0]
    lx = np.linspace(mu_log[0] - width * sd_x, mu_log[0] + width * sd_x, n_x)
    x = np.exp(lx)
    gx = g_marginal_pdf(x) * x  # density in log-x coordinates
    m_y = mu_log[1] + slope * (lx - mu_log[0])
    sd_y = np.sqrt(cvar)
    ly_lo = m_y.min() - width * sd_y
    ly_hi = m_y.max() + width * sd_y
    ly = np.linspace(ly_lo, ly_hi, n_y)
    y = np.exp(ly)
    cond = np.exp(-0.5 * ((ly[None, :] - m_y[:, None]) / sd_y) ** 2) / (
        sd_y * np.sqrt(2 * np.pi)
    )
    tilt = np.exp(lam * np.maximum(y - strike_tilt, 0.0))[None, :]
    z_x = np.trapezoid(cond * tilt, ly, axis=1)
    payoff = np.maximum(y - strike_price, 0.0)[None, :]
    inner = np.trapezoid(cond * tilt * payoff, ly, axis=1) / z_x
    return float(np.exp(-discount) * np.trapezoid(gx * inner, lx))


def tilted_lognormal_moment_2d(mu_log, cov_log, lam, strike_tilt,
                               g_marginal_pdf, n_x=1500, n_y=1500, width=10.0):
    """E_lam[(Y - K1)^+] under the same construction (for bisection)."""
    return price_tilted_lognormal_2d(
        mu_log, cov_log, lam, strike_tilt, strike_tilt, 0.0, g_marginal_pdf,
        n_x=n_x, n_y=n_y, width=width,
    )


# ---------------------------------------------------------------------------
# Misc closed forms
# ---------------------------------------------------------------------------


def gaussian_kl(mean_1, sd_1, mean_2, sd_2) -> float:
    """KL(N(m1, s1^2) || N(m2, s2^2)) in closed form."""
    return float(
        np.log(sd_2 / sd_1) + (sd_1**2 + (mean_1 - mean_2) ** 2) / (2 * sd_2**2) - 0.5
    )


# ---------------------------------------------------------------------------
# Posterior marginal density by per-point adaptive quadrature
# ---------------------------------------------------------------------------


def marginal_density_quad(post, c, s, rel_tol=1e-10):
    """Density of c . (X, Y) at each s under a closed-form posterior.

    One adaptive ``scipy.integrate.quad`` call per point on the mixture
    integral  int phi(s; beta + alpha x, sigma^2) g(x) dx  over the union of
    g's support (a grid's knot range, else its 1e-15 and 1 - 1e-15 quantiles)
    and a 10-sigma kernel window.  g's median and 0.1% / 99.9%
    quantiles (so that a narrow view inside a wide window is found) and the
    knots of a grid view are breakpoints.  Raises if quad reports an error
    above 100 * rel_tol relative.  Needs a scalar X block and a combination
    that depends on both X and Y.
    """
    cond, g = post.conditional, post.marginal
    c = np.asarray(c, dtype=float)
    cx, cy = c[:1], c[1:]
    var = float(cy @ cond.cov @ cy)
    beta = float(cy @ cond.intercept)
    alpha = float(cx[0] + cy @ cond.slope[:, 0])
    sd = np.sqrt(var)
    knots = getattr(g, "knots", None)
    lo, hi = (knots[0], knots[-1]) if knots is not None else g.ppf(np.array([1e-15, 1.0 - 1e-15]))
    bulk = tuple(g.ppf(np.array([1e-3, 0.5, 1.0 - 1e-3]))) + tuple(getattr(g, "knots", ()))

    def kernel(sv, x):
        return np.exp(-0.5 * (sv - beta - alpha * x) ** 2 / var) / np.sqrt(2.0 * np.pi * var)

    out = []
    for sv in np.atleast_1d(np.asarray(s, dtype=float)):
        center = (sv - beta) / alpha
        half = 10.0 * sd / abs(alpha)
        a = min(lo, center - half)
        b = max(hi, center + half)
        marks = (lo, hi, center - half, center, center + half) + bulk
        pts = sorted(set(p for p in marks if a < p < b))
        val, err = integrate.quad(lambda x: kernel(sv, x) * g.pdf(x), a, b, points=pts,
                                  limit=500 + len(pts), epsabs=0.0, epsrel=rel_tol)
        if not np.isfinite(val) or (val > 0 and err > 100 * rel_tol * val):
            raise RuntimeError(f"oracle quad missed relative error {rel_tol} at s={sv}")
        out.append(val)
    return np.array(out)


# ---------------------------------------------------------------------------
# Marginal-density panel sums with padded rows
# ---------------------------------------------------------------------------

# The engine's panel rule as it was before it grouped points by mark count:
# rows sorted by their number of marks, greedily fitted into chunks and padded
# with zero-width panels at the window's right end.  Kept as written.
def panel_sums_padded(g, centers: np.ndarray, h: float, view_marks: np.ndarray, *,
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


# ---------------------------------------------------------------------------
# Convex-hull membership of view targets
# ---------------------------------------------------------------------------


def facet_gauge(h: np.ndarray, c) -> float:
    """Gauge of c in conv(rows of h) about their mean, from raw-coordinate facets.

    Qhull's facets satisfy a . x + b <= 0 inside, so each facet meets the
    ray from the mean m through c at the ratio a . (c - m) / -(a . m + b).
    """
    eq = ConvexHull(h).equations
    m = h.mean(axis=0)
    a, b = eq[:, :-1], eq[:, -1]
    return float(np.max(a @ (np.asarray(c, dtype=float) - m) / -(a @ m + b)))


def hull_gauge_full_lp(h: np.ndarray, c) -> float:
    """Gauge of c about the mean of h from one LP over every standardised point.

    min 1' w subject to z' w = v, w >= 0, with z = (h - mean) / std and v
    the target mapped the same way.
    """
    mean, std = h.mean(axis=0), h.std(axis=0)
    z = (h - mean) / std
    v = (np.asarray(c, dtype=float) - mean) / std
    res = linprog(np.ones(z.shape[0]), A_eq=z.T, b_eq=v, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle full-sample gauge LP failed: {res.message}")
    return float(res.fun)


def hull_gauge_columns(h: np.ndarray, c: np.ndarray, tol: float) -> float:
    """``calibration._hull_gauge`` on the (n, k) point layout: z is (n, k), standardised per column.

    The same column generation, constants and stopping rule: seed points
    from ``z @ directions.T``, LP columns ``z[columns].T``, pricing ``z @ y``
    and the flatness test on the SVD of the C-ordered z.
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


def ray_lp_gauge(h: np.ndarray, c) -> float:
    """Gauge of c about the mean m as 1 / t*, t* = max t with m + t (c - m) in the hull.

    One LP over convex weights w and the step t in raw coordinates:
    maximize t subject to h' w - t (c - m) = m, 1' w = 1, w >= 0.
    """
    n, k = h.shape
    m = h.mean(axis=0)
    d = np.asarray(c, dtype=float) - m
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    a_eq = np.vstack([np.column_stack([h.T, -d]), np.r_[np.ones(n), 0.0]])
    res = linprog(cost, A_eq=a_eq, b_eq=np.r_[m, 1.0], bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle ray LP failed: {res.message}")
    return float(1.0 / res.x[-1])


def padded_probe_class(h: np.ndarray, c, tol: float = 1e-6) -> str:
    """Classify c against conv(rows of h) with one absolute pad, tol * max ptp(h).

    A range test for k = 1, Euclidean facet margins for k <= 3, and beyond
    1 + 2k feasibility LPs (find w >= 0 with h' w = point, 1' w = 1): c
    itself, then c moved by the pad along each axis in both directions.
    The pad makes the class depend on the units of the views.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    k = c.size
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
        worst = float((-(hull.equations[:, :-1] @ c + hull.equations[:, -1])).min())
        if worst > pad:
            return "interior"
        if worst < -pad:
            return "outside"
        return "boundary"

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


# ---------------------------------------------------------------------------
# VaR bootstrap: one full quantile selection per resample
# ---------------------------------------------------------------------------


def _weighted_quantile(values: np.ndarray, q, weights: np.ndarray | None):
    """np.quantile, or np.interp over the sorted midpoint cumulative weights."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if weights is None:
        return np.quantile(values, q)
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w) - 0.5 * w
    cum /= w.sum()
    return np.interp(q, cum, v)


def var_bootstrap_loop(returns: np.ndarray, q, weights: np.ndarray | None,
                       n_boot: int, boot_seed: int):
    """Quantiles of the returns and of ``n_boot`` resamples, each built and sorted.

    Returns ``(point, boot)``: the batch's quantiles at ``q`` and an
    ``(n_boot, len(q))`` array, resample b being the rows
    ``rng.integers(0, n, n)`` of the b-th draw from ``default_rng(boot_seed)``.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    n = returns.size
    point = _weighted_quantile(returns, q, weights)
    rng = np.random.default_rng(boot_seed)
    boot = np.empty((n_boot, q.size))
    for b in range(n_boot):
        idx = rng.integers(0, n, n)
        bw = None if weights is None else weights[idx]
        boot[b] = _weighted_quantile(returns[idx], q, bw)
    return point, boot


def bootstrap_resamples_sorted(returns: np.ndarray, n_boot: int, boot_seed: int) -> np.ndarray:
    """``var_bootstrap_loop``'s unweighted resamples, each sorted: shape (n_boot, n).

    Resample b is the rows ``rng.integers(0, n, n)`` of the b-th draw from
    ``default_rng(boot_seed)``; column k holds every resample's k-th order
    statistic.
    """
    n = returns.size
    rng = np.random.default_rng(boot_seed)
    return np.sort(np.stack([returns[rng.integers(0, n, n)] for _ in range(n_boot)]), axis=1)


# ---------------------------------------------------------------------------
# Report CSV files
# ---------------------------------------------------------------------------


def write_csv_per_cell(path, header, rows, stamp: str):
    """A report CSV: the stamp line, then every row through ``csv.writer``, each
    cell formatted alone by ``format(float(x), ".17g")``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# generated {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(cell), ".17g") for cell in row])


def write_json_streaming(path, payload: dict):
    """A JSON report as ``json.dump`` streams it: arrays and numpy floats made plain
    by a JSON round trip, then sorted keys, indent 2 and a final newline."""
    def default(obj):
        if isinstance(obj, np.ndarray):
            return [default(v) for v in obj.tolist()]
        if isinstance(obj, (np.floating, float)):
            return float(obj)
        return obj

    canon = json.loads(json.dumps(payload, default=default))
    with open(path, "w") as fh:
        json.dump(canon, fh, indent=2, sort_keys=True)
        fh.write("\n")
