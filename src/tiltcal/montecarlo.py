"""Posterior sampling, value-at-risk estimation and option pricing.

Each posterior draws and prices itself (``draw``, ``draw_portfolio`` and
``price``); this module maps its draws back to factor coordinates, projects
them on a portfolio and discounts its prices.  Generation is partitioned
into independently seeded streams so chunked or parallel generation
reproduces the same batch for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calibration import _streams
from .errors import InsufficientSamples

__all__ = [
    "SampleBatch",
    "sample_posterior",
    "sample_portfolio",
    "VarReport",
    "estimate_var",
    "estimate_portfolio_var",
    "PriceReport",
    "price_option",
]

_N_BOOT = 200  # bootstrap resamples behind a VaR report's standard errors
_BOOT_SEED = 7  # seed of their generator


@dataclass(frozen=True)
class SampleBatch:
    """Posterior draws in original factor coordinates.

    ``weights`` is None for exact draws, which every Gaussian prior with
    coordinate views and declared calls and puts gives, and a mean-one
    nonnegative vector for importance-sampled ones: a ``GenericPrior`` or
    payoff views that are undeclared callables.
    """

    z_samples: np.ndarray
    seed: int
    weights: np.ndarray | None = None

    def __post_init__(self):
        z = np.asarray(self.z_samples, dtype=float)
        object.__setattr__(self, "z_samples", z)
        if not np.all(np.isfinite(z)):
            raise ValueError("samples must be finite")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (z.shape[0],) or not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValueError("weights must be finite and nonnegative, one per sample")
            if abs(w.mean() - 1.0) > 1e-12:
                raise ValueError("weights must be mean-normalized to 1")
            object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.z_samples.shape[0]

    @property
    def ess(self) -> float:
        """Kish's effective sample size (sum w)^2 / sum w^2; n for an exact batch."""
        return _kish(self.n, self.weights)


def _kish(n: int, weights: np.ndarray | None) -> float:
    """Kish's effective sample size of n draws with these weights; n when there are none."""
    return n if weights is None else weights.sum() ** 2 / (weights**2).sum()


def sample_posterior(post, n: int, seed: int = 0) -> SampleBatch:
    """Draw ``n`` (at least 1) posterior samples, mapped back to original coordinates.

    ``calibration._streams`` gives the draws in view coordinates and their
    log-weights: None for exact draws, else importance weights, which the
    batch reports normalised to mean one over its n draws.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    chunks, logw = [], []
    for xy, log_w in _streams(post.draw, n, seed):
        chunks.append(post.view_map.invert(xy))
        logw.append(log_w)
        del xy  # invert copied it unless the map is the identity: free it before the next draw
    return SampleBatch(np.vstack(chunks), seed, weights=_mean_one(logw))


def sample_portfolio(post, portfolio_weights, n: int,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """``n`` (at least 1) posterior draws of the portfolio return w . Z, and their weights.

    w . Z = c . (X, Y) for c = V^-T w, and each posterior draws that
    combination itself (``draw_portfolio``) over the streams of
    ``sample_posterior``: the same ``SeedSequence`` children and chunks, so
    the first m returns are the same for every n >= m.  A Gaussian-conditional
    posterior draws one normal per row after X, never Y; a tilted one
    projects its (X, Y) draws.  w, and so c, enter divided by a power of two
    near max |w| and the returns are multiplied back, which changes no bit
    unless a step would overflow or go subnormal: the conditional variance
    c_y' cov c_y then overflows only where the returns do.  Returns that
    overflow come back inf or NaN, with no warning, for the caller to reject;
    a draw of (X, Y) or X that is not finite is a ValueError, as in
    ``SampleBatch``.  The weights are None for exact draws, else importance
    weights normalised to mean one.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    w = np.asarray(portfolio_weights, dtype=float)
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(w), initial=0.0))[1])
    c = (w / scale) @ post.view_map.inverse
    returns, logw, start = np.empty(n), [], 0
    for r, log_w in _streams(partial(post.draw_portfolio, c), n, seed):
        returns[start:start + r.size] = r
        start += r.size
        logw.append(log_w)
        del r  # free the chunk before the next draw
    with np.errstate(over="ignore", invalid="ignore"):
        returns *= scale
    return returns, _mean_one(logw)


def _mean_one(logw: list) -> np.ndarray | None:
    """The streams' importance weights exp(log w - max) over all n draws, normalised to
    mean one; None for exact draws, whose log-weights are None.  A NaN or +inf
    log-weight is a ValueError."""
    if logw[0] is None:
        return None
    log_weights = np.concatenate(logw)
    w = np.exp(log_weights - log_weights.max())
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative, one per sample")
    return w / w.mean()


@dataclass(frozen=True)
class VarReport:
    """Value-at-risk profile with bootstrap standard errors."""

    levels: tuple[float, ...]
    var_values: np.ndarray
    notional: float
    n_samples: int
    std_errors: np.ndarray

    def as_rows(self):
        return list(zip(self.levels, self.var_values, self.std_errors))


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """numpy's default ('linear') quantile between order statistics a <= b at fraction t."""
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _count_quantiles(v: np.ndarray, w: np.ndarray, counts: np.ndarray,
                     q: np.ndarray) -> np.ndarray:
    """Weighted quantiles at ``q`` of the sample holding ``counts[i]`` copies of ``v[i]``.

    ``v`` is sorted ascending and ``w`` holds the per-copy weights in the same
    order.  The expanded sorted sample is never built; its cumulative
    weights are read off the cumulative counts by binary search.  The
    quantile is ``np.interp(q * total, knots, values)`` over the expanded
    sample with each copy's knot at the midpoint of its cumulative weight:
    a value with c copies of weight w spans the knots start + w/2 ..
    end - w/2 and is joined linearly to the neighbouring present values.
    """
    n_le = np.cumsum(counts)  # copies with rank <= i
    m = n_le[-1]
    mass = np.cumsum(counts * w)
    if mass[-1] == 0.0:  # every draw has zero weight: no quantile
        return np.full(q.shape, np.nan)
    t = q * mass[-1]
    k = np.searchsorted(mass, t)  # the copies of v[k] cover t; w[k] > 0
    start = np.where(k > 0, mass[k - 1], 0.0)
    end = mass[k]
    left, right = start + w[k] / 2, end - w[k] / 2
    n_before, n_through = n_le[k] - counts[k], n_le[k]
    prev = np.searchsorted(n_le, n_before)  # last present value below v[k]
    nxt = np.minimum(np.searchsorted(n_le, n_through, side="right"), v.size - 1)
    below = t < left
    interp = np.where(below, n_before > 0, (t > right) & (n_through < m))
    x0 = np.where(below, start - w[prev] / 2, right)
    x1 = np.where(below, left, end + w[nxt] / 2)
    y0 = np.where(below, v[prev], v[k])
    y1 = np.where(below, v[k], v[nxt])
    slope = np.divide(y1 - y0, x1 - x0, out=np.zeros_like(t), where=interp)
    return np.where(interp, slope * (t - x0) + y0, v[k])


def _resample_ranks(n: int, ks: np.ndarray, n_boot: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Ranks in the sorted batch of order statistics ``ks`` of ``n_boot`` resamples.

    ``ks`` is ascending.  A resample's k-th order statistic (0-based) is
    row floor(n U_(k+1)) of the sorted batch, U_(j) the j-th of n uniform
    order statistics; they are drawn in order, all resamples at once, by
    U_(k+1) = U_(k'+1) + (1 - U_(k'+1)) Beta(k - k', n - k) from the previous
    k' (U_(0) = 0).  Returns shape (n_boot, ks.size).
    """
    ranks = np.empty((n_boot, ks.size), dtype=np.intp)
    u, prev = np.zeros(n_boot), -1
    for j, k in enumerate(ks):
        u += (1.0 - u) * rng.beta(k - prev, n - k, n_boot)
        ranks[:, j] = np.minimum(np.floor(n * u).astype(np.intp), n - 1)
        prev = k
    return ranks


def _bootstrap_quantiles(returns: np.ndarray, weights: np.ndarray | None,
                         q: np.ndarray, n_boot: int, boot_seed: int) -> np.ndarray:
    """Quantiles of the returns (row 0) and of ``n_boot`` bootstrap resamples.

    The returns are sorted once and every generator is
    ``default_rng(boot_seed)``.  Unweighted, only the sorted values are read,
    so they come from ``np.sort``.  It may put tied -0.0 and +0.0 in either
    order, where a stable sort keeps their row order; the quantiles then
    compare equal to the stable sort's, but a zero quantile may carry the
    other sign.  A quantile reads the two order statistics around (n - 1) q,
    and a resample's are drawn straight from their exact joint law
    (``_resample_ranks``): the resamples then cost O(n_boot) per order
    statistic, not O(n) each.  Weighted (only a ``GenericPrior`` or an
    undeclared payoff gives weights), a quantile depends on every row's
    weight, so the sort is a stable argsort (tied returns keep their row
    order, and so their weights) and resample b is the rows
    ``rng.integers(0, n, n)``, the b-th such draw, entering as the count of
    draws per rank.
    """
    n = returns.size
    rng = np.random.default_rng(boot_seed)
    out = np.empty((n_boot + 1, q.size))
    if weights is None:
        v = np.sort(returns)
        pos = (n - 1) * q
        lo = np.minimum(np.floor(pos).astype(np.intp), n - 1)
        hi = np.minimum(lo + 1, n - 1)
        t = pos - lo
        out[0] = _lerp(v[lo], v[hi], t)
        ks = np.union1d(lo, hi)
        ranks = _resample_ranks(n, ks, n_boot, rng)
        out[1:] = _lerp(v[ranks[:, np.searchsorted(ks, lo)]],
                        v[ranks[:, np.searchsorted(ks, hi)]], t)
        return out
    order = np.argsort(returns, kind="stable")
    v = returns[order]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    w = weights[order]
    out[0] = _count_quantiles(v, w, np.ones(n, dtype=np.intp), q)
    for b in range(1, n_boot + 1):
        counts = np.bincount(rank[rng.integers(0, n, n)], minlength=n)
        out[b] = _count_quantiles(v, w, counts, q)
    return out


def estimate_var(batch: SampleBatch, portfolio_weights, notional: float,
                 levels) -> VarReport:
    """Value-at-risk of a portfolio from a posterior sample batch.

    The reported figure at confidence q is the upper q-quantile of the
    portfolio return distribution times the notional, a positive amount for
    any level above the return median: numpy's default ('linear') quantile
    for an exact batch, the interpolated midpoint-weight quantile for an
    importance-weighted one.  Standard errors come from ``_N_BOOT`` bootstrap
    resamples of the batch, drawn from ``default_rng(_BOOT_SEED)``
    (``_bootstrap_quantiles``).  The returns are sorted once.  An exact
    batch's resamples draw only the order statistics its quantiles read,
    from their exact joint law, so they cost no work linear in n.  An
    importance-weighted batch (from a ``GenericPrior`` or undeclared payoffs;
    declared calls and puts on a Gaussian prior draw exactly) resamples the
    rows ``rng.integers(0, n, n)``, each read from its per-rank draw counts
    in time linear in n with no sort.  Raises InsufficientSamples when fewer
    than 20 samples are expected beyond some level, in the nearer tail
    (ess * min(q, 1 - q)), counting a batch by its Kish effective sample size
    ``batch.ess``.
    """
    def returns_of(w):
        with np.errstate(over="ignore", invalid="ignore"):
            return batch.z_samples @ w, batch.weights

    return _var_report(returns_of, batch.z_samples.shape[1], portfolio_weights, notional, levels)


def estimate_portfolio_var(post, portfolio_weights, notional: float, levels, n: int,
                           seed: int = 0) -> VarReport:
    """Value-at-risk of a portfolio from ``n`` posterior draws of its return alone.

    As ``estimate_var`` (the same checks, tail floor and bootstrap), but the
    returns w . Z come from ``sample_portfolio(post, w, n, seed)``, the law
    of w . Z drawn one-dimensionally, not from ``sample_posterior``'s full
    factor draws, so the figures differ from ``estimate_var``'s within Monte
    Carlo error.  The weights are checked before anything is drawn.
    """
    return _var_report(lambda w: sample_portfolio(post, w, n, seed), post.view_map.n,
                       portfolio_weights, notional, levels)


def _var_report(returns_of, n_factors: int, portfolio_weights, notional: float,
                levels) -> VarReport:
    """The VaR profile of the returns ``returns_of(w)`` gives for the checked weights w.

    ``returns_of`` returns the portfolio returns and their mean-one weights
    (None for exact draws); where the returns overflow it leaves them inf or
    NaN without a warning, and a non-finite return is then a ValueError, as
    is a VaR or standard error that overflows once scaled by the notional.
    The arguments are checked first, the tail floor on the Kish effective
    sample size after the draws.
    """
    w = np.asarray(portfolio_weights, dtype=float)
    if w.size != n_factors:
        raise ValueError("portfolio weights length must match factor count")
    if not np.all(np.isfinite(w)):
        raise ValueError("portfolio weights must be finite")
    if not math.isfinite(notional):
        raise ValueError("notional must be finite")
    levels = tuple(float(q) for q in levels)
    if any(not 0.0 < q < 1.0 for q in levels):
        raise ValueError("levels must lie in (0, 1)")
    returns, weights = returns_of(w)
    n = returns.size
    ess = _kish(n, weights)
    worst = min(ess * min(q, 1.0 - q) for q in levels)
    if worst < 20:
        raise InsufficientSamples(
            f"only {worst:.1f} expected tail samples beyond the extreme level "
            f"(effective sample size {ess:.1f}); need >= 20"
        )
    if not np.all(np.isfinite(returns)):
        raise ValueError("portfolio returns overflow; samples or weights too large")
    quantiles = _bootstrap_quantiles(returns, weights, np.array(levels), _N_BOOT, _BOOT_SEED)
    with np.errstate(over="ignore", invalid="ignore"):
        var_values = quantiles[0] * notional
        std_errors = quantiles[1:].std(axis=0, ddof=1) * notional
    if not (np.all(np.isfinite(var_values)) and np.all(np.isfinite(std_errors))):
        raise ValueError("VaR or its standard error overflows; notional or returns too large")
    return VarReport(levels, var_values, float(notional), n, std_errors)


@dataclass(frozen=True)
class PriceReport:
    """Discounted posterior expectation of a payoff."""

    price: float
    std_error: float | None
    method: str


def price_option(post, payoff, discount: float, *, n_samples: int = 200_000,
                 seed: int = 0) -> PriceReport:
    """Price a payoff under the calibrated model.

    ``payoff(x, y)`` is vectorized over view coordinates.  ``post.price``
    gives the undiscounted value, its standard error (None on a node tensor)
    and method; Monte Carlo uses ``n_samples`` draws from ``seed``.  Raises
    ValueError when ``n_samples`` is below 1, and when the discounted price
    or standard error is not finite.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    value, std_error, method = post.price(payoff, n_samples, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        disc = np.exp(-discount)
        price = float(disc * value)
        std_error = None if std_error is None else float(disc * std_error)
    if not math.isfinite(price) or std_error is not None and not math.isfinite(std_error):
        raise ValueError("discounted price or standard error overflows; discount too negative")
    return PriceReport(price, std_error, method)
