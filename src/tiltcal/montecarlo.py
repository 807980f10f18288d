"""Posterior sampling, value-at-risk estimation and option pricing.

Sampling follows the posterior's product structure: draw X from the
marginal view by inverse CDF, then Y from the (tilted) conditional.
Generation is partitioned into independently seeded streams so chunked or
parallel generation reproduces the same batch for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import resolve_posterior
from .calibration import TiltedPosterior, _draw_x, _row_logsumexp, _view_tensor, conditional_law
from .errors import (
    InsufficientSamples,
    NonIntegrablePayoff,
    NonSampleableConditional,
    QuadratureFailure,
)

__all__ = [
    "SampleBatch",
    "sample_posterior",
    "VarReport",
    "estimate_var",
    "PriceReport",
    "price_option",
]

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SampleBatch:
    """Posterior draws in original factor coordinates.

    ``weights`` is None for exact draws and a mean-one nonnegative vector
    for importance-sampled generic posteriors.
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


def _stream_rngs(seed: int, n: int):
    """Independently seeded generator per fixed-size chunk.

    Every stream always generates a full chunk (callers truncate), so the
    first m samples are identical for any two runs with n >= m and the
    chunks can be generated in parallel or serially with the same result.
    """
    n_chunks = max((n + _CHUNK - 1) // _CHUNK, 1)
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    return [(np.random.default_rng(c), _CHUNK) for c in children]


def sample_posterior(post, n: int, seed: int = 0, *, n_y: int = 64) -> SampleBatch:
    """Draw ``n`` posterior samples, mapped back to original coordinates.

    Gaussian-conditional posteriors are sampled exactly; generic tilted
    posteriors are importance-sampled from the prior conditional with
    weights exp(lam . h - log Z(x)), reported in the batch.
    """
    post = resolve_posterior(post)
    if isinstance(post, TiltedPosterior):
        return _sample_tilted(post, n, seed, n_y)
    chunks = [_to_factors(post.view_map, post.sample_xy(m, rng))
              for rng, m in _stream_rngs(seed, n)]
    return SampleBatch(np.vstack(chunks)[:n], seed)


def _to_factors(view_map, xy: np.ndarray) -> np.ndarray:
    """Map draws in view coordinates back to original factor coordinates."""
    if np.allclose(view_map.matrix, np.eye(view_map.n)):
        return xy
    return view_map.invert(xy)


def _sample_tilted(post: TiltedPosterior, n: int, seed: int, n_y: int) -> SampleBatch:
    law = conditional_law(post.prior, post.views)
    views, lam = post.views, post.lam
    chunks, logw = [], []
    for rng, m in _stream_rngs(seed, n):
        x = _draw_x(views.marginal, views.k1, m, rng)
        y = law.sample(x, rng)
        nodes, log_w = _bounded_rule(law, x, n_y)
        scores = np.einsum("k,knj->nj", lam, _view_tensor(views.moments, x[:, None, :], nodes))
        scores += log_w
        logw.append(lam @ _view_tensor(views.moments, x, y) - _row_logsumexp(scores))
        chunks.append(_to_factors(views.view_map, np.column_stack([x, y])))
    log_weights = np.concatenate(logw)
    w = np.exp(log_weights - log_weights.max())[:n]
    return SampleBatch(np.vstack(chunks)[:n], seed, weights=w / w.mean())


def _bounded_rule(law, x: np.ndarray, n_y: int):
    """The law's rule at x, refused (after a one-draw probe) beyond n_y nodes per draw.

    A Gaussian tensor rule over d > 1 conditional dimensions (n_y^d nodes,
    none for d > 3) would not fit in memory for a chunk of draws.
    """
    try:
        fits = law.rule(x[:1], n_y)[0].shape[1] <= n_y
    except QuadratureFailure:  # no tensor rule beyond three dimensions
        fits = False
    if not fits:
        raise NonSampleableConditional(
            "importance sampling of payoff-calibrated Gaussian posteriors "
            "supports one conditional dimension"
        )
    return law.rule(x, n_y)


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


def _count_quantiles(v: np.ndarray, w: np.ndarray | None, counts: np.ndarray,
                     q: np.ndarray) -> np.ndarray:
    """Quantiles at ``q`` of the sample holding ``counts[i]`` copies of ``v[i]``.

    ``v`` is sorted ascending and ``w`` (None when unweighted) holds the
    per-copy weights in the same order.  The expanded sorted sample is never
    built; its order statistics and cumulative weights are read off the
    cumulative counts by binary search.

    Unweighted, this is numpy's default ('linear') quantile: the two order
    statistics around (m - 1) q, m = counts.sum(), combined by numpy's lerp.
    Weighted, it is ``np.interp(q * total, knots, values)`` over the expanded
    sample with each copy's knot at the midpoint of its cumulative weight:
    a value with c copies of weight w spans the knots start + w/2 ..
    end - w/2 and is joined linearly to the neighbouring present values.
    """
    n_le = np.cumsum(counts)  # copies with rank <= i
    m = n_le[-1]
    if w is None:
        pos = (m - 1) * q
        lo = np.minimum(np.floor(pos).astype(np.intp), m - 1)
        hi = np.minimum(lo + 1, m - 1)
        a = v[np.searchsorted(n_le, lo, side="right")]
        b = v[np.searchsorted(n_le, hi, side="right")]
        t = pos - lo
        diff = b - a
        return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
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


def _bootstrap_quantiles(returns: np.ndarray, weights: np.ndarray | None,
                         q: np.ndarray, n_boot: int, boot_seed: int) -> np.ndarray:
    """Quantiles of the returns (row 0) and of ``n_boot`` bootstrap resamples.

    The returns are sorted once (stably, so tied returns keep their row
    order).  Resample b is the rows ``rng.integers(0, n, n)``, the b-th such
    draw from ``default_rng(boot_seed)``; it enters only as the count of
    draws per rank.
    """
    n = returns.size
    order = np.argsort(returns, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    v = returns[order]
    w = None if weights is None else weights[order]
    rng = np.random.default_rng(boot_seed)
    out = np.empty((n_boot + 1, q.size))
    out[0] = _count_quantiles(v, w, np.ones(n, dtype=np.intp), q)
    for b in range(1, n_boot + 1):
        counts = np.bincount(rank[rng.integers(0, n, n)], minlength=n)
        out[b] = _count_quantiles(v, w, counts, q)
    return out


def estimate_var(batch: SampleBatch, portfolio_weights, notional: float,
                 levels, *, n_boot: int = 200, boot_seed: int = 7) -> VarReport:
    """Value-at-risk of a portfolio from a posterior sample batch.

    The reported figure at confidence q is the upper q-quantile of the
    portfolio return distribution times the notional, a positive amount for
    any level above the return median: numpy's default ('linear') quantile
    for an exact batch, the interpolated midpoint-weight quantile for an
    importance-weighted one.  Standard errors come from ``n_boot`` bootstrap
    resamples of the batch, the row draws ``rng.integers(0, n, n)`` of
    ``default_rng(boot_seed)``.  The returns are sorted once and each
    resample's quantiles are read from its per-rank draw counts, so the
    cost per resample is linear in n with no sort.  Raises
    InsufficientSamples when fewer than 20 samples are expected beyond some
    level, counting an importance-weighted batch by its Kish effective
    sample size (sum w)^2 / sum w^2 (n for an exact batch).
    """
    w = np.asarray(portfolio_weights, dtype=float)
    if w.size != batch.z_samples.shape[1]:
        raise ValueError("portfolio weights length must match factor count")
    if not np.all(np.isfinite(w)):
        raise ValueError("portfolio weights must be finite")
    if not math.isfinite(notional):
        raise ValueError("notional must be finite")
    if n_boot < 2:
        raise ValueError("n_boot must be at least 2 for a standard error")
    levels = tuple(float(q) for q in levels)
    if any(not 0.0 < q < 1.0 for q in levels):
        raise ValueError("levels must lie in (0, 1)")
    n = batch.n
    ess = n if batch.weights is None else batch.weights.sum() ** 2 / (batch.weights**2).sum()
    worst = min(ess * (1.0 - q) for q in levels)
    if worst < 20:
        raise InsufficientSamples(
            f"only {worst:.1f} expected tail samples beyond the extreme level "
            f"(effective sample size {ess:.1f}); need >= 20"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        returns = batch.z_samples @ w
    if not np.all(np.isfinite(returns)):
        raise ValueError("portfolio returns overflow; samples or weights too large")
    quantiles = _bootstrap_quantiles(returns, batch.weights, np.array(levels),
                                     n_boot, boot_seed)
    var_values = quantiles[0] * notional
    std_errors = quantiles[1:].std(axis=0, ddof=1) * notional
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

    ``payoff(x, y)`` is vectorized over view coordinates.  Quadrature-backed
    posteriors are priced on their node tensors; Gaussian-conditional
    posteriors by Monte Carlo with a standard error.
    """
    post = resolve_posterior(post)
    if isinstance(post, TiltedPosterior):
        return PriceReport(float(np.exp(-discount) * post.expectation(payoff)), None,
                           "quadrature")
    k1 = post.k1
    sums, sq_sums = [], []
    count = 0
    for rng, m in _stream_rngs(seed, n_samples):
        take = min(m, n_samples - count)
        xy = post.sample_xy(m, rng)[:take]
        vals = np.asarray(payoff(xy[:, :k1], xy[:, k1:]), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonIntegrablePayoff("payoff is not finite on sampled support")
        sums.append(float(vals.sum()))
        sq_sums.append(float((vals**2).sum()))
        count += take
    # per-stream subtotals reduce via compensated summation, so the result
    # is independent of chunk evaluation order
    mean = math.fsum(sums) / count
    var = max(math.fsum(sq_sums) / count - mean**2, 0.0)
    disc = np.exp(-discount)
    return PriceReport(disc * mean, disc * np.sqrt(var / count), "monte-carlo")
