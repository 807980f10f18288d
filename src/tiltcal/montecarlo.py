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
from .calibration import TiltedPosterior, _draw_x, _row_logsumexp, _view_tensor
from .errors import (
    InsufficientSamples,
    NonIntegrablePayoff,
    NonSampleableConditional,
)
from .priors import GenericPrior

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


def _conditional_rule(post: TiltedPosterior, n_y: int):
    """Sampler of the prior conditional and its (nodes, log-weights) rule at x."""
    prior = post.prior
    if isinstance(prior, GenericPrior):
        if prior.conditional_sampler is None or prior.conditional_quadrature is None:
            raise NonSampleableConditional(
                "generic posterior sampling needs conditional_sampler and "
                "conditional_quadrature (for the normalizer)"
            )

        def generic_rule(x):
            nodes, weights = prior.conditional_quadrature(x, n_y)
            nodes = np.asarray(nodes, dtype=float)
            with np.errstate(divide="ignore"):
                log_w = np.log(np.asarray(weights, dtype=float))
            return (nodes if nodes.ndim == 3 else nodes[:, :, None]), log_w

        return prior.conditional_sampler, generic_rule
    cond = getattr(post.problem, "conditional", None)
    if cond is None or cond.y_dim != 1:
        raise NonSampleableConditional(
            "importance sampling of payoff-calibrated Gaussian posteriors "
            "supports one conditional dimension"
        )
    offsets, weights = cond.hermite_rule(n_y)
    log_w = np.log(weights)
    return cond.sample, lambda x: (cond.mean(x)[:, None, :] + offsets, log_w)


def _sample_tilted(post: TiltedPosterior, n: int, seed: int, n_y: int) -> SampleBatch:
    sampler, rule = _conditional_rule(post, n_y)
    views, lam = post.views, post.lam
    chunks, logw = [], []
    for rng, m in _stream_rngs(seed, n):
        x = _draw_x(views.marginal, views.k1, m, rng)
        y = np.asarray(sampler(x, rng), dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        nodes, log_w = rule(x)
        scores = np.einsum("k,knj->nj", lam, _view_tensor(views.moments, x[:, None, :], nodes))
        scores += log_w
        logw.append(lam @ _view_tensor(views.moments, x, y) - _row_logsumexp(scores))
        chunks.append(_to_factors(views.view_map, np.column_stack([x, y])))
    log_weights = np.concatenate(logw)
    w = np.exp(log_weights - log_weights.max())[:n]
    return SampleBatch(np.vstack(chunks)[:n], seed, weights=w / w.mean())


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


def _weighted_quantile(values: np.ndarray, q, weights: np.ndarray | None):
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if weights is None:
        return np.quantile(values, q)
    order = np.argsort(values)
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w) - 0.5 * w
    cum /= w.sum()
    return np.interp(q, cum, v)


def estimate_var(batch: SampleBatch, portfolio_weights, notional: float,
                 levels, *, n_boot: int = 200, boot_seed: int = 7) -> VarReport:
    """Value-at-risk of a portfolio from a posterior sample batch.

    The reported figure at confidence q is the upper q-quantile of the
    portfolio return distribution times the notional, a positive amount for
    any level above the return median.  Standard errors come from ``n_boot``
    bootstrap resamples of the batch.
    """
    w = np.asarray(portfolio_weights, dtype=float)
    if w.size != batch.z_samples.shape[1]:
        raise ValueError("portfolio weights length must match factor count")
    levels = tuple(float(q) for q in levels)
    if any(not 0.0 < q < 1.0 for q in levels):
        raise ValueError("levels must lie in (0, 1)")
    n = batch.n
    worst = min(n * (1.0 - q) for q in levels)
    if worst < 20:
        raise InsufficientSamples(
            f"only {worst:.1f} expected tail samples beyond the extreme level; need >= 20"
        )
    returns = batch.z_samples @ w
    q_arr = np.array(levels)
    var_values = _weighted_quantile(returns, q_arr, batch.weights) * notional
    rng = np.random.default_rng(boot_seed)
    boot = np.empty((n_boot, q_arr.size))
    for b in range(n_boot):
        idx = rng.integers(0, n, n)
        bw = None if batch.weights is None else batch.weights[idx]
        boot[b] = _weighted_quantile(returns[idx], q_arr, bw)
    std_errors = boot.std(axis=0, ddof=1) * notional
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
