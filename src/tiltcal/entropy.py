"""Relative-entropy (KL divergence) diagnostics between calibrated and prior models."""

from __future__ import annotations

import numpy as np

from .densities import _trapezoid_weights
from .errors import DivergentEntropy

__all__ = ["relative_entropy"]

# Node mass below this cannot move the estimate at documented precision, so
# it neither contributes to the integral nor certifies a divergence.
_MASS_FLOOR = 1e-20
# A plain denominator pdf of 0 may be an underflow (below ~1e-308) rather than
# a true zero.  Numerator mass on such nodes certifies a divergence only above
# this total: below it, even a density ratio of e^1000 there moves the
# estimate by less than 1e-12, and the nodes are left out.
_UNDERFLOW_MASS = 1e-15


def relative_entropy(numerator_pdf, denominator_pdf, *, grid=None, samples=None,
                     log_densities: bool = False) -> float:
    """KL divergence D(nu || mu) = E_nu[log(d nu / d mu)].

    Exactly one integration scheme must be supplied:

    - ``grid``: a tuple of one or two 1-D knot arrays defining a tensor
      quadrature grid (trapezoid rule), for problems of dimension <= 2;
    - ``samples``: draws from the numerator law, shape (n,) or (n, d),
      giving the importance-sampling estimate mean(log ratio).

    With ``log_densities=True`` the two callables return log densities,
    which keeps far-tail ratios meaningful where plain densities would
    underflow.  Raises DivergentEntropy when the numerator carries mass
    where the denominator vanishes; with plain densities, a denominator that
    is 0 under less than 1e-15 of numerator mass is read as an underflow and
    those nodes are left out.  The estimate can be slightly negative from
    discretization error but is bounded below by -(tolerance).
    """
    if (grid is None) == (samples is None):
        raise ValueError("supply exactly one of grid= or samples=")

    if samples is not None:
        pts = np.asarray(samples, dtype=float)
        log_p, log_q = _log_values(numerator_pdf, denominator_pdf, pts, log_densities)
        if np.any(np.isfinite(log_p) & np.isneginf(log_q)):
            raise DivergentEntropy("numerator has mass where denominator vanishes")
        keep = np.isfinite(log_p)
        # draws land in {p > 0} almost surely; zero-density points contribute 0
        return float(np.sum(log_p[keep] - log_q[keep]) / pts.shape[0])

    axes = tuple(np.asarray(a, dtype=float) for a in grid)
    if len(axes) == 1:
        mesh = axes[0]
        weights = _trapezoid_weights(axes[0])
    elif len(axes) == 2:
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        mesh = np.column_stack([gx.ravel(), gy.ravel()])
        weights = np.outer(_trapezoid_weights(axes[0]), _trapezoid_weights(axes[1])).ravel()
    else:
        raise ValueError("grid quadrature supports at most two dimensions")

    log_p, log_q = _log_values(numerator_pdf, denominator_pdf, mesh, log_densities)
    log_p, log_q = log_p.ravel(), log_q.ravel()
    mass = np.where(np.isfinite(log_p), np.exp(log_p), 0.0) * weights
    has_mass = mass > _MASS_FLOOR
    vanishes = has_mass & np.isneginf(log_q)
    if np.any(vanishes):
        if log_densities or mass[vanishes].sum() > _UNDERFLOW_MASS:
            raise DivergentEntropy("numerator has mass where denominator vanishes")
        has_mass &= ~vanishes
    p = np.exp(log_p[has_mass])
    return float(np.sum(weights[has_mass] * p * (log_p[has_mass] - log_q[has_mass])))


def _log_values(numerator, denominator, pts, log_densities):
    p = np.asarray(numerator(pts), dtype=float)
    q = np.asarray(denominator(pts), dtype=float)
    if log_densities:
        return p, q
    with np.errstate(divide="ignore"):
        return np.log(p), np.log(q)
