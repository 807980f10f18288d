"""Tail admissibility checks and the posterior tail-ratio probe.

When the marginal view g is regularly varying with index alpha and the
viewed portfolio X has nonzero prior covariance with a coordinate Y_i, the
posterior marginal of Y_i inherits the power tail:

    f_post_Yi(s) / g(s)  ->  (sigma_xy / sigma_xx)^(alpha - 1)   as s -> inf.

The probe evaluates that ratio on a geometric schedule of tail points and
reports convergence to the theoretical limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import posterior_marginal_y1
from .calibration import GaussianMarginalPosterior
from .errors import ZeroCorrelation

__all__ = ["TailReport", "check_assumption", "tail_ratio_probe"]


@dataclass(frozen=True)
class TailReport:
    """Measured posterior/view tail ratios against the theoretical limit."""

    alpha: float
    target_ratio: float
    probe_points: np.ndarray
    measured_ratios: np.ndarray
    converged: bool


def check_assumption(g) -> str:
    """Classify a marginal view for regular variation: its kind's ``tail_class``.

    Student-t densities are regularly varying with tail index df + 1 and
    satisfy the dominating-function bound; Gaussian tails decay faster than
    any power (inadmissible); a finite grid cannot certify a tail law.
    """
    return g.tail_class


def _probe_points(g, s_max: float | None, n_points: int) -> np.ndarray:
    """n_points of loc + scale * 2^j, j = 2, 3, ..., capped at s_max when given.

    ValueError without a view (k1 = 0), for a view that is not admissible,
    or when s_max excludes every point.
    """
    if g is None:
        raise ValueError("tail analysis is defined for a scalar X block only")
    status = check_assumption(g)
    if status != "admissible":
        raise ValueError(f"marginal view is {status}; tail index unavailable")
    points = float(g.loc) + float(g.scale) * 2.0 ** np.arange(2, 2 + n_points)
    if s_max is not None:
        points = points[points <= s_max]
        if points.size == 0:
            raise ValueError("s_max excludes every probe point")
    return points


def tail_ratio_probe(post: GaussianMarginalPosterior, coord: int = 0,
                     s_max: float | None = None, n_points: int = 10,
                     rel_band: float = 0.05) -> TailReport:
    """Probe convergence of the posterior Y-coordinate tail to its limit.

    Points follow the geometric schedule loc + scale * 2^j, j = 2, 3, ...
    (n_points of them, capped at s_max when given).  Requires a scalar X
    block, an admissible marginal view, and positive prior covariance
    between X and the probed coordinate.
    """
    g = post.marginal
    points = _probe_points(g, s_max, n_points)
    alpha = float(g.tail_index)
    cov_t = post.prior_t.covariance
    sigma_xx = float(cov_t[0, 0])
    sigma_xy = float(cov_t[0, 1 + coord])
    if abs(sigma_xy) <= 1e-14 * np.sqrt(sigma_xx * cov_t[1 + coord, 1 + coord]):
        raise ZeroCorrelation(
            "probed coordinate has zero prior covariance with the viewed block"
        )
    if sigma_xy < 0:
        raise ValueError("tail probe requires positive covariance with the viewed block")
    target = float((sigma_xy / sigma_xx) ** (alpha - 1.0))
    measured = posterior_marginal_y1(post, points, coord=coord) / g.pdf(points)
    converged = bool(abs(measured[-1] / target - 1.0) <= rel_band)
    return TailReport(alpha, target, points, measured, converged)
