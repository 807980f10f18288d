"""Sensitivities of posterior performance measures to view targets.

For Pi = E_lam[r(X, Y)], the derivative in the i-th moment target is

    dPi/dc_i = sum_j E[Cov_lam(r, h_j | X)] U_ij,    U = V^{-1},

where V_ij = E[Cov_lam(h_i, h_j | X)] is the dual Hessian at the solution.
When the marginal view g carries a differentiable parameter, the derivative
of Pi in that parameter (at fixed multipliers) is E_lam[r * d log g / d par].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import SingularV
from .priors import _require_pd

__all__ = ["SensitivityReport", "sensitivities"]

_PD_TOL = 1e-12


@dataclass(frozen=True)
class SensitivityReport:
    """Derivatives of a performance expectation in the view targets."""

    d_pi_d_c: np.ndarray
    v_matrix: np.ndarray
    u_matrix: np.ndarray
    d_pi_d_loc: float | None = None


def sensitivities(post, r=None, *, r_weights=None, wrt_loc: bool = False) -> SensitivityReport:
    """Sensitivity of Pi = E[r] to the moment targets (and g's location).

    ``r`` is a vectorized callable r(x, y) in view coordinates, or pass
    ``r_weights`` for the linear statistic r = w . (x, y), which has an
    exact per-x covariance under Gaussian conditionals (the only r they
    take).  With ``wrt_loc`` the derivative in the marginal view's location
    parameter is included (gaussian and student-t marginal views).
    ``post.sensitivity_terms`` gives the symmetric V, E[Cov(r, h | X)] and
    that derivative; SingularV when V is not positive definite.
    """
    if (r is None) == (r_weights is None):
        raise ValueError("supply exactly one of r or r_weights")
    v, cov_rh, d_loc = post.sensitivity_terms(r, r_weights, wrt_loc)
    _require_pd(v, SingularV, "view covariance matrix V is singular (dependent views)",
                tol=_PD_TOL)
    u = linalg.solve(v, np.eye(v.shape[0]), assume_a="pos")
    return SensitivityReport(u @ cov_rh, v, u, d_loc)
