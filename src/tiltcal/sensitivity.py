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

from .calibration import GaussianMarginalPosterior, QuadratureProblem, TiltedPosterior
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


def _invert_v(v: np.ndarray) -> np.ndarray:
    v = (v + v.T) / 2.0
    _require_pd(v, SingularV, "view covariance matrix V is singular (dependent views)",
                tol=_PD_TOL)
    return linalg.solve(v, np.eye(v.shape[0]), assume_a="pos")


def sensitivities(post, r=None, *, r_weights=None, wrt_loc: bool = False) -> SensitivityReport:
    """Sensitivity of Pi = E[r] to the moment targets (and g's location).

    ``r`` is a vectorized callable r(x, y) in view coordinates, or pass
    ``r_weights`` for the linear statistic r = w . (x, y), which has an
    exact per-x covariance under Gaussian conditionals.  With ``wrt_loc``
    the derivative in the marginal view's location parameter is included
    (supported for gaussian and student-t marginal views): on a closed-form
    posterior exactly c_x + c_y . slope, else a score integral on the nodes.
    """
    if (r is None) == (r_weights is None):
        raise ValueError("supply exactly one of r or r_weights")

    if isinstance(post, TiltedPosterior):
        if r_weights is not None:
            k1 = post.problem.x_nodes.shape[1]
            r = lambda x, y: x @ np.asarray(r_weights[:k1]) + y @ np.asarray(r_weights[k1:])
        return _sensitivities_quadrature(post, r, wrt_loc)
    if r_weights is None:
        raise ValueError("Gaussian-conditional posteriors need r_weights (linear r)")
    return _sensitivities_gaussian(post, np.asarray(r_weights, dtype=float), wrt_loc)


def _sensitivities_gaussian(post: GaussianMarginalPosterior, r_w: np.ndarray,
                            wrt_loc: bool) -> SensitivityReport:
    k1 = post.k1
    cond = post.conditional
    coords = np.array(post.moment_coords, dtype=int)
    cy = r_w[k1:]
    cx = r_w[:k1]
    v = cond.cov[np.ix_(coords, coords)]
    u = _invert_v(v)
    # Cov(r, h_j | X) = cy . S[:, coord_j]  (constant in x)
    cov_rh = cond.cov[:, coords].T @ cy
    d_pi_d_c = u @ cov_rh
    d_loc = None
    if wrt_loc:
        g = post.marginal
        if g is None or not hasattr(g, "dlogpdf_dloc"):
            raise ValueError("marginal view has no differentiable location parameter")
        if k1 != 1:
            raise ValueError("location sensitivity requires a 1-D X block")
        d_loc = float(cx[0] + cy @ cond.slope[:, 0])
    return SensitivityReport(d_pi_d_c, v, u, d_loc)


def _sensitivities_quadrature(post: TiltedPosterior, r, wrt_loc: bool) -> SensitivityReport:
    problem: QuadratureProblem = post.problem
    lam = post.lam
    v = problem.dual_state(lam).hessian
    u = _invert_v(v)
    cond = problem._tilted_conditional(lam)[1]
    x_w = problem.x_weights
    joint = cond * x_w[:, None]
    r_vals = np.asarray(r(problem.x_nodes[:, None, :], problem.y_nodes), dtype=float)
    r_vals = np.broadcast_to(r_vals, problem.y_nodes.shape[:-1])
    mu_r = np.einsum("nj,nj->n", cond, r_vals)
    mu_h = np.einsum("knj,nj->kn", problem.h, cond)
    e_rh = np.einsum("knj,nj,nj->k", problem.h, r_vals, joint)
    cov_rh = e_rh - (mu_h * mu_r[None, :]) @ x_w
    d_loc = None
    if wrt_loc:
        g = problem.views.marginal if problem.views is not None else None
        if g is None or not hasattr(g, "dlogpdf_dloc"):
            raise ValueError("marginal view has no differentiable location parameter")
        score = g.dlogpdf_dloc(problem.x_nodes[:, 0])
        d_loc = float(np.sum(joint * r_vals * score[:, None]))
    return SensitivityReport(u @ cov_rh, v, u, d_loc)
