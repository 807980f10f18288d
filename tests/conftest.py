"""Shared fixtures: the two bundled demo models and random-model helpers."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import tiltcal as tc

sys.path.insert(0, str(Path(__file__).parent))

# Two-asset demo: bivariate Gaussian prior, a 70/30 benchmark portfolio with
# a Student-t density view, and a mean view on the second asset.
TWO_ASSET_MEAN = np.array([1.0, 1.0])
TWO_ASSET_COV = np.array([[9.1, 3.0], [3.0, 1.1]])
TWO_ASSET_MAP = np.array([[0.7, 0.3], [0.0, 1.0]])
TWO_ASSET_T = dict(df=3.0, loc=1.5, scale=2.4120)
TWO_ASSET_TARGET = 1.5

# Six-index demo: weekly-return Gaussian prior for ASX, DAX, EEM, FTSE,
# Nikkei and S&P, with mean views and alternative heavy-tail views.
SIX_INDEX_LABELS = ("asx", "dax", "eem", "ftse", "nikkei", "sp")
SIX_INDEX_MEAN = np.array([0.062, 0.28, 0.045, 0.13, 0.24, 0.26]) / 100.0
SIX_INDEX_COV = np.array(
    [
        [0.4285, 0.4018, 0.4394, 0.3550, 0.0269, 0.3194],
        [0.4018, 0.8139, 0.6542, 0.5353, 0.0558, 0.5274],
        [0.4394, 0.6542, 0.9278, 0.5248, 0.0060, 0.5486],
        [0.3550, 0.5353, 0.5248, 0.4791, 0.0371, 0.4220],
        [0.0269, 0.0558, 0.0060, 0.0371, 0.7606, 0.0420],
        [0.3194, 0.5274, 0.5486, 0.4220, 0.0420, 0.4801],
    ]
) * 1e-3
# mean views: asx 0.1%, eem 0.1%, ftse 0.13%, nikkei 0.24%, sp 0.35%
SIX_INDEX_MEAN_VIEWS = {0: 0.001, 2: 0.001, 3: 0.0013, 4: 0.0024, 5: 0.0035}


@pytest.fixture(scope="session")
def two_asset_prior() -> tc.GaussianPrior:
    return tc.GaussianPrior(TWO_ASSET_MEAN, TWO_ASSET_COV)


@pytest.fixture(scope="session")
def two_asset_views() -> tc.ViewSet:
    vmap = tc.LinearViewMap(TWO_ASSET_MAP, k1=1, k2=2)
    g = tc.StudentTDensity(**TWO_ASSET_T)
    return tc.ViewSet(vmap, g, (tc.MomentView(target=TWO_ASSET_TARGET, coord=0),))


@pytest.fixture(scope="session")
def two_asset_posterior(two_asset_prior, two_asset_views):
    return tc.build_posterior(two_asset_prior, two_asset_views)


@pytest.fixture(scope="session")
def six_index_prior() -> tc.GaussianPrior:
    return tc.GaussianPrior(SIX_INDEX_MEAN, SIX_INDEX_COV)


def mean_only_views() -> tc.ViewSet:
    """Mean views alone (no marginal block)."""
    coords = sorted(SIX_INDEX_MEAN_VIEWS)
    vmap = tc.LinearViewMap.from_permutation(
        coords + [i for i in range(6) if i not in coords], k1=0, k2=len(coords)
    )
    moments = tuple(
        tc.MomentView(target=SIX_INDEX_MEAN_VIEWS[c], coord=i)
        for i, c in enumerate(coords)
    )
    return tc.ViewSet(vmap, None, moments)


def heavy_tail_views(tail_on: int, df: float, loc: float | None = None) -> tc.ViewSet:
    """Student-t density view on one index plus mean views on the others.

    The t view keeps the index's prior dispersion: scale is set so the t
    variance equals the prior variance, and the location is the mean target
    when one exists (otherwise the prior mean).
    """
    if loc is None:
        loc = SIX_INDEX_MEAN_VIEWS.get(tail_on, float(SIX_INDEX_MEAN[tail_on]))
    scale = float(np.sqrt(SIX_INDEX_COV[tail_on, tail_on] * (df - 2.0) / df))
    moment_coords = [c for c in sorted(SIX_INDEX_MEAN_VIEWS) if c != tail_on]
    order = [tail_on] + moment_coords + [
        i for i in range(6) if i != tail_on and i not in moment_coords
    ]
    vmap = tc.LinearViewMap.from_permutation(order, k1=1, k2=1 + len(moment_coords))
    moments = tuple(
        tc.MomentView(target=SIX_INDEX_MEAN_VIEWS[c], coord=i)
        for i, c in enumerate(moment_coords)
    )
    return tc.ViewSet(vmap, tc.StudentTDensity(df=df, loc=loc, scale=scale), moments)


def closed_form_posteriors(prior, views):
    """The two public constructions of the closed-form posterior.

    ``build_posterior``, and the GaussianLinearProblem's posterior at Newton's
    multipliers (the command-line path).  They are bit-identical because they
    compute one formula: the closed form is Newton's first step from lam = 0,
    which solves the quadratic dual, so Newton stops there.  Consumers must
    give bit-identical results for both.
    """
    problem = tc.GaussianLinearProblem(prior, views)
    report = tc.solve_lambda_newton(prior, views, problem=problem)
    return tc.build_posterior(prior, views), problem.posterior(report.lam)


def random_spd(rng: np.random.Generator, n: int, jitter: float = 0.3) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * n * np.eye(n)


def random_gaussian_linear_problem(rng: np.random.Generator, n: int):
    """Random prior + marginal view + mean views on all Y coordinates."""
    prior = tc.GaussianPrior(rng.standard_normal(n), random_spd(rng, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vmap = tc.LinearViewMap(q + 0.1 * rng.standard_normal((n, n)), k1=1, k2=n)
    prior_t = tc.transform_prior(prior, vmap)
    g = tc.StudentTDensity(
        df=3.0 + 4.0 * rng.random(),
        loc=float(prior_t.mean[0] + 0.5 * rng.standard_normal()),
        scale=float(np.sqrt(prior_t.covariance[0, 0]) * (0.7 + 0.6 * rng.random())),
    )
    cond = tc.gaussian_conditional(prior_t, 1)
    sds = np.sqrt(np.diag(cond.cov))
    targets = cond.mean(np.array([g.mean()])) + 0.5 * sds * rng.standard_normal(n - 1)
    moments = tuple(tc.MomentView(target=float(t), coord=i) for i, t in enumerate(targets))
    return prior, tc.ViewSet(vmap, g, moments)
