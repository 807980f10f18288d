"""Cross-cutting invariants, a few driven by hypothesis."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tiltcal as tc
from conftest import random_gaussian_linear_problem, random_spd
from oracles import density_mass_quad


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    jitter=st.floats(0.2, 2.0),
)
def test_transform_round_trip_recovers_prior(entries, jitter):
    v = np.eye(2) * (1.0 + jitter) + np.array(entries).reshape(2, 2) * 0.3
    det_scale = np.prod(np.linalg.norm(v, axis=1))
    if abs(np.linalg.det(v)) <= 1e-6 * det_scale:
        return  # skip near-singular draws
    prior = tc.GaussianPrior([0.3, -0.2], [[1.5, 0.4], [0.4, 0.9]])
    fwd = tc.LinearViewMap(v, 1, 2)
    back = tc.LinearViewMap(np.linalg.inv(v), 1, 2)
    out = tc.transform_prior(tc.transform_prior(prior, fwd), back)
    np.testing.assert_allclose(out.mean, prior.mean, atol=1e-10)
    np.testing.assert_allclose(out.covariance, prior.covariance, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(0.01, 5.0), min_size=3, max_size=30),
    width=st.floats(0.1, 50.0),
)
def test_grid_density_always_normalized(values, width):
    knots = np.linspace(0.0, width, len(values))
    g = tc.GridDensity(knots, values)
    assert density_mass_quad(g) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    m1=st.floats(-3, 3), m2=st.floats(-3, 3),
    ls1=st.floats(-0.7, 0.7), ls2=st.floats(-0.7, 0.7),
)
# the denominator pdf underflows to 0 near x = -17.4 under ~1e-18 of numerator mass
@example(m1=0.0, m2=2.0, ls1=0.6875, ls2=-0.6875)
def test_relative_entropy_nonnegative(m1, m2, ls1, ls2):
    g1 = tc.GaussianDensity(m1, float(np.exp(ls1)))
    g2 = tc.GaussianDensity(m2, float(np.exp(ls2)))
    grid = (np.linspace(-40, 40, 4001),)
    assert tc.relative_entropy(g1.pdf, g2.pdf, grid=grid) >= -1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_var_monotone_in_level(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_t(3, size=(5000, 2))
    batch = tc.SampleBatch(z, seed=seed)
    report = tc.estimate_var(batch, [0.6, 0.4], 1e6, [0.99, 0.95, 0.9, 0.75, 0.5])
    assert np.all(np.diff(report.var_values) <= 0)


def test_dual_convexity_along_random_segments():
    rng = np.random.default_rng(123)
    prior, views = random_gaussian_linear_problem(rng, 3)
    problem = tc.GaussianLinearProblem(prior, views)
    k = problem.n_moments
    for _ in range(20):
        a = rng.standard_normal(k)
        b = rng.standard_normal(k)
        fa = problem.dual_state(a).value
        fb = problem.dual_state(b).value
        fm = problem.dual_state((a + b) / 2).value
        assert fm <= (fa + fb) / 2 + 1e-9


def test_posterior_objects_are_immutable(two_asset_posterior):
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        two_asset_posterior.lam = np.zeros(1)
    with pytest.raises(ValueError):
        two_asset_posterior.conditional.cov[0, 0] = 99.0  # read-only buffer


def test_read_only_model_arrays():
    prior = tc.GaussianPrior([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        prior.covariance[0, 1] = 5.0
    vmap = tc.LinearViewMap.identity(2, 1, 2)
    with pytest.raises(ValueError):
        vmap.matrix[0, 0] = 2.0


def test_sample_streams_are_chunk_stable(two_asset_posterior):
    """Chunked streams: a prefix of a longer run equals the shorter run."""
    small = tc.sample_posterior(two_asset_posterior, 60_000, seed=3)
    big = tc.sample_posterior(two_asset_posterior, 80_000, seed=3)
    np.testing.assert_array_equal(small.z_samples, big.z_samples[:60_000])


def test_gaussian_conditional_cov_is_psd_for_random_models():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        prior = tc.GaussianPrior(rng.standard_normal(n), random_spd(rng, n))
        split = int(rng.integers(1, n))
        cond = tc.gaussian_conditional(prior, split)
        eigs = np.linalg.eigvalsh(cond.cov)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)
