"""Relative-entropy diagnostics."""

import numpy as np
import pytest

import tiltcal as tc
from oracles import gaussian_kl


def _gauss_pdf(mean, sd):
    return lambda x: np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))


GRID_1D = (np.linspace(-15.0, 15.0, 6001),)


class TestIdenticalMeasures:
    def test_grid(self):
        p = _gauss_pdf(0.0, 1.0)
        assert tc.relative_entropy(p, p, grid=GRID_1D) == pytest.approx(0.0, abs=1e-12)

    def test_samples(self):
        p = _gauss_pdf(0.0, 1.0)
        draws = np.random.default_rng(0).standard_normal(1000)
        assert tc.relative_entropy(p, p, samples=draws) == 0.0


class TestGaussianPairs:
    def test_mean_shift_closed_form(self):
        for m in (0.3, 0.7, 2.0):
            est = tc.relative_entropy(_gauss_pdf(0.0, 1.0), _gauss_pdf(m, 1.0), grid=GRID_1D)
            assert est == pytest.approx(m**2 / 2.0, abs=1e-3)

    def test_general_pair_matches_oracle(self):
        est = tc.relative_entropy(_gauss_pdf(0.5, 1.2), _gauss_pdf(-0.3, 2.0), grid=GRID_1D)
        assert est == pytest.approx(gaussian_kl(0.5, 1.2, -0.3, 2.0), abs=1e-6)

    def test_sampling_estimator(self):
        rng = np.random.default_rng(4)
        draws = 0.7 + rng.standard_normal(200_000)
        est = tc.relative_entropy(_gauss_pdf(0.7, 1.0), _gauss_pdf(0.0, 1.0), samples=draws)
        # var of log-ratio = m^2 under the numerator law
        assert est == pytest.approx(0.245, abs=4 * 0.7 / np.sqrt(200_000))


class TestTwoAssetModel:
    def test_posterior_prior_divergence_positive_and_matches_grid_oracle(
        self, two_asset_prior, two_asset_posterior
    ):
        post = two_asset_posterior
        xs = np.linspace(-40, 40, 701)
        ys = np.linspace(-10, 12, 501)

        def post_logpdf(z):
            return tc.posterior_density_z(post, z, log=True)

        def prior_logpdf(z):
            return two_asset_prior.logpdf(z)

        est = tc.relative_entropy(
            post_logpdf, prior_logpdf, grid=(xs, ys), log_densities=True
        )
        # independent brute-force double sum on the same mesh
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        log_p = post_logpdf(pts).reshape(gx.shape)
        log_q = prior_logpdf(pts).reshape(gx.shape)
        integrand = np.exp(log_p) * (log_p - log_q)
        brute = np.trapezoid(np.trapezoid(integrand, ys, axis=1), xs)
        assert est > 0.0
        assert est == pytest.approx(brute, abs=1e-2)

    def test_divergence_is_view_divergence_minus_dual_value(self, two_asset_prior):
        """D(post || prior) = KL(g || f_X) - F(lam*) at the dual optimum.

        A Gaussian view keeps the 2-D grid's tails negligible; a t(3) view
        leaves ~0.25 of the divergence outside any practical grid.
        """
        vmap = tc.LinearViewMap(np.array([[0.7, 0.3], [0.0, 1.0]]), k1=1, k2=2)
        g = tc.GaussianDensity(1.5, 2.412)
        views = tc.ViewSet(vmap, g, (tc.MomentView(target=1.5, coord=0),))
        problem = tc.build_dual_problem(two_asset_prior, views)
        report = tc.solve_lambda_newton(two_asset_prior, views, problem=problem)
        post = problem.posterior(report.lam)
        lhs = tc.relative_entropy(
            lambda z: tc.posterior_density_z(post, z, log=True), two_asset_prior.logpdf,
            grid=(np.linspace(-60, 60, 1201), np.linspace(-15, 18, 661)), log_densities=True,
        )
        f_x = tc.GaussianDensity(post.prior_t.mean[0], np.sqrt(post.prior_t.covariance[0, 0]))
        kl_view = tc.relative_entropy(g.pdf, f_x.pdf, grid=(np.linspace(-200, 200, 40001),))
        assert lhs == pytest.approx(kl_view - report.dual_value, abs=1e-9)


class TestDivergence:
    def test_raises_when_support_escapes(self):
        num = tc.GridDensity([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        den = tc.GridDensity([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(tc.DivergentEntropy):
            tc.relative_entropy(num.pdf, den.pdf, grid=(np.linspace(0, 2, 201),))

    def test_samples_raise_where_the_denominator_vanishes(self):
        """A draw of the numerator outside the denominator's support is a divergence."""
        num = tc.GridDensity([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        den = tc.GridDensity([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
        samples = np.array([0.25, 0.75, 1.5])
        with pytest.raises(tc.DivergentEntropy):
            tc.relative_entropy(num.pdf, den.pdf, samples=samples)
        assert np.isfinite(tc.relative_entropy(num.pdf, den.pdf, samples=samples[:2]))


class TestGibbsInequality:
    def test_nonnegative_over_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m1, m2 = rng.standard_normal(2)
            s1, s2 = np.exp(0.4 * rng.standard_normal(2))
            est = tc.relative_entropy(
                _gauss_pdf(m1, s1), _gauss_pdf(m2, s2), grid=(np.linspace(-40, 40, 8001),)
            )
            assert est >= -1e-9


def test_argument_validation():
    p = _gauss_pdf(0.0, 1.0)
    with pytest.raises(ValueError):
        tc.relative_entropy(p, p)
    with pytest.raises(ValueError):
        tc.relative_entropy(p, p, grid=GRID_1D, samples=np.zeros(3))
    with pytest.raises(ValueError):
        tc.relative_entropy(p, p, grid=(np.zeros(2), np.zeros(2), np.zeros(2)))
