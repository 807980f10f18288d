"""Tail admissibility and the posterior tail-ratio limit."""

import numpy as np
import pytest

import tiltcal as tc
from conftest import closed_form_posteriors


class TestCheckAssumption:
    def test_student_t_admissible_with_alpha(self):
        g = tc.StudentTDensity(df=3.0, loc=0.0, scale=1.0)
        assert tc.check_assumption(g) == "admissible"
        assert g.tail_index == 4.0

    def test_gaussian_inadmissible(self):
        assert tc.check_assumption(tc.GaussianDensity(0.0, 1.0)) == "inadmissible"

    def test_grid_unknown(self):
        g = tc.GridDensity([0.0, 1.0], [1.0, 1.0])
        assert tc.check_assumption(g) == "unknown"


class TestTailRatioProbe:
    def test_two_asset_configuration_converges_to_limit(self, two_asset_prior,
                                                        two_asset_views):
        post, cli_path = closed_form_posteriors(two_asset_prior, two_asset_views)
        report = tc.tail_ratio_probe(post, coord=0)
        target = (2.43 / 5.818) ** 3
        assert report.alpha == 4.0
        assert report.target_ratio == pytest.approx(target, rel=1e-6)
        assert report.converged
        assert abs(report.measured_ratios[-1] / target - 1.0) <= 0.05
        again = tc.tail_ratio_probe(cli_path, coord=0)
        np.testing.assert_array_equal(again.measured_ratios, report.measured_ratios)

    def test_error_shrinks_along_probe_schedule(self, two_asset_posterior):
        report = tc.tail_ratio_probe(two_asset_posterior, coord=0)
        err = np.abs(report.measured_ratios / report.target_ratio - 1.0)
        # decreasing |error| from moderate tail onward
        assert np.all(np.diff(err[3:]) < 0)

    def test_identity_coordinate_has_unit_ratio(self):
        """Y equal to X itself: the posterior tail ratio is exactly 1."""
        eps = 1e-12
        prior = tc.GaussianPrior([0.0, 0.0], [[2.0, 2.0], [2.0, 2.0 + eps]])
        vmap = tc.LinearViewMap.identity(2, 1, 2)
        g = tc.StudentTDensity(df=3.0, loc=0.0, scale=np.sqrt(2.0))
        views = tc.ViewSet(vmap, g, (tc.MomentView(target=0.0, coord=0),))
        post = tc.build_posterior(prior, views)
        report = tc.tail_ratio_probe(post, coord=0, n_points=8)
        assert report.target_ratio == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(report.measured_ratios, 1.0, rtol=1e-6)
        assert report.converged

    def test_zero_correlation_raises(self):
        prior = tc.GaussianPrior([0.0, 0.0], np.diag([1.0, 2.0]))
        vmap = tc.LinearViewMap.identity(2, 1, 2)
        g = tc.StudentTDensity(df=3.0, loc=0.0, scale=1.0)
        views = tc.ViewSet(vmap, g, (tc.MomentView(target=0.0, coord=0),))
        post = tc.build_posterior(prior, views)
        with pytest.raises(tc.ZeroCorrelation):
            tc.tail_ratio_probe(post, coord=0)

    def test_zero_correlation_ratio_decays_to_zero(self):
        """With no covariance link the probed coordinate keeps Gaussian tails."""
        prior = tc.GaussianPrior([0.0, 0.0], np.diag([1.0, 2.0]))
        vmap = tc.LinearViewMap.identity(2, 1, 2)
        g = tc.StudentTDensity(df=3.0, loc=0.0, scale=1.0)
        views = tc.ViewSet(vmap, g, (tc.MomentView(target=0.0, coord=0),))
        post = tc.build_posterior(prior, views)
        s = np.array([4.0, 8.0, 16.0, 24.0])
        ratios = np.array(
            [tc.posterior_marginal_y1(post, sv) / g.pdf(sv) for sv in s]
        )
        assert np.all(np.diff(ratios) < 0)
        assert ratios[-1] < 1e-6

    def test_gaussian_view_rejected(self):
        prior = tc.GaussianPrior([0.0, 0.0], [[1.0, 0.5], [0.5, 2.0]])
        vmap = tc.LinearViewMap.identity(2, 1, 2)
        views = tc.ViewSet(
            vmap, tc.GaussianDensity(0.0, 1.0), (tc.MomentView(target=0.0, coord=0),)
        )
        post = tc.build_posterior(prior, views)
        with pytest.raises(ValueError, match="inadmissible"):
            tc.tail_ratio_probe(post, coord=0)

    def test_scalar_x_required(self):
        prior = tc.GaussianPrior(np.zeros(2), np.eye(2))
        views = tc.ViewSet(tc.LinearViewMap.identity(2, 0, 1),
                           None, (tc.MomentView(target=0.0, coord=0),))
        post = tc.build_posterior(prior, views)
        with pytest.raises(ValueError, match="scalar X"):
            tc.tail_ratio_probe(post, coord=0)

    def test_scale_covariance_of_the_probe(self):
        """Rescaling the probed coordinate preserves the agreement band."""
        def build(c):
            cov = np.array([[2.0, 0.9 * c], [0.9 * c, 1.1 * c * c]])
            prior = tc.GaussianPrior([0.0, 0.0], cov)
            vmap = tc.LinearViewMap.identity(2, 1, 2)
            g = tc.StudentTDensity(df=3.0, loc=0.3, scale=np.sqrt(2.0))
            views = tc.ViewSet(vmap, g, (tc.MomentView(target=0.0, coord=0),))
            return tc.build_posterior(prior, views)

        base = tc.tail_ratio_probe(build(1.0), coord=0)
        scaled = tc.tail_ratio_probe(build(3.0), coord=0)
        assert scaled.target_ratio == pytest.approx(27.0 * base.target_ratio, rel=1e-9)
        err_base = abs(base.measured_ratios[-1] / base.target_ratio - 1.0)
        err_scaled = abs(scaled.measured_ratios[-1] / scaled.target_ratio - 1.0)
        assert base.converged and scaled.converged
        assert err_base <= 0.05 and err_scaled <= 0.05

    def test_s_max_truncates_schedule(self, two_asset_posterior):
        report = tc.tail_ratio_probe(two_asset_posterior, coord=0, s_max=100.0)
        assert report.probe_points.max() <= 100.0
        with pytest.raises(ValueError, match="s_max"):
            tc.tail_ratio_probe(two_asset_posterior, coord=0, s_max=5.0)

    def test_negative_covariance_rejected(self):
        prior = tc.GaussianPrior([0.0, 0.0], [[1.0, -0.5], [-0.5, 2.0]])
        vmap = tc.LinearViewMap.identity(2, 1, 2)
        g = tc.StudentTDensity(df=3.0, loc=0.0, scale=1.0)
        views = tc.ViewSet(vmap, g, (tc.MomentView(target=0.0, coord=0),))
        post = tc.build_posterior(prior, views)
        with pytest.raises(ValueError, match="positive covariance"):
            tc.tail_ratio_probe(post, coord=0)
