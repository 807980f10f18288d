"""Sensitivities of posterior expectations to view targets."""

import numpy as np
import pytest

import tiltcal as tc
from conftest import closed_form_posteriors, random_gaussian_linear_problem


def _rebuild_pi(prior, views, targets, r_view):
    """Pi = E[r] under the posterior re-solved at the given targets."""
    moments = tuple(
        tc.MomentView(target=float(t), coord=v.coord)
        for v, t in zip(views.moments, targets)
    )
    post = tc.build_posterior(prior, tc.ViewSet(views.view_map, views.marginal, moments))
    e_xy = np.concatenate([post.e_g_x, post.y_mean()])
    return float(np.asarray(r_view) @ e_xy)


def _sensitivities_both(prior, views, **kwargs):
    """The report on build_posterior, checked bit-identical on the tilted construction."""
    post, tilted = closed_form_posteriors(prior, views)
    report = tc.sensitivities(post, **kwargs)
    again = tc.sensitivities(tilted, **kwargs)
    for name in ("d_pi_d_c", "v_matrix", "u_matrix"):
        np.testing.assert_array_equal(getattr(again, name), getattr(report, name))
    assert again.d_pi_d_loc == report.d_pi_d_loc
    return report


class TestGaussianLinearPath:
    def test_r_equal_to_first_view_gives_unit_vector(self):
        rng = np.random.default_rng(3)
        prior, views = random_gaussian_linear_problem(rng, 4)
        r = np.zeros(4)
        r[1] = 1.0  # first Y coordinate == h_1
        report = _sensitivities_both(prior, views, r_weights=r)
        expected = np.zeros(len(views.moments))
        expected[0] = 1.0
        np.testing.assert_allclose(report.d_pi_d_c, expected, atol=1e-6)

    def test_matches_finite_difference_resolve(self):
        rng = np.random.default_rng(10)
        prior, views = random_gaussian_linear_problem(rng, 4)
        r_view = np.array([0.3, 1.0, -0.5, 0.25])  # linear in (x, y)
        report = _sensitivities_both(prior, views, r_weights=r_view)
        targets = views.targets
        scale = np.abs(targets) + 1.0
        for i in range(targets.size):
            eps = 1e-4 * scale[i]
            hi = targets.copy(); hi[i] += eps
            lo = targets.copy(); lo[i] -= eps
            fd = (_rebuild_pi(prior, views, hi, r_view)
                  - _rebuild_pi(prior, views, lo, r_view)) / (2 * eps)
            assert report.d_pi_d_c[i] == pytest.approx(fd, rel=1e-3, abs=1e-10)

    def test_uv_identity(self):
        rng = np.random.default_rng(4)
        prior, views = random_gaussian_linear_problem(rng, 5)
        report = _sensitivities_both(prior, views, r_weights=np.ones(5))
        k = report.v_matrix.shape[0]
        np.testing.assert_allclose(
            report.u_matrix @ report.v_matrix, np.eye(k), atol=1e-8
        )

    def test_location_sensitivity_matches_finite_difference(self):
        """d Pi / d loc at fixed multipliers, against a rebuilt-marginal FD."""
        prior = tc.GaussianPrior([0.1, 0.0, -0.1], [[1.0, 0.5, 0.2],
                                                    [0.5, 1.5, 0.4],
                                                    [0.2, 0.4, 2.0]])
        vmap = tc.LinearViewMap.identity(3, 1, 2)
        g = tc.StudentTDensity(df=4.0, loc=0.3, scale=0.9)
        views = tc.ViewSet(vmap, g, (tc.MomentView(target=0.4, coord=0),))
        post = tc.build_posterior(prior, views)
        # r puts weight on the untargeted coordinate, which tracks E_g[X]
        r_view = np.array([0.2, 0.0, 1.0])
        report = _sensitivities_both(prior, views, r_weights=r_view, wrt_loc=True)

        def pi_at(loc):
            g_eps = tc.StudentTDensity(df=4.0, loc=loc, scale=0.9)
            shifted = tc.GaussianMarginalPosterior(
                view_map=post.view_map,
                marginal=g_eps,
                conditional=post.conditional,  # multipliers held fixed
                lam=post.lam,
                moment_coords=post.moment_coords,
                prior_t=post.prior_t,
            )
            e_xy = np.concatenate([shifted.e_g_x, shifted.y_mean()])
            return float(r_view @ e_xy)

        eps = 1e-5
        fd = (pi_at(0.3 + eps) - pi_at(0.3 - eps)) / (2 * eps)
        assert report.d_pi_d_loc == pytest.approx(fd, rel=1e-3)

    def test_grid_marginal_has_no_location_parameter(self):
        prior = tc.GaussianPrior([0.0, 0.0], [[1.0, 0.4], [0.4, 1.0]])
        knots = np.linspace(-4, 4, 200)
        g = tc.GridDensity(knots, np.exp(-0.5 * knots**2))
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 2), g, (tc.MomentView(target=0.2, coord=0),)
        )
        post = tc.build_posterior(prior, views)
        with pytest.raises(ValueError, match="location"):
            tc.sensitivities(post, r_weights=np.ones(2), wrt_loc=True)


class TestQuadraturePath:
    def _problem(self):
        prior = tc.GaussianPrior([0.0, 0.1], [[1.0, 0.6], [0.6, 1.2]])
        g = tc.StudentTDensity(df=5.0, loc=0.1, scale=0.8)
        payoff = lambda x, y: np.maximum(y[..., 0] - 0.2, 0.0)
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 1), g,
            (tc.MomentView(target=0.5, payoff=payoff),),
        )
        problem = tc.QuadratureProblem.from_gaussian(prior, views, n_x=3001, n_y=128)
        report = tc.solve_lambda_newton(prior, views, problem=problem)
        assert report.converged
        return tc.TiltedPosterior(prior, views, report.lam, problem), payoff

    def test_r_equal_to_view_gives_one(self):
        post, payoff = self._problem()
        report = tc.sensitivities(post, r=payoff)
        assert report.d_pi_d_c[0] == pytest.approx(1.0, abs=1e-6)

    def test_matches_finite_difference_resolve(self):
        post, payoff = self._problem()
        r = lambda x, y: y[..., 0]
        report = tc.sensitivities(post, r=r)

        def pi_at(target):
            views = tc.ViewSet(
                post.views.view_map, post.views.marginal,
                (tc.MomentView(target=float(target), payoff=payoff),),
            )
            problem = tc.QuadratureProblem.from_gaussian(
                post.prior, views, n_x=3001, n_y=128
            )
            rep = tc.solve_lambda_newton(post.prior, views, problem=problem)
            assert rep.converged
            vals = problem.y_nodes[..., 0]
            return problem.expectation(rep.lam, vals)

        eps = 1e-4 * 0.5
        fd = (pi_at(0.5 + eps) - pi_at(0.5 - eps)) / (2 * eps)
        assert report.d_pi_d_c[0] == pytest.approx(fd, rel=1e-3)

    def test_location_score_identity(self):
        post, payoff = self._problem()
        r = lambda x, y: y[..., 0]
        report = tc.sensitivities(post, r=r, wrt_loc=True)
        g = post.views.marginal

        def pi_with_marginal(loc):
            views = tc.ViewSet(
                post.views.view_map,
                tc.StudentTDensity(df=g.df, loc=loc, scale=g.scale),
                post.views.moments,
            )
            problem = tc.QuadratureProblem.from_gaussian(
                post.prior, views, n_x=3001, n_y=128
            )
            vals = problem.y_nodes[..., 0]
            return problem.expectation(post.lam, vals)  # multipliers held fixed

        eps = 1e-5
        fd = (pi_with_marginal(g.loc + eps) - pi_with_marginal(g.loc - eps)) / (2 * eps)
        assert report.d_pi_d_loc == pytest.approx(fd, rel=1e-3)

    def test_dependent_views_raise_singular_v(self):
        prior = tc.GaussianPrior([0.0, 0.1], [[1.0, 0.6], [0.6, 1.2]])
        g = tc.StudentTDensity(df=5.0, loc=0.1, scale=0.8)
        same = lambda x, y: y[..., 0]
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 1), g,
            (tc.MomentView(target=0.1, payoff=same),
             tc.MomentView(target=0.1, payoff=same)),
        )
        problem = tc.QuadratureProblem.from_gaussian(prior, views, n_x=501, n_y=32)
        post = tc.TiltedPosterior(prior, views, np.zeros(2), problem)
        with pytest.raises(tc.SingularV):
            tc.sensitivities(post, r=same)

    def test_agrees_with_gaussian_path_on_coordinate_views(self):
        """Both backends on the same coordinate-view problem."""
        prior = tc.GaussianPrior([0.0, 0.1, -0.2], [[1.0, 0.5, 0.2],
                                                    [0.5, 1.2, 0.3],
                                                    [0.2, 0.3, 0.9]])
        vmap = tc.LinearViewMap.identity(3, 1, 3)
        g = tc.StudentTDensity(df=6.0, loc=0.2, scale=0.9)
        views = tc.ViewSet(
            vmap, g,
            (tc.MomentView(target=0.3, coord=0), tc.MomentView(target=-0.1, coord=1)),
        )
        r_view = np.array([0.5, 1.0, -0.4])
        analytic = tc.sensitivities(tc.build_posterior(prior, views), r_weights=r_view)

        payoff_views = tc.ViewSet(
            vmap, g,
            (tc.MomentView(target=0.3, payoff=lambda x, y: y[..., 0]),
             tc.MomentView(target=-0.1, payoff=lambda x, y: y[..., 1])),
        )
        problem = tc.QuadratureProblem.from_gaussian(prior, payoff_views, n_x=4001, n_y=24)
        report = tc.solve_lambda_newton(prior, payoff_views, problem=problem)
        post_q = tc.TiltedPosterior(prior, payoff_views, report.lam, problem)
        quad = tc.sensitivities(post_q, r_weights=r_view)
        np.testing.assert_allclose(quad.d_pi_d_c, analytic.d_pi_d_c, rtol=2e-3)
        np.testing.assert_allclose(quad.v_matrix, analytic.v_matrix, rtol=2e-3)
