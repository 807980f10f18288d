"""Closed-form Gaussian-conditional posterior and its marginals."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import tiltcal as tc
from tiltcal import analytic, cli
from conftest import (
    SIX_INDEX_COV,
    SIX_INDEX_LABELS,
    SIX_INDEX_MEAN,
    TWO_ASSET_COV,
    heavy_tail_views,
    mean_only_views,
    random_gaussian_linear_problem,
)
from oracles import marginal_density_quad, panel_sums_padded

WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads"


class TestBuildPosterior:
    def test_two_asset_closed_forms(self, two_asset_posterior):
        post = two_asset_posterior
        assert post.cond_cov[0, 0] == pytest.approx(0.08506, abs=1e-3)
        assert post.conditional.intercept[0] == pytest.approx(0.8735, abs=1e-3)
        assert post.conditional.slope[0, 0] == pytest.approx(0.4177, abs=1e-3)
        assert post.y_mean()[0] == pytest.approx(1.5, abs=1e-12)

    def test_noop_views_reproduce_prior(self):
        prior = tc.GaussianPrior([0.4, -0.2], [[2.0, 0.5], [0.5, 1.0]])
        vmap = tc.LinearViewMap.identity(2, 1, 2)
        g = tc.GaussianDensity(0.4, np.sqrt(2.0))  # the prior X marginal
        views = tc.ViewSet(vmap, g, (tc.MomentView(target=-0.2, coord=0),))
        post = tc.build_posterior(prior, views)
        np.testing.assert_allclose(post.lam, 0.0, atol=1e-14)
        zs = np.random.default_rng(1).standard_normal((200, 2)) * 2.0
        np.testing.assert_allclose(
            tc.posterior_density_z(post, zs), prior.pdf(zs), rtol=1e-10
        )

    def test_three_factor_monte_carlo_moments_and_marginal(self):
        rng = np.random.default_rng(14)
        prior, views = random_gaussian_linear_problem(rng, 3)
        post = tc.build_posterior(prior, views)
        batch = tc.sample_posterior(post, 1_000_000, seed=2)
        y = batch.z_samples @ views.view_map.matrix.T[:, 1:]
        se = y.std(axis=0, ddof=1) / np.sqrt(batch.n)
        np.testing.assert_array_less(np.abs(y.mean(axis=0) - views.targets), 3 * se)
        x = batch.z_samples[:100_000] @ views.view_map.matrix[0]
        assert stats.kstest(x, lambda t: views.marginal.cdf(t)).pvalue > 0.01

    def test_mean_only_posterior_shifts_gaussian(self):
        """k1 = 0: moment views tilt the Gaussian, covariance unchanged."""
        prior = tc.GaussianPrior([0.0, 0.0], [[1.0, 0.5], [0.5, 2.0]])
        vmap = tc.LinearViewMap.identity(2, 0, 1)
        views = tc.ViewSet(vmap, None, (tc.MomentView(target=0.8, coord=0),))
        post = tc.build_posterior(prior, views)
        assert post.y_mean()[0] == pytest.approx(0.8)
        assert post.y_mean()[1] == pytest.approx(0.8 * 0.5)  # covariance pull
        np.testing.assert_allclose(post.cond_cov, prior.covariance)

    def test_agrees_with_newton_posterior_pointwise(self, two_asset_prior, two_asset_views):
        post = tc.build_posterior(two_asset_prior, two_asset_views)
        problem = tc.GaussianLinearProblem(two_asset_prior, two_asset_views)
        report = tc.solve_lambda_newton(two_asset_prior, two_asset_views, problem=problem)
        shifted = problem.posterior(report.lam).conditional
        xs = np.random.default_rng(3).standard_normal((100, 1)) * 3.0
        np.testing.assert_allclose(shifted.mean(xs), post.conditional.mean(xs), atol=1e-8)
        np.testing.assert_allclose(shifted.cov, post.cond_cov, atol=1e-10)
        s = np.linspace(-2.0, 5.0, 15)
        np.testing.assert_allclose(tc.posterior_marginal_y1(problem.posterior(report.lam), s),
                                   tc.posterior_marginal_y1(post, s), rtol=1e-12)


class TestPosteriorDensity:
    def test_mode_value_matches_printed_constants(self, two_asset_posterior):
        # at the joint mode the two factors evaluate to
        # (3.42876 * 0.7 / sqrt(2 pi)) * (2 / (2.4120 pi sqrt(3)))
        expected = (3.42876 * 0.7 / np.sqrt(2 * np.pi)) * (
            2.0 / (2.4120 * np.pi * np.sqrt(3.0))
        )
        val = tc.posterior_density_z(two_asset_posterior, np.array([1.5, 1.5]))
        assert val == pytest.approx(expected, rel=1e-3)

    def test_identity_map_needs_no_jacobian(self):
        prior = tc.GaussianPrior([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])
        vmap = tc.LinearViewMap.identity(2, 1, 2)
        g = tc.StudentTDensity(df=4.0, loc=0.2, scale=1.0)
        views = tc.ViewSet(vmap, g, (tc.MomentView(target=0.1, coord=0),))
        post = tc.build_posterior(prior, views)
        z = np.array([0.3, -0.4])
        cond = post.conditional
        direct = g.pdf(0.3) * stats.norm.pdf(
            -0.4, loc=cond.mean([0.3])[0], scale=np.sqrt(cond.cov[0, 0])
        )
        assert tc.posterior_density_z(post, z) == pytest.approx(direct, rel=1e-12)

    def test_normalization_on_wide_grid(self, two_asset_posterior):
        # power tails of the view need ~30 prior SDs before the truncated
        # mass drops below the 1e-4 tolerance
        xs = np.linspace(1.0 - 30 * np.sqrt(9.1), 1.0 + 30 * np.sqrt(9.1), 2001)
        ys = np.linspace(-54.0, 56.0, 2001)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        vals = tc.posterior_density_z(two_asset_posterior, pts).reshape(gx.shape)
        total = np.trapezoid(np.trapezoid(vals, ys, axis=1), xs)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_singular_conditional_covariance_raises_typed_error(self):
        # z3 duplicates z2: the viewed block S_mm = [0.75] is fine, but the
        # full conditional covariance of (y0, y1) is singular
        cov = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]])
        prior = tc.GaussianPrior(np.zeros(3), cov)
        views = tc.ViewSet(
            tc.LinearViewMap.identity(3, 1, 2),
            tc.GaussianDensity(0.0, 1.0),
            (tc.MomentView(target=0.3, coord=0),),
        )
        post = tc.build_posterior(prior, views)
        with pytest.raises(tc.SingularConditionalCovariance):
            tc.posterior_density_z(post, [0.1, 0.2, 0.2])


class TestPosteriorMarginals:
    def test_a_zero_combination_has_no_density(self, two_asset_posterior):
        """w = 0 is the constant 0: its conditional variance is 0, which has no density."""
        with pytest.raises(tc.QuadratureFailure, match="degenerate"):
            tc.posterior_marginal_linear(two_asset_posterior, np.zeros(2), 0.0)

    def test_zero_correlation_shifts_only_the_mean(self):
        prior = tc.GaussianPrior([0.0, 2.0], np.diag([1.0, 4.0]))
        vmap = tc.LinearViewMap.identity(2, 1, 2)
        g = tc.StudentTDensity(df=3.0, loc=0.5, scale=1.0)
        views = tc.ViewSet(vmap, g, (tc.MomentView(target=3.0, coord=0),))
        post = tc.build_posterior(prior, views)
        s = np.linspace(-4, 10, 31)
        expected = stats.norm.pdf(s, loc=3.0, scale=2.0)
        got = np.array([tc.posterior_marginal_y1(post, sv) for sv in s])
        np.testing.assert_allclose(got, expected, rtol=1e-8)

    def test_two_asset_second_factor_mode_near_target(self, two_asset_posterior):
        s = np.linspace(0.5, 2.5, 81)
        dens = np.array([tc.posterior_marginal_y1(two_asset_posterior, sv) for sv in s])
        assert s[np.argmax(dens)] == pytest.approx(1.5, abs=0.05)

    def test_matches_kernel_density_of_samples(self, two_asset_posterior):
        batch = tc.sample_posterior(two_asset_posterior, 1_000_000, seed=0)
        z2 = batch.z_samples[:, 1]
        kde = stats.gaussian_kde(z2, bw_method=0.05)
        pts = np.linspace(-0.5, 3.5, 20)
        marg = np.array([tc.posterior_marginal_y1(two_asset_posterior, p) for p in pts])
        np.testing.assert_allclose(kde(pts), marg, rtol=0.02)

    def test_marginal_linear_recovers_view_density(self, two_asset_posterior):
        """The benchmark-portfolio marginal is the view density itself."""
        w = np.array([0.7, 0.3])
        s = np.linspace(-10, 12, 41)
        got = tc.posterior_marginal_linear(two_asset_posterior, w, s)
        np.testing.assert_allclose(got, two_asset_posterior.marginal.pdf(s), rtol=1e-9)

    def test_marginal_integrates_to_one(self, two_asset_posterior):
        val, _ = integrate.quad(
            lambda s: tc.posterior_marginal_y1(two_asset_posterior, s),
            -60.0, 60.0, limit=300,
        )
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_x_marginal_is_exactly_the_view(self, two_asset_posterior):
        """Integrating the joint over y reproduces g at every grid x."""
        post = two_asset_posterior
        v = post.view_map.matrix
        for xv in np.linspace(-6.0, 9.0, 16):
            ys = np.linspace(-30, 30, 20001)
            # z = V^{-1} (x, y)
            u = np.column_stack([np.full_like(ys, xv), ys])
            zs = u @ np.linalg.inv(v).T
            dens = tc.posterior_density_z(post, zs)
            # integrate over y at fixed x; d z = |det V|^{-1} dx dy
            total = np.trapezoid(dens, ys) / post.view_map.jacobian
            assert total == pytest.approx(post.marginal.pdf(xv), rel=1e-8, abs=1e-12)

    def test_moment_constraint_by_quadrature(self, two_asset_posterior):
        post = two_asset_posterior

        def integrand(s):
            return s * tc.posterior_marginal_y1(post, s)

        # the mean integral converges like 1/s^2 in the power tails, so the
        # window must be wide for the 1e-6 tolerance
        val, _ = integrate.quad(
            integrand, -2500.0, 2500.0, points=[-20.0, 1.5, 20.0], limit=500
        )
        assert val == pytest.approx(1.5, abs=1e-6)

    def test_no_x_block_gives_the_exact_normal_pdf(self, six_index_prior):
        """At k1 = 0 the posterior is the prior shifted in mean, so w . Z is normal."""
        post = tc.build_posterior(six_index_prior, mean_only_views())
        w = np.array([0.3, -0.1, 0.2, 0.25, 0.15, 0.2])
        mean, sd = w @ post.z_mean(), np.sqrt(w @ SIX_INDEX_COV @ w)
        s = mean + sd * np.linspace(-6.0, 6.0, 41)
        np.testing.assert_allclose(tc.posterior_marginal_linear(post, w, s),
                                   stats.norm.pdf(s, mean, sd), rtol=1e-12)


def _quad_agreement(post, idx, s):
    """Max relative gap between the panel rule and the adaptive-quad oracle.

    Where the oracle reads exactly 0 the gap is 0 if the rule does too, else inf.
    """
    w = np.eye(post.view_map.n)[idx]
    got = tc.posterior_marginal_linear(post, w, s)
    want = marginal_density_quad(post, np.linalg.solve(post.view_map.matrix.T, w), s, 1e-10)
    gap = np.abs(got - want)
    return float(np.max(np.divide(gap, want, out=np.where(gap > 0, np.inf, 0.0),
                                  where=want > 0)))


class TestMarginalPanelRule:
    """The vectorized panel rule against per-point adaptive quadrature."""

    @pytest.mark.parametrize("idx", [0, 1])
    def test_two_asset_factors_match_quad(self, two_asset_posterior, idx):
        post = two_asset_posterior
        sd = np.sqrt(TWO_ASSET_COV[idx, idx])
        s = np.linspace(post.z_mean()[idx] - 6 * sd, post.z_mean()[idx] + 6 * sd, 41)
        assert _quad_agreement(post, idx, s) <= 1e-6

    @pytest.mark.parametrize("label", [lb for lb in SIX_INDEX_LABELS if lb != "dax"])
    def test_six_index_heavy_tail_factors_match_quad(self, label):
        """Nikkei included: there |alpha| is small and g's spike is narrow."""
        post = tc.build_posterior(tc.GaussianPrior(SIX_INDEX_MEAN, SIX_INDEX_COV),
                                  heavy_tail_views(1, 3.0))
        idx = SIX_INDEX_LABELS.index(label)
        sd = np.sqrt(SIX_INDEX_COV[idx, idx])
        center = post.z_mean()[idx]
        s = np.linspace(min(SIX_INDEX_MEAN[idx], center) - 6 * sd,
                        max(SIX_INDEX_MEAN[idx], center) + 6 * sd, 41)
        assert _quad_agreement(post, idx, s) <= 1e-6

    def test_six_index_viewed_factor_is_the_view(self):
        post = tc.build_posterior(tc.GaussianPrior(SIX_INDEX_MEAN, SIX_INDEX_COV),
                                  heavy_tail_views(1, 3.0))
        s = np.linspace(-0.2, 0.2, 41)
        got = tc.posterior_marginal_linear(post, np.eye(6)[1], s)
        np.testing.assert_allclose(got, post.marginal.pdf(s), rtol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.sampled_from([2, 3]),
           kind=st.sampled_from(["student_t", "gaussian", "grid"]))
    @example(seed=265, n=2, kind="grid")  # both densities are exactly 0 at the ends
    def test_random_models_match_quad(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        prior, views = random_gaussian_linear_problem(rng, n)
        t_view = views.marginal
        if kind == "gaussian":
            g = tc.GaussianDensity(t_view.loc, t_view.scale)
        elif kind == "grid":
            n_knots = int(rng.integers(5, 202))
            knots = t_view.loc + t_view.scale * np.linspace(-8.0, 8.0, n_knots)
            g = tc.GridDensity(knots, t_view.pdf(knots) * (1.0 + rng.random(knots.size)))
        else:
            g = t_view
        post = tc.build_posterior(prior, tc.ViewSet(views.view_map, g, views.moments))
        for idx in range(n):
            c = np.linalg.solve(post.view_map.matrix.T, np.eye(n)[idx])
            cy = c[1:]
            alpha = c[0] + cy @ post.conditional.slope[:, 0]
            sd = np.sqrt(alpha**2 * g.var() + cy @ post.conditional.cov @ cy)
            center = post.z_mean()[idx]
            s = np.linspace(center - 6 * sd, center + 6 * sd, 13)
            assert _quad_agreement(post, idx, s) <= 1e-6

    def test_unreachable_tolerance_raises_typed_error(self, two_asset_posterior):
        with pytest.raises(tc.QuadratureFailure, match="relative error"):
            tc.posterior_marginal_y1(two_asset_posterior, np.linspace(0.0, 3.0, 7),
                                     rel_tol=1e-300)

    @pytest.mark.parametrize("label", [lb for lb in SIX_INDEX_LABELS if lb != "dax"])
    def test_thousand_knot_grid_view_matches_quad(self, label):
        """The heavy-tail t view tabulated on 1,001 knots: each point's panels take
        only the knots inside its kernel window."""
        t_views = heavy_tail_views(1, 3.0)
        g = _thousand_knot_grid(t_views.marginal)
        post = tc.build_posterior(tc.GaussianPrior(SIX_INDEX_MEAN, SIX_INDEX_COV),
                                  tc.ViewSet(t_views.view_map, g, t_views.moments))
        idx = SIX_INDEX_LABELS.index(label)
        sd = np.sqrt(SIX_INDEX_COV[idx, idx])
        s = post.z_mean()[idx] + sd * np.linspace(-6.0, 6.0, 5)
        assert _quad_agreement(post, idx, s) <= 1e-6

    def test_far_tail_point_retries_beyond_the_kernel_window(self, monkeypatch):
        """Y's marginal is N(0, 1).  At |s| >= 18 (rho = 0.2) the kernel window
        [c - 10h, c + 10h] lies where the view's pdf underflows to 0, so the window
        rung sums exactly 0 and only its e^-50 bound sends those points on."""
        rho = 0.2
        prior = tc.GaussianPrior([0.0, 0.0], [[1.0, rho], [rho, 1.0]])
        views = tc.ViewSet(tc.LinearViewMap.identity(2, 1, 2), tc.GaussianDensity(0.0, 1.0),
                           (tc.MomentView(target=0.0, coord=0),))
        post = tc.build_posterior(prior, views)
        calls = _spy_panel_sums(monkeypatch)
        s = np.array([-20.0, -18.0, 0.0, 1.0, 18.0, 20.0])
        got = tc.posterior_marginal_y1(post, s)
        assert calls[:2] == [(True, 6), (False, 4)]
        assert _quad_agreement(post, 1, s) <= 1e-6
        np.testing.assert_allclose(got, stats.norm.pdf(s), rtol=1e-12)

    def test_six_index_heavy_tail_columns_need_no_retry(self, monkeypatch, tmp_path):
        """Every density column and the tail probe are certified on the kernel window."""
        spec = cli.load_spec(str(WORKLOADS / "six_index_heavy_tail.json"))
        runner = cli._TaskRunner(spec)
        calls = _spy_panel_sums(monkeypatch)
        for task in spec.tasks:
            if task.type in ("calibrate", "tail"):
                runner.run_task(task, str(tmp_path), None, None)
        assert calls == [(True, 401)] * 5 + [(True, 10)]

    def test_a_point_does_not_depend_on_the_points_beside_it(self):
        """Points are grouped and chunked by their number of marks, on the t view and
        on its 1,001-knot grid, which spreads those numbers widest."""
        t_views = heavy_tail_views(1, 3.0)
        grid_views = tc.ViewSet(t_views.view_map, _thousand_knot_grid(t_views.marginal),
                                t_views.moments)
        s = np.linspace(-0.15, 0.15, 61)
        for views in (t_views, grid_views):
            post = tc.build_posterior(tc.GaussianPrior(SIX_INDEX_MEAN, SIX_INDEX_COV), views)
            for idx in (0, 4):
                w = np.eye(6)[idx]
                together = tc.posterior_marginal_linear(post, w, s)
                alone = [tc.posterior_marginal_linear(post, w, sv) for sv in s]
                np.testing.assert_array_equal(together, alone)

    @pytest.mark.parametrize("view", ["student_t", "gaussian", "grid"])
    @pytest.mark.parametrize("h", [1e-4, 3e-3, 2e-2])
    @pytest.mark.parametrize("window, halvings",
                             [(True, 0)] + [(False, halvings) for halvings in range(5)])
    def test_panel_sums_equal_the_padded_engine(self, view, h, window, halvings):
        """Grouping points by mark count changes no bit of the padded rows' sums or
        error estimates, on every rung of the retry ladder."""
        t_views = heavy_tail_views(1, 3.0)
        t_view = t_views.marginal
        g = {"student_t": t_view, "gaussian": tc.GaussianDensity(t_view.loc, t_view.scale),
             "grid": _thousand_knot_grid(t_view)}[view]
        view_marks = np.unique(np.concatenate(
            [g.ppf(analytic._VIEW_QUANTILES), getattr(g, "knots", np.zeros(0))]))
        centers = t_view.loc + np.concatenate([np.linspace(-0.3, 0.3, 37),
                                               [-3.0, -1.0, 1.0, 3.0]])
        got = analytic._panel_sums(g, centers, h, view_marks, window=window,
                                   halvings=halvings)
        expected = panel_sums_padded(g, centers, h, view_marks, window=window,
                                     halvings=halvings)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


def _thousand_knot_grid(t_view):
    """``t_view`` tabulated on 1,001 knots over its 1e-6 quantiles."""
    return tc.GridDensity.from_function(t_view.pdf, float(t_view.ppf(1e-6)),
                                        float(t_view.ppf(1.0 - 1e-6)), n=1001)


def _spy_panel_sums(monkeypatch):
    """Record (window, number of points) of every ``analytic._panel_sums`` call."""
    calls = []
    panel_sums = analytic._panel_sums

    def spy(g, centers, h, view_marks, *, window, halvings):
        calls.append((window, centers.size))
        return panel_sums(g, centers, h, view_marks, window=window, halvings=halvings)

    monkeypatch.setattr(analytic, "_panel_sums", spy)
    return calls


class TestKronrodRule:
    """QUADPACK's qk15 constants: K15 is exact to degree 22, its embedded G7 to 13."""

    @staticmethod
    def _monomial_errors(weights, degrees):
        exact = np.array([0.0 if d % 2 else 2.0 / (d + 1) for d in degrees])
        return np.array([weights @ analytic._K15_X**d for d in degrees]) - exact

    def test_kronrod_integrates_monomials_to_degree_22(self):
        errors = self._monomial_errors(analytic._K15_W, range(23))
        np.testing.assert_allclose(errors, 0.0, atol=1e-15)

    def test_gauss_integrates_monomials_to_degree_13_on_seven_nodes(self):
        w = analytic._G7_W
        np.testing.assert_allclose(self._monomial_errors(w, range(14)), 0.0, atol=1e-15)
        assert abs(self._monomial_errors(w, [14])[0]) > 1e-4
        np.testing.assert_allclose(analytic._K15_X[w > 0],
                                   np.polynomial.legendre.leggauss(7)[0], atol=1e-15)

    def test_rule_columns_are_kronrod_and_its_gap_to_gauss(self):
        np.testing.assert_array_equal(analytic._RULE[:, 0], analytic._K15_W)
        np.testing.assert_array_equal(analytic._RULE[:, 1], analytic._K15_W - analytic._G7_W)


def test_permutation_map_marginal_and_sensitivities_match_the_solve(tmp_path):
    """On six_index_heavy_tail's permutation map, w @ V^-1 is V^-T w bit for bit.

    ``posterior_marginal_linear`` and the sensitivities task once took their
    view weights from ``np.linalg.solve(V.T, w)``; both results are unchanged.
    """
    spec = cli.load_spec(str(WORKLOADS / "six_index_heavy_tail.json"))
    runner = cli._TaskRunner(spec)
    post = runner.posterior()
    v = post.view_map.matrix
    grid = np.linspace(-0.12, 0.12, 41)
    for w in np.eye(6):
        want = analytic._marginal_from_view_weights(post, np.linalg.solve(v.T, w), grid, 1e-6)
        assert np.array_equal(tc.posterior_marginal_linear(post, w, grid), want)
    task = next(task for task in spec.tasks if task.type == "sensitivities")
    runner.run_task(task, str(tmp_path), None, None)
    w_z, wrt_loc = task.args
    report = tc.sensitivities(post, r_weights=np.linalg.solve(v.T, w_z), wrt_loc=wrt_loc)
    written = json.loads((tmp_path / "sensitivities.json").read_text())
    assert written["d_pi_d_c"] == report.d_pi_d_c.tolist()
    assert written["V"] == report.v_matrix.tolist()
    assert written["U"] == report.u_matrix.tolist()
    assert written["d_pi_d_loc"] == report.d_pi_d_loc
