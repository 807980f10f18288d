"""Sampling, VaR estimation, and option pricing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import roots_hermite

import tiltcal as tc
from conftest import (
    SIX_INDEX_COV,
    SIX_INDEX_MEAN,
    closed_form_posteriors,
    heavy_tail_views,
    random_gaussian_linear_problem,
)
from oracles import price_tilted_lognormal_2d, var_bootstrap_loop


# ---------------------------------------------------------------------------
# Lognormal-pair helpers (index with a density view, stock priced off it)
# ---------------------------------------------------------------------------


def make_lognormal_pair(index_spot=1183.74, stock_spot=82.98, rate=0.0269,
                        horizon=72.0 / 365.0):
    """Bivariate lognormal: (index, stock) with the index as the view block."""
    cov_log = np.array([[4.489, -0.4721], [-0.4721, 3.969]]) * 1e-5 * 72.0
    mu_log = np.array(
        [
            np.log(index_spot) + rate * horizon - cov_log[0, 0] / 2.0,
            np.log(stock_spot) + rate * horizon - cov_log[1, 1] / 2.0,
        ]
    )
    slope = cov_log[1, 0] / cov_log[0, 0]
    cvar = cov_log[1, 1] - cov_log[1, 0] ** 2 / cov_log[0, 0]

    def cond_quadrature(x, n):
        t, w = roots_hermite(n)
        m = mu_log[1] + slope * (np.log(x[:, 0]) - mu_log[0])
        nodes = np.exp(m[:, None] + np.sqrt(2.0 * cvar) * t[None, :])
        weights = np.broadcast_to(w / np.sqrt(np.pi), nodes.shape)
        return nodes[:, :, None], weights

    def cond_sampler(x, rng):
        m = mu_log[1] + slope * (np.log(x[:, 0]) - mu_log[0])
        return np.exp(m + np.sqrt(cvar) * rng.standard_normal(x.shape[0]))[:, None]

    def cond_density(y, x):
        m = mu_log[1] + slope * (np.log(x[..., 0]) - mu_log[0])
        ly = np.log(y[..., 0])
        return np.exp(-0.5 * (ly - m) ** 2 / cvar) / (
            y[..., 0] * np.sqrt(2 * np.pi * cvar)
        )

    prior = tc.GenericPrior(
        x_dim=1, y_dim=1,
        conditional_density=cond_density,
        conditional_sampler=cond_sampler,
        conditional_quadrature=cond_quadrature,
        label="lognormal-pair",
    )
    sd0 = np.sqrt(cov_log[0, 0])
    knots = np.exp(np.linspace(mu_log[0] - 10 * sd0, mu_log[0] + 10 * sd0, 1201))
    g = tc.GridDensity(knots, stats.lognorm.pdf(knots, s=sd0, scale=np.exp(mu_log[0])))
    return prior, g, mu_log, cov_log, rate * horizon


def calibrated_stock_problem(bump=1.05, strike=80.0):
    """Scalar-multiplier problem: reprice the liquid strike off-model by +5%."""
    prior, g, mu_log, cov_log, discount = make_lognormal_pair()
    payoff = lambda x, y: np.maximum(y[..., 0] - strike, 0.0)
    probe_views = tc.ViewSet(
        tc.LinearViewMap.identity(2, 1, 1), g,
        (tc.MomentView(target=0.0, payoff=payoff),),
    )
    problem0 = tc.QuadratureProblem.from_prior(prior, probe_views, n_y=256)
    prior_expect = problem0.dual_state([0.0]).gradient[0]
    target = bump * prior_expect
    views = tc.ViewSet(
        tc.LinearViewMap.identity(2, 1, 1), g,
        (tc.MomentView(target=float(target), payoff=payoff),),
    )
    problem = tc.QuadratureProblem.from_prior(prior, views, n_y=256)
    report = tc.solve_lambda_newton(prior, views, problem=problem)
    post = tc.TiltedPosterior(prior, views, report.lam, problem)
    return post, report, payoff, float(target), mu_log, cov_log, discount, g


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_generic_conditional_density_integrates_to_one():
    prior, g, mu_log, cov_log, _ = make_lognormal_pair()
    for spot in (1000.0, 1183.74, 1400.0):
        x = np.array([[spot]])
        ly = np.linspace(np.log(40.0), np.log(170.0), 4001)
        y = np.exp(ly)
        dens = prior.conditional_density(y[:, None], np.broadcast_to(x, (y.size, 1)))
        assert np.trapezoid(dens, y) == pytest.approx(1.0, abs=1e-6)


class TestSamplePosterior:
    def test_seed_determinism_bit_identical(self, two_asset_prior, two_asset_views):
        for post in closed_form_posteriors(two_asset_prior, two_asset_views):
            a = tc.sample_posterior(post, 150_000, seed=42)
            b = tc.sample_posterior(post, 150_000, seed=42)
            assert np.array_equal(a.z_samples, b.z_samples)
            c = tc.sample_posterior(post, 150_000, seed=43)
            assert not np.array_equal(a.z_samples, c.z_samples)

    def test_targets_hit_within_monte_carlo_error(self):
        rng = np.random.default_rng(23)
        prior, views = random_gaussian_linear_problem(rng, 4)
        post, tilted = closed_form_posteriors(prior, views)
        batch = tc.sample_posterior(post, 1_000_000, seed=1)
        again = tc.sample_posterior(tilted, 1_000_000, seed=1)
        np.testing.assert_array_equal(again.z_samples, batch.z_samples)
        assert again.weights is None
        y = batch.z_samples @ views.view_map.matrix.T[:, 1:]
        se = y.std(axis=0, ddof=1) / np.sqrt(batch.n)
        np.testing.assert_array_less(np.abs(y.mean(axis=0) - views.targets), 3 * se)

    def test_two_asset_portfolio_marginal_is_the_t_view(self, two_asset_posterior):
        batch = tc.sample_posterior(two_asset_posterior, 100_000, seed=12)
        x = batch.z_samples @ np.array([0.7, 0.3])
        view = two_asset_posterior.marginal
        assert stats.kstest(x, lambda t: view.cdf(t)).pvalue > 0.01

    def test_grid_marginal_sampling_matches_grid_cdf(self):
        knots = np.linspace(-2.0, 3.0, 400)
        g = tc.GridDensity(knots, np.exp(-0.5 * (knots - 0.4) ** 2) + 0.05)
        prior = tc.GaussianPrior([0.0, 0.0], [[1.0, 0.4], [0.4, 1.0]])
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 2), g, (tc.MomentView(target=0.2, coord=0),)
        )
        post = tc.build_posterior(prior, views)
        n = 100_000
        batch = tc.sample_posterior(post, n, seed=8)
        x = np.sort(batch.z_samples[:, 0])
        ecdf = (np.arange(n) + 0.5) / n
        sup = np.abs(ecdf - g.cdf(x)).max()
        assert sup <= 1.63 / np.sqrt(n)  # KS bound at the 1% level

    def test_tilted_gaussian_linear_posterior_sampling(self, two_asset_prior, two_asset_views):
        problem = tc.GaussianLinearProblem(two_asset_prior, two_asset_views)
        report = tc.solve_lambda_newton(two_asset_prior, two_asset_views, problem=problem)
        post = tc.TiltedPosterior(two_asset_prior, two_asset_views, report.lam, problem)
        batch = tc.sample_posterior(post, 200_000, seed=4)
        assert batch.weights is None
        y = batch.z_samples[:, 1]
        se = y.std(ddof=1) / np.sqrt(batch.n)
        assert abs(y.mean() - 1.5) < 3 * se

    def test_generic_importance_weights(self):
        post, report, payoff, target, *_ , discount, g = calibrated_stock_problem()
        batch = tc.sample_posterior(post, 50_000, seed=3)
        assert batch.weights is not None
        assert batch.weights.min() >= 0.0
        assert batch.weights.mean() == pytest.approx(1.0, abs=1e-12)
        h = np.maximum(batch.z_samples[:, 1] - 80.0, 0.0)
        est = np.average(h, weights=batch.weights)
        se = np.sqrt(np.average((h - est) ** 2 * batch.weights, weights=batch.weights) / batch.n)
        assert abs(est - target) < 4 * se

    def test_generic_without_sampler_raises(self):
        prior = tc.GenericPrior(x_dim=1, y_dim=1)
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 1),
            tc.GaussianDensity(0.0, 1.0),
            (tc.MomentView(target=0.0, payoff=lambda x, y: y[..., 0]),),
        )
        post = tc.TiltedPosterior(prior, views, np.zeros(1), None)
        with pytest.raises(tc.NonSampleableConditional):
            tc.sample_posterior(post, 100, seed=0)

    def test_gaussian_payoff_posterior_needs_one_conditional_dimension(self):
        """The normalizer's tensor rule over d > 1 dimensions is refused, not built."""
        call = lambda x, y: np.maximum(y[..., 0] - 0.4, 0.0)
        for dim in (3, 5):
            prior = tc.GaussianPrior(np.zeros(dim), np.eye(dim) + 0.3)
            views = tc.ViewSet(
                tc.LinearViewMap.identity(dim, 1, 1), tc.GaussianDensity(0.0, 1.0),
                (tc.MomentView(target=0.45, payoff=call),),
            )
            post = tc.TiltedPosterior(prior, views, np.zeros(1), None)
            with pytest.raises(tc.NonSampleableConditional):
                tc.sample_posterior(post, 1_000, seed=0)

    def test_sample_moment_error_shrinks_with_n(self, two_asset_posterior):
        post = two_asset_posterior
        for n in (10_000, 100_000, 1_000_000):
            batch = tc.sample_posterior(post, n, seed=51)
            y = batch.z_samples[:, 1]
            se = y.std(ddof=1) / np.sqrt(n)
            assert abs(y.mean() - 1.5) <= 4 * se


# ---------------------------------------------------------------------------
# Value-at-risk
# ---------------------------------------------------------------------------


class TestEstimateVar:
    LEVELS = (0.9975, 0.995, 0.9925, 0.95, 0.75, 0.5)

    def _prior_batch(self, n=100_000, seed=11):
        prior = tc.GaussianPrior(SIX_INDEX_MEAN, SIX_INDEX_COV)
        views = tc.ViewSet(tc.LinearViewMap.identity(6, 0, 0), None, ())
        post = tc.build_posterior(prior, views)
        return tc.sample_posterior(post, n, seed=seed)

    def test_prior_gaussian_matches_quantile_closed_form(self):
        batch = self._prior_batch()
        w = np.full(6, 1.0 / 6.0)
        report = tc.estimate_var(batch, w, 1e6, self.LEVELS)
        mu = float(w @ SIX_INDEX_MEAN)
        sd = float(np.sqrt(w @ SIX_INDEX_COV @ w))
        for q, v, se in report.as_rows():
            closed = (mu + stats.norm.ppf(q) * sd) * 1e6
            assert abs(v - closed) <= 3 * se

    def test_values_non_increasing_as_level_decreases(self):
        batch = self._prior_batch()
        report = tc.estimate_var(batch, np.full(6, 1 / 6), 1e6, self.LEVELS)
        assert np.all(np.diff(report.var_values) <= 0)

    def test_point_mass_batch(self):
        z = np.tile([[0.01, -0.02]], (2000, 1))
        batch = tc.SampleBatch(z, seed=0)
        report = tc.estimate_var(batch, [0.5, 0.5], 1e6, [0.95, 0.75])
        np.testing.assert_allclose(report.var_values, -0.005 * 1e6)

    def test_insufficient_tail_samples(self):
        batch = self._prior_batch(n=1000)
        with pytest.raises(tc.InsufficientSamples):
            tc.estimate_var(batch, np.full(6, 1 / 6), 1e6, [0.9975])

    def test_weighted_tail_floor_counts_effective_samples(self):
        z = np.random.default_rng(1).standard_normal((1000, 2))
        w = np.tile([2.0, 0.0], 500)  # Kish ESS 500 of 1,000 rows
        batch = tc.SampleBatch(z, seed=0, weights=w)
        tc.estimate_var(batch, [0.5, 0.5], 1e6, [0.95])  # 25 effective tail samples
        with pytest.raises(tc.InsufficientSamples, match="effective sample size 500.0"):
            tc.estimate_var(batch, [0.5, 0.5], 1e6, [0.975])  # 12.5 (25 rows)
        tc.estimate_var(tc.SampleBatch(z, seed=0), [0.5, 0.5], 1e6, [0.975])

    def test_level_validation(self):
        batch = self._prior_batch(n=1000)
        with pytest.raises(ValueError):
            tc.estimate_var(batch, np.full(6, 1 / 6), 1e6, [1.5])

    def test_weighted_batch_quantiles(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((50_000, 1))
        # weights twisting the law toward N(0.5, 1)
        w = np.exp(0.5 * z[:, 0] - 0.125 / 2 - 0.0)
        w = w / w.mean()
        batch = tc.SampleBatch(z, seed=0, weights=w)
        report = tc.estimate_var(batch, [1.0], 1.0, [0.95])
        target = 0.5 + stats.norm.ppf(0.95)
        assert report.var_values[0] == pytest.approx(target, abs=4 * report.std_errors[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        z = np.random.default_rng(0).standard_normal((10_000, 1))
        with pytest.raises(ValueError, match="finite"):
            tc.SampleBatch(z, seed=0, weights=np.full(10_000, bad))
        w = np.ones(10_000)
        w[17] = bad
        with pytest.raises(ValueError, match="finite"):
            tc.SampleBatch(z, seed=0, weights=w)

    def test_heavy_tail_view_raises_extreme_var(self):
        prior = tc.GaussianPrior(SIX_INDEX_MEAN, SIX_INDEX_COV)
        post_t = tc.build_posterior(prior, heavy_tail_views(1, 3.0))
        batch = tc.sample_posterior(post_t, 100_000, seed=11)
        rep_t = tc.estimate_var(batch, np.full(6, 1 / 6), 1e6, [0.9975])
        rep_prior = tc.estimate_var(self._prior_batch(), np.full(6, 1 / 6), 1e6, [0.9975])
        assert rep_t.var_values[0] > 1.25 * rep_prior.var_values[0]


def _unweighted_case(name):
    rng = np.random.default_rng(5)
    if name == "ties_rounded":
        return np.round(rng.standard_t(3, (10_000, 2)), 1), None
    if name == "duplicated_rows":
        z = rng.standard_t(3, (6000, 3))
        return np.vstack([z, z[:4000]]), None
    if name == "point_mass":
        return np.tile([[0.01, -0.02]], (10_000, 1)), None
    return rng.standard_normal((10_000, 2)), None


def _weighted_case(name):
    """Importance-weighted batches; tied returns always share a weight."""
    rng = np.random.default_rng(6)
    if name == "ties_rounded":
        z = np.round(rng.standard_t(3, (10_000, 1)), 1)
        w = np.exp(0.4 * z[:, 0] - 0.1 * z[:, 0] ** 2)
    elif name == "duplicated_rows":
        z = rng.standard_normal((6000, 2))
        w = np.exp(0.3 * z[:, 0] - 0.2 * z[:, 1])
        z, w = np.vstack([z, z[:4000]]), np.concatenate([w, w[:4000]])
    elif name == "exact_zeros":
        z = rng.standard_t(4, (10_000, 2))
        w = np.where(z[:, 0] < -0.5, 0.0, np.exp(0.25 * z[:, 1]))
    elif name == "point_mass":
        z = np.tile([[0.01, -0.02]], (10_000, 1))
        w = np.where(rng.uniform(size=10_000) < 0.3, 0.0, rng.exponential(size=10_000))
    else:
        z = rng.standard_normal((10_000, 2))
        w = np.exp(0.5 * z[:, 0])
    return z, w / w.mean()


VAR_CASES = ["ties_rounded", "duplicated_rows", "point_mass", "plain"]
BOOT_LEVELS = (0.9975, 0.95, 0.5, 0.25)


class TestVarBootstrap:
    """The sort-once count bootstrap against the per-resample loop oracle."""

    @pytest.mark.parametrize("n_boot", [2, 60])
    @pytest.mark.parametrize("case", VAR_CASES)
    def test_unweighted_report_equals_loop_oracle(self, case, n_boot):
        z, _ = _unweighted_case(case)
        pw = np.full(z.shape[1], 1.0 / z.shape[1])
        report = tc.estimate_var(tc.SampleBatch(z, seed=0), pw, 1e6, BOOT_LEVELS,
                                 n_boot=n_boot, boot_seed=3)
        point, boot = var_bootstrap_loop(z @ pw, BOOT_LEVELS, None, n_boot, 3)
        assert np.array_equal(report.var_values, point * 1e6)
        assert np.array_equal(report.std_errors, boot.std(axis=0, ddof=1) * 1e6)

    @pytest.mark.parametrize("n_boot", [2, 60])
    @pytest.mark.parametrize("case", VAR_CASES[:2] + ["exact_zeros"] + VAR_CASES[2:])
    def test_weighted_resamples_match_loop_oracle(self, case, n_boot):
        z, w = _weighted_case(case)
        pw = np.full(z.shape[1], 1.0 / z.shape[1])
        returns = z @ pw
        q = np.array(BOOT_LEVELS)
        fast = tc.montecarlo._bootstrap_quantiles(returns, w, q, n_boot, 3)
        point, boot = var_bootstrap_loop(returns, q, w, n_boot, 3)
        tol = 1e-12 * np.ptp(returns)
        assert np.abs(fast[0] - point).max() <= tol
        assert np.abs(fast[1:] - boot).max() <= tol
        # Three of the cases have a Kish ESS below 8,000, too few for 0.9975.
        report = tc.estimate_var(tc.SampleBatch(z, seed=0, weights=w), pw, 1e6, q[1:],
                                 n_boot=n_boot, boot_seed=3)
        np.testing.assert_allclose(report.std_errors,
                                   boot[:, 1:].std(axis=0, ddof=1) * 1e6, rtol=1e-10, atol=0)

    def test_resamples_without_weight_have_no_quantile(self):
        z = np.random.default_rng(0).standard_normal((1000, 1))
        w = np.zeros(1000)
        w[:2] = 500.0  # most resamples still hold a weighted row, some do not
        fast = tc.montecarlo._bootstrap_quantiles(z[:, 0], w, np.array([0.95]), 40, 7)
        rng = np.random.default_rng(7)
        empty = np.array([not w[rng.integers(0, 1000, 1000)].any() for _ in range(40)])
        assert 0 < empty.sum() < 40
        assert np.array_equal(np.isnan(fast[1:, 0]), empty)
        with np.errstate(invalid="ignore"):
            point, boot = var_bootstrap_loop(z[:, 0], [0.95], w, 40, 7)
        assert np.abs(fast[1:][~empty] - boot[~empty]).max() <= 1e-12 * np.ptp(z)
        assert abs(fast[0, 0] - point[0]) <= 1e-12 * np.ptp(z)
        # Kish ESS 2: estimate_var refuses the batch instead of returning a NaN SE.
        with pytest.raises(tc.InsufficientSamples, match="effective sample size 2.0"):
            tc.estimate_var(tc.SampleBatch(z, seed=0, weights=w), [1.0], 1.0, [0.95])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 400),
           weighted=st.booleans(), decimals=st.sampled_from([None, 0, 1]),
           levels=st.lists(st.floats(0.0005, 0.9995), min_size=1, max_size=4),
           n_boot=st.integers(2, 6))
    # levels beyond the first and the last knot clamp to the extreme present values
    @example(seed=10, n=50, weighted=True, decimals=None, levels=[0.0005, 0.25, 0.9995],
             n_boot=6)
    def test_bootstrap_quantiles_match_loop_oracle(self, seed, n, weighted, decimals,
                                                   levels, n_boot):
        rng = np.random.default_rng(seed)
        returns = rng.standard_t(3, n)
        if decimals is not None:
            returns = np.round(returns, decimals)
        w = None
        if weighted:  # a function of the return, so ties share a weight; ~1/4 zeros
            w = np.where(np.round(7 * returns) % 4 == 0, 0.0, np.exp(np.tanh(returns)))
            w = w / w.mean() if w.any() else np.ones(n)
        q = np.array(levels)
        fast = tc.montecarlo._bootstrap_quantiles(returns, w, q, n_boot, seed)
        point, boot = var_bootstrap_loop(returns, q, w, n_boot, seed)
        expected = np.vstack([point, boot])
        if w is None:
            assert np.array_equal(fast, expected)
        else:
            assert np.abs(fast - expected).max() <= 1e-12 * np.ptp(returns)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_sort_whatever_the_resample_count(self, weighted, monkeypatch):
        calls = {"argsort": 0, "quantile": 0}

        def counted(name):
            original = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np, name, counted(name))
        z, w = _weighted_case("plain") if weighted else _unweighted_case("plain")
        batch = tc.SampleBatch(z, seed=0, weights=w)
        seen = []
        for n_boot in (2, 50):
            before = dict(calls)
            tc.estimate_var(batch, [0.5, 0.5], 1.0, BOOT_LEVELS[1:], n_boot=n_boot)
            seen.append({name: calls[name] - before[name] for name in calls})
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("kwargs", [
        {"portfolio_weights": [np.nan, 0.5]},
        {"portfolio_weights": [np.inf, 0.5]},
        {"notional": np.inf},
        {"notional": np.nan},
        {"n_boot": 1},
        {"n_boot": 0},
    ])
    def test_invalid_inputs_raise(self, kwargs):
        z, _ = _unweighted_case("plain")
        args = {"portfolio_weights": [0.5, 0.5], "notional": 1e6} | kwargs
        n_boot = args.pop("n_boot", 200)
        with pytest.raises(ValueError):
            tc.estimate_var(tc.SampleBatch(z, seed=0), levels=[0.95], n_boot=n_boot,
                            **args)

    def test_overflowing_returns_raise(self):
        z = np.full((1000, 2), 1e308)
        with pytest.raises(ValueError, match="overflow"):
            tc.estimate_var(tc.SampleBatch(z, seed=0), [1.0, 1.0], 1.0, [0.5])


# ---------------------------------------------------------------------------
# Option pricing
# ---------------------------------------------------------------------------


class TestPriceOption:
    def test_constant_payoff_prices_to_discount_factor(self):
        post, *_ = calibrated_stock_problem()
        one = lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
        res = tc.price_option(post, one, 0.07)
        assert res.price == pytest.approx(np.exp(-0.07), rel=1e-12)

    def test_constant_payoff_monte_carlo_path(self, two_asset_prior, two_asset_views):
        post, tilted = closed_form_posteriors(two_asset_prior, two_asset_views)
        one = lambda x, y: np.ones(y.shape[:-1])
        res = tc.price_option(post, one, 0.05, n_samples=10_000)
        assert res.method == "monte-carlo"
        assert res.price == pytest.approx(np.exp(-0.05), rel=1e-12)
        assert tc.price_option(tilted, one, 0.05, n_samples=10_000) == res
        call = lambda x, y: np.maximum(y[..., 0] - 1.8, 0.0)
        res = tc.price_option(post, call, 0.05, n_samples=70_000, seed=3)
        assert tc.price_option(tilted, call, 0.05, n_samples=70_000, seed=3) == res

    def test_calibration_instrument_reprices_to_target(self):
        post, report, payoff, target, _, _, discount, _ = calibrated_stock_problem()
        assert report.converged
        assert report.lam[0] > 0.0  # price bumped above the prior expectation
        res = tc.price_option(post, payoff, discount)
        assert res.price == pytest.approx(np.exp(-discount) * target, rel=1e-9)

    def test_out_of_the_money_price_matches_dense_quadrature_oracle(self):
        post, report, payoff, target, mu_log, cov_log, discount, g = (
            calibrated_stock_problem()
        )
        otm = lambda x, y: np.maximum(y[..., 0] - 88.0, 0.0)
        res = tc.price_option(post, otm, discount)
        oracle = price_tilted_lognormal_2d(
            mu_log, cov_log, report.lam[0], 80.0, 88.0, discount,
            lambda x: stats.lognorm.pdf(x, s=np.sqrt(cov_log[0, 0]),
                                        scale=np.exp(mu_log[0])),
        )
        assert res.price == pytest.approx(oracle, rel=1e-3)

    def test_linearity_in_the_payoff(self):
        post, report, payoff, *_ = calibrated_stock_problem()
        p1 = lambda x, y: np.maximum(y[..., 0] - 85.0, 0.0)
        p2 = lambda x, y: np.minimum(y[..., 0], 90.0)
        combo = lambda x, y: 2.0 * p1(x, y) + 0.5 * p2(x, y)
        r1 = tc.price_option(post, p1, 0.01).price
        r2 = tc.price_option(post, p2, 0.01).price
        rc = tc.price_option(post, combo, 0.01).price
        assert rc == pytest.approx(2.0 * r1 + 0.5 * r2, rel=1e-10)

    def test_non_finite_payoff_rejected(self):
        post, *_ = calibrated_stock_problem()
        bad = lambda x, y: np.where(y[..., 0] > 80.0, np.inf, 0.0)
        with pytest.raises(tc.NonIntegrablePayoff):
            tc.price_option(post, bad, 0.0)
