"""Sampling, VaR estimation, and option pricing."""

import collections
import csv
import functools
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy.special import logsumexp, roots_hermite

import tiltcal as tc
from tiltcal import calibration, cli, densities, priors
from conftest import (
    SIX_INDEX_COV,
    SIX_INDEX_MEAN,
    closed_form_posteriors,
    heavy_tail_views,
    random_gaussian_linear_problem,
)
from oracles import (
    bootstrap_resamples_sorted,
    portfolio_cdf_quad,
    portfolio_law_blocks,
    price_tilted_lognormal_2d,
    sample_posterior_loop,
    sample_tilted_logs,
    tilted_draw_unblocked,
    tilted_gaussian_draw_mpmath,
    tilted_gaussian_pieces,
    var_bootstrap_loop,
)

WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads"


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

    prior = tc.GenericPrior(
        x_dim=1, y_dim=1,
        conditional_sampler=cond_sampler,
        conditional_quadrature=cond_quadrature,
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
    post = tc.TiltedPosterior(problem, report.lam)
    return post, report, payoff, float(target), mu_log, cov_log, discount, g


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class TestSamplePosterior:
    @pytest.mark.parametrize("weights, match", [
        ([1.0, 1.5], "mean-normalized"),
        ([1.0, -1.0], "nonnegative"),
    ], ids=["mean-not-one", "negative"])
    def test_sample_batch_weights_are_checked(self, weights, match):
        with pytest.raises(ValueError, match=match):
            tc.SampleBatch(np.zeros((2, 2)), seed=0, weights=np.array(weights))

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
        post = problem.posterior(report.lam)
        batch = tc.sample_posterior(post, 200_000, seed=4)
        assert batch.weights is None
        y = batch.z_samples[:, 1]
        se = y.std(ddof=1) / np.sqrt(batch.n)
        assert abs(y.mean() - 1.5) < 3 * se

    def test_generic_importance_weights(self):
        post, report, payoff, target, *_ , discount, g = calibrated_stock_problem()
        batch = tc.sample_posterior(post, 50_000, seed=3)
        again = tc.sample_posterior(post.problem.posterior(report.lam), 50_000, seed=3)
        np.testing.assert_array_equal(again.z_samples, batch.z_samples)
        np.testing.assert_array_equal(again.weights, batch.weights)
        assert batch.weights is not None
        assert batch.weights.min() >= 0.0
        assert batch.weights.mean() == pytest.approx(1.0, abs=1e-12)
        h = np.maximum(batch.z_samples[:, 1] - 80.0, 0.0)
        est = np.average(h, weights=batch.weights)
        se = np.sqrt(np.average((h - est) ** 2 * batch.weights, weights=batch.weights) / batch.n)
        assert abs(est - target) < 4 * se

    def test_importance_weights_use_the_problem_rule(self):
        """option_chain's model: the normalizer log Z(x) takes the problem's own n_y."""
        prior = tc.GaussianPrior([0.0, 0.1], [[1.0, 0.6], [0.6, 1.2]])
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 2), tc.StudentTDensity(df=4, loc=0.0, scale=0.8),
            (tc.MomentView(target=0.45, payoff=lambda x, y: np.maximum(y[..., 0] - 0.4, 0.0)),
             tc.MomentView(target=0.25, payoff=lambda x, y: np.maximum(-0.4 - y[..., 0], 0.0))),
        )
        coarse, fine = (tc.QuadratureProblem.from_prior(prior, views, n_x=2000, n_y=n_y)
                        for n_y in (16, 64))
        lam = tc.solve_lambda_newton(prior, views, problem=fine).lam
        batch = tc.sample_posterior(coarse.posterior(lam), 20_000, seed=3)
        again = tc.sample_posterior(fine.posterior(lam), 20_000, seed=3)
        np.testing.assert_array_equal(batch.z_samples, again.z_samples)
        assert not np.array_equal(batch.weights, again.weights)

        def h(x, y):
            return np.stack([view.payoff(x, y) for view in views.moments])

        x, y = batch.z_samples[:, :1], batch.z_samples[:, 1:]
        nodes, log_w = coarse.law.rule(x, 16)
        log_z = logsumexp(log_w + np.einsum("k,knj->nj", lam, h(x[:, None, :], nodes)), axis=1)
        w = np.exp(lam @ h(x, y) - log_z)
        np.testing.assert_allclose(batch.weights, w / w.mean(), rtol=1e-10)

    def test_discrete_problem_is_not_sampleable(self):
        cond = np.full((3, 4), 0.25)
        problem = tc.QuadratureProblem.from_discrete(
            np.arange(3.0), np.full(3, 1 / 3), cond, np.arange(4.0),
            (tc.MomentView(target=1.6, coord=0),))
        with pytest.raises(tc.NonSampleableConditional):
            tc.sample_posterior(problem.posterior(np.zeros(1)), 100, seed=0)

    def test_generic_without_sampler_raises(self):
        """With neither callback there is no rule, so no problem to tilt and sample."""
        prior = tc.GenericPrior(x_dim=1, y_dim=1)
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 1),
            tc.GaussianDensity(0.0, 1.0),
            (tc.MomentView(target=0.0, payoff=lambda x, y: y[..., 0]),),
        )
        with pytest.raises(tc.NonSampleableConditional):
            tc.QuadratureProblem.from_prior(prior, views, n_x=50)

    def test_gaussian_payoff_posterior_needs_one_conditional_dimension(self):
        """The normalizer's tensor rule over d > 1 dimensions is refused, not built."""
        call = lambda x, y: np.maximum(y[..., 0] - 0.4, 0.0)

        def views(dim):
            return tc.ViewSet(
                tc.LinearViewMap.identity(dim, 1, 1), tc.GaussianDensity(0.0, 1.0),
                (tc.MomentView(target=0.45, payoff=call),),
            )

        prior = tc.GaussianPrior(np.zeros(3), np.eye(3) + 0.3)
        problem = tc.QuadratureProblem.from_prior(prior, views(3), n_x=50, n_y=8)
        with pytest.raises(tc.NonSampleableConditional):
            tc.sample_posterior(problem.posterior(np.zeros(1)), 1_000, seed=0)
        prior = tc.GaussianPrior(np.zeros(5), np.eye(5) + 0.3)
        with pytest.raises(tc.QuadratureFailure):  # no tensor rule past three dimensions
            tc.QuadratureProblem.from_prior(prior, views(5), n_x=50, n_y=8)

    def test_sample_moment_error_shrinks_with_n(self, two_asset_posterior):
        post = two_asset_posterior
        for n in (10_000, 100_000, 1_000_000):
            batch = tc.sample_posterior(post, n, seed=51)
            y = batch.z_samples[:, 1]
            se = y.std(ddof=1) / np.sqrt(n)
            assert abs(y.mean() - 1.5) <= 4 * se


# ---------------------------------------------------------------------------
# Streams: how a seed becomes n posterior draws
# ---------------------------------------------------------------------------


class GaussianStub:
    """Weighted draws that depend on the generator alone: normal draws and log-weights."""

    view_map = tc.LinearViewMap.identity(2, 1, 2)

    def draw(self, n, rng, keep=None):
        return rng.standard_normal((n, 2))[:keep], rng.standard_normal(n)[:keep]


class HeavyDroppedRowsStub:
    """Unit-weight draws, except that rows past a stream's first 1,000 have log-weight 800."""

    view_map = tc.LinearViewMap.identity(2, 1, 2)

    def draw(self, n, rng, keep=None):
        log_w = np.where(np.arange(n) < 1000, 0.0, 800.0)
        return rng.standard_normal((n, 2))[:keep], log_w[:keep]


class TestStreams:
    NS = (0, 1, 65_535, 65_536, 65_537, 131_073)

    @pytest.mark.parametrize("kind", ["closed-form", "weighted-stub"])
    def test_streams_yield_n_rows_whose_prefixes_agree(self, two_asset_posterior, kind):
        """n rows in all, in streams of at most 2^16; the first m rows agree for every n >= m."""
        post = two_asset_posterior if kind == "closed-form" else GaussianStub()
        runs = {}
        for n in self.NS:
            streams = list(calibration._streams(post.draw, n, 9))
            assert all(xy.shape[0] <= calibration._CHUNK for xy, _ in streams)
            xy = np.vstack([xy for xy, _ in streams] or [np.zeros((0, 2))])
            log_w = [lw for _, lw in streams]
            assert xy.shape == (n, 2)
            if kind == "closed-form":
                assert all(lw is None for lw in log_w)
                runs[n] = xy, None
            else:
                runs[n] = xy, np.concatenate(log_w or [np.zeros(0)])
                assert runs[n][1].shape == (n,)
        longest = runs[self.NS[-1]]
        for n, (xy, log_w) in runs.items():
            assert np.array_equal(xy, longest[0][:n])
            if log_w is not None:
                assert np.array_equal(log_w, longest[1][:n])

    def test_dropped_draws_do_not_enter_the_weights(self):
        """The max that normalises the weights is taken over the kept draws only.

        Over the whole stream it would be 800, every kept weight would underflow
        to 0 and their mean-one normalisation would be 0 / 0.
        """
        batch = tc.sample_posterior(HeavyDroppedRowsStub(), 1000, seed=0)
        assert np.array_equal(batch.weights, np.ones(1000))

    @pytest.mark.parametrize("workload", ["six_index_heavy_tail", "six_index_mean_audit",
                                          "option_chain"])
    def test_sample_posterior_equals_the_stream_loop_oracle(self, workload):
        """A batch of the var task's size at seed 0, bit for bit in z, in z @ w (so its layout)
        and w."""
        spec = cli.load_spec(str(WORKLOADS / f"{workload}.json"))
        post = cli._TaskRunner(spec).posterior()
        task = next(task for task in spec.tasks if task.type == "var")
        batch = tc.sample_posterior(post, task.n_samples, seed=0)
        z, w = sample_posterior_loop(post, task.n_samples, 0)
        assert np.array_equal(batch.z_samples, z)
        portfolio = task.args[0]
        assert np.array_equal(batch.z_samples @ portfolio, z @ portfolio)
        if w is None:
            assert batch.weights is None
        else:
            assert np.array_equal(batch.weights, w)

    def test_no_draws_is_a_value_error(self, two_asset_posterior):
        with pytest.raises(ValueError, match="n must be at least 1"):
            tc.sample_posterior(two_asset_posterior, 0)

    @pytest.mark.parametrize("workload", ["six_index_heavy_tail", "option_chain"])
    def test_kept_rows_are_the_first_rows_of_the_whole_chunk(self, workload):
        """draw(n, rng, keep) is draw(n, rng)[:keep] bit for bit, one kept row included.

        A one-row matrix product may round unlike the whole chunk's (it does at
        about one seed in three on the six-index conditional), hence eight seeds.
        """
        spec = cli.load_spec(str(WORKLOADS / f"{workload}.json"))
        post = cli._TaskRunner(spec).posterior()
        for seed in range(8):
            whole = post.draw(calibration._CHUNK, np.random.default_rng(seed))
            for keep in (1, 2, 17, 34_464, calibration._CHUNK) if seed == 0 else (1,):
                xy, log_w = post.draw(calibration._CHUNK, np.random.default_rng(seed), keep)
                assert np.array_equal(xy, whole[0][:keep])
                assert (log_w is None) == (whole[1] is None)
                if log_w is not None:
                    assert np.array_equal(log_w, whole[1][:keep])

    @pytest.mark.parametrize("workload", ["six_index_heavy_tail", "option_chain"])
    def test_dropped_rows_are_not_transformed(self, workload, monkeypatch):
        """At n = 100,000 the view's ppf sees a whole stream, then only the 34,464 kept rows."""
        spec = cli.load_spec(str(WORKLOADS / f"{workload}.json"))
        post = cli._TaskRunner(spec).posterior()
        sizes, ppf = [], tc.StudentTDensity.ppf
        monkeypatch.setattr(tc.StudentTDensity, "ppf",
                            lambda self, u: sizes.append(np.size(u)) or ppf(self, u))
        tc.sample_posterior(post, 100_000, seed=0)
        assert sizes == [calibration._CHUNK, 100_000 - calibration._CHUNK]

    def test_generic_prior_streams_keep_their_prefixes(self):
        """A sampler that draws its batch back to front still gives every n the same prefix.

        A generic sampler may use the generator in any pattern, so it draws whole streams.
        """
        prior, g, *_ = make_lognormal_pair()
        sampler = prior.conditional_sampler
        backwards = lambda x, rng: sampler(x[::-1], rng)[::-1]
        prior = tc.GenericPrior(1, 1, backwards, prior.conditional_quadrature)
        views = tc.ViewSet(tc.LinearViewMap.identity(2, 1, 1), g, (tc.MomentView(
            target=4.0, payoff=lambda x, y: np.maximum(y[..., 0] - 80.0, 0.0)),))
        problem = tc.QuadratureProblem.from_prior(prior, views, n_x=2000, n_y=32)
        post = problem.posterior(tc.solve_lambda_newton(prior, views, problem=problem).lam)
        assert post.lam[0] != 0.0
        runs = {}
        for n in (1, 2, 1000, 65_537, 100_000):
            streams = list(calibration._streams(post.draw, n, 4))
            runs[n] = [np.concatenate(part) for part in zip(*streams)]
            assert runs[n][0].shape == (n, 2) and runs[n][1].shape == (n,)
        xy, log_w = runs[100_000]
        for n, (xy_n, log_w_n) in runs.items():
            assert np.array_equal(xy_n, xy[:n])
            assert np.array_equal(log_w_n, log_w[:n])


# ---------------------------------------------------------------------------
# The importance sampler's normalizer, taken in blocks of draws
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tilted_posteriors():
    """(a) call/put views on a Gaussian prior at n_y = 64; (b) a lognormal GenericPrior at 256."""
    prior = tc.GaussianPrior([0.0, 0.1], [[1.0, 0.6], [0.6, 1.2]])
    views = tc.ViewSet(
        tc.LinearViewMap.identity(2, 1, 2), tc.StudentTDensity(df=4, loc=0.0, scale=0.8),
        (tc.MomentView(target=0.45, payoff=lambda x, y: np.maximum(y[..., 0] - 0.4, 0.0)),
         tc.MomentView(target=0.25, payoff=lambda x, y: np.maximum(-0.4 - y[..., 0], 0.0))),
    )
    problem = tc.QuadratureProblem.from_prior(prior, views, n_x=2000, n_y=64)
    gaussian = problem.posterior(tc.solve_lambda_newton(prior, views, problem=problem).lam)
    return {"gaussian": gaussian, "generic": calibrated_stock_problem()[0]}


def _block_rows(monkeypatch, post, rows):
    """Make a block of TiltedPosterior.draw hold ``rows`` draws of ``post``."""
    monkeypatch.setattr(calibration, "_BLOCK_VALUES", rows * post.problem.y_nodes.shape[1])


class TestBlockedDraw:
    @pytest.mark.parametrize("kind", ["gaussian", "generic"])
    @pytest.mark.parametrize("rows,n", [(1, 64), (7, 3000), (2048, 3000), (4000, 3000)])
    def test_every_block_size_matches_the_unblocked_oracle(self, monkeypatch,
                                                          tilted_posteriors, kind, rows, n):
        """One row, ragged 7-row blocks, two blocks, and one block larger than n."""
        post = tilted_posteriors[kind]
        _block_rows(monkeypatch, post, rows)
        for s in (0, 5):
            xy, log_w = post.draw(n, np.random.default_rng(s))
            xy_ref, log_w_ref = tilted_draw_unblocked(post, n, np.random.default_rng(s))
            assert np.array_equal(xy, xy_ref)
            assert np.array_equal(log_w, log_w_ref)

    def test_overflow_in_some_blocks_raises_as_the_oracle(self, monkeypatch):
        """log Z overflows only where x > 1.5; one-row blocks must still raise."""
        def cond_quad(x, n):
            nodes = np.broadcast_to(stats.t.ppf((np.arange(n) + 0.5) / n, 2.1), (x.shape[0], n))
            return nodes[:, :, None], np.full(nodes.shape, 1.0 / n)

        gp = tc.GenericPrior(
            x_dim=1, y_dim=1, conditional_quadrature=cond_quad,
            conditional_sampler=lambda x, rng: rng.standard_t(2.1, (x.shape[0], 1)))
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 1), tc.GaussianDensity(0.0, 1.0),
            (tc.MomentView(target=0.0, payoff=lambda x, y: y[..., 0] * (x[..., 0] > 1.5)),),
        )
        post = tc.QuadratureProblem.from_prior(gp, views, n_x=64, n_y=64).posterior([2e4])
        _block_rows(monkeypatch, post, 1)
        n, seed = 64, 2
        x = views.marginal.sample(n, np.random.default_rng(seed))
        assert 0 < np.sum(x > 1.5) < n and x[0] <= 1.5  # only some blocks overflow
        with pytest.raises(tc.NonIntegrableTilt) as oracle:
            tilted_draw_unblocked(post, n, np.random.default_rng(seed))
        with pytest.raises(tc.NonIntegrableTilt) as blocked:
            post.draw(n, np.random.default_rng(seed))
        assert str(blocked.value) == str(oracle.value)

    def test_option_chain_chunk_peak_memory(self):
        """One 65,536-draw chunk of the option_chain posterior stays under 32 MiB traced.

        numpy reports its data buffers to tracemalloc, so the peak is deterministic;
        one rule over the whole chunk peaked at 161 MiB.
        """
        spec = cli.load_spec(str(Path(__file__).parents[1] / "perfbench" / "workloads"
                                 / "option_chain.json"))
        post = cli._TaskRunner(spec).posterior()
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            post.draw(65_536, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# Exact draws from a Gaussian conditional tilted by declared calls and puts
# ---------------------------------------------------------------------------


def _declared_moments(views):
    """MomentViews and multipliers from (kind, strike, lam) triples; kind "coord" is y_0."""
    moments = tuple(tc.MomentView(target=0.0, coord=0) if kind == "coord" else
                    tc.MomentView(target=0.0, payoff=tc.OptionPayoff(kind, 0, strike))
                    for kind, strike, _ in views)
    return moments, np.array([lam for *_, lam in views])


def _option_chain_problem(payoffs, n_x=50, n_y=8, cov=((1.0, 0.6), (0.6, 1.2))):
    """option_chain's model with the given call and put payoffs, at small rule sizes."""
    prior = tc.GaussianPrior([0.0, 0.1], cov)
    views = tc.ViewSet(
        tc.LinearViewMap.identity(2, 1, 2), tc.StudentTDensity(df=4, loc=0.0, scale=0.8),
        tuple(tc.MomentView(target=t, payoff=h) for t, h in zip((0.45, 0.25), payoffs)))
    return tc.QuadratureProblem.from_prior(prior, views, n_x=n_x, n_y=n_y)


DECLARED = (tc.OptionPayoff("call", 0, 0.4), tc.OptionPayoff("put", 0, -0.4))
LAMBDAS = (lambda x, y: np.maximum(y[..., 0] - 0.4, 0.0),
           lambda x, y: np.maximum(-0.4 - y[..., 0], 0.0))


@pytest.fixture(scope="module")
def option_chain_posterior():
    spec = cli.load_spec(str(WORKLOADS / "option_chain.json"))
    return spec, cli._TaskRunner(spec).posterior()


class TestExactTiltedDraw:
    # (intercept, slope, variance) of Y | X, the fixed x, and (kind, strike, lam) views
    CASES = {
        # option_chain's law and multipliers at x = -2: the middle piece lies
        # wholly above its mean, so its mass goes through the complement
        "option-chain-low-x": ((0.1, 0.6, 0.84), -2.0,
                               (("call", 0.4, 0.5265), ("put", -0.4, 0.1637))),
        # a strike 9 s above m(x); the upper piece lies 8.5 s above its own mean
        # yet holds ~14% of the mass, which plain Phi differences would round to 0
        "far-strike": ((0.0, 1.0, 1.0), 0.0, (("call", 9.0, -9.0), ("coord", None, 9.5))),
        # the same 50 s above m(x), |lam| ~ 50: the upper piece, 49.5 s above its
        # mean, holds ~2% of the mass, past where Phi itself rounds to 1
        "strike-50s": ((0.0, 1.0, 1.0), 0.0, (("call", 50.0, -50.0), ("coord", None, 50.5))),
        "six-pieces": ((0.2, 0.5, 1.3), 0.5,
                       (("call", 0.0, 1.3), ("put", 0.0, -0.7), ("call", 2.0, -0.5),
                        ("put", -1.0, 0.8), ("call", 0.5, 0.3), ("coord", None, 0.2))),
    }

    @staticmethod
    def _draw(law, x0, moments, lam, n, seed, block=1 << 16):
        """n draws of Y | X = x0, in blocks from one generator (row by row, so as one call)."""
        knots, c, d = calibration._exact_tilt(law, moments)
        tilt = knots, lam @ c, lam @ d
        rng = np.random.default_rng(seed)
        return np.concatenate([law.sample_tilted(np.full((min(block, n - i), 1), x0), rng, *tilt)
                               for i in range(0, n, block)])[:, 0]

    @pytest.mark.parametrize("case", list(CASES))
    def test_piece_frequencies_and_in_piece_laws_match_the_oracle(self, case):
        (c0, c1, var), x0, views = self.CASES[case]
        law = tc.GaussianConditional([c0], [[c1]], [[var]])
        moments, lam = _declared_moments(views)
        n = 1_000_000
        y = self._draw(law, x0, moments, lam, n, seed=3)
        assert np.all(np.isfinite(y))
        edges, masses, laws = tilted_gaussian_pieces(c0 + c1 * x0, np.sqrt(var), views)
        piece = np.searchsorted(edges, y) - 1  # piece p is (edges[p], edges[p + 1]]
        counts = np.bincount(piece, minlength=masses.size)
        assert counts.size == masses.size
        assert np.all(np.abs(counts - n * masses) <= 4 * np.sqrt(n * masses * (1 - masses)))
        for p, law_p in enumerate(laws):
            if counts[p] >= 50:
                assert stats.kstest(y[piece == p], law_p.cdf).pvalue > 1e-3, p
        if case in ("far-strike", "strike-50s"):
            assert laws[-1].a > 8 and counts[-1] > 0.02 * n

    class _FixedUniforms:
        def __init__(self, u):
            self.u = np.asarray(u, dtype=float)

        def random(self, shape):
            assert shape == self.u.shape
            return self.u

    @pytest.mark.parametrize("case,u", [
        ("option-chain-low-x", [(0.9, 0.2), (0.9, 0.8), (0.5, 1e-3), (0.5, 0.99), (0.01, 0.6)]),
        ("far-strike", [(0.5, 0.2), (0.5, 0.8), (0.05, 1e-3), (0.05, 0.3), (0.05, 0.999)]),
        # a piece 5.5 to 6 s above its mean, chosen by u0 = 1e-8: Phi there is within
        # 2e-8 of 1, so a quantile read off plain Phi would be off by ~1e-8 s
        ("six-sigma", [(1e-8, 0.1), (1e-8, 0.5), (1e-8, 0.9)]),
        ("strike-50s", [(0.5, 0.5), (0.01, 1e-3), (0.01, 0.999)]),
    ])
    def test_each_draw_is_the_exact_quantile(self, case, u):
        """Given its two uniforms a draw is the mixture quantile to 1e-12, by mpmath."""
        cases = self.CASES | {"six-sigma": ((0.0, 1.0, 1.0), 0.0,
                                            (("call", 5.5, 0.0), ("call", 6.0, 0.0)))}
        (c0, c1, var), x0, views = cases[case]
        law = tc.GaussianConditional([c0], [[c1]], [[var]])
        moments, lam = _declared_moments(views)
        knots, c, d = calibration._exact_tilt(law, moments)
        y = law.sample_tilted(np.full((len(u), 1), x0), self._FixedUniforms(u),
                              knots, lam @ c, lam @ d)[:, 0]
        # 600 digits resolve Phi within 1e-536 of 1, 49.5 s above the mean
        want = tilted_gaussian_draw_mpmath(c0 + c1 * x0, np.sqrt(var), views, u,
                                           dps=600 if case == "strike-50s" else 50)
        np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)

    def test_a_block_across_the_log_fallback_matches_the_log_space_draw(self):
        """Rows with an edge past 40 sd, among ordinary rows, against ``sample_tilted_logs``.

        option_chain's law and multipliers at x from -3 to 3 and at +-70 to +-90,
        where m(x) lies 45 to 60 sd from both strikes, so that their tails q
        underflow: those rows take the log-space draw itself, bit for bit; the
        others read Phi as probabilities and agree to 1e-14 of max(|y|, s).
        """
        law = tc.GaussianConditional([0.1], [[0.6]], [[0.84]])
        moments, lam = _declared_moments((("call", 0.4, 0.5265), ("put", -0.4, 0.1637)))
        knots, c, d = calibration._exact_tilt(law, moments)
        tilt = knots, lam @ c, lam @ d
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.uniform(-3.0, 3.0, 600), rng.uniform(70.0, 90.0, 200),
                            -rng.uniform(70.0, 90.0, 200)])[rng.permutation(1000), None]
        u = rng.random((1000, 2))
        u[:4] = [(0.0, 0.0), (0.0, 1.0 - 2.0**-53), (1.0 - 2.0**-53, 0.0), (0.5, 0.5)]
        assert len(x) * len(tilt[1]) <= priors._TILT_BLOCK  # one block
        y = law.sample_tilted(x, self._FixedUniforms(u), *tilt)[:, 0]
        want = sample_tilted_logs(law, x, self._FixedUniforms(u), *tilt)[:, 0]
        far = np.abs(law.mean(x)[:, 0]) > 40.0
        assert 300 <= far.sum() <= 500
        assert np.array_equal(y[far], want[far])
        s = np.sqrt(0.84)
        assert np.all(np.abs(y - want) <= 1e-14 * np.maximum(np.abs(want), s))

    def test_option_chain_var_draw_matches_the_log_space_draw(self, option_chain_posterior,
                                                              monkeypatch):
        """The var task's 100,000 returns with the sampler against ``sample_tilted_logs``."""
        spec, post = option_chain_posterior
        task = next(task for task in spec.tasks if task.type == "var")
        weights = task.args[0]
        r, _ = tc.sample_portfolio(post, weights, task.n_samples, seed=task.seed)
        monkeypatch.setattr(priors.GaussianConditional, "sample_tilted", sample_tilted_logs)
        want, _ = tc.sample_portfolio(post, weights, task.n_samples, seed=task.seed)
        assert r.size == task.n_samples
        assert np.all(np.abs(r - want) <= 1e-14 * np.maximum(np.abs(want), want.std()))

    def test_option_chain_draws_call_no_log_space_or_stdtrit_kernel(self, option_chain_posterior,
                                                                    monkeypatch):
        """The var draw and the existence check's X draw stay on the fast kernels.

        Counts calls of ``priors.log_ndtr`` and ``priors.ndtri_exp`` (the
        sampler's log-space fallback) and ``densities.stdtrit`` (the t quantile
        other than at df = 3 and 4); a draw past 40 sd and a t(5) quantile show
        that the counters see them.
        """
        spec, post = option_chain_posterior
        calls = collections.Counter()
        for module, name in ((priors, "log_ndtr"), (priors, "ndtri_exp"), (densities, "stdtrit")):
            def counted(*args, _kernel=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        var = next(task for task in spec.tasks if task.type == "var")
        check = next(task for task in spec.tasks if task.type == "calibrate")
        tc.sample_portfolio(post, var.args[0], var.n_samples, seed=var.seed)
        assert calibration.existence_check(spec.prior, spec.views, n_samples=check.n_samples,
                                           seed=check.seed) == "interior"
        assert calls == {}
        knots, c, d = post.problem.exact
        post.problem.law.sample_tilted(np.array([[90.0]]), np.random.default_rng(0), knots,
                                       post.lam @ c, post.lam @ d)
        tc.StudentTDensity(df=5.0, loc=0.0, scale=1.0).ppf(0.3)
        assert calls["log_ndtr"] > 0 and calls["ndtri_exp"] > 0 and calls["stdtrit"] > 0

    def test_zero_schur_variance_draws_the_conditional_mean(self):
        """Covariance [[1, 1], [1, 1]]: Y = m(x), as the importance sampler's unit weights say."""
        cov = ((1.0, 1.0), (1.0, 1.0))
        declared = _option_chain_problem(DECLARED, cov=cov).posterior([0.3, 0.2])
        twin = _option_chain_problem(LAMBDAS, cov=cov).posterior([0.3, 0.2])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            xy, log_w = declared.draw(1000, np.random.default_rng(4))
        assert log_w is None
        assert np.array_equal(xy[:, 1:], declared.problem.law.mean(xy[:, :1]))
        xy_twin, log_w_twin = twin.draw(1000, np.random.default_rng(4))
        assert np.array_equal(xy_twin, xy)
        np.testing.assert_allclose(np.exp(log_w_twin), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("lam", [(50.0, 50.0), (50.0, -50.0), (-50.0, 50.0), (-50.0, -50.0)])
    def test_large_multipliers_draw_finite_values_without_warnings(self, lam):
        post = _option_chain_problem(DECLARED).posterior(lam)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            xy, log_w = post.draw(20_000, np.random.default_rng(5))
        assert log_w is None
        assert np.all(np.isfinite(xy))

    def test_declared_payoffs_on_two_conditional_dimensions_are_not_sampleable(self):
        """Only a one-dimensional Y block draws its tilt exactly; d > 1 is refused as before."""
        prior = tc.GaussianPrior(np.zeros(3), np.eye(3) + 0.3)
        views = tc.ViewSet(tc.LinearViewMap.identity(3, 1, 1), tc.GaussianDensity(0.0, 1.0),
                           (tc.MomentView(target=0.45, payoff=DECLARED[0]),))
        problem = tc.QuadratureProblem.from_prior(prior, views, n_x=50, n_y=8)
        with pytest.raises(tc.NonSampleableConditional):
            tc.sample_posterior(problem.posterior(np.zeros(1)), 1_000, seed=0)

    def test_undeclared_payoffs_keep_the_importance_sampler(self, tilted_posteriors):
        xy, log_w = tilted_posteriors["gaussian"].draw(1000, np.random.default_rng(0))
        assert log_w is not None

    @pytest.mark.parametrize("rows", [1, 7, 3000])
    def test_every_block_size_gives_the_same_draws(self, monkeypatch, rows):
        post = _option_chain_problem(DECLARED).posterior([0.5265, 0.1637])
        whole = post.draw(3000, np.random.default_rng(6))[0]
        monkeypatch.setattr(priors, "_TILT_BLOCK", 3 * rows)  # three tilt pieces a row
        assert np.array_equal(post.draw(3000, np.random.default_rng(6))[0], whole)

    def test_option_chain_var_batch_is_unweighted(self, option_chain_posterior):
        spec, post = option_chain_posterior
        task = next(task for task in spec.tasks if task.type == "var")
        batch = tc.sample_posterior(post, task.n_samples, seed=task.seed)
        assert batch.weights is None
        assert batch.ess == batch.n == task.n_samples

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_option_chain_draws_hit_the_view_targets(self, option_chain_posterior, seed):
        spec, post = option_chain_posterior
        batch = tc.sample_posterior(post, 1_000_000, seed=seed)
        for view in spec.views.moments:
            h = view.payoff(batch.z_samples[:, :1], batch.z_samples[:, 1:])
            assert abs(h.mean() - view.target) <= 4 * h.std(ddof=1) / np.sqrt(h.size)


# ---------------------------------------------------------------------------
# Portfolio returns drawn from their one-dimensional law
# ---------------------------------------------------------------------------

SIX_INDEX_WORKLOADS = ["six_index_heavy_tail", "six_index_mean_audit"]


@functools.cache
def _workload(name):
    """The workload's spec, calibrated posterior and var task."""
    spec = cli.load_spec(str(WORKLOADS / f"{name}.json"))
    return spec, cli._TaskRunner(spec).posterior(), next(t for t in spec.tasks if t.type == "var")


@functools.cache
def _oracle_quantiles(name):
    """The var task's portfolio quantiles at its levels, by brentq on ``portfolio_cdf_quad``."""
    _, post, task = _workload(name)
    weights, _, levels = task.args
    _, beta, sigma = portfolio_law_blocks(post, weights)
    width = 50.0 * sigma + abs(beta) + 1.0
    cdf = lambda s: portfolio_cdf_quad(post, weights, s)[0]
    return [optimize.brentq(lambda s: cdf(s) - q, beta - width, beta + width, xtol=1e-14,
                            rtol=1e-12) for q in levels]


def _ks_statistic_bound(sample: np.ndarray, cdf, m: int) -> float:
    """An upper bound on the KS statistic sup |F_n - F| from F at m + 1 sample quantiles.

    F and F_n are nondecreasing, so on [s_j, s_j+1) the gap is at most
    max(F_n(s_j+1-) - F(s_j), F(s_j+1) - F_n(s_j)); below the least draw F_n = 0
    and from the largest on F_n = 1.
    """
    v = np.sort(sample)
    n = v.size
    knots = v[np.unique(np.linspace(0, n - 1, m + 1).astype(int))]
    f = cdf(knots)
    at = np.searchsorted(v, knots, side="right") / n  # F_n(s_j)
    below = np.searchsorted(v, knots, side="left") / n  # F_n(s_j-)
    gaps = np.maximum(below[1:] - f[:-1], f[1:] - at[:-1])
    return float(max(gaps.max(), f[0], 1.0 - f[-1]))


class TestPortfolioDraws:
    LEVELS = (0.9975, 0.995, 0.9925, 0.95, 0.75, 0.5)

    @pytest.mark.parametrize("name", SIX_INDEX_WORKLOADS)
    def test_portfolio_law_matches_the_block_formulas(self, name):
        _, post, task = _workload(name)
        rng = np.random.default_rng(5)
        for w in (task.args[0], *rng.standard_normal((3, 6))):
            alpha, beta, var = post.portfolio_law(w @ post.view_map.inverse)
            want = portfolio_law_blocks(post, w)
            np.testing.assert_allclose([alpha, beta, np.sqrt(var)], want, rtol=1e-12,
                                       atol=1e-15)

    # The heavy tail's cdf costs one quad (~4 ms) a point, so it is read at 800 knots, which
    # adds at most ~1/800 to the statistic; without X it is closed form, read at every draw.
    @pytest.mark.parametrize("name, knots", [("six_index_heavy_tail", 800),
                                             ("six_index_mean_audit", 99_999)])
    def test_projected_returns_follow_the_quad_cdf(self, name, knots):
        """One-sample KS of 100k returns against the oracle cdf, its statistic bounded above."""
        _, post, task = _workload(name)
        weights = task.args[0]
        returns, w = tc.sample_portfolio(post, weights, 100_000, seed=3)
        assert w is None and returns.shape == (100_000,)
        bound = _ks_statistic_bound(returns, lambda s: portfolio_cdf_quad(post, weights, s),
                                    knots)
        assert stats.kstwo.sf(bound, returns.size) > 1e-3

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("name", SIX_INDEX_WORKLOADS)
    def test_var_csv_is_within_4_se_of_the_oracle_quantiles(self, tmp_path, name, seed):
        _, _, task = _workload(name)
        doc = json.loads((WORKLOADS / f"{name}.json").read_text())
        doc["tasks"] = [t for t in doc["tasks"] if t["type"] == "var"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert cli.run(str(path), str(tmp_path / "out"), seed=seed) == 0
        with open(tmp_path / "out" / "var.csv", newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        data = np.array(rows[1:], dtype=float)
        _, notional, levels = task.args
        np.testing.assert_array_equal(data[:, 0], levels)
        want = np.array(_oracle_quantiles(name)) * notional
        assert np.all(data[:, 2] > 0)
        assert np.all(np.abs(data[:, 1] - want) <= 4.0 * data[:, 2])

    @pytest.mark.parametrize("keep", [1, 2, 3000])
    @pytest.mark.parametrize("name", [*SIX_INDEX_WORKLOADS, "option_chain"])
    def test_kept_returns_are_the_first_of_the_whole_draw(self, name, keep):
        _, post, task = _workload(name)
        c = task.args[0] @ post.view_map.inverse
        for seed in range(4):
            whole, log_w = post.draw_portfolio(c, 3000, np.random.default_rng(seed))
            part, part_w = post.draw_portfolio(c, 3000, np.random.default_rng(seed), keep)
            assert log_w is None and part_w is None
            assert np.array_equal(part, whole[:keep])

    def test_first_returns_are_the_same_for_every_n(self):
        _, post, task = _workload("six_index_heavy_tail")
        runs = {n: tc.sample_portfolio(post, task.args[0], n, seed=9)[0]
                for n in (1, 2, 65_535, 65_537, 131_073)}
        for n, returns in runs.items():
            assert returns.shape == (n,)
            assert np.array_equal(returns, runs[131_073][:n])

    def test_tilted_draw_portfolio_is_the_projected_draw(self):
        """On option_chain's identity map c is w itself and the returns are the full draws'
        z @ w bit for bit, per chunk and for the var task's whole batch."""
        _, post, task = _workload("option_chain")
        weights = task.args[0]
        c = weights @ post.view_map.inverse
        assert np.array_equal(c, weights)
        xy, log_w = post.draw(calibration._CHUNK, np.random.default_rng(2))
        r, r_log_w = post.draw_portfolio(c, calibration._CHUNK, np.random.default_rng(2))
        assert log_w is None and r_log_w is None
        assert np.array_equal(r, post.view_map.invert(xy) @ weights)
        returns, w = tc.sample_portfolio(post, weights, task.n_samples, seed=task.seed)
        batch = tc.sample_posterior(post, task.n_samples, seed=task.seed)
        assert w is None
        assert np.array_equal(returns, batch.z_samples @ weights)
        report = tc.estimate_portfolio_var(post, weights, *task.args[1:], task.n_samples,
                                           task.seed)
        full = tc.estimate_var(batch, *task.args)
        assert np.array_equal(report.var_values, full.var_values)
        assert np.array_equal(report.std_errors, full.std_errors)

    def test_without_x_only_the_normals_are_drawn(self):
        """k1 = 0: the returns are beta + sqrt(var) eps, eps the generator's first normals."""
        _, post, task = _workload("six_index_mean_audit")
        assert post.k1 == 0
        c = task.args[0] @ post.view_map.inverse
        _, beta, var = post.portfolio_law(c)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        r, _ = post.draw_portfolio(c, 5000, rng, 3000)
        assert np.array_equal(r, beta + np.sqrt(var) * ref.standard_normal(3000))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("name", SIX_INDEX_WORKLOADS)
    def test_zero_weights_give_zero_var_and_se(self, name):
        _, post, _ = _workload(name)
        report = tc.estimate_portfolio_var(post, np.zeros(6), 1e6, self.LEVELS, 100_000)
        assert np.all(report.var_values == 0.0) and np.all(report.std_errors == 0.0)

    def test_null_direction_of_the_covariance_gives_the_constant_beta(self):
        """c' cov c rounds to -1.8e-16 along this null direction; clamped, it reads 0, not NaN."""
        v, c = np.array([1.8, 1.32, 0.36]), np.array([0.87, -1.62, 1.59])
        prior = tc.GaussianPrior(np.array([0.01, 0.02, 0.03]), np.outer(v, v))
        post = tc.build_posterior(prior, tc.ViewSet(tc.LinearViewMap.identity(3, 0, 0), None, ()))
        assert float(c @ post.conditional.cov @ c) < 0.0
        alpha, beta, var = post.portfolio_law(c)
        assert (alpha, var) == (0.0, 0.0) and beta == float(c @ prior.mean)
        r, _ = post.draw_portfolio(c, 1000, np.random.default_rng(0))
        assert np.all(r == beta)
        returns, _ = tc.sample_portfolio(post, c, 1000, seed=0)
        assert np.all(returns == beta)
        report = tc.estimate_portfolio_var(post, c, 1.0, [0.95, 0.5], 1000)
        assert np.all(report.var_values == beta)
        assert np.all(report.std_errors < 1e-15)  # numpy's std of equal values rounds

    def test_overflowing_returns_raise_as_estimate_var(self):
        prior = tc.GaussianPrior(np.zeros(2), np.array([[9.1, 3.0], [3.0, 1.1]]) * 1e20)
        post = tc.build_posterior(prior, tc.ViewSet(tc.LinearViewMap.identity(2, 0, 0), None, ()))
        w = np.full(2, 1e300)
        with pytest.raises(ValueError, match="portfolio returns overflow") as full:
            tc.estimate_var(tc.sample_posterior(post, 1000, seed=0), w, 1.0, [0.95])
        with pytest.raises(ValueError, match="portfolio returns overflow") as projected:
            tc.estimate_portfolio_var(post, w, 1.0, [0.95], 1000)
        assert str(projected.value) == str(full.value)

    @pytest.mark.parametrize("name", ["six_index_heavy_tail", "option_chain"])
    def test_a_non_finite_draw_warns_and_raises_as_sample_posterior(self, monkeypatch, name):
        """An overflow inside the sampler (here g's ppf, or the tilted draw) is not silenced,
        and the draw it spoils is 'samples must be finite', not the returns' overflow."""
        _, post, task = _workload(name)
        owner, attr = ((type(post.marginal), "ppf") if name == "six_index_heavy_tail"
                       else (type(post), "draw"))
        original = getattr(owner, attr)

        def spoiled(self, *args):
            out = original(self, *args)
            first = out if attr == "ppf" else out[0]
            first.flat[0] = np.exp(np.float64(1000.0))
            return out

        monkeypatch.setattr(owner, attr, spoiled)
        for run in (lambda: tc.sample_posterior(post, 1000, seed=0),
                    lambda: tc.estimate_portfolio_var(post, task.args[0], *task.args[1:], 1000)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="^samples must be finite$"):
                    run()
            assert any("overflow" in str(w.message) for w in seen)

    def test_non_finite_log_weights_raise_as_sample_posterior(self, monkeypatch):
        _, post, task = _workload("option_chain")
        original = type(post).draw

        def nan_weighted(self, n, rng, keep=None):
            xy, _ = original(self, n, rng, keep)
            return xy, np.full(len(xy), np.nan)

        monkeypatch.setattr(type(post), "draw", nan_weighted)
        message = "^weights must be finite and nonnegative, one per sample$"
        with pytest.raises(ValueError, match=message):
            tc.sample_posterior(post, 1000, seed=0)
        with pytest.raises(ValueError, match=message):
            tc.sample_portfolio(post, task.args[0], 1000, seed=0)

    @pytest.mark.parametrize("name", [*SIX_INDEX_WORKLOADS, "option_chain"])
    def test_large_weights_scale_the_returns_exactly(self, name):
        """w 2^600 would overflow c_y' cov c_y (~1e361) unscaled; the returns are 2^600 times
        those of w, bit for bit, as the full draws' z @ w would be."""
        _, post, task = _workload(name)
        w = task.args[0]
        returns = tc.sample_portfolio(post, w, 2000, seed=1)[0]
        big = tc.sample_portfolio(post, w * 2.0**600, 2000, seed=1)[0]
        assert np.array_equal(big, returns * 2.0**600)

    @pytest.mark.parametrize("check, bad", [
        ("length", np.full(5, 0.2)), ("finite", np.array([np.nan, 0, 0, 0, 0, 0]))])
    def test_weights_are_checked_before_any_draw(self, monkeypatch, check, bad):
        _, post, _ = _workload("six_index_mean_audit")
        monkeypatch.setattr(tc.montecarlo, "sample_portfolio",
                            lambda *a: pytest.fail("drew before checking the weights"))
        with pytest.raises(ValueError, match=check):
            tc.estimate_portfolio_var(post, bad, 1.0, [0.95], 1000)

    def test_tail_floor_counts_the_draws(self):
        _, post, _ = _workload("six_index_mean_audit")
        with pytest.raises(tc.InsufficientSamples, match="effective sample size 1000.0"):
            tc.estimate_portfolio_var(post, np.full(6, 1 / 6), 1e6, [0.9975], 1000)


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

    @pytest.mark.parametrize("thin, enough", [(0.001, 0.025), (0.999, 0.975)])
    def test_tail_floor_counts_the_nearer_tail(self, thin, enough):
        """A level below the median reads its quantile from ess * q samples."""
        batch = tc.SampleBatch(np.random.default_rng(1).standard_normal((1000, 1)), seed=0)
        with pytest.raises(tc.InsufficientSamples, match="only 1.0 expected"):
            tc.estimate_var(batch, [1.0], 1.0, [thin])
        tc.estimate_var(batch, [1.0], 1.0, [enough])  # 25 expected samples

    def test_weighted_tail_floor_counts_effective_samples(self):
        z = np.random.default_rng(1).standard_normal((1000, 2))
        w = np.tile([2.0, 0.0], 500)  # Kish ESS 500 of 1,000 rows
        batch = tc.SampleBatch(z, seed=0, weights=w)
        tc.estimate_var(batch, [0.5, 0.5], 1e6, [0.95])  # 25 effective tail samples
        with pytest.raises(tc.InsufficientSamples, match="effective sample size 500.0"):
            tc.estimate_var(batch, [0.5, 0.5], 1e6, [0.975])  # 12.5 (25 rows)
        tc.estimate_var(tc.SampleBatch(z, seed=0), [0.5, 0.5], 1e6, [0.975])

    def test_ess_is_kish_for_weighted_batches_and_n_for_exact_ones(self):
        z = np.random.default_rng(1).standard_normal((1000, 2))
        assert tc.SampleBatch(z, seed=0).ess == 1000
        w = np.tile([2.0, 0.0], 500)
        assert tc.SampleBatch(z, seed=0, weights=w).ess == 500.0
        w = np.random.default_rng(2).exponential(size=1000)
        w /= w.mean()
        assert tc.SampleBatch(z, seed=0, weights=w).ess == w.sum() ** 2 / np.sum(w**2)

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


def _set_bootstrap(monkeypatch, n_boot: int, boot_seed: int):
    """Give every VaR report's bootstrap n_boot resamples from default_rng(boot_seed)."""
    monkeypatch.setattr(tc.montecarlo, "_N_BOOT", n_boot)
    monkeypatch.setattr(tc.montecarlo, "_BOOT_SEED", boot_seed)


class TestVarBootstrap:
    """The sort-once bootstrap against the per-resample loop oracle.

    Weighted resamples equal the oracle's; unweighted ones are drawn from
    the exact law of their order statistics, so they match it in law
    (``TestOrderStatisticBootstrap``) and their point quantiles bit for bit.
    """

    @pytest.mark.parametrize("n_boot", [2, 60])
    @pytest.mark.parametrize("case", VAR_CASES)
    def test_unweighted_report_equals_loop_oracle(self, case, n_boot, monkeypatch):
        _set_bootstrap(monkeypatch, n_boot, 3)
        z, _ = _unweighted_case(case)
        pw = np.full(z.shape[1], 1.0 / z.shape[1])
        report = tc.estimate_var(tc.SampleBatch(z, seed=0), pw, 1e6, BOOT_LEVELS)
        point, _ = var_bootstrap_loop(z @ pw, BOOT_LEVELS, None, n_boot, 3)
        assert np.array_equal(report.var_values, point * 1e6)
        assert report.std_errors.shape == (len(BOOT_LEVELS),)
        assert np.all(np.isfinite(report.std_errors)) and np.all(report.std_errors >= 0)

    @pytest.mark.parametrize("n_boot", [2, 60])
    @pytest.mark.parametrize("case", VAR_CASES[:2] + ["exact_zeros"] + VAR_CASES[2:])
    def test_weighted_resamples_match_loop_oracle(self, case, n_boot, monkeypatch):
        _set_bootstrap(monkeypatch, n_boot, 3)
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
        report = tc.estimate_var(tc.SampleBatch(z, seed=0, weights=w), pw, 1e6, q[1:])
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
        if w is None:  # resamples agree in law only (TestOrderStatisticBootstrap)
            assert np.array_equal(fast[0], point)
            assert fast.shape == expected.shape
            assert np.all((fast[1:] >= returns.min()) & (fast[1:] <= returns.max()))
        else:
            assert np.abs(fast - expected).max() <= 1e-12 * np.ptp(returns)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_sort_whatever_the_resample_count(self, weighted, monkeypatch):
        calls = {"argsort": 0, "sort": 0, "quantile": 0}

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
            monkeypatch.setattr(tc.montecarlo, "_N_BOOT", n_boot)
            tc.estimate_var(batch, [0.5, 0.5], 1.0, BOOT_LEVELS[1:])
            seen.append({name: calls[name] - before[name] for name in calls})
        assert seen[0] == seen[1]

    def test_unweighted_sort_equals_the_stable_argsort(self, monkeypatch):
        """np.sort gives the quantiles a stable argsort and gather give, ties and -0.0 included."""
        returns = np.round(np.random.default_rng(8).standard_t(3, 100_000), 1)
        assert np.any(np.signbit(returns) & (returns == 0)) and np.any(returns == 0)
        q = np.array([0.9975, 0.995, 0.9925, 0.95, 0.75, 0.5, 0.31])
        fast = tc.montecarlo._bootstrap_quantiles(returns, None, q, 200, 5)
        sorts = []

        def stable(a):
            sorts.append(a)
            return a[np.argsort(a, kind="stable")]

        monkeypatch.setattr(np, "sort", stable)
        slow = tc.montecarlo._bootstrap_quantiles(returns, None, q, 200, 5)
        assert len(sorts) == 1
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("kwargs", [
        {"portfolio_weights": [np.nan, 0.5]},
        {"portfolio_weights": [np.inf, 0.5]},
        {"notional": np.inf},
        {"notional": np.nan},
    ])
    def test_invalid_inputs_raise(self, kwargs):
        z, _ = _unweighted_case("plain")
        args = {"portfolio_weights": [0.5, 0.5], "notional": 1e6} | kwargs
        with pytest.raises(ValueError):
            tc.estimate_var(tc.SampleBatch(z, seed=0), levels=[0.95], **args)

    def test_overflowing_returns_raise(self):
        z = np.full((1000, 2), 1e308)
        with pytest.raises(ValueError, match="overflow"):
            tc.estimate_var(tc.SampleBatch(z, seed=0), [1.0, 1.0], 1.0, [0.5])


def _pooled_chisquare(observed: np.ndarray, expected: np.ndarray, floor: float = 5.0) -> float:
    """Chi-square p-value, the bins expecting under ``floor`` at each end pooled inward."""
    keep = np.flatnonzero(expected >= floor)
    lo, hi = keep[0], keep[-1] + 1
    obs, exp = observed[lo:hi].astype(float), expected[lo:hi].copy()
    obs[0], exp[0] = obs[0] + observed[:lo].sum(), exp[0] + expected[:lo].sum()
    obs[-1], exp[-1] = obs[-1] + observed[hi:].sum(), exp[-1] + expected[hi:].sum()
    return stats.chisquare(obs, exp).pvalue


def _pooled_contingency(a: np.ndarray, b: np.ndarray, floor: int = 20) -> float:
    """Chi-square p-value that two samples of value tuples share a law.

    Tuples seen fewer than ``floor`` times in both samples together form one pooled cell.
    """
    cells, inverse = np.unique(np.vstack([a, b]), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    counts = np.bincount(inverse, minlength=len(cells))
    cell = np.where(counts[inverse] >= floor, inverse, len(cells))
    table = np.vstack([np.bincount(cell[:len(a)], minlength=len(cells) + 1),
                       np.bincount(cell[len(a):], minlength=len(cells) + 1)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


class TestOrderStatisticBootstrap:
    """An exact batch's resampled order statistics follow their exact joint law."""

    N = 40
    # (n - 1) q at these levels puts the lo/hi ranks at 38/39, 37/38, 19/20 and 9/10
    LEVELS = np.array(BOOT_LEVELS)

    def _tied_returns(self):
        return np.round(np.random.default_rng(8).standard_t(3, self.N))

    def test_each_rank_follows_its_binomial_law(self):
        """P(r_(k) <= j) = P(Binom(n, (j + 1) / n) >= k + 1) for every order statistic k."""
        n = self.N
        ks = np.array([0, 9, 10, 19, 20, 37, 38, 39])
        ranks = tc.montecarlo._resample_ranks(n, ks, 200_000, np.random.default_rng(11))
        assert ranks.shape == (200_000, ks.size)
        assert np.all(np.diff(ranks, axis=1) >= 0)
        cdf_at = (np.arange(n) + 1) / n
        for col, k in enumerate(ks):
            pmf = np.diff(stats.binom.sf(k, n, cdf_at), prepend=0.0)
            observed = np.bincount(ranks[:, col], minlength=n)
            assert _pooled_chisquare(observed, pmf * ranks.shape[0]) > 1e-3, k

    def test_joint_order_statistics_match_the_loop_oracle(self):
        """Each level's (lo, hi) pair of values, and its quantile, against resorted resamples."""
        returns, n_boot = self._tied_returns(), 100_000
        assert np.unique(returns).size < self.N // 2  # heavily tied
        v = np.sort(returns)
        pos = (self.N - 1) * self.LEVELS
        lo = np.floor(pos).astype(np.intp)
        hi = np.minimum(lo + 1, self.N - 1)
        ks = np.union1d(lo, hi)
        ranks = tc.montecarlo._resample_ranks(self.N, ks, n_boot, np.random.default_rng(5))
        fast = tc.montecarlo._bootstrap_quantiles(returns, None, self.LEVELS, n_boot, 5)
        resamples = bootstrap_resamples_sorted(returns, n_boot, 6)
        loop = np.quantile(resamples, self.LEVELS, axis=1).T
        for i in range(self.LEVELS.size):
            pairs = v[ranks[:, np.searchsorted(ks, [lo[i], hi[i]])]]
            assert _pooled_contingency(pairs, resamples[:, [lo[i], hi[i]]]) > 1e-3, i
            assert _pooled_contingency(fast[1:, [i]], loop[:, [i]]) > 1e-3, i

    def test_standard_errors_match_the_loop_oracle_over_boot_seeds(self):
        """At n = 100,000 the mean SE over 20 boot seeds is the oracle's within 4 of its SEs."""
        returns = np.random.default_rng(4).standard_t(3, 100_000)
        q = np.array([0.9975, 0.995, 0.9925, 0.95, 0.75, 0.5])
        seeds = range(100, 120)
        fast = np.array([tc.montecarlo._bootstrap_quantiles(returns, None, q, 200, s)[1:]
                         .std(axis=0, ddof=1) for s in seeds])
        loop = np.array([var_bootstrap_loop(returns, q, None, 200, s)[1].std(axis=0, ddof=1)
                         for s in seeds])
        sem = np.sqrt((fast.var(axis=0, ddof=1) + loop.var(axis=0, ddof=1)) / len(seeds))
        assert np.all(np.abs(fast.mean(axis=0) - loop.mean(axis=0)) <= 4 * sem)

    def test_unweighted_resamples_draw_no_rows(self, monkeypatch):
        """No row index is drawn and no rank counted; a weighted bootstrap does both."""
        calls = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        default_rng, bincount = np.random.default_rng, np.bincount
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Recording(default_rng(seed)))
        monkeypatch.setattr(np, "bincount",
                            lambda *a, **k: calls.append("bincount") or bincount(*a, **k))
        z, w = _weighted_case("plain")
        monkeypatch.setattr(tc.montecarlo, "_N_BOOT", 50)
        tc.estimate_var(tc.SampleBatch(z, seed=0), [0.5, 0.5], 1.0, BOOT_LEVELS)
        assert "beta" in calls
        assert "integers" not in calls and "bincount" not in calls
        monkeypatch.setattr(tc.montecarlo, "_N_BOOT", 5)
        tc.estimate_var(tc.SampleBatch(z, seed=0, weights=w), [0.5, 0.5], 1.0, BOOT_LEVELS[1:])
        assert "integers" in calls and "bincount" in calls


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
        with pytest.raises(ValueError, match="n_samples"):
            tc.price_option(post, one, 0.05, n_samples=0)

    def test_scalar_payoff_prices_to_its_value(self, two_asset_prior, two_asset_views):
        """A payoff may return a plain number; both posteriors broadcast it."""
        for post in (tc.build_posterior(two_asset_prior, two_asset_views),
                     calibrated_stock_problem()[0]):
            res = tc.price_option(post, lambda x, y: 1.0, 0.0, n_samples=1000)
            assert res.price == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("shift", [1e4, 1e8, 1e9])
    def test_large_mean_keeps_the_standard_error(self, shift):
        """Monte Carlo sums deviations from a reference, so shift + y keeps y's SE."""
        prior = tc.GaussianPrior([0.0, 0.0], [[2.0, 1.0], [1.0, 1.5]])
        views = tc.ViewSet(tc.LinearViewMap.identity(2, 1, 2), tc.GaussianDensity(0.0, 1.0),
                           (tc.MomentView(target=0.5, coord=0),))
        post = tc.build_posterior(prior, views)
        base = tc.price_option(post, lambda x, y: y[..., 0], 0.0, n_samples=200_000, seed=3)
        res = tc.price_option(post, lambda x, y: shift + y[..., 0], 0.0,
                              n_samples=200_000, seed=3)
        assert base.std_error > 0.002
        assert res.std_error == pytest.approx(base.std_error, rel=1e-6)
        assert res.price - shift == pytest.approx(base.price, abs=max(1e-7, 2 * np.spacing(shift)))

    def test_calibration_instrument_reprices_to_target(self):
        post, report, payoff, target, _, _, discount, _ = calibrated_stock_problem()
        assert report.converged
        assert report.lam[0] > 0.0  # price bumped above the prior expectation
        res = tc.price_option(post, payoff, discount)
        assert res.price == pytest.approx(np.exp(-discount) * target, rel=1e-9)
        assert tc.price_option(post.problem.posterior(report.lam), payoff, discount) == res

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

    def test_non_finite_payoff_on_gaussian_draws_rejected(self, two_asset_posterior):
        """The closed form prices by Monte Carlo; a payoff inf on some draws has no mean."""
        bad = lambda x, y: np.where(y[..., 0] > 1.0, np.inf, 0.0)
        with pytest.raises(tc.NonIntegrablePayoff, match="sampled support"):
            tc.price_option(two_asset_posterior, bad, 0.0, n_samples=1000)


# ---------------------------------------------------------------------------
# The posterior protocol: view_map, draw, price and sensitivity_terms
# ---------------------------------------------------------------------------


class StubPosterior:
    """A posterior seen only through the protocol, returning fixed arrays."""

    view_map = tc.LinearViewMap(np.array([[1.0, 1.0], [0.0, 2.0]]), 1, 2)
    XY = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.5]])
    V = np.array([[2.0, 0.5], [0.5, 1.0]])
    COV_RH = np.array([1.0, -1.0])

    def __init__(self, weighted=False, std_error=0.5):
        self.weighted, self.std_error, self.calls = weighted, std_error, []

    def draw(self, n, rng, keep=None):
        n = n if keep is None else keep
        log_w = np.resize(np.log([1.0, 2.0, 3.0]), n) if self.weighted else None
        return np.resize(self.XY, (n, 2)), log_w

    def draw_portfolio(self, c, n, rng, keep=None):
        xy, log_w = self.draw(n, rng, keep)
        return xy @ c, log_w

    def price(self, payoff, n_samples, seed):
        self.calls.append((payoff, n_samples, seed))
        return 2.0, self.std_error, "stub"

    def sensitivity_terms(self, r, r_weights, wrt_loc):
        self.calls.append((r, r_weights, wrt_loc))
        return self.V, self.COV_RH, 0.25


class TestPosteriorProtocol:
    # XY mapped through the inverse of the stub's view map [[1, 1], [0, 2]]
    Z = np.array([[0.0, 1.0], [5.0, -2.0], [0.25, 0.25], [0.0, 1.0], [5.0, -2.0]])

    def test_sample_posterior_maps_exact_draws(self):
        batch = tc.sample_posterior(StubPosterior(), 5, seed=1)
        np.testing.assert_allclose(batch.z_samples, self.Z, rtol=0, atol=1e-15)
        assert batch.weights is None and batch.seed == 1

    def test_sample_posterior_normalises_log_weights(self):
        batch = tc.sample_posterior(StubPosterior(weighted=True), 5, seed=1)
        np.testing.assert_allclose(batch.z_samples, self.Z, rtol=0, atol=1e-15)
        np.testing.assert_allclose(batch.weights, np.array([1.0, 2.0, 3.0, 1.0, 2.0]) / 1.8,
                                   rtol=1e-14)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_sample_portfolio_projects_and_normalises(self, weighted):
        w = np.array([0.3, -2.0])
        returns, weights = tc.sample_portfolio(StubPosterior(weighted=weighted), w, 5, seed=1)
        np.testing.assert_allclose(returns, self.Z @ w, rtol=0, atol=1e-15)
        if weighted:
            np.testing.assert_allclose(weights, np.array([1.0, 2.0, 3.0, 1.0, 2.0]) / 1.8,
                                       rtol=1e-14)
        else:
            assert weights is None

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_nan_or_infinite_log_weight_is_a_value_error(self, bad):
        class BadWeightStub(StubPosterior):
            def draw(self, n, rng, keep=None):
                xy, log_w = super().draw(n, rng, keep)
                log_w[1] = bad
                return xy, log_w

        with pytest.raises(ValueError, match="finite"):
            tc.sample_portfolio(BadWeightStub(weighted=True), [1.0, 1.0], 5)
        with pytest.raises(ValueError, match="finite"):
            tc.sample_posterior(BadWeightStub(weighted=True), 5)

    def test_sample_portfolio_needs_a_draw(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            tc.sample_portfolio(StubPosterior(), [1.0, 1.0], 0)

    @pytest.mark.parametrize("std_error", [0.5, None])
    def test_price_option_discounts_the_posterior_price(self, std_error):
        post, payoff = StubPosterior(std_error=std_error), object()
        res = tc.price_option(post, payoff, 0.1, n_samples=7, seed=3)
        assert post.calls == [(payoff, 7, 3)]
        assert res.price == pytest.approx(2.0 * np.exp(-0.1), rel=1e-15)
        if std_error is None:
            assert res.std_error is None
        else:
            assert res.std_error == pytest.approx(0.5 * np.exp(-0.1), rel=1e-15)
        assert res.method == "stub"

    def test_sensitivities_invert_v(self):
        post, r_weights = StubPosterior(), np.array([0.3, 1.0])
        report = tc.sensitivities(post, r_weights=r_weights, wrt_loc=True)
        assert post.calls == [(None, r_weights, True)]
        u = np.linalg.inv(StubPosterior.V)
        np.testing.assert_array_equal(report.v_matrix, StubPosterior.V)
        np.testing.assert_allclose(report.u_matrix, u, rtol=1e-14)
        np.testing.assert_allclose(report.d_pi_d_c, u @ StubPosterior.COV_RH, rtol=1e-14)
        assert report.d_pi_d_loc == 0.25

    @pytest.mark.parametrize("r, r_weights", [(None, None),
                                              (lambda x, y: y[..., 0], np.array([0.3, 1.0]))])
    def test_sensitivities_need_exactly_one_of_r_and_r_weights(self, r, r_weights):
        post = StubPosterior()
        with pytest.raises(ValueError, match="exactly one of r or r_weights"):
            tc.sensitivities(post, r, r_weights=r_weights)
        assert post.calls == []

    @pytest.mark.parametrize("cov_rh, d_loc", [((1.7e308, -1.7e308), 0.25),
                                               ((1.0, -1.0), np.inf), ((np.nan, 1.0), None)])
    def test_sensitivities_that_overflow_are_a_value_error(self, cov_rh, d_loc):
        """JSON holds finite numbers only, so an inf or NaN derivative is rejected."""
        class OverflowStub(StubPosterior):
            def sensitivity_terms(self, r, r_weights, wrt_loc):
                return self.V, np.array(cov_rh), d_loc

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                tc.sensitivities(OverflowStub(), r_weights=np.array([0.3, 1.0]), wrt_loc=True)
