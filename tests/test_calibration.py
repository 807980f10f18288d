"""Dual evaluation, Newton solve, and existence/uniqueness diagnostics."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq
from scipy.special import ndtr, roots_hermite

import tiltcal as tc
from conftest import (
    TWO_ASSET_MAP,
    TWO_ASSET_T,
    closed_form_posteriors,
    mean_only_views,
    random_gaussian_linear_problem,
    random_spd,
)
from oracles import (
    bisect_scalar_multiplier,
    exact_tilt_by_kind,
    facet_gauge,
    hull_gauge_columns,
    hull_gauge_full_lp,
    padded_probe_class,
    ray_lp_gauge,
    sinh_outer_rule,
    solve_tilted_gaussian_legendre,
    tilted_gaussian_legendre,
    total_cov_loop,
    view_tensor_loop,
)


def _two_asset_problem(two_asset_prior, two_asset_views):
    return tc.GaussianLinearProblem(two_asset_prior, two_asset_views)


# ---------------------------------------------------------------------------
# Closed-form multipliers (Gaussian prior, coordinate views)
# ---------------------------------------------------------------------------


class TestClosedForm:
    def test_two_asset_posterior_mean_map(self, two_asset_prior, two_asset_views):
        lam = tc.solve_lambda_gaussian_linear(two_asset_prior, two_asset_views)
        problem = _two_asset_problem(two_asset_prior, two_asset_views)
        shifted = problem.posterior(lam).conditional
        # posterior conditional mean 0.8735 + 0.4177 x
        assert shifted.intercept[0] == pytest.approx(0.8735, abs=1e-3)
        assert shifted.slope[0, 0] == pytest.approx(0.4177, abs=1e-3)

    def test_views_matching_prior_give_zero(self):
        prior = tc.GaussianPrior([0.2, -0.4], [[2.0, 0.7], [0.7, 1.0]])
        vmap = tc.LinearViewMap.identity(2, 1, 2)
        g = tc.GaussianDensity(0.2, np.sqrt(2.0))  # matches the prior X marginal mean
        views = tc.ViewSet(vmap, g, (tc.MomentView(target=-0.4, coord=0),))
        lam = tc.solve_lambda_gaussian_linear(prior, views)
        np.testing.assert_allclose(lam, 0.0, atol=1e-14)

    def test_posterior_moments_by_monte_carlo(self):
        rng = np.random.default_rng(21)
        prior, views = random_gaussian_linear_problem(rng, 3)
        post = tc.build_posterior(prior, views)
        batch = tc.sample_posterior(post, 1_000_000, seed=17)
        y = batch.z_samples @ views.view_map.matrix.T[:, 1:]
        se = y.std(axis=0, ddof=1) / np.sqrt(batch.n)
        np.testing.assert_array_less(np.abs(y.mean(axis=0) - views.targets), 3 * se)

    def test_singular_conditional_covariance(self):
        cov = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        prior = tc.GaussianPrior([0.0, 0.0, 0.0], cov)
        vmap = tc.LinearViewMap.identity(3, 1, 3)
        views = tc.ViewSet(
            vmap,
            tc.GaussianDensity(0.0, 1.0),
            (tc.MomentView(target=0.5, coord=0), tc.MomentView(target=0.5, coord=1)),
        )
        with pytest.raises(tc.SingularConditionalCovariance):
            tc.solve_lambda_gaussian_linear(prior, views)

    def test_payoff_views_are_a_value_error(self, two_asset_prior, two_asset_views):
        views = tc.ViewSet(two_asset_views.view_map, two_asset_views.marginal,
                           (tc.MomentView(0.4, payoff=tc.OptionPayoff("call", 0, 1.0)),))
        with pytest.raises(ValueError, match="coordinate moment views"):
            tc.GaussianLinearProblem(two_asset_prior, views)


# ---------------------------------------------------------------------------
# Dual evaluation
# ---------------------------------------------------------------------------


class TestDualEval:
    def test_zero_tilt_gradient_is_prior_mismatch(self, two_asset_prior, two_asset_views):
        state = tc.dual_eval(two_asset_prior, two_asset_views, [0.0])
        problem = _two_asset_problem(two_asset_prior, two_asset_views)
        prior_moment = problem.m_g[0]  # E_0[Y] with X ~ g
        assert state.gradient[0] == pytest.approx(prior_moment - 1.5, rel=1e-12)
        assert state.value == 0.0

    def test_gradient_vanishes_at_closed_form_solution(
        self, two_asset_prior, two_asset_views
    ):
        lam = tc.solve_lambda_gaussian_linear(two_asset_prior, two_asset_views)
        state = tc.dual_eval(two_asset_prior, two_asset_views, lam)
        assert np.max(np.abs(state.gradient)) <= 1e-10

    def test_discrete_gradient_and_hessian_match_finite_differences(self):
        rng = np.random.default_rng(5)
        xv = np.linspace(-1, 1, 5)
        yv = np.linspace(-1, 1, 5)
        joint = rng.random((5, 5)) + 0.1
        joint /= joint.sum()
        gx = joint.sum(axis=1) * 0.8 + 0.04
        gx /= gx.sum()
        cond = joint / joint.sum(axis=1, keepdims=True)
        moments = (
            tc.MomentView(target=0.1, coord=0),
            tc.MomentView(target=0.4, payoff=lambda x, y: y[..., 0] ** 2),
        )
        problem = tc.QuadratureProblem.from_discrete(xv, gx, cond, yv, moments)
        lam = np.array([0.37, -0.21])
        state = problem.dual_state(lam)
        post = problem.posterior(lam)  # no law or views: expectations only
        assert post.problem is problem and problem.law is None and problem.views is None
        assert post.expectation(lambda x, y: y[..., 0]) == pytest.approx(
            state.gradient[0] + 0.1, abs=1e-15)
        eps = 1e-6
        for i in range(2):
            step = np.zeros(2)
            step[i] = eps
            fd_grad = (
                problem.dual_state(lam + step).value - problem.dual_state(lam - step).value
            ) / (2 * eps)
            assert state.gradient[i] == pytest.approx(fd_grad, abs=1e-6)
            fd_hess = (
                problem.dual_state(lam + step).gradient
                - problem.dual_state(lam - step).gradient
            ) / (2 * eps)
            np.testing.assert_allclose(state.hessian[:, i], fd_hess, atol=1e-6)

    def test_hessian_is_symmetric_psd(self, two_asset_prior, two_asset_views):
        state = tc.dual_eval(two_asset_prior, two_asset_views, [0.7])
        np.testing.assert_allclose(state.hessian, state.hessian.T)
        assert np.linalg.eigvalsh(state.hessian).min() >= -1e-12


class TestViewTensor:
    """``_view_tensor`` against a per-view loop, on the shapes its callers pass."""

    MOMENTS = (
        tc.MomentView(target=0.0, coord=1),
        tc.MomentView(target=0.0, payoff=lambda x, y: np.maximum(y[..., 0] - 0.4, 0.0)),
        tc.MomentView(target=0.0, payoff=lambda x, y: x[..., 0]),  # (1, n_x) on node tensors
        tc.MomentView(target=0.0, payoff=lambda x, y: 2),  # a scalar
        tc.MomentView(target=0.0, coord=0),
    )

    @pytest.mark.parametrize("shape", ["from_discrete", "from_prior", "draw_rule", "draw"])
    def test_matches_per_view_loop(self, shape):
        rng = np.random.default_rng(5)
        n_x, n_y = 7, 4
        if shape == "from_discrete":  # a two-column X block; y nodes shared by every x
            x = rng.standard_normal((n_x, 2))[None]
            y = np.broadcast_to(rng.standard_normal((n_y, 1, 2)), (n_y, n_x, 2))
        elif shape == "from_prior":  # the node tensor, in the cells' layout
            x = rng.standard_normal((n_x, 1))[None]
            y = rng.standard_normal((n_y, n_x, 2))
        elif shape == "draw_rule":  # the rule nodes of TiltedPosterior.draw
            x = rng.standard_normal((n_x, 1))[:, None, :]
            y = rng.standard_normal((n_x, n_y, 2))
        else:
            x, y = rng.standard_normal((n_x, 1)), rng.standard_normal((n_x, 2))
        got = tc.calibration._view_tensor(self.MOMENTS, x, y)
        np.testing.assert_array_equal(got, view_tensor_loop(self.MOMENTS, x, y))
        assert got.shape == (len(self.MOMENTS),) + y.shape[:-1] and got.dtype == float
        assert tc.calibration._view_tensor((), x, y).shape == (0,) + y.shape[:-1]


# ---------------------------------------------------------------------------
# Exact dual for declared calls and puts on a one-dimensional Gaussian Y | X
# ---------------------------------------------------------------------------


def _declared_problem(views, n_x=400, mean=(0.0, 0.1), cov=((1.0, 0.6), (0.6, 1.2)),
                      marginal=None):
    """option_chain's model with (payoff, target) views, "y" for coordinate 0 of Y."""
    moments = tuple(tc.MomentView(target, coord=0) if payoff == "y" else
                    tc.MomentView(target, payoff=payoff) for payoff, target in views)
    prior = tc.GaussianPrior(mean, cov)
    views = tc.ViewSet(tc.LinearViewMap.identity(2, 1, 2),
                       marginal or tc.StudentTDensity(df=4, loc=0.0, scale=0.8), moments)
    return prior, views, tc.QuadratureProblem.from_prior(prior, views, n_x=n_x)


def _legendre_args(problem, *strikes):
    """Conditional means, sd, the views as h(y) and the kinks, for the Legendre oracle."""
    law, moments = problem.law, problem.views.moments
    h = lambda y: view_tensor_loop(moments, np.zeros((y.size, 1)), y[:, None])
    kinks = [view.payoff.strike for view in moments if view.coord is None] + list(strikes)
    return law.mean(problem.x_nodes)[:, 0], float(np.sqrt(law.cov[0, 0])), h, kinks


def _assert_state_matches_legendre(problem, lam, payoff, rtol_hessian=1e-12):
    """Dual value, gradient, Hessian and a declared price against the Legendre oracle."""
    m, s, h, kinks = _legendre_args(problem, payoff.strike)
    f = lambda y: payoff(None, y[:, None])
    value, mean, cov, price = tilted_gaussian_legendre(m, s, problem.x_weights, h, lam,
                                                       kinks, f=f)
    state = problem.dual_state(lam)
    assert state.value + lam @ problem.targets == pytest.approx(value, rel=1e-12, abs=1e-14)
    np.testing.assert_allclose(state.gradient + problem.targets, mean, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(state.hessian, cov, rtol=rtol_hessian, atol=1e-15)
    assert problem.posterior(lam).expectation(payoff) == pytest.approx(price, rel=1e-12,
                                                                       abs=1e-15)


CALL, PUT = tc.OptionPayoff("call", 0, 0.4), tc.OptionPayoff("put", 0, -0.4)


class TestExactDual:
    # The put-only target sits away from the prior's E[put] ~ 0.23, so lambda is not near 0.
    CASES = {
        "option-chain": ((CALL, 0.45), (PUT, 0.25)),
        "put-only": ((PUT, 0.4),),
        "call-and-y": ((CALL, 0.45), ("y", 0.12)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_lambda_matches_the_legendre_oracle(self, case):
        """On the same outer nodes, lambda is the oracle's to 1e-12; no inner rule is built."""
        prior, views, problem = _declared_problem(self.CASES[case])
        report = tc.solve_lambda_newton(prior, views, problem=problem, tol=1e-13)
        assert report.converged
        m, s, h, kinks = _legendre_args(problem)
        want = solve_tilted_gaussian_legendre(m, s, problem.x_weights, h, views.targets, kinks)
        np.testing.assert_allclose(report.lam, want, rtol=1e-12, atol=0)
        assert problem.exact is not None and "_tensor" not in vars(problem)

    @pytest.mark.parametrize("target, tol", [(0.35, 1e-13), (0.25, 1e-14)])
    def test_newton_reaches_a_tolerance_below_the_dual_value_rounding(self, target, tol):
        """Near the solution the dual falls by ~|gradient|^2 / H, below its value's rounding,
        so Armijo refuses the full step; it is taken because the gradient falls."""
        prior, views, problem = _declared_problem(((PUT, target),))
        report = tc.solve_lambda_newton(prior, views, problem=problem, tol=tol)
        assert report.converged and report.max_residual <= tol and report.iterations <= 6
        m, s, h, kinks = _legendre_args(problem)
        want = solve_tilted_gaussian_legendre(m, s, problem.x_weights, h, views.targets, kinks)
        np.testing.assert_allclose(report.lam, want, rtol=1e-12, atol=0)
        path = np.array(report.dual_path)
        assert np.all(np.diff(path) <= 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(path[:-1])))

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("payoff", [tc.OptionPayoff("call", 0, 0.8),
                                        tc.OptionPayoff("put", 0, 0.1)])
    def test_state_and_price_match_the_legendre_oracle(self, case, payoff):
        problem = _declared_problem(self.CASES[case])[2]
        lam = np.array([0.7, -0.3])[:problem.n_moments]
        _assert_state_matches_legendre(problem, lam, payoff)

    @pytest.mark.parametrize("strike", [9.0, 50.0])
    def test_far_strikes_read_mirrored_pieces(self, strike):
        """A call K = 9 s and 50 s above m(x) with lam = (-K, K + 1/2), as the draw tests:
        the upper piece lies far above its own mean, yet holds over half a percent of the mass
        at every node within 3 sd of X's mean."""
        problem = _declared_problem(
            ((tc.OptionPayoff("call", 0, strike), 0.0), ("y", 0.0)), n_x=200, mean=(0.0, 0.0),
            cov=((1.0, 0.5), (0.5, 1.25)), marginal=tc.GaussianDensity(0.0, 1.0))[2]
        lam = np.array([-strike, strike + 0.5])
        knots, c, d = tc.calibration._exact_tilt(problem.law, problem.views.moments)
        pieces = problem.law.tilt_pieces(problem.x_nodes, knots, lam @ c, lam @ d)
        assert pieces.above[-1].all()
        central = np.abs(problem.x_nodes[:, 0]) <= 3.0
        assert np.exp(pieces.log_mass[-1] - np.logaddexp(*pieces.log_mass))[central].min() > 0.005
        # the far piece's variance is 1 - r (r - alpha) with r ~ alpha ~ K, so its
        # rounding is ~K^2 eps relative to the within-piece variance
        _assert_state_matches_legendre(problem, lam, tc.OptionPayoff("call", 0, strike + 0.5),
                                       rtol_hessian=1e-9)

    @pytest.mark.parametrize("kind, strike", [("call", -1e155), ("call", -1e200),
                                              ("call", -1e300), ("put", 1e155), ("put", 1e300)])
    def test_strikes_past_1e154_sd_price_as_forwards(self, kind, strike):
        """The piece beyond such a strike has log Phi = -inf at both its edges: it holds no
        mass, so the option is the forward |E[Y] - K|, which rounds to |K|."""
        prior, views, problem = _declared_problem(self.CASES["option-chain"], n_x=2000)
        post = problem.posterior(tc.solve_lambda_newton(prior, views, problem=problem).lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            price = post.expectation(tc.OptionPayoff(kind, 0, strike))
        assert price == pytest.approx(abs(strike), rel=1e-14, abs=0)

    @pytest.mark.parametrize("lam", [(50.0, 50.0), (50.0, -50.0), (-50.0, 50.0), (-50.0, -50.0)])
    def test_large_multipliers_evaluate_without_warnings(self, lam):
        problem = _declared_problem(self.CASES["option-chain"], n_x=200)[2]
        lam = np.array(lam)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            state = problem.dual_state(lam)
            price = problem.posterior(lam).expectation(tc.OptionPayoff("call", 0, 0.8))
        assert np.isfinite(state.value) and np.all(np.isfinite(state.hessian))
        assert np.isfinite(price)
        _assert_state_matches_legendre(problem, lam, tc.OptionPayoff("call", 0, 0.8),
                                       rtol_hessian=1e-9)

    def test_zero_schur_variance_is_y_at_its_conditional_mean(self):
        """Covariance [[1, 1], [1, 1]]: Y = m(x), as the Gauss-Hermite twin's nodes all are."""
        cov = ((1.0, 1.0), (1.0, 1.0))
        problem = _declared_problem(self.CASES["option-chain"], n_x=200, cov=cov)[2]
        lam = np.array([0.3, 0.2])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            state = problem.dual_state(lam)
            price = problem.posterior(lam).expectation(tc.OptionPayoff("call", 0, 0.8))
        m = problem.law.mean(problem.x_nodes)[:, 0]
        h = np.stack([np.maximum(m - 0.4, 0.0), np.maximum(-0.4 - m, 0.0)])
        assert state.value == pytest.approx(problem.x_weights @ (lam @ h) - lam @ problem.targets,
                                            rel=1e-14, abs=1e-15)
        np.testing.assert_allclose(state.gradient + problem.targets, h @ problem.x_weights,
                                   rtol=1e-14)
        assert np.array_equal(state.hessian, np.zeros((2, 2)))
        assert price == pytest.approx(problem.x_weights @ np.maximum(m - 0.8, 0.0), rel=1e-14)

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_without_a_marginal_view_lambda_is_the_root_of_the_closed_form(self, kind):
        """k1 = 0: Y ~ N(m, s^2) on the one outer node.  For a call,
        Z(lam) = Phi((K - m) / s) + exp(lam (m - K) + lam^2 s^2 / 2) Phi((m + lam s^2 - K) / s)
        and d/dlam log Z = target; a put is the call on -Y at strike -K."""
        m, var, strike, target = 0.1, 0.5, 0.2, 0.5
        prior = tc.GaussianPrior([m], [[var]])
        payoff = tc.OptionPayoff(kind, 0, strike)
        views = tc.ViewSet(tc.LinearViewMap.identity(1, 0, 1), None,
                           (tc.MomentView(target, payoff=payoff),))
        problem = tc.build_dual_problem(prior, views)
        assert problem.exact is not None and problem.x_nodes.shape == (1, 0)
        report = tc.solve_lambda_newton(prior, views, problem=problem, tol=1e-12)
        assert report.converged

        sign, sd = (1.0 if kind == "call" else -1.0), np.sqrt(var)
        mu, k = sign * m, sign * strike

        def d_log_z(lam):
            tilt, d = np.exp(lam * (mu - k) + lam**2 * var / 2.0), (mu + lam * var - k) / sd
            z = ndtr((k - mu) / sd) + tilt * ndtr(d)
            return tilt * ((mu - k + lam * var) * ndtr(d) + sd * stats.norm.pdf(d)) / z

        want = brentq(lambda lam: d_log_z(lam) - target, 0.0, 10.0, xtol=1e-15)
        assert report.lam[0] == pytest.approx(want, rel=1e-10, abs=0)

        post = problem.posterior(report.lam)
        assert post.price(payoff, 1, 0)[0] == pytest.approx(target, rel=1e-11, abs=0)
        batch = tc.sample_posterior(post, 20_000, seed=4)
        assert batch.weights is None
        paid = payoff(None, batch.z_samples)
        assert abs(paid.mean() - target) < 4.0 * paid.std() / np.sqrt(batch.n)
        assert tc.independence_check(prior, views) == report.independence_min_eig

    def test_tilt_past_the_cap_is_not_integrable(self):
        """log Z(x) grows like lam^2 s^2 / 2: past 1e4 the tilt is refused, as on the tensor."""
        problem = _declared_problem(self.CASES["option-chain"], n_x=200)[2]
        problem.dual_state(np.array([140.0, 0.0]))
        with pytest.raises(tc.NonIntegrableTilt):
            problem.dual_state(np.array([200.0, 0.0]))

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_the_cap_does_not_move_with_y(self, shift):
        """The cap reads log Z(x) less its prior mean lam . E[h | x], which grows like
        lam^2 s^2 / 2 wherever Y sits: with Y's mean and the strike moved by 1e6, where
        log Z(x) itself is ~1e5 at lam_y = 0.1, the same tilts pass and fail."""
        views = ((tc.OptionPayoff("call", 0, 0.4 + shift), 0.45), ("y", 0.1 + shift))
        problem = _declared_problem(views, n_x=200, mean=(0.0, 0.1 + shift))[2]
        problem.dual_state(np.array([140.0, 0.1]))
        with pytest.raises(tc.NonIntegrableTilt):
            problem.dual_state(np.array([200.0, 0.1]))


def _random_y0_row(rng, strikes):
    """A coordinate-0 view or a declared call or put on y_0 at one of ``strikes``."""
    kind = rng.integers(3)
    if kind == 2:
        return tc.MomentView(0.1, coord=0)
    payoff = tc.OptionPayoff(("call", "put")[kind], 0, float(rng.choice(strikes)))
    return tc.MomentView(0.1, payoff=payoff)


class TestExactTiltMerge:
    """``_exact_tilt`` merges the rows' ``OptionPayoff.pieces``; the per-kind oracle writes
    each kind's coefficients out."""

    @staticmethod
    def _law():
        """option_chain's law of Y given X: one-dimensional Gaussian."""
        return _declared_problem(((CALL, 0.45),), n_x=10)[2].law

    @pytest.mark.parametrize("seed", range(20))
    def test_tilt_equals_the_per_kind_oracle(self, seed):
        """10 sets of 1-5 calls, puts and coordinate-0 views a seed, strikes shared and
        signed zeros among them, each alone and with a priced payoff appended."""
        rng, law = np.random.default_rng(seed), self._law()
        strikes = [0.0, -0.0, 0.4, -0.4, 1.25]
        for _ in range(10):
            moments = tuple(_random_y0_row(rng, strikes) for _ in range(rng.integers(1, 6)))
            priced = tc.OptionPayoff(("call", "put")[rng.integers(2)], 0,
                                     float(rng.choice(strikes)))
            for got, want in [
                (tc.calibration._exact_tilt(law, moments), exact_tilt_by_kind(law, moments)),
                (tc.calibration._exact_tilt(law, moments, priced),
                 exact_tilt_by_kind(law, moments + (tc.MomentView(0.0, payoff=priced),))),
            ]:
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("moments, payoffs", [
        ((tc.MomentView(0.1, coord=1),), ()),
        ((tc.MomentView(0.1, payoff=tc.OptionPayoff("call", 1, 0.4)),), ()),
        ((tc.MomentView(0.1, payoff=lambda x, y: y[..., 0]),), ()),
        ((tc.MomentView(0.1, coord=0),), (lambda x, y: y[..., 0] ** 2,)),
        ((tc.MomentView(0.1, coord=0),), (tc.OptionPayoff("put", 1, 0.4),)),
    ], ids=["coord-1", "call-on-y1", "lambda-view", "lambda-priced", "put-on-y1-priced"])
    def test_rows_off_y0_are_not_exact(self, moments, payoffs):
        assert tc.calibration._exact_tilt(self._law(), moments, *payoffs) is None

    def test_no_moment_views_build_solve_and_price(self):
        """No rows: no knots, one piece, and the call is Bachelier's price at each x."""
        prior = tc.GaussianPrior((0.0, 0.1), ((1.0, 0.6), (0.6, 1.2)))
        views = tc.ViewSet(tc.LinearViewMap.identity(2, 1, 1),
                           tc.StudentTDensity(df=4, loc=0.0, scale=0.8), ())
        problem = tc.QuadratureProblem.from_prior(prior, views, n_x=2000)
        knots, c, d = problem.exact
        assert knots.shape == (0,) and c.shape == d.shape == (0, 1)
        report = tc.solve_lambda_newton(prior, views, problem=problem)
        assert report.converged and report.lam.shape == (0,)
        price = problem.posterior(report.lam).expectation(tc.OptionPayoff("call", 0, 0.5))
        assert "_tensor" not in vars(problem)
        m = problem.law.mean(problem.x_nodes)[:, 0]
        sd = float(np.sqrt(problem.law.cov[0, 0]))
        z = (m - 0.5) / sd
        want = problem.x_weights @ ((m - 0.5) * ndtr(z) + sd * stats.norm.pdf(z))
        assert price == pytest.approx(want, rel=1e-12, abs=0)
        # the same Bachelier prices on a dense sinh rule over |x| <= 1e5 scale
        x, w = sinh_outer_rule(lambda x: stats.t.pdf(x, 4, 0.0, 0.8), 0.0, 0.8, 20_001, 1e5)
        z = (0.1 + 0.6 * x - 0.5) / sd
        assert price == pytest.approx(w @ ((z * ndtr(z) + stats.norm.pdf(z)) * sd),
                                      rel=1e-12, abs=0)


class TestQuadratureGuards:
    @pytest.mark.parametrize("make, error, match", [
        (lambda: tc.QuadratureProblem(np.zeros((2, 1)), [0.5, 0.6], []),
         ValueError, "sum to 1"),
        (lambda: tc.calibration.conditional_law(
            object(), tc.ViewSet(tc.LinearViewMap.identity(2, 1, 2), tc.GaussianDensity(0, 1),
                                 (tc.MomentView(0.1, coord=0),))),
         TypeError, "unsupported prior type"),
    ], ids=["x-weights-not-summing-to-1", "unsupported-prior"])
    def test_invalid_inputs_raise(self, make, error, match):
        with pytest.raises(error, match=match):
            make()

    def test_an_expectation_that_overflows_is_non_integrable(self):
        """Every value is the largest float, finite; x weights summing to 1 + 5e-10 (within the
        1e-9 the problem allows) carry their x-average past it."""
        problem = tc.QuadratureProblem.from_discrete(
            [0.0, 1.0], [0.5, 0.5 + 5e-10], [[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0], ())
        big = np.finfo(float).max
        post = problem.posterior(np.zeros(0))
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(tc.NonIntegrablePayoff, match="diverges"):
            post.expectation(lambda x, y: np.full(y.shape[:-1], big))


# ---------------------------------------------------------------------------
# E_g[Cov(., . | X)]: one formula on pieces and on nodes
# ---------------------------------------------------------------------------


def _translated_problem(s):
    """option_chain's prior with Y's mean moved to 0.1 + s, on the node tensor.

    The views are Y itself, with target 0.1 + s, and an undeclared put
    max(s - 0.4 - y, 0) with target 0.25.
    """
    prior = tc.GaussianPrior([0.0, 0.1 + s], [[1.0, 0.6], [0.6, 1.2]])
    put = lambda x, y: np.maximum(s - 0.4 - y[..., 0], 0.0)
    views = tc.ViewSet(tc.LinearViewMap.identity(2, 1, 2),
                       tc.StudentTDensity(df=4, loc=0.0, scale=0.8),
                       (tc.MomentView(0.1 + s, coord=0), tc.MomentView(0.25, payoff=put)))
    return prior, views, tc.QuadratureProblem.from_prior(prior, views, n_x=2000, n_y=64)


class TestTotalCov:
    """``_total_cov`` forms each deviation from its x's mean before it squares it, so a
    mean far from zero next to the spread cancels no digits, as E[Y^2] - E[Y]^2 would."""

    @pytest.mark.parametrize("s, rtol", [(0.0, 1e-12), (1e4, 1e-12), (1e6, 1e-9)])
    def test_hessian_is_the_schur_variance_wherever_y_sits(self, s, rtol):
        """At lam = 0 the Hessian's Y entry is E_g[Var(Y | X)] = 1.2 - 0.6^2, which the
        Gauss-Hermite rule integrates exactly; Y's mean sits at 0.1 + s."""
        problem = _translated_problem(s)[2]
        assert problem.exact is None
        hessian = problem.dual_state(np.zeros(2)).hessian
        assert hessian[0, 0] == pytest.approx(0.84, rel=rtol, abs=0)

    def test_independence_check_does_not_move_with_y(self):
        eigs = []
        for s in (0.0, 1e4, 1e6):
            prior, views, problem = _translated_problem(s)
            eigs.append(tc.independence_check(prior, views, problem=problem))
        np.testing.assert_allclose(eigs[1:], eigs[0], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("s", [0.0, 1e4])
    @pytest.mark.parametrize("lam", [(0.0, 0.0, 0.0), (0.8, -1.1, 0.3)])
    def test_pieces_match_the_two_pass_loop(self, s, lam):
        """option_chain's declared call and put and Y itself, strikes and Y's mean moved by s."""
        views = ((tc.OptionPayoff("call", 0, 0.4 + s), 0.45),
                 (tc.OptionPayoff("put", 0, -0.4 + s), 0.25), ("y", 0.1 + s))
        problem = _declared_problem(views, n_x=300, mean=(0.0, 0.1 + s))[2]
        lam = np.array(lam)
        cells = problem._pieces(lam)
        knots, c, d = problem.exact
        y_var = problem.law.tilt_pieces(problem.x_nodes, knots, lam @ c, lam @ d).y_moments[1]
        values, slopes = cells.h
        got = tc.calibration._total_cov(cells, problem.x_weights)
        want = total_cov_loop(cells.cond, problem.x_weights, y_var, values, slopes)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("s", [0.0, 1e4])
    def test_nodes_match_the_two_pass_loop(self, s):
        """The views' rows and an extra row x y, at a lam that tilts both views."""
        problem = _translated_problem(s)[2]
        cells = problem._nodes(np.array([0.3, -0.8]), lambda x, y: x[..., 0] * y[..., 0])
        values = np.concatenate([cells.h[0], cells.extra[0]])
        slopes = np.concatenate([cells.h[1], cells.extra[1]])
        assert not slopes.any() and not cells.var_mass.any()
        got = tc.calibration._total_cov(cells, problem.x_weights, rows=cells.extra)
        want = total_cov_loop(cells.cond, problem.x_weights, np.zeros_like(cells.cond),
                              values, slopes)
        np.testing.assert_allclose(got, want[-1:, :-1], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------


class TestNewton:
    def test_matches_closed_form_on_random_problems(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            prior, views = random_gaussian_linear_problem(rng, n)
            lam_star = tc.solve_lambda_gaussian_linear(prior, views)
            report = tc.solve_lambda_newton(prior, views)
            assert report.converged
            assert report.iterations <= 15
            np.testing.assert_allclose(report.lam, lam_star, atol=1e-8)

    def test_closed_form_is_newtons_first_step_bit_for_bit(self, two_asset_prior,
                                                          two_asset_views):
        """build_posterior and the Newton posterior solve the one formula, so every bit agrees."""
        rng = np.random.default_rng(5)
        models = [(two_asset_prior, two_asset_views)] + [
            random_gaussian_linear_problem(rng, n) for n in range(2, 7) for _ in range(60)]
        for prior, views in models:
            closed, newton = closed_form_posteriors(prior, views)
            np.testing.assert_array_equal(closed.lam, newton.lam)
            np.testing.assert_array_equal(closed.conditional.intercept,
                                          newton.conditional.intercept)

    def test_consistent_views_need_no_iterations(self):
        prior = tc.GaussianPrior([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 2),
            tc.GaussianDensity(0.0, 1.0),
            (tc.MomentView(target=0.0, coord=0),),
        )
        report = tc.solve_lambda_newton(prior, views)
        assert report.converged
        assert report.iterations <= 1
        np.testing.assert_allclose(report.lam, 0.0, atol=1e-12)

    def test_scalar_payoff_lambda_matches_bisection(self):
        """Call-payoff moment view on a Gaussian pair, scalar multiplier."""
        prior = tc.GaussianPrior([0.0, 0.1], [[1.0, 0.6], [0.6, 1.2]])
        g = tc.GaussianDensity(0.0, 1.0)
        payoff = lambda x, y: np.maximum(y[..., 0] - 0.4, 0.0)
        target = 0.45

        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 1),
            g,
            (tc.MomentView(target=target, payoff=payoff),),
        )
        problem = tc.QuadratureProblem.from_prior(prior, views, n_x=4001, n_y=96)
        report = tc.solve_lambda_newton(prior, views, problem=problem)
        assert report.converged

        def moment(lam):
            state = problem.dual_state([lam])
            return state.gradient[0] + target

        lam_bis = bisect_scalar_multiplier(moment, target, -5.0, 5.0)
        assert report.lam[0] == pytest.approx(lam_bis, abs=1e-6)

    def test_infeasible_target_reports_not_converged(self):
        xv = np.linspace(-1, 1, 5)
        yv = np.linspace(-1, 1, 5)
        gx = np.full(5, 0.2)
        cond = np.full((5, 5), 0.2)
        moments = (tc.MomentView(target=2.0, coord=0),)  # beyond max(y) = 1
        problem = tc.QuadratureProblem.from_discrete(xv, gx, cond, yv, moments)
        report = tc.solve_lambda_newton(None, None, problem=problem, max_iter=40)
        assert not report.converged
        assert report.message

    def test_dual_path_is_monotone_nonincreasing(self):
        rng = np.random.default_rng(8)
        prior, views = random_gaussian_linear_problem(rng, 4)
        report = tc.solve_lambda_newton(prior, views)
        path = np.array(report.dual_path)
        assert np.all(np.diff(path) <= 1e-12)

    def test_non_integrable_tilt_raises(self):
        """Linear payoff against a heavy-tailed conditional diverges."""
        t_nodes = stats.t.ppf((np.arange(512) + 0.5) / 512, 2.1)

        def cond_quad(x, n):
            nodes = np.broadcast_to(t_nodes, (x.shape[0], t_nodes.size))
            weights = np.full_like(nodes, 1.0 / t_nodes.size)
            return nodes[:, :, None], weights

        gp = tc.GenericPrior(x_dim=1, y_dim=1, conditional_quadrature=cond_quad)
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 1),
            tc.GaussianDensity(0.0, 1.0),
            (tc.MomentView(target=10.0, payoff=lambda x, y: y[..., 0]),),
        )
        problem = tc.QuadratureProblem.from_prior(gp, views, n_x=64, n_y=512)
        with pytest.raises(tc.NonIntegrableTilt):
            problem.dual_state([2e4])

    def test_nested_monte_carlo_fallback_for_sampler_only_priors(self):
        """No quadrature rule: the inner integral runs on seeded draws."""
        def cond_sampler(x, rng):
            return (0.5 * x[:, 0] + 0.4 * rng.standard_normal(x.shape[0]))[:, None]

        gp = tc.GenericPrior(x_dim=1, y_dim=1, conditional_sampler=cond_sampler)
        g = tc.GaussianDensity(0.2, 1.0)
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 2), g, (tc.MomentView(target=0.3, coord=0),)
        )
        problem = tc.QuadratureProblem.from_prior(gp, views, n_x=2000, n_y=512)
        report = tc.solve_lambda_newton(gp, views, problem=problem)
        assert report.converged
        # closed form for the equivalent Gaussian model: lam = (a - E0[y]) / var
        expected = (0.3 - 0.5 * 0.2) / 0.4**2
        assert report.lam[0] == pytest.approx(expected, rel=0.1)
        again = tc.QuadratureProblem.from_prior(gp, views, n_x=2000, n_y=512)
        np.testing.assert_array_equal(problem.y_nodes, again.y_nodes)

    def test_constraint_satisfaction_verified_by_monte_carlo(self):
        rng = np.random.default_rng(31)
        prior, views = random_gaussian_linear_problem(rng, 3)
        report = tc.solve_lambda_newton(prior, views)
        assert report.max_residual <= report.tolerance
        post = tc.GaussianLinearProblem(prior, views).posterior(report.lam)
        assert isinstance(post, tc.GaussianMarginalPosterior)
        batch = tc.sample_posterior(post, 1_000_000, seed=3)
        y = batch.z_samples @ views.view_map.matrix.T[:, 1:]
        se = y.std(axis=0, ddof=1) / np.sqrt(batch.n)
        np.testing.assert_array_less(np.abs(y.mean(axis=0) - views.targets), 4 * se)

    def test_tilted_posterior_refuses_the_closed_form_problem(self, two_asset_prior,
                                                               two_asset_views):
        """The closed form has its own posterior type, which no wrapper stands in for."""
        problem = tc.GaussianLinearProblem(two_asset_prior, two_asset_views)
        with pytest.raises(TypeError, match=r"problem\.posterior\(lam\)"):
            tc.TiltedPosterior(problem, np.zeros(1))

    def test_marginal_preserved_under_posterior_sampling(self):
        rng = np.random.default_rng(13)
        prior, views = random_gaussian_linear_problem(rng, 3)
        post = tc.build_posterior(prior, views)
        batch = tc.sample_posterior(post, 100_000, seed=5)
        x = batch.z_samples @ views.view_map.matrix[0]
        res = stats.kstest(x, lambda t: views.marginal.cdf(t))
        assert res.pvalue > 0.01


# ---------------------------------------------------------------------------
# Dual convexity along random segments
# ---------------------------------------------------------------------------


def test_dual_midpoint_convexity(two_asset_prior, two_asset_views):
    problem = _two_asset_problem(two_asset_prior, two_asset_views)
    rng = np.random.default_rng(77)
    for _ in range(20):
        a, b = rng.standard_normal(2) * 2.0
        fa = problem.dual_state([a]).value
        fb = problem.dual_state([b]).value
        fm = problem.dual_state([(a + b) / 2]).value
        assert fm <= (fa + fb) / 2 + 1e-9


def test_dual_midpoint_convexity_quadrature():
    rng = np.random.default_rng(78)
    xv = np.linspace(-1, 1, 9)
    yv = np.linspace(-1, 1, 9)
    joint = rng.random((9, 9)) + 0.2
    joint /= joint.sum()
    gx = np.full(9, 1.0 / 9)
    cond = joint / joint.sum(axis=1, keepdims=True)
    moments = (tc.MomentView(target=0.2, coord=0),
               tc.MomentView(target=0.5, payoff=lambda x, y: y[..., 0] ** 2))
    problem = tc.QuadratureProblem.from_discrete(xv, gx, cond, yv, moments)
    for _ in range(20):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        fa = problem.dual_state(a).value
        fb = problem.dual_state(b).value
        fm = problem.dual_state((a + b) / 2).value
        assert fm <= (fa + fb) / 2 + 1e-9


# ---------------------------------------------------------------------------
# Existence diagnostic (convex-hull membership)
# ---------------------------------------------------------------------------


class TestExistence:
    def _views(self, n_moments, prior_dim=3):
        vmap = tc.LinearViewMap.identity(prior_dim, 1, 1 + n_moments)
        g = tc.GaussianDensity(0.0, 1.0)
        moments = tuple(tc.MomentView(target=0.0, coord=i) for i in range(n_moments))
        return tc.ViewSet(vmap, g, moments)

    def test_centroid_is_interior(self):
        prior = tc.GaussianPrior(np.zeros(2), np.eye(2))
        views = self._views(1, 2)
        assert tc.existence_check(prior, views, c=[0.0], n_samples=20_000) == "interior"

    def test_beyond_sample_range_is_outside(self):
        prior = tc.GaussianPrior(np.zeros(2), np.eye(2))
        views = self._views(1, 2)
        assert tc.existence_check(prior, views, c=[50.0], n_samples=20_000) == "outside"

    def test_target_beyond_a_small_samples_maximum_is_outside(self):
        """4.9 lies past the largest of the 200 standard normal draws (3.07)."""
        prior = tc.GaussianPrior(np.zeros(2), np.eye(2))
        views = self._views(1, 2)
        assert tc.existence_check(prior, views, c=[4.9], n_samples=200, seed=0) == "outside"

    @pytest.mark.parametrize("k", [1, 5])
    def test_target_scaled_to_the_hull_surface_is_boundary(self, k, six_index_prior):
        """The gauge is positively homogeneous about the sample mean m, so with gamma
        the gauge of c on the same draw, m + (c - m) / gamma has gauge 1 to within
        the pricing tolerance; 1% inside or outside of it the class flips."""
        if k == 1:
            prior, views, c = tc.GaussianPrior(np.zeros(2), np.eye(2)), self._views(1, 2), [1.0]
        else:  # the five mean views of six_index_mean_audit
            prior, views = six_index_prior, mean_only_views()
            c = views.targets
        n_samples, seed = 20_000, 3
        h = tc.calibration._h_samples(prior, views, n_samples, np.random.default_rng(seed))
        m = h.T.mean(axis=1)
        gamma = tc.calibration._hull_gauge(h, np.asarray(c, dtype=float), 1e-6)
        surface = m + (c - m) / gamma
        for scale, expected in ((1.0, "boundary"), (0.99, "interior"), (1.01, "outside")):
            assert tc.existence_check(prior, views, c=m + scale * (surface - m),
                                      n_samples=n_samples, seed=seed) == expected

    def test_two_dimensional_hull(self):
        prior = tc.GaussianPrior(np.zeros(3), np.eye(3))
        views = self._views(2, 3)
        assert tc.existence_check(prior, views, c=[0.1, -0.1], n_samples=20_000) == "interior"
        assert tc.existence_check(prior, views, c=[10.0, 0.0], n_samples=20_000) == "outside"

    def test_high_dimensional_lp_path(self):
        prior = tc.GaussianPrior(np.zeros(5), np.eye(5))
        views = self._views(4, 5)
        assert (
            tc.existence_check(prior, views, c=[0.0, 0.1, -0.1, 0.05], n_samples=4_000)
            == "interior"
        )
        assert (
            tc.existence_check(prior, views, c=[20.0, 0.0, 0.0, 0.0], n_samples=4_000)
            == "outside"
        )

    def test_degenerate_sample_raises(self):
        prior = tc.GaussianPrior(np.zeros(2), np.eye(2))
        vmap = tc.LinearViewMap.identity(2, 1, 1)
        views = tc.ViewSet(
            vmap,
            tc.GaussianDensity(0.0, 1.0),
            (tc.MomentView(target=1.0, payoff=lambda x, y: np.ones(y.shape[:-1])),),
        )
        with pytest.raises(tc.InconclusiveSample):
            tc.existence_check(prior, views, c=[1.0], n_samples=500)

    def test_target_count_must_match_views(self):
        prior = tc.GaussianPrior(np.zeros(3), np.eye(3))
        views = self._views(2, 3)
        for c in ([0.0], [0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="expected 2 targets"):
                tc.existence_check(prior, views, c=c, n_samples=2_000)

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_class_does_not_depend_on_view_units(self, scale):
        prior = tc.GaussianPrior(np.zeros(3), np.eye(3))
        vmap = tc.LinearViewMap.identity(3, 1, 3)
        views = tc.ViewSet(vmap, tc.GaussianDensity(0.0, 1.0), (
            tc.MomentView(target=0.0, payoff=lambda x, y: y[..., 0] / scale),
            tc.MomentView(target=0.0, payoff=lambda x, y: y[..., 1] * scale),
        ))
        # near the centroid, and ~2.5x beyond the sample maximum of the second view
        assert tc.existence_check(prior, views, c=[0.1 / scale, 0.0],
                                  n_samples=20_000) == "interior"
        assert tc.existence_check(prior, views, c=[0.0, 10.0 * scale],
                                  n_samples=20_000) == "outside"

    def test_flat_lp_image_raises(self):
        prior = tc.GaussianPrior(np.zeros(5), np.eye(5))
        vmap = tc.LinearViewMap.identity(5, 1, 5)
        moments = tuple(tc.MomentView(target=0.0, coord=i) for i in range(3))
        duplicate = tc.MomentView(target=0.0, payoff=lambda x, y: y[..., 0])
        views = tc.ViewSet(vmap, tc.GaussianDensity(0.0, 1.0), moments + (duplicate,))
        with pytest.raises(tc.InconclusiveSample):
            tc.existence_check(prior, views, c=[0.0, 0.1, -0.1, 0.0], n_samples=4_000)

    def test_views_without_moments_are_interior(self, monkeypatch):
        """No moment constraint: the empty target is interior, and nothing is drawn."""
        def refuse(*args, **kwargs):
            raise AssertionError("the existence check drew without moment views")

        monkeypatch.setattr(tc.calibration, "_h_samples", refuse)
        prior = tc.GaussianPrior(np.zeros(2), np.eye(2))
        assert tc.existence_check(prior, self._views(0, 2), n_samples=500) == "interior"
        with pytest.raises(ValueError, match="expected 0 targets"):
            tc.existence_check(prior, self._views(0, 2), c=[0.0])

    @pytest.mark.parametrize("bad, message", [
        ({"n_samples": 0}, "n_samples must be a positive integer"),
        ({"n_samples": -3}, "n_samples must be a positive integer"),
        ({"c": [0.0, np.nan]}, "targets c must be finite"),
        ({"c": [np.inf, 0.0]}, "targets c must be finite"),
        ({"c": [0.0, -np.inf]}, "targets c must be finite"),
        *(({"tol": tol}, "tol must be finite with 0 < tol < 1")
          for tol in (np.nan, np.inf, -0.5, 0.0, 1.0)),
    ])
    def test_bad_input_is_refused_before_drawing(self, monkeypatch, bad, message):
        """n_samples = 0 died in numpy, a NaN target in linprog after the draw,
        tol = NaN read every target as "boundary" and tol <= 0 switched the flatness test off."""
        def refuse(*args, **kwargs):
            raise AssertionError("the existence check drew before checking its inputs")

        monkeypatch.setattr(tc.calibration, "_h_samples", refuse)
        prior = tc.GaussianPrior(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match=message):
            tc.existence_check(prior, self._views(2, 3), **({"c": [0.0, 0.0]} | bad))

    @pytest.mark.parametrize("n_samples, seeds", [
        (50_000, [3]),
        # last blocks of 1, 3 and 7 points, which join the block before them
        (8_193, range(6)), (8_195, range(6)), (8_199, range(6)),
    ])
    @pytest.mark.parametrize("k1", [0, 1])
    def test_h_samples_match_the_mean_plus_normals_formula(self, k1, n_samples, seeds,
                                                           six_index_prior, two_asset_prior,
                                                           two_asset_views):
        """The in-place mean (the intercept alone when k1 = 0) and the blocks change no draw.

        The formula draws all n rows in one product.  A last block of one row
        apart rounds differently at some of these seeds.
        """
        prior, views = ((six_index_prior, mean_only_views()) if k1 == 0
                        else (two_asset_prior, two_asset_views))
        assert views.k1 == k1
        law = tc.calibration.conditional_law(prior, views)

        def sample(x, rng):
            return law.mean(x) + rng.standard_normal((x.shape[0], law.y_dim)) @ law.root.T

        for seed in seeds:
            x, y = tc.calibration._draw_xy(views.marginal, law, n_samples,
                                           np.random.default_rng(seed), sample=sample)
            expected = tc.calibration._view_tensor(views.moments, x, y).T
            h = tc.calibration._h_samples(prior, views, n_samples, np.random.default_rng(seed))
            assert np.array_equal(h, expected), seed
            assert h.T.flags.c_contiguous

    def test_check_holds_one_copy_of_the_h_image(self):
        """The traced peak of a k = 10 mean-view check stays within 1.5 images of 8 k n bytes.

        numpy reports its data buffers to tracemalloc, so the peak is
        deterministic.  Standardising a copy of the image and LAPACK's copy for
        the SVD peaked at 2.3 images.
        """
        k, n = 10, 100_000
        a = np.random.default_rng(k).standard_normal((k + 1, k + 1))
        prior = tc.GaussianPrior(np.zeros(k + 1), a @ a.T / (k + 1) + np.eye(k + 1))
        views = tc.ViewSet(tc.LinearViewMap.identity(k + 1, 0, k), None,
                           tuple(tc.MomentView(target=0.01 * i, coord=i) for i in range(k)))
        tc.existence_check(prior, views, n_samples=1_000)  # the first check imports linprog
        tracemalloc.start()
        try:
            status = tc.existence_check(prior, views, n_samples=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == "interior"
        assert peak <= 1.5 * 8 * k * n

    @pytest.mark.parametrize("dim, c, n_samples", [
        (2, [0.0], 20_000),
        (2, [50.0], 20_000),
        (2, [4.9], 200),
        (3, [0.1, -0.1], 20_000),
        (3, [10.0, 0.0], 20_000),
        (5, [0.0, 0.1, -0.1, 0.05], 4_000),
        (5, [20.0, 0.0, 0.0, 0.0], 4_000),
    ])
    def test_padded_probe_oracle_gives_same_class(self, dim, c, n_samples):
        prior = tc.GaussianPrior(np.zeros(dim), np.eye(dim))
        views = self._views(len(c), dim)
        h = tc.calibration._h_samples(prior, views, n_samples, np.random.default_rng(0))
        assert padded_probe_class(h, c) == tc.existence_check(prior, views, c=c,
                                                                n_samples=n_samples)


class TestHullGauge:
    """The column-generated gauge against the full-sample LP and raw-coordinate oracles."""

    @staticmethod
    def _cloud_and_targets(k, seed):
        rng = np.random.default_rng(seed)
        mix = rng.standard_normal((k, k)) * np.logspace(-2, 2, k)
        h = rng.standard_t(4.0, size=(5_000, k)) @ mix + rng.standard_normal(k)
        m = h.mean(axis=0)
        rows = h[rng.choice(len(h), 3, replace=False)]
        vertex = h[np.argmax(h[:, 0])]
        targets = [m + f * (row - m) for f, row in zip((0.3, 0.99, 1.7), rows)]
        return h, targets + [vertex, m + 2.0 * (vertex - m)]

    @pytest.mark.parametrize("k", [4, 5])
    def test_lp_gauge_matches_facet_oracle(self, k):
        h, targets = self._cloud_and_targets(k, seed=k)
        for c in targets:
            expected = facet_gauge(h, c)
            assert tc.calibration._hull_gauge(h, c, 1e-6) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_facet_gauge_matches_lp_oracle(self, k):
        h, targets = self._cloud_and_targets(k, seed=k)
        for c in targets:
            expected = ray_lp_gauge(h, c)
            assert tc.calibration._hull_gauge(h, c, 1e-6) == pytest.approx(expected, rel=1e-9)

    @staticmethod
    def _skewed_cloud(kind, k, seed, n=5_000):
        """A mixed cloud of n draws with near, far and outside targets.

        "near" is a quarter of the way to a random row, "far" nine tenths of
        the way to the mean of the three rows most extreme along a random
        direction, "outside" three times that far.
        """
        rng = np.random.default_rng(seed)
        draw = {"gaussian": lambda: rng.standard_normal((n, k)),
                "t3": lambda: rng.standard_t(3.0, (n, k)),
                "t1.5": lambda: rng.standard_t(1.5, (n, k)),
                "lognormal": lambda: rng.lognormal(size=(n, k))}[kind]
        h = draw() @ (rng.standard_normal((k, k)) + 2.0 * np.eye(k))
        m = h.mean(axis=0)
        edge = h[np.argsort(h @ rng.standard_normal(k))[-3:]].mean(axis=0)
        row = h[rng.integers(n)]
        return h, {"near": m + 0.25 * (row - m), "far": m + 0.9 * (edge - m),
                   "outside": m + 3.0 * (edge - m)}

    @staticmethod
    def _spy_linprog(monkeypatch):
        """Record (columns, artificial weight) of every LP the gauge solves."""
        calls = []
        solve = tc.calibration.linprog

        def spy(cost, **kwargs):
            res = solve(cost, **kwargs)
            k = kwargs["A_eq"].shape[0]
            calls.append((len(cost), float(res.x[-2 * k:].sum())))
            return res

        monkeypatch.setattr(tc.calibration, "linprog", spy)
        return calls

    @pytest.mark.parametrize("kind", ["gaussian", "t3", "t1.5", "lognormal"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_column_generation_matches_full_lp_and_raw_oracles(self, k, kind):
        h, targets = self._skewed_cloud(kind, k, seed=10 * k)
        raw_oracle = facet_gauge if 2 <= k <= 4 else ray_lp_gauge
        for name, c in targets.items():
            gauge = tc.calibration._hull_gauge(h, c, 1e-6)
            assert gauge == pytest.approx(hull_gauge_full_lp(h, c), rel=1e-9), name
            assert gauge == pytest.approx(raw_oracle(h, c), rel=1e-9), name
        assert gauge > 1.0  # the outside target

    @pytest.mark.parametrize("k, seed, name", [(3, 0, "near"), (7, 6, "far")])
    def test_artificial_columns_carry_a_missed_cone(self, monkeypatch, k, seed, name):
        """Heavy-tailed clouds whose seed points' cone misses the target."""
        h, targets = self._skewed_cloud("t3", k, seed)
        calls = self._spy_linprog(monkeypatch)
        gauge = tc.calibration._hull_gauge(h, targets[name], 1e-6)
        assert calls[0][1] > 0.0
        assert calls[-1][1] == 0.0
        assert gauge == pytest.approx(hull_gauge_full_lp(h, targets[name]), rel=1e-9)

    def test_round_cap_raises(self, monkeypatch):
        h, targets = self._skewed_cloud("gaussian", 4, seed=40)
        monkeypatch.setattr(tc.calibration, "_GAUGE_ROUNDS", 1)
        with pytest.raises(tc.InconclusiveSample, match="rounds"):
            tc.calibration._hull_gauge(h, targets["near"], 1e-6)

    def test_artificial_column_left_in_the_optimum_raises(self):
        """A thin image whose gauge (~7e6) exceeds an artificial column's cost."""
        s, t = np.random.default_rng(0).standard_normal((2, 2_000))
        h = np.column_stack([s, s + 1e-8 * t])
        with pytest.raises(tc.InconclusiveSample, match="artificial"):
            tc.calibration._hull_gauge(h, np.array([0.1, -0.1]), 1e-10)

    @pytest.mark.parametrize("kind", ["gaussian", "t3", "t1.5", "lognormal"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_row_layout_matches_point_layout_oracle(self, k, kind):
        """The gauge on h's k rows against the one on its n points.

        Exact on the ``.T`` view of (k, n) rows, the layout ``_h_samples``
        returns.  On C-ordered h the point-layout oracle sums each column
        mean in another order, so the two agree to rounding only.
        """
        h, targets = self._skewed_cloud(kind, k, seed=10 * k)
        rows_view = np.ascontiguousarray(h.T).T
        for name, c in targets.items():
            gauge = tc.calibration._hull_gauge(rows_view, c, 1e-6)
            assert gauge == hull_gauge_columns(rows_view, c, 1e-6), name
            assert tc.calibration._hull_gauge(h, c, 1e-6) == gauge, name
            assert gauge == pytest.approx(hull_gauge_columns(h, c, 1e-6), rel=1e-12), name

    @pytest.mark.parametrize("n", [4_000, 20_000])
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("factor", [0.1, 10.0])
    def test_flatness_threshold_matches_the_sample_svd(self, tol, factor, n):
        """A cloud [s, s + eps t] whose standardised singular-value ratio is tol / 10 or 10 tol.

        The k x k Gram matrix's eigenvalues would square that ratio, below their
        rounding floor at tol = 1e-10, and miss the flat case.  At n = 20,000
        the blocked QR of the gauge spans three blocks.
        """
        s, t = np.random.default_rng(1).standard_normal((2, n))
        h = np.column_stack([s, s + 2.0 * factor * tol * t])
        singular = np.linalg.svd((h - h.mean(axis=0)) / h.std(axis=0), compute_uv=False)
        ratio = singular[-1] / singular[0]
        assert factor / 2.0 < ratio / tol < factor * 2.0
        try:
            tc.calibration._hull_gauge(h, h.mean(axis=0), tol)
            flat = False
        except tc.InconclusiveSample as exc:
            flat = "flat" in str(exc)
        assert flat == (ratio <= tol)

    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("n", [5, 8_192, 20_001])
    def test_blocked_singular_values_match_lapack(self, k, n):
        """The TSQR singular values of z.T against LAPACK's SVD of the whole (n, k) matrix."""
        rng = np.random.default_rng(n + k)
        z = np.ascontiguousarray((rng.standard_t(3.0, (n, k)) @ rng.standard_normal((k, k))).T)
        expected = np.linalg.svd(z.T, compute_uv=False)
        got = tc.calibration._singular_values(z)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * expected[0])

    def test_six_index_check_solves_only_small_lps(self, monkeypatch, six_index_prior):
        """The k = 5 check prices 100k points but solves no LP over all of them."""
        calls = self._spy_linprog(monkeypatch)
        status = tc.existence_check(six_index_prior, mean_only_views(), n_samples=100_000,
                                    seed=7)
        assert status == "interior"
        assert 1 <= len(calls) <= 6
        assert max(columns for columns, _ in calls) <= 2_000


# ---------------------------------------------------------------------------
# Independence diagnostic
# ---------------------------------------------------------------------------


class TestIndependence:
    def test_duplicated_view_is_flagged(self):
        prior = tc.GaussianPrior(np.zeros(2), np.eye(2))
        vmap = tc.LinearViewMap.identity(2, 1, 1)
        g = tc.GaussianDensity(0.0, 1.0)
        same = lambda x, y: y[..., 0]
        views = tc.ViewSet(
            vmap, g,
            (tc.MomentView(target=0.0, payoff=same), tc.MomentView(target=0.0, payoff=same)),
        )
        eig = tc.independence_check(prior, views)
        state_trace = 2.0  # Var(Y) = 1 per duplicated view
        assert abs(eig) <= 1e-8 * state_trace + 1e-12

    def test_coordinate_views_bounded_by_schur_eigenvalue(self):
        rng = np.random.default_rng(6)
        cov = random_spd(rng, 3)
        prior = tc.GaussianPrior(rng.standard_normal(3), cov)
        vmap = tc.LinearViewMap.identity(3, 1, 3)
        prior_t = tc.transform_prior(prior, vmap)
        g = tc.GaussianDensity(float(prior_t.mean[0]), float(np.sqrt(prior_t.covariance[0, 0])))
        views = tc.ViewSet(
            vmap, g, (tc.MomentView(target=0.0, coord=0), tc.MomentView(target=0.0, coord=1))
        )
        eig = tc.independence_check(prior, views)
        schur_min = np.linalg.eigvalsh(tc.gaussian_conditional(prior_t, 1).cov).min()
        assert eig == pytest.approx(schur_min, rel=0.1)

    def test_two_asset_model_is_positive(self, two_asset_prior, two_asset_views):
        eig = tc.independence_check(two_asset_prior, two_asset_views)
        # regression constant: E[Var(Y | X)] is the Schur complement 0.08506
        assert eig == pytest.approx(0.0850636, rel=0.05)
        assert eig > 0.0

    @staticmethod
    def _option_chain():
        """The call and put views of the option_chain benchmark workload."""
        prior = tc.GaussianPrior([0.0, 0.1], [[1.0, 0.6], [0.6, 1.2]])
        call = lambda x, y: np.maximum(y[..., 0] - 0.4, 0.0)
        put = lambda x, y: np.maximum(-0.4 - y[..., 0], 0.0)
        views = tc.ViewSet(
            tc.LinearViewMap.identity(2, 1, 2), tc.StudentTDensity(df=4, loc=0.0, scale=0.8),
            (tc.MomentView(target=0.45, payoff=call), tc.MomentView(target=0.25, payoff=put)),
        )
        return prior, views

    @staticmethod
    def _option_chain_declared():
        """The same views declared, as the command line builds them."""
        prior, views = TestIndependence._option_chain()
        moments = (tc.MomentView(target=0.45, payoff=CALL), tc.MomentView(target=0.25, payoff=PUT))
        return prior, tc.ViewSet(views.view_map, views.marginal, moments)

    @pytest.mark.parametrize("model, expected", [
        ("two_asset", 0.0850635957373671),  # closed form: the Schur block S_mm
        ("option_chain", 0.15843581260455536),  # quadrature Hessian
        # exact piece moments; the Legendre oracle gives 0.15843899956813295
        ("option_chain_declared", 0.1584389995681328),
        ("generic", 0.49),  # Gauss-Hermite rule for Var(Y | X) = S^2
    ])
    def test_equals_newton_diagnostic_bit_for_bit(self, model, expected,
                                                  two_asset_prior, two_asset_views):
        prior, views = {
            "two_asset": lambda: (two_asset_prior, two_asset_views),
            "option_chain": self._option_chain,
            "option_chain_declared": self._option_chain_declared,
            "generic": lambda: (TestGenericPrior()._generic(), TestGenericPrior()._views()),
        }[model]()
        eig = tc.independence_check(prior, views)
        assert eig == tc.solve_lambda_newton(prior, views).independence_min_eig
        assert eig == pytest.approx(expected, rel=1e-12, abs=0)

    def test_solver_sizes_reach_the_check(self):
        """At n_x = 2,000 and n_y = 16, on the solve's own problem, as Newton."""
        prior, views = self._option_chain()
        problem = tc.build_dual_problem(prior, views, n_x=2000, n_y=16)
        newton = tc.solve_lambda_newton(prior, views, problem=problem).independence_min_eig
        assert newton == pytest.approx(0.15839302414228656, rel=1e-12, abs=0)
        assert tc.independence_check(prior, views, problem=problem) == newton
        assert tc.independence_check(prior, views) != newton  # the default 10,000 x 64

    def test_no_moment_views_give_nan(self, two_asset_prior):
        views = tc.ViewSet(tc.LinearViewMap(TWO_ASSET_MAP, 1, 1),
                           tc.StudentTDensity(**TWO_ASSET_T), ())
        assert np.isnan(tc.independence_check(two_asset_prior, views))
        assert np.isnan(tc.solve_lambda_newton(two_asset_prior, views).independence_min_eig)

    def test_payoff_view_past_three_conditional_dims_fails_like_the_dual(
            self, six_index_prior):
        call = lambda x, y: np.maximum(y[..., 0], 0.0)
        views = tc.ViewSet(tc.LinearViewMap.identity(6, 1, 1), tc.GaussianDensity(0.0, 0.02),
                           (tc.MomentView(target=0.01, payoff=call),))
        with pytest.raises(tc.QuadratureFailure):
            tc.independence_check(six_index_prior, views)

    def test_six_index_mean_targets_are_interior(self, six_index_prior):
        from conftest import mean_only_views

        views = mean_only_views()
        status = tc.existence_check(six_index_prior, views, n_samples=100_000, seed=1)
        assert status == "interior"

    def test_six_index_mean_class_matches_padded_probe_oracle(self, six_index_prior):
        from conftest import mean_only_views

        views = mean_only_views()
        h = tc.calibration._h_samples(six_index_prior, views, 20_000, np.random.default_rng(1))
        status = tc.existence_check(six_index_prior, views, n_samples=20_000, seed=1)
        assert status == padded_probe_class(h, views.targets) == "interior"


# ---------------------------------------------------------------------------
# Generic priors through every entry point
# ---------------------------------------------------------------------------


class TestGenericPrior:
    """A generic prior equal in law to a Gaussian, checked against its twin.

    Y | X ~ N(a + b x, s^2) with X ~ N(0.2, 1): the twin is the bivariate
    Gaussian prior with the same law.  The sampler returns 1-D draws and
    the quadrature rule 2-D nodes, so both shape normalizations are used.
    """

    A, B, S = 0.0, 0.5, 0.7
    TARGET = 0.4

    def _generic(self, with_quadrature=True):
        def cond_sampler(x, rng):
            return self.A + self.B * x[:, 0] + self.S * rng.standard_normal(x.shape[0])

        def cond_quad(x, n):
            t, w = roots_hermite(n)
            mean = self.A + self.B * x[:, 0]
            nodes = mean[:, None] + np.sqrt(2.0) * self.S * t[None, :]
            return nodes, np.broadcast_to(w / np.sqrt(np.pi), nodes.shape)

        return tc.GenericPrior(
            x_dim=1, y_dim=1, conditional_sampler=cond_sampler,
            conditional_quadrature=cond_quad if with_quadrature else None,
        )

    def _twin(self):
        var_x = 1.0
        mean = [0.2, self.A + self.B * 0.2]
        cov = [[var_x, self.B * var_x], [self.B * var_x, self.B**2 * var_x + self.S**2]]
        return tc.GaussianPrior(mean, cov)

    def _views(self, matrix=None):
        vmap = tc.LinearViewMap(np.eye(2) if matrix is None else matrix, 1, 2)
        return tc.ViewSet(vmap, tc.StudentTDensity(df=5, loc=0.5, scale=0.8),
                          (tc.MomentView(target=self.TARGET, coord=0),))

    def test_dual_matches_gaussian_twin(self):
        views = self._views()
        problem = tc.build_dual_problem(self._generic(), views, n_x=2000, n_y=64)
        assert isinstance(problem, tc.QuadratureProblem)
        report = tc.solve_lambda_newton(self._generic(), views, problem=problem)
        assert report.converged
        lam_twin = tc.solve_lambda_gaussian_linear(self._twin(), views)
        np.testing.assert_allclose(report.lam, lam_twin, rtol=1e-6)

    def test_existence_class_matches_gaussian_twin(self):
        views = self._views()
        centroid = self.A + self.B * 0.5
        for c, expected in (([centroid], "interior"), ([50.0], "outside")):
            for prior in (self._generic(), self._twin()):
                assert tc.existence_check(prior, views, c=c, n_samples=20_000) == expected

    def test_independence_eigenvalue_is_schur_variance(self):
        views = self._views()
        for prior in (self._generic(), self._twin()):
            eig = tc.independence_check(prior, views)
            assert eig == pytest.approx(self.S**2, rel=0.05)

    def test_importance_sampled_mean_hits_target(self):
        views = self._views()
        generic = self._generic()
        problem = tc.build_dual_problem(generic, views, n_x=2000, n_y=64)
        report = tc.solve_lambda_newton(generic, views, problem=problem)
        post = tc.TiltedPosterior(problem, report.lam)
        batch = tc.sample_posterior(post, 100_000, seed=5)
        again = tc.sample_posterior(problem.posterior(report.lam), 100_000, seed=5)
        np.testing.assert_array_equal(again.z_samples, batch.z_samples)
        np.testing.assert_array_equal(again.weights, batch.weights)
        w = batch.weights
        y = batch.z_samples[:, 1]
        mean = np.average(y, weights=w)
        ess = w.sum() ** 2 / (w @ w)
        se = np.sqrt(np.average((y - mean) ** 2, weights=w) / ess)
        assert abs(mean - self.TARGET) < 4 * se
        twin = tc.sample_posterior(tc.build_posterior(self._twin(), views), 100_000, seed=5)
        twin_se = twin.z_samples[:, 1].std(ddof=1) / np.sqrt(twin.n)
        assert abs(twin.z_samples[:, 1].mean() - self.TARGET) < 4 * twin_se

    def test_non_identity_view_map_rejected_everywhere(self):
        """The callbacks live in the prior's coordinates, so a view map cannot apply."""
        views = self._views(np.array([[1.0, 1.0], [0.0, 1.0]]))
        generic = self._generic(with_quadrature=False)
        with pytest.raises(ValueError, match="identity view map"):
            tc.build_dual_problem(generic, views)
        with pytest.raises(ValueError, match="identity view map"):
            tc.existence_check(generic, views, n_samples=2_000)
        with pytest.raises(ValueError, match="identity view map"):
            tc.independence_check(generic, views)

    @pytest.mark.parametrize("dims", [(3, 7), (1, 2), (0, 2), (2, 0)], ids=str)
    def test_declared_dimensions_must_fit_the_views(self, dims):
        """x_dim = k1 and x_dim + y_dim = n, or no entry point takes the prior."""
        views = self._views()
        generic = dataclasses.replace(self._generic(), x_dim=dims[0], y_dim=dims[1])
        with pytest.raises(ValueError, match="declares x_dim"):
            tc.build_dual_problem(generic, views, n_x=50, n_y=8)
        with pytest.raises(ValueError, match="declares x_dim"):
            tc.existence_check(generic, views, n_samples=2_000)
        with pytest.raises(ValueError, match="declares x_dim"):
            tc.independence_check(generic, views)

    def test_callbacks_must_return_y_dim_columns(self):
        """A sampler or a rule with 3 columns of y for y_dim = 1 is named in the error."""
        good = self._generic()
        wide = dataclasses.replace(
            good,
            conditional_sampler=lambda x, rng: np.tile(good.sample(x, rng), 3),
            conditional_quadrature=lambda x, n: (np.zeros((x.shape[0], n, 3)),
                                                 np.full((x.shape[0], n), 1.0 / n)),
        )
        x = np.zeros((4, 1))
        with pytest.raises(ValueError, match="conditional_sampler returned 3 columns"):
            wide.sample(x, np.random.default_rng(0))
        with pytest.raises(ValueError, match="conditional_quadrature returned 3 columns"):
            wide.rule(x, 8)
        with pytest.raises(ValueError, match="conditional_sampler returned 3 columns"):
            dataclasses.replace(wide, conditional_quadrature=None).rule(
                x, 8, np.random.default_rng(0))

    def test_wide_sampler_stops_posterior_sampling(self):
        """Once a silent (1000, 4) batch on a 2-factor map; the rule itself is fine."""
        good = self._generic()
        wide = dataclasses.replace(
            good, conditional_sampler=lambda x, rng: np.tile(good.sample(x, rng), 3))
        problem = tc.build_dual_problem(wide, self._views(), n_x=500, n_y=32)
        with pytest.raises(ValueError, match="conditional_sampler returned 3 columns"):
            tc.sample_posterior(problem.posterior(np.zeros(1)), 1_000, seed=0)

    def test_sampler_only_prior_dual_but_no_posterior_sampling(self):
        """Nested Monte Carlo needs a seeded generator; the importance sampler has none."""
        views = self._views()
        generic = self._generic(with_quadrature=False)
        problem = tc.QuadratureProblem.from_prior(generic, views, n_x=500, n_y=64)
        assert problem.y_nodes.shape == (500, 64, 1)
        np.testing.assert_array_equal(problem.log_y_weights, np.log(np.full(64, 1 / 64)))
        post = tc.TiltedPosterior(problem, np.zeros(1))
        with pytest.raises(tc.NonSampleableConditional):
            tc.sample_posterior(post, 1_000, seed=0)
