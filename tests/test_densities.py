"""Marginal density kinds: evaluation, normalization, sampling, tails."""

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import stdtrit

import tiltcal as tc
from oracles import (
    density_mass_quad,
    gaussian_cdf_stats,
    gaussian_ppf_stats,
    grid_cdf_quad,
    grid_moments_quad,
    student_t_cdf_mpmath,
    student_t_cdf_stats,
    student_t_ppf_mpmath,
    student_t_ppf_stats,
    student_t3_ppf_mpmath,
)


class TestStudentT:
    def test_mode_value_matches_closed_form(self):
        g = tc.StudentTDensity(df=3.0, loc=1.5, scale=2.4120)
        expected = 2.0 / (2.4120 * np.pi * np.sqrt(3.0))
        assert g.pdf(1.5) == pytest.approx(expected, rel=1e-12)

    def test_matches_scipy_everywhere(self):
        g = tc.StudentTDensity(df=4.5, loc=-0.7, scale=1.9)
        x = np.linspace(-30, 30, 401)
        np.testing.assert_allclose(
            g.pdf(x), stats.t.pdf(x, 4.5, loc=-0.7, scale=1.9), rtol=1e-12
        )

    def test_tail_index_is_df_plus_one(self):
        assert tc.StudentTDensity(df=3, loc=0, scale=1).tail_index == 4.0
        assert tc.StudentTDensity(df=6, loc=0, scale=1).tail_index == 7.0

    def test_regular_variation_of_tail(self):
        g = tc.StudentTDensity(df=3, loc=0.0, scale=1.0)
        t = 1e7
        for eta in (2.0, 5.0):
            assert g.pdf(eta * t) / g.pdf(t) == pytest.approx(eta**-4.0, rel=1e-5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tc.StudentTDensity(df=1.0, loc=0.0, scale=1.0)
        with pytest.raises(ValueError):
            tc.StudentTDensity(df=3.0, loc=0.0, scale=0.0)

    def test_mean_and_var(self):
        g = tc.StudentTDensity(df=5.0, loc=2.0, scale=3.0)
        assert g.mean() == 2.0
        assert g.var() == pytest.approx(9.0 * 5.0 / 3.0)

    def test_dlogpdf_dloc_matches_finite_difference(self):
        g = tc.StudentTDensity(df=3.0, loc=0.4, scale=1.2)
        x = np.array([-3.0, 0.0, 0.4, 2.5, 9.0])
        eps = 1e-6
        hi = tc.StudentTDensity(df=3.0, loc=0.4 + eps, scale=1.2)
        lo = tc.StudentTDensity(df=3.0, loc=0.4 - eps, scale=1.2)
        fd = (hi.logpdf(x) - lo.logpdf(x)) / (2 * eps)
        np.testing.assert_allclose(g.dlogpdf_dloc(x), fd, atol=1e-7)


class TestGaussian:
    def test_standard_normal_mode(self):
        g = tc.GaussianDensity(0.0, 1.0)
        assert g.pdf(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-14)

    def test_no_tail_index(self):
        assert tc.GaussianDensity(0.0, 1.0).tail_index is None

    def test_dlogpdf_dloc(self):
        g = tc.GaussianDensity(1.0, 2.0)
        x = np.array([0.0, 1.0, 5.0])
        np.testing.assert_allclose(g.dlogpdf_dloc(x), (x - 1.0) / 4.0)


@pytest.mark.parametrize("make, match", [
    (lambda: tc.GaussianDensity(np.nan, 1.0), "finite"),
    (lambda: tc.GaussianDensity(0.0, np.inf), "finite"),
    (lambda: tc.GaussianDensity(0.0, 0.0), "positive"),
    (lambda: tc.StudentTDensity(df=np.inf, loc=0.0, scale=1.0), "finite"),
    (lambda: tc.StudentTDensity(df=3.0, loc=np.nan, scale=1.0), "finite"),
    (lambda: tc.GridDensity([0.0, 1.0, 2.0], [1.0, 1.0]), "equal length"),
    (lambda: tc.GridDensity([[0.0, 1.0]], [[1.0, 1.0]]), "1-D"),
    (lambda: tc.GridDensity([0.0], [1.0]), "two knots"),
    (lambda: tc.GridDensity([0.0, np.inf], [1.0, 1.0]), "finite"),
    (lambda: tc.GridDensity([0.0, 1.0], [1.0, np.nan]), "finite"),
], ids=["gaussian-mean-nan", "gaussian-stddev-inf", "gaussian-stddev-0", "t-df-inf",
        "t-loc-nan", "grid-lengths", "grid-2d", "grid-one-knot", "grid-knot-inf",
        "grid-density-nan"])
def test_invalid_density_parameters_raise(make, match):
    with pytest.raises(ValueError, match=match):
        make()


class TestGrid:
    def test_tabulated_t_matches_analytic(self):
        g = tc.StudentTDensity(df=3.0, loc=1.5, scale=2.412)
        grid = tc.GridDensity.from_function(g.pdf, -200.0, 203.0, n=40001)
        x = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(grid.pdf(x), g.pdf(x), atol=1e-4)

    def test_zero_outside_support(self):
        grid = tc.GridDensity([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])
        assert grid.pdf(-0.5) == 0.0
        assert grid.pdf(2.5) == 0.0

    def test_renormalized_at_construction(self):
        grid = tc.GridDensity([0.0, 1.0], [3.0, 3.0])
        assert density_mass_quad(grid) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            tc.GridDensity([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            tc.GridDensity([0.0, 1.0], [1.0, -0.5])
        with pytest.raises(ValueError):
            tc.GridDensity([0.0, 1.0], [0.0, 0.0])

    def test_from_function_coverage_guard(self):
        g = tc.GaussianDensity(0.0, 1.0)
        with pytest.raises(ValueError, match="covers only"):
            tc.GridDensity.from_function(g.pdf, -1.0, 1.0)

    def test_ppf_cdf_roundtrip(self):
        knots = np.linspace(-3, 5, 200)
        grid = tc.GridDensity(knots, np.exp(-0.5 * (knots - 1.0) ** 2))
        u = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(grid.cdf(grid.ppf(u)), u, atol=2e-3)

    def test_triangle_cdf_and_ppf_are_exact(self):
        """The pdf is piecewise linear, so the cdf is piecewise quadratic, not linear."""
        tri = tc.GridDensity([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert tri.cdf(0.5) == pytest.approx(0.125, abs=1e-15)
        assert tri.cdf(1.5) == pytest.approx(0.875, abs=1e-15)
        assert tri.ppf(0.125) == pytest.approx(0.5, abs=1e-15)
        assert tri.ppf(0.875) == pytest.approx(1.5, abs=1e-15)
        np.testing.assert_array_equal(tri.cdf(np.array([-1.0, 0.0, 1.0, 3.0])),
                                      [0.0, 0.0, 0.5, 1.0])
        np.testing.assert_array_equal(tri.ppf(np.array([0.0, 0.5, 1.0])), [0.0, 1.0, 2.0])

    def test_triangle_draws_have_its_variance(self):
        tri = tc.GridDensity([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        draws = tri.sample(200_000, np.random.default_rng(3))
        # the variance of the sample variance is (1/15 - 1/36) / n: SE 4.4e-4
        assert draws.var() == pytest.approx(1.0 / 6.0, abs=2e-3)

    def test_cdf_and_ppf_match_quad_of_the_pdf(self):
        """A skewed 13-knot grid with a zero-density knot inside."""
        knots = np.array([-2.0, -1.7, -1.0, -0.6, -0.5, 0.0, 0.3, 0.9, 1.0, 1.8, 2.5, 4.0, 7.0])
        dens = np.array([0.0, 0.3, 0.9, 1.4, 1.1, 0.0, 0.6, 0.8, 0.4, 0.35, 0.2, 0.05, 0.0])
        grid = tc.GridDensity(knots, dens)
        x = np.concatenate([knots, np.linspace(-2.5, 7.5, 101)])
        np.testing.assert_allclose(grid.cdf(x), grid_cdf_quad(grid, x), rtol=0, atol=1e-14)
        u = np.linspace(0.0, 1.0, 201)
        np.testing.assert_allclose(grid_cdf_quad(grid, grid.ppf(u)), u, rtol=0, atol=1e-14)

    @staticmethod
    def _skewed():
        """The 13-knot skewed grid above."""
        knots = np.array([-2.0, -1.7, -1.0, -0.6, -0.5, 0.0, 0.3, 0.9, 1.0, 1.8, 2.5, 4.0, 7.0])
        dens = np.array([0.0, 0.3, 0.9, 1.4, 1.1, 0.0, 0.6, 0.8, 0.4, 0.35, 0.2, 0.05, 0.0])
        return tc.GridDensity(knots, dens)

    def test_moments_match_quad_of_the_pdf(self):
        grid = self._skewed()
        mean, var = grid_moments_quad(grid)
        assert grid.mean() == pytest.approx(mean, rel=1e-13)
        assert grid.var() == pytest.approx(var, rel=1e-13)

    def test_triangle_moments_are_exact(self):
        tri = tc.GridDensity([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert tri.mean() == pytest.approx(1.0, abs=1e-15)
        assert tri.var() == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_quadrature_nodes_give_the_mean_bit_for_bit(self, two_asset_prior):
        """Both dual backends read the exact E_g[X] off the same masses."""
        grid = self._skewed()
        nodes, weights = grid.quadrature_nodes(0)
        assert float(weights @ nodes) == grid.mean()
        assert grid.mean() == pytest.approx(grid_moments_quad(grid)[0], rel=1e-13)
        views = tc.ViewSet(tc.LinearViewMap.identity(2, 1, 2), grid,
                           (tc.MomentView(target=0.5, coord=0),))
        closed = tc.GaussianLinearProblem(two_asset_prior, views)
        quad = tc.QuadratureProblem.from_prior(two_asset_prior, views)
        assert closed.e_g_x[0] == grid.mean()
        assert float(quad.x_weights @ quad.x_nodes[:, 0]) == grid.mean()

    def test_closed_form_posterior_draws_hit_the_moment_target(self):
        grid = self._skewed()
        prior = tc.GaussianPrior([0.0, 0.0], [[2.0, 1.0], [1.0, 1.5]])
        views = tc.ViewSet(tc.LinearViewMap.identity(2, 1, 2), grid,
                           (tc.MomentView(target=0.5, coord=0),))
        z = tc.sample_posterior(tc.build_posterior(prior, views), 1_000_000, seed=0).z_samples
        se = z.std(axis=0, ddof=1) / np.sqrt(z.shape[0])
        np.testing.assert_array_less(np.abs(z.mean(axis=0) - [grid.mean(), 0.5]), 4 * se)

    def test_unknown_tail(self):
        grid = tc.GridDensity([0.0, 1.0], [1.0, 1.0])
        assert grid.tail_index is None

    def test_mean_of_uniform(self):
        grid = tc.GridDensity([2.0, 4.0], [1.0, 1.0])
        assert grid.mean() == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize(
    "density",
    [
        tc.GaussianDensity(0.3, 1.7),
        tc.StudentTDensity(df=3.0, loc=1.5, scale=2.412),
        tc.StudentTDensity(df=6.0, loc=-2.0, scale=0.5),
        tc.GridDensity(np.linspace(-4, 4, 300), np.exp(-np.abs(np.linspace(-4, 4, 300)))),
    ],
    ids=["gaussian", "t3", "t6", "grid"],
)
def test_every_density_integrates_to_one(density):
    assert density_mass_quad(density) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "density",
    [
        tc.GaussianDensity(0.3, 1.7),
        tc.StudentTDensity(df=4.0, loc=1.5, scale=2.0),
        tc.GridDensity(np.linspace(-4, 4, 300), np.exp(-np.abs(np.linspace(-4, 4, 300)))),
    ],
    ids=["gaussian", "t4", "grid"],
)
def test_quadrature_nodes_reproduce_mean(density):
    nodes, weights = density.quadrature_nodes(20001)
    assert float(nodes @ weights) == pytest.approx(density.mean(), abs=2e-3)


@pytest.mark.parametrize("density, pdf", [
    (tc.GaussianDensity(0.3, 1.7), stats.norm.pdf),
    (tc.StudentTDensity(df=4.0, loc=1.5, scale=2.0), lambda u: stats.t.pdf(u, 4.0)),
    (tc.StudentTDensity(df=3.0, loc=-0.2, scale=0.8), lambda u: stats.t.pdf(u, 3.0)),
], ids=["gaussian", "t4", "t3"])
@pytest.mark.parametrize("n", [401, 10_000])
def test_sinh_rule_integrates_a_smooth_linear_growth(density, pdf, n):
    """E_g sqrt(1 + u^2), u = (X - loc) / scale, to 5e-12 against adaptive quadrature; the
    midpoint quantiles the rule replaced missed 3e-4 (t4) and 7e-4 (t3) of it at 10,000."""
    loc, scale, _ = density._sinh_frame()
    f = lambda u: np.sqrt(1.0 + u * u) * pdf(u)
    edges = [0.0, 1.0, 10.0, 1e3, 1e5, 1e8]
    want = 2.0 * sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(edges, edges[1:]))
    nodes, weights = density.quadrature_nodes(n)
    assert weights.sum() == pytest.approx(1.0, abs=1e-15) and np.all(weights >= 0)
    got = weights @ np.sqrt(1.0 + ((nodes - loc) / scale) ** 2)
    assert got == pytest.approx(want, rel=5e-12, abs=0)


@pytest.mark.parametrize("density, tail", [
    (tc.GaussianDensity(0.3, 1.7), lambda r: 2.0 * stats.norm.pdf(r)),
    (tc.StudentTDensity(df=4.0, loc=1.5, scale=2.0),
     lambda r: 2.0 * (4.0 + r * r) / 3.0 * stats.t.pdf(r, 4.0)),
    (tc.StudentTDensity(df=2.5, loc=0.0, scale=1.0),
     lambda r: 2.0 * (2.5 + r * r) / 1.5 * stats.t.pdf(r, 2.5)),
], ids=["gaussian", "t4", "t2.5"])
def test_sinh_rule_leaves_out_1e_12_of_the_absolute_moment(density, tail):
    """The nodes reach loc +- reach scale, where the standardised E|X|; |X| > reach is 1e-12
    (E[T; T > r] = (df + r^2) f(r) / (df - 1) for a t)."""
    loc, scale, reach = density._sinh_frame()
    nodes, _ = density.quadrature_nodes(101)
    np.testing.assert_allclose(nodes[[0, -1]], [loc - reach * scale, loc + reach * scale],
                               rtol=1e-12)
    assert tail(reach) == pytest.approx(1e-12, rel=1e-9)


def test_sinh_rule_edges():
    """One node is the location; a t whose df is near 1 keeps finite nodes and weights."""
    g = tc.StudentTDensity(df=1.01, loc=0.5, scale=2.0)
    assert [a.tolist() for a in g.quadrature_nodes(1)] == [[0.5], [1.0]]
    nodes, weights = g.quadrature_nodes(1001)
    assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("df", [5.0, 3.0])
def test_inverse_cdf_sampling_matches_distribution(df):
    g = tc.StudentTDensity(df=df, loc=0.5, scale=1.5)
    draws = g.sample(50_000, np.random.default_rng(7))
    res = stats.kstest(draws, lambda x: g.cdf(x))
    assert res.pvalue > 0.01


def _is_t3(density):
    return isinstance(density, tc.StudentTDensity) and density.df == 3.0


def _t3_ppf_oracle(u, loc=0.0, scale=1.0):
    """The t(3) quantile through mpmath, hi + lo; the ends of [0, 1] and beyond as ``stdtrit``."""
    u = np.asarray(u, dtype=float)
    hi, lo = np.full(u.shape, np.nan), np.zeros(u.shape)
    hi[u == 0.0], hi[u == 1.0] = -np.inf, np.inf
    inside = (u > 0.0) & (u < 1.0)
    pairs = np.array([student_t3_ppf_mpmath(p) for p in u[inside]]).reshape(-1, 2)
    hi[inside], lo[inside] = pairs[:, 0], pairs[:, 1]
    return hi * scale + loc, lo * scale


def _t3_ulps(got, hi, lo):
    """|got - (hi + lo)| in units in the last place of hi (inf where got is not finite)."""
    with np.errstate(invalid="ignore"):
        err = np.abs((got - hi) - lo) / np.spacing(np.abs(hi))
    return np.where(np.isfinite(got), err, np.inf)


def _oracle(density):
    """cdf and ppf of ``density`` through scipy.stats."""
    if isinstance(density, tc.GaussianDensity):
        args = (density.mean_, density.stddev)
        return (lambda x: gaussian_cdf_stats(x, *args),
                lambda u: gaussian_ppf_stats(u, *args))
    args = (density.df, density.loc, density.scale)
    return (lambda x: student_t_cdf_stats(x, *args),
            lambda u: student_t_ppf_stats(u, *args))


_ANALYTIC = [
    *(tc.StudentTDensity(df=df, loc=0.0028, scale=0.0165) for df in (1.5, 3.0, 4.0, 30.0)),
    tc.StudentTDensity(df=1e6, loc=-2.0, scale=3.5),
    tc.GaussianDensity(0.3, 1.7),
]
_ANALYTIC_IDS = ["t1.5", "t3", "t4", "t30", "t1e6", "gaussian"]
# Probabilities and abscissae at the ends of the domain and beyond it.
_EDGES = np.array([0.0, -0.0, 1.0, 1.0 - 1e-16, 1e-15, -0.25, 1.5,
                   np.nan, np.inf, -np.inf])


class TestCdfPpfMatchStatsOracle:
    """The scipy.special kernels reproduce scipy.stats bit for bit.

    The t(3) quantile is ``_t3_ppf``, not ``stdtrit``; ``TestStudentT3Quantile``
    holds it to an mpmath oracle instead, more tightly than ``stdtrit`` meets it.
    """

    @pytest.mark.parametrize("density", _ANALYTIC, ids=_ANALYTIC_IDS)
    def test_bit_identical_on_uniform_normal_and_edge_points(self, density):
        cdf, ppf = _oracle(density)
        rng = np.random.default_rng(11)
        uniform = rng.random(100_000)
        normal = rng.standard_normal(100_000)
        # x spread over the density's own scale, so cdf sees both tails
        spread = density.mean() + 8.0 * np.sqrt(min(density.var(), 1e4)) * normal
        for points in (uniform, normal, spread, _EDGES):
            if not _is_t3(density):
                assert np.array_equal(density.ppf(points), ppf(points), equal_nan=True)
            assert np.array_equal(density.cdf(points), cdf(points), equal_nan=True)

    @pytest.mark.parametrize("density", _ANALYTIC, ids=_ANALYTIC_IDS)
    def test_support_ends_and_invalid_probabilities(self, density):
        ppf = density.ppf(np.array([0.0, -0.0, 1.0, -0.25, 1.5, np.nan]))
        assert ppf[0] == ppf[1] == -np.inf
        assert ppf[2] == np.inf
        assert np.isnan(ppf[3:]).all()
        assert density.ppf(0.0) == -np.inf
        np.testing.assert_array_equal(density.cdf(np.array([-np.inf, np.inf])), [0.0, 1.0])

    @pytest.mark.parametrize("density", _ANALYTIC, ids=_ANALYTIC_IDS)
    def test_scalars_stay_numpy_scalars_and_shapes_are_kept(self, density):
        cdf, ppf = _oracle(density)
        ppf_matches = np.array_equal
        if _is_t3(density):
            ppf = lambda u: _t3_ppf_oracle(u, density.loc, density.scale)[0]  # noqa: E731
            ppf_matches = lambda a, b: np.allclose(a, b, rtol=1e-15, atol=0)  # noqa: E731
        for value in (0.3, 0.0, np.float64(0.7), np.array(0.2)):
            for mine, theirs, matches in ((density.ppf(value), ppf(value), ppf_matches),
                                          (density.cdf(value), cdf(value), np.array_equal)):
                assert isinstance(mine, np.float64)
                assert matches(mine, theirs)
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert density.ppf(grid).shape == (3, 4)
        assert density.cdf(grid).shape == (3, 4)
        assert density.ppf([0.1, 0.5]).shape == (2,)
        assert ppf_matches(density.ppf(grid), ppf(grid))


class TestStudentTFarLeftTail:
    """Below u = 1e-15 the t quantile against an mpmath incomplete-beta oracle.

    ``stdtrit`` returns +inf at df 3 for u = 1e-300 and 1e-240, half the
    true value at 1e-200, and saturates near -8.21e153 at df 1.5.  The
    quantile's relative condition number is |log u| / df, so its exponent
    1/df alone costs up to ~1e-13 relative at u = 1e-300.
    """

    @pytest.mark.parametrize("df", [1.5, 3.0, 4.0, 30.0, 1e6])
    def test_matches_mpmath_oracle(self, df):
        g = tc.StudentTDensity(df=df, loc=0.0, scale=1.0)
        u = np.array([1e-300, 1e-240, 1e-200, 1e-100, 1e-30, 1e-16])
        expected = [student_t_ppf_mpmath(p, df) for p in u]
        np.testing.assert_allclose(g.ppf(u), expected, rtol=1e-13, atol=0)

    def test_location_scale_and_stdtrit_above_the_switch(self):
        u = np.array([1e-15, 1e-10, 0.3])
        g = tc.StudentTDensity(df=4.0, loc=0.0028, scale=0.0165)
        assert g.ppf(1e-300) == pytest.approx(
            0.0028 + 0.0165 * student_t_ppf_mpmath(1e-300, 4.0), rel=1e-13)
        assert np.array_equal(g.ppf(u), student_t_ppf_stats(u, 4.0, 0.0028, 0.0165))
        # df 3 takes _t3_ppf throughout, held to the t(3) oracle
        g = tc.StudentTDensity(df=3.0, loc=0.0028, scale=0.0165)
        assert g.ppf(1e-300) == pytest.approx(
            0.0028 + 0.0165 * student_t_ppf_mpmath(1e-300, 3.0), rel=1e-13)
        np.testing.assert_allclose(g.ppf(u), _t3_ppf_oracle(u, 0.0028, 0.0165)[0],
                                   rtol=1e-15, atol=0)


class TestStudentTFarLeftCdf:
    """The t cdf where ``stdtr`` returns 0, against an mpmath incomplete-beta oracle.

    ``stdtr`` gives 0 once t^2 overflows (|t| > ~1.3e154), so at df 1.5 the
    cdf read 0 from t = -1e155 on, where the true value is 1.2e-233.
    """

    @pytest.mark.parametrize("df", [1.5, 3.0, 30.0])
    def test_matches_mpmath_oracle(self, df):
        g = tc.StudentTDensity(df=df, loc=0.0, scale=1.0)
        t = -np.geomspace(1e20, 1e300, 57)
        expected = np.array([student_t_cdf_mpmath(x, df) for x in t])
        normal = expected >= np.finfo(float).tiny
        np.testing.assert_allclose(g.cdf(t)[normal], expected[normal], rtol=1e-13, atol=0)
        assert np.all(g.cdf(t)[~normal] < np.finfo(float).tiny)

    def test_round_trip_through_the_far_left_quantile(self):
        g = tc.StudentTDensity(df=1.5, loc=0.0028, scale=0.0165)
        assert g.cdf(g.ppf(1e-300)) == pytest.approx(1e-300, rel=1e-12, abs=0)


def _ulp_window(s, k=2000):
    """The 2k + 1 doubles from k below the positive double s to k above it."""
    return (np.float64(s).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


# Probabilities at which the t(3) quantile is checked: uniform draws, a
# geometric sweep into the far left tail, and +-2,000 ulp around each place
# where _t3_ppf changes formula: the tail/centre switch on either side and the
# sign flip at 1/2.
_T3_POINTS = {
    "uniform": np.random.default_rng(5).random(2_000),
    "geometric": np.geomspace(1e-300, 0.5, 400),
    "switch": _ulp_window(tc.densities._T3_SWITCH),
    "mirrored_switch": _ulp_window(1.0 - tc.densities._T3_SWITCH),
    "half": _ulp_window(0.5),
}
_T3_WINDOWS = ["switch", "mirrored_switch", "half"]


class TestStudentT3Quantile:
    """``_t3_ppf`` against a 50-digit mpmath root of the elementary t(3) cdf.

    ``stdtrit`` errs by up to ~1e4 ulp on uniform draws and ~5e9 ulp next to
    u = 1/2, and returns +inf below u ~ 1e-240.  The kernel is within ~1.5 ulp
    everywhere and correctly rounded at most points.  Like ``stdtrit`` it is a
    double-precision solve, so it is not correctly rounded everywhere, and where
    ``stdtrit`` happens to be it may lie one double further off.
    """

    @pytest.fixture(scope="class")
    def exact(self):
        return {name: _t3_ppf_oracle(u) for name, u in _T3_POINTS.items()}

    def test_oracle_matches_the_incomplete_beta_oracle(self):
        for u in (1e-300, 1e-30, 1e-5, 0.01, 0.1, 0.2):
            assert student_t3_ppf_mpmath(u)[0] == pytest.approx(
                student_t_ppf_mpmath(u, 3.0), rel=1e-15, abs=0)

    @pytest.mark.parametrize("name", list(_T3_POINTS))
    def test_accuracy_against_mpmath_and_stdtrit(self, name, exact):
        u = _T3_POINTS[name]
        hi, lo = exact[name]
        t = tc.StudentTDensity(df=3.0, loc=0.0, scale=1.0).ppf(u)
        nonzero = hi != 0.0
        assert np.all(np.abs((t - hi) - lo)[nonzero] <= 1e-15 * np.abs(hi[nonzero]))
        assert np.all(t[~nonzero] == 0.0)
        mine, theirs = _t3_ulps(t, hi, lo), _t3_ulps(stdtrit(3.0, u), hi, lo)
        # never a whole double worse than stdtrit, no worse at the worst point,
        # and correctly rounded at least as often
        assert np.all(mine <= theirs + 1.0 + 1e-9)
        assert mine.max() <= theirs.max()
        assert np.mean(mine <= 0.5) >= np.mean(theirs <= 0.5)

    def test_subnormal_and_extreme_probabilities(self):
        g = tc.StudentTDensity(df=3.0, loc=0.0, scale=1.0)
        tiny = np.array([5e-324, 1e-323, 3e-320, 1e-310, 2.2250738585072014e-308])
        hi, lo = _t3_ppf_oracle(tiny)
        np.testing.assert_allclose(g.ppf(tiny), hi, rtol=1e-15, atol=0)
        u = np.geomspace(5e-324, 0.5, 4_000)
        u = np.concatenate([u, 1.0 - u, np.nextafter(1.0, 0.0) - np.arange(50) * 2.0**-53])
        u = u[u < 1.0]  # 1 - u rounds to 1 for u below 2^-54
        assert np.all(np.isfinite(g.ppf(u)))

    def test_exact_symmetry_about_one_half(self):
        g = tc.StudentTDensity(df=3.0, loc=0.0, scale=1.0)
        # u in [0.25, 0.5] with 1 - u a double, so that both sides mean the same u
        w = np.concatenate([np.linspace(0.5, 0.75, 100_001),
                            np.random.default_rng(6).uniform(0.5, 0.75, 100_000)])
        u = 1.0 - w
        assert np.array_equal(g.ppf(1.0 - u), -g.ppf(u))
        assert g.ppf(0.5) == 0.0

    @pytest.mark.parametrize("name", _T3_WINDOWS)
    def test_non_decreasing_across_each_switch(self, name):
        u = _T3_POINTS[name]
        t = tc.StudentTDensity(df=3.0, loc=0.0, scale=1.0).ppf(u)
        # the formula each u takes: tail or centre solve, and the sign
        branch = 2 * (np.minimum(u, 1.0 - u) < tc.densities._T3_SWITCH) + (u > 0.5)
        switch = np.flatnonzero(np.diff(branch))
        assert switch.size == 1
        assert t[:switch[0] + 1].max() <= t[switch[0] + 1:].min()

    def test_non_decreasing_on_a_fine_grid(self):
        t = tc.StudentTDensity(df=3.0, loc=0.0, scale=1.0).ppf(
            np.linspace(1e-6, 1.0 - 1e-6, 2_000_001))
        assert np.all(np.diff(t) >= 0.0)
