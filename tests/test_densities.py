"""Marginal density kinds: evaluation, normalization, sampling, tails."""

import numpy as np
import pytest
from scipy import stats

import tiltcal as tc
from oracles import (
    gaussian_cdf_stats,
    gaussian_ppf_stats,
    student_t_cdf_stats,
    student_t_ppf_mpmath,
    student_t_ppf_stats,
)


class TestStudentT:
    def test_mode_value_matches_closed_form(self):
        g = tc.StudentTDensity(df=3.0, loc=1.5, scale=2.4120)
        expected = 2.0 / (2.4120 * np.pi * np.sqrt(3.0))
        assert tc.density_eval(g, 1.5) == pytest.approx(expected, rel=1e-12)

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
        assert tc.density_eval(g, 0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-14)

    def test_no_tail_index(self):
        assert tc.GaussianDensity(0.0, 1.0).tail_index is None

    def test_dlogpdf_dloc(self):
        g = tc.GaussianDensity(1.0, 2.0)
        x = np.array([0.0, 1.0, 5.0])
        np.testing.assert_allclose(g.dlogpdf_dloc(x), (x - 1.0) / 4.0)


class TestGrid:
    def test_tabulated_t_matches_analytic(self):
        g = tc.StudentTDensity(df=3.0, loc=1.5, scale=2.412)
        grid = tc.GridDensity.from_function(g.pdf, -200.0, 203.0, n=40001)
        x = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(grid.pdf(x), g.pdf(x), atol=1e-4)

    def test_zero_outside_support(self):
        grid = tc.GridDensity([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])
        assert tc.density_eval(grid, -0.5) == 0.0
        assert tc.density_eval(grid, 2.5) == 0.0

    def test_renormalized_at_construction(self):
        grid = tc.GridDensity([0.0, 1.0], [3.0, 3.0])
        assert grid.normalization() == pytest.approx(1.0, abs=1e-12)
        assert grid.raw_mass == pytest.approx(3.0)

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
    assert density.normalization() == pytest.approx(1.0, abs=1e-6)


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


def test_inverse_cdf_sampling_matches_distribution():
    g = tc.StudentTDensity(df=5.0, loc=0.5, scale=1.5)
    draws = g.sample(50_000, np.random.default_rng(7))
    res = stats.kstest(draws, lambda x: g.cdf(x))
    assert res.pvalue > 0.01


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
    """The scipy.special kernels reproduce scipy.stats bit for bit."""

    @pytest.mark.parametrize("density", _ANALYTIC, ids=_ANALYTIC_IDS)
    def test_bit_identical_on_uniform_normal_and_edge_points(self, density):
        cdf, ppf = _oracle(density)
        rng = np.random.default_rng(11)
        uniform = rng.random(100_000)
        normal = rng.standard_normal(100_000)
        # x spread over the density's own scale, so cdf sees both tails
        spread = density.mean() + 8.0 * np.sqrt(min(density.var(), 1e4)) * normal
        for points in (uniform, normal, spread, _EDGES):
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
        for value in (0.3, 0.0, np.float64(0.7), np.array(0.2)):
            for mine, theirs in ((density.ppf(value), ppf(value)),
                                 (density.cdf(value), cdf(value))):
                assert isinstance(mine, np.float64)
                assert np.array_equal(mine, theirs)
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert density.ppf(grid).shape == (3, 4)
        assert density.cdf(grid).shape == (3, 4)
        assert density.ppf([0.1, 0.5]).shape == (2,)
        assert np.array_equal(density.ppf(grid), ppf(grid))


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
        g = tc.StudentTDensity(df=3.0, loc=0.0028, scale=0.0165)
        assert g.ppf(1e-300) == pytest.approx(
            0.0028 + 0.0165 * student_t_ppf_mpmath(1e-300, 3.0), rel=1e-13)
        u = np.array([1e-15, 1e-10, 0.3])
        assert np.array_equal(g.ppf(u), student_t_ppf_stats(u, 3.0, 0.0028, 0.0165))
