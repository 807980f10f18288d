"""Gaussian priors, conditionals, and linear changes of variables."""

from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_hermite

import tiltcal as tc
from tiltcal import cli
from tiltcal.priors import _hermite_tensor
from conftest import TWO_ASSET_COV, TWO_ASSET_MAP, TWO_ASSET_MEAN, random_spd
from oracles import conditional_cov_block_inverse


class TestGaussianPrior:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            tc.GaussianPrior([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            tc.GaussianPrior([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_logpdf_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(0)
        cov = random_spd(rng, 3)
        mean = rng.standard_normal(3)
        prior = tc.GaussianPrior(mean, cov)
        z = rng.standard_normal((10, 3))
        np.testing.assert_allclose(
            prior.logpdf(z), stats.multivariate_normal.logpdf(z, mean, cov), rtol=1e-10
        )


    def test_rank_deficient_prior_draws_through_the_eigenvalue_root(self):
        """Z1 = Z0 + 1 exactly, so the covariance has no Cholesky factor."""
        from scipy import linalg

        cov = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 2.0]])
        prior = tc.GaussianPrior([0.0, 1.0, 2.0], cov)
        with pytest.raises(linalg.LinAlgError):
            linalg.cholesky(prior.covariance, lower=True)
        z = prior.sample(200_000, np.random.default_rng(4))
        np.testing.assert_allclose(z[:, 0] - z[:, 1], -1.0, rtol=0, atol=2e-15)
        # the SE of each sample covariance entry is at most 2 sqrt(2 / n) = 0.0063
        np.testing.assert_allclose(np.cov(z.T), cov, rtol=0, atol=0.03)


@pytest.mark.parametrize("make, match", [
    (lambda: tc.GaussianPrior([0.0, 0.0], [1.0, 1.0]), "square"),
    (lambda: tc.GaussianPrior([0.0, 0.0, 0.0], np.eye(2)), "dimensions disagree"),
    (lambda: tc.gaussian_conditional(tc.GaussianPrior([0.0, 0.0], np.eye(2)), 3), "split"),
    (lambda: tc.gaussian_conditional(tc.GaussianPrior([0.0, 0.0], np.eye(2)), -1), "split"),
    (lambda: tc.LinearViewMap(np.eye(2)[:1], 1, 1), "square"),
    (lambda: tc.LinearViewMap([[1.0, np.nan], [0.0, 1.0]], 1, 2), "finite"),
    (lambda: tc.transform_prior(tc.GaussianPrior([0.0, 0.0], np.eye(2)),
                                tc.LinearViewMap.identity(3, 1, 2)), "dimensions disagree"),
], ids=["covariance-not-square", "mean-length", "split-above-dim", "split-negative",
        "map-not-square", "map-not-finite", "map-and-prior-dims"])
def test_invalid_model_inputs_raise(make, match):
    with pytest.raises(ValueError, match=match):
        make()


class TestGaussianConditional:
    def test_two_asset_schur_value(self):
        prior_t = tc.GaussianPrior([1.0, 1.0], [[5.818, 2.43], [2.43, 1.1]])
        cond = tc.gaussian_conditional(prior_t, 1)
        assert cond.cov[0, 0] == pytest.approx(1.1 - 2.43**2 / 5.818, rel=1e-12)
        assert cond.cov[0, 0] == pytest.approx(0.08506, abs=5e-6)
        assert cond.slope[0, 0] == pytest.approx(2.43 / 5.818, rel=1e-12)

    def test_independent_blocks(self):
        cov = np.diag([2.0, 3.0, 4.0])
        prior = tc.GaussianPrior([1.0, -1.0, 0.5], cov)
        cond = tc.gaussian_conditional(prior, 1)
        np.testing.assert_allclose(cond.slope, 0.0)
        np.testing.assert_allclose(cond.cov, np.diag([3.0, 4.0]))
        np.testing.assert_allclose(cond.mean([123.0]), [-1.0, 0.5])

    def test_matches_block_inverse_oracle(self):
        rng = np.random.default_rng(42)
        cov = random_spd(rng, 4)
        prior = tc.GaussianPrior(rng.standard_normal(4), cov)
        cond = tc.gaussian_conditional(prior, 2)
        np.testing.assert_allclose(
            cond.cov, conditional_cov_block_inverse(cov, 2), atol=1e-10
        )

    def test_singular_block_raises(self):
        cov = np.zeros((3, 3))
        cov[2, 2] = 1.0
        prior = tc.GaussianPrior([0.0, 0.0, 0.0], cov)
        with pytest.raises(tc.SingularBlock):
            tc.gaussian_conditional(prior, 2)

    def test_recombination_reproduces_joint(self):
        """conditional(y|x) * marginal(x) equals the joint density on a grid."""
        prior = tc.GaussianPrior([1.0, -0.5], [[2.0, 0.8], [0.8, 1.5]])
        cond = tc.gaussian_conditional(prior, 1)
        xg = np.linspace(-4, 6, 41)
        yg = np.linspace(-5, 4, 37)
        gx, gy = np.meshgrid(xg, yg, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        joint = prior.pdf(pts)
        marg_x = np.exp(-0.5 * (pts[:, 0] - 1.0) ** 2 / 2.0) / np.sqrt(2 * np.pi * 2.0)
        mean_y = cond.mean(pts[:, :1])[:, 0]
        var_y = cond.cov[0, 0]
        cond_pdf = np.exp(-0.5 * (pts[:, 1] - mean_y) ** 2 / var_y) / np.sqrt(
            2 * np.pi * var_y
        )
        np.testing.assert_allclose(cond_pdf * marg_x, joint, atol=1e-6)


class TestHermiteRule:
    def test_rule_is_memoised_and_read_only(self):
        nodes, weights = _hermite_tensor(1, 64)
        again = _hermite_tensor(1, 64)
        assert again[0] is nodes and again[1] is weights
        for arr in (nodes, weights, *_hermite_tensor(0, 64)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_option_chain_rule_equals_a_fresh_gauss_hermite_rule(self):
        spec = cli.load_spec(str(Path(__file__).parents[1] / "perfbench" / "workloads"
                                 / "option_chain.json"))
        sizes = spec.solver["problem"]
        _hermite_tensor(1, sizes["n_y"])
        problem = tc.QuadratureProblem.from_prior(spec.prior, spec.views, **sizes)
        t, w = roots_hermite(sizes["n_y"])
        law = problem.law
        expected = law.mean(problem.x_nodes)[:, None, :] + np.sqrt(2.0) * t[:, None] @ law.root.T
        assert np.array_equal(problem.y_nodes, expected)
        assert np.array_equal(problem.log_y_weights, np.log(w / np.sqrt(np.pi)))


class TestLinearViewMap:
    def test_singular_rejected(self):
        with pytest.raises(tc.SingularMap):
            tc.LinearViewMap([[1.0, 2.0], [2.0, 4.0]], 1, 2)

    def test_jacobian(self):
        vmap = tc.LinearViewMap(TWO_ASSET_MAP, 1, 2)
        assert vmap.jacobian == pytest.approx(0.7)

    def test_permutation_builder(self):
        vmap = tc.LinearViewMap.from_permutation([2, 0, 1], 1, 2)
        np.testing.assert_allclose(vmap.apply([10.0, 20.0, 30.0]), [30.0, 10.0, 20.0])

    def test_apply_invert_roundtrip(self):
        rng = np.random.default_rng(3)
        vmap = tc.LinearViewMap(np.eye(3) + 0.2 * rng.standard_normal((3, 3)), 1, 3)
        z = rng.standard_normal((5, 3))
        np.testing.assert_allclose(vmap.invert(vmap.apply(z)), z, atol=1e-12)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            tc.LinearViewMap(np.eye(2), 2, 1)


WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads"


class TestViewMapInverse:
    """``invert`` multiplies by the stored V^-1 where it once solved V u = z by LU."""

    U = np.random.default_rng(8).standard_normal((1000, 6)) * 3.0

    def test_identity_invert_returns_its_input(self):
        vmap = tc.LinearViewMap.identity(6, 1, 6)
        assert np.array_equal(vmap.inverse, np.eye(6))
        assert vmap.invert(self.U) is self.U
        assert np.array_equal(vmap.invert(self.U), np.linalg.solve(vmap.matrix, self.U.T).T)

    @pytest.mark.parametrize("order", [
        "six_index_heavy_tail", "six_index_mean_audit", [5, 4, 3, 2, 1, 0], [2, 0, 1],
    ], ids=str)
    def test_permutation_invert_is_the_solve_bit_for_bit(self, order):
        """Values and F order, for a batch and a single vector."""
        if isinstance(order, str):
            vmap = cli.load_spec(str(WORKLOADS / f"{order}.json")).views.view_map
        else:
            vmap = tc.LinearViewMap.from_permutation(order, 1, len(order))
        u = self.U[:, :vmap.n]
        got, want = vmap.invert(u), np.linalg.solve(vmap.matrix, u.T).T
        assert np.array_equal(got, want)
        assert got.flags.f_contiguous and want.flags.f_contiguous
        assert np.array_equal(vmap.invert(u[3]), np.linalg.solve(vmap.matrix, u[3]))
        assert np.array_equal(vmap.inverse, vmap.matrix.T)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3], ids=lambda s: f"seed={s}")
    def test_dense_invert_agrees_with_the_solve(self, seed):
        """The README map, then random well-conditioned maps of 2 to 6 factors."""
        if seed is None:
            matrix = TWO_ASSET_MAP
        else:
            rng = np.random.default_rng(seed)
            n = 2 + seed + (seed > 1)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            matrix = q + 0.1 * rng.standard_normal((n, n))
            assert np.linalg.cond(matrix) < 10.0
        vmap = tc.LinearViewMap(matrix, 1, matrix.shape[0])
        u = self.U[:, :vmap.n]
        got, want = vmap.invert(u), np.linalg.solve(vmap.matrix, u.T).T
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert got.flags.f_contiguous

    def test_inverse_is_read_only(self):
        vmap = tc.LinearViewMap(TWO_ASSET_MAP, 1, 2)
        with pytest.raises(ValueError, match="read-only"):
            vmap.inverse[0, 0] = 1.0
        np.testing.assert_allclose(vmap.inverse @ vmap.matrix, np.eye(2), atol=1e-15)


class TestTransformPrior:
    def test_two_asset_values(self):
        prior = tc.GaussianPrior(TWO_ASSET_MEAN, TWO_ASSET_COV)
        vmap = tc.LinearViewMap(TWO_ASSET_MAP, 1, 2)
        out = tc.transform_prior(prior, vmap)
        np.testing.assert_allclose(out.mean, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(
            out.covariance, [[5.818, 2.43], [2.43, 1.1]], atol=1e-12
        )

    def test_identity_is_noop(self):
        prior = tc.GaussianPrior([0.5, -0.5], [[1.0, 0.2], [0.2, 2.0]])
        out = tc.transform_prior(prior, tc.LinearViewMap.identity(2, 1, 2))
        np.testing.assert_allclose(out.mean, prior.mean)
        np.testing.assert_allclose(out.covariance, prior.covariance)

    def test_monte_carlo_law_of_mapped_samples(self):
        rng = np.random.default_rng(11)
        n = 3
        prior = tc.GaussianPrior(rng.standard_normal(n), random_spd(rng, n))
        v = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        vmap = tc.LinearViewMap(v, 1, n)
        mapped = tc.transform_prior(prior, vmap)
        draws = prior.sample(1_000_000, rng) @ v.T
        se_mean = np.sqrt(np.diag(mapped.covariance) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mapped.mean) < 3 * se_mean)
        emp_cov = np.cov(draws, rowvar=False)
        # moment-based SE for covariance entries of a Gaussian
        dd = np.diag(mapped.covariance)
        se_cov = np.sqrt((np.outer(dd, dd) + mapped.covariance**2) / draws.shape[0])
        assert np.all(np.abs(emp_cov - mapped.covariance) < 3.5 * se_cov)

    def test_roundtrip_through_inverse(self):
        rng = np.random.default_rng(5)
        prior = tc.GaussianPrior(rng.standard_normal(3), random_spd(rng, 3))
        v = np.eye(3) + 0.25 * rng.standard_normal((3, 3))
        fwd = tc.LinearViewMap(v, 1, 3)
        back = tc.LinearViewMap(np.linalg.inv(v), 1, 3)
        out = tc.transform_prior(tc.transform_prior(prior, fwd), back)
        np.testing.assert_allclose(out.mean, prior.mean, atol=1e-10)
        np.testing.assert_allclose(out.covariance, prior.covariance, atol=1e-10)
