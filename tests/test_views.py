"""View container validation."""

import numpy as np
import pytest

import tiltcal as tc


def _t(loc=0.0):
    return tc.StudentTDensity(df=3.0, loc=loc, scale=1.0)


class TestMomentView:
    def test_needs_exactly_one_spec(self):
        with pytest.raises(ValueError):
            tc.MomentView(target=1.0)
        with pytest.raises(ValueError):
            tc.MomentView(target=1.0, coord=0, payoff=lambda x, y: y[..., 0])

    def test_target_finite(self):
        with pytest.raises(ValueError):
            tc.MomentView(target=np.nan, coord=0)


class TestOptionPayoff:
    def test_pays_the_call_or_put_on_any_broadcast_shape(self):
        y = np.random.default_rng(0).normal(size=(4, 5, 2))
        call, put = tc.OptionPayoff("call", 1, 0.3), tc.OptionPayoff("put", 1, 0.3)
        np.testing.assert_array_equal(call(None, y), np.maximum(y[..., 1] - 0.3, 0.0))
        np.testing.assert_array_equal(put(None, y), np.maximum(0.3 - y[..., 1], 0.0))
        assert call(None, y).shape == (4, 5)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown payoff kind"):
            tc.OptionPayoff("straddle", 0, 1.0)


class TestViewSet:
    def test_marginal_required_when_k1_positive(self):
        vmap = tc.LinearViewMap.identity(2, 1, 2)
        with pytest.raises(ValueError):
            tc.ViewSet(vmap, None, (tc.MomentView(target=0.0, coord=0),))

    def test_no_marginal_allowed_when_k1_zero(self):
        vmap = tc.LinearViewMap.identity(2, 0, 1)
        views = tc.ViewSet(vmap, None, (tc.MomentView(target=0.0, coord=0),))
        assert views.k1 == 0 and views.n_moments == 1

    def test_marginal_forbidden_when_k1_zero(self):
        vmap = tc.LinearViewMap.identity(2, 0, 1)
        with pytest.raises(ValueError):
            tc.ViewSet(vmap, _t(), (tc.MomentView(target=0.0, coord=0),))

    def test_coordinate_coverage_enforced(self):
        vmap = tc.LinearViewMap.identity(3, 1, 3)
        with pytest.raises(ValueError, match="coordinate moment views"):
            tc.ViewSet(vmap, _t(), (tc.MomentView(target=0.0, coord=0),))
        with pytest.raises(ValueError, match="coordinate moment views"):
            tc.ViewSet(
                vmap,
                _t(),
                (tc.MomentView(target=0.0, coord=0), tc.MomentView(target=0.0, coord=0)),
            )

    def test_payoff_views_bypass_coverage(self):
        vmap = tc.LinearViewMap.identity(2, 1, 1)
        views = tc.ViewSet(
            vmap, _t(), (tc.MomentView(target=1.0, payoff=lambda x, y: y[..., 0] ** 2),)
        )
        assert not views.is_coordinate_linear
        with pytest.raises(ValueError):
            _ = views.moment_coords

    def test_targets_vector(self):
        vmap = tc.LinearViewMap.identity(3, 1, 3)
        views = tc.ViewSet(
            vmap,
            _t(),
            (tc.MomentView(target=0.3, coord=0), tc.MomentView(target=-0.1, coord=1)),
        )
        np.testing.assert_allclose(views.targets, [0.3, -0.1])
