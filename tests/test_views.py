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

    @pytest.mark.parametrize("coord", [0.0, 1.0, True, False, -1, "0"],
                             ids=["zero-float", "float", "true", "false", "negative", "text"])
    def test_coord_must_be_a_nonnegative_integer(self, coord):
        """A float or bool coord would index y as y[..., 0.0] or broadcast as a mask."""
        with pytest.raises(ValueError, match="coord"):
            tc.MomentView(target=0.3, coord=coord)

    def test_numpy_integer_coord_is_accepted(self):
        assert tc.MomentView(target=0.3, coord=np.int64(1)).coord == 1


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

    @pytest.mark.parametrize("coord", [0.0, 1.0, True, -1, None],
                             ids=["zero-float", "float", "true", "negative", "none"])
    def test_coord_must_be_a_nonnegative_integer(self, coord):
        """coord=0.0 would read as declared on y_0 yet fail to index y; -1 would read the
        last coordinate."""
        with pytest.raises(ValueError, match="coord"):
            tc.OptionPayoff("call", coord, 0.4)

    @pytest.mark.parametrize("strike", [np.nan, np.inf, -np.inf])
    def test_strike_must_be_finite(self, strike):
        with pytest.raises(ValueError, match="strike"):
            tc.OptionPayoff("put", 0, strike)

    def test_numpy_integer_coord_and_strike_are_accepted(self):
        payoff = tc.OptionPayoff("call", np.int32(0), np.int64(1))
        y = np.array([[0.5], [1.5]])
        np.testing.assert_array_equal(payoff(None, y), [0.0, 0.5])

    @pytest.mark.parametrize("kind, knots, intercepts, slopes", [
        ("call", [0.3], [0.0, -0.3], [0.0, 1.0]),
        ("put", [0.3], [0.3, 0.0], [-1.0, 0.0]),
    ])
    def test_pieces_are_the_strike_and_the_two_lines(self, kind, knots, intercepts, slopes):
        got = tc.OptionPayoff(kind, 1, 0.3).pieces
        for array, want in zip(got, (knots, intercepts, slopes)):
            assert array.dtype == np.float64
            np.testing.assert_array_equal(array, want)
        assert not np.any(np.signbit(got[1]) & (got[1] == 0.0))  # no -0.0 intercept

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("strike", [0.3, -1.7, 0.0, 1e6])
    def test_call_equals_its_pieces_bit_for_bit(self, kind, strike):
        """intercepts[p] + slopes[p] y on the piece holding y, the strike itself included."""
        payoff = tc.OptionPayoff(kind, 1, strike)
        y1 = np.concatenate([np.linspace(strike - 5.0, strike + 5.0, 1001),
                             [strike, np.nextafter(strike, -np.inf),
                              np.nextafter(strike, np.inf)]])
        y = np.stack([np.zeros_like(y1), y1], axis=-1)
        knots, intercepts, slopes = payoff.pieces
        piece = np.searchsorted(knots, y1)
        want = intercepts[piece] + slopes[piece] * y1
        got = payoff(None, y)
        assert got.tobytes() == want.tobytes()


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
