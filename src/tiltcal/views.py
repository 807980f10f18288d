"""View sets: one marginal-density view plus moment views on transformed coordinates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .densities import MarginalDensity
from .priors import LinearViewMap

__all__ = ["OptionPayoff", "MomentView", "ViewSet"]


@dataclass(frozen=True)
class OptionPayoff:
    """A declared call max(y_c - K, 0) or put max(K - y_c, 0) on Y-block coordinate c.

    Callable as a vectorized payoff h(x, y) on any broadcast shape.  Its
    ``pieces`` are the same function in piecewise-linear form, which lets a
    one-dimensional Gaussian conditional tilt, price and draw exactly
    (``GaussianConditional.tilt_pieces``).  ``coord`` must be an integer >= 0
    and ``strike`` finite; else ValueError.
    """

    kind: str
    coord: int
    strike: float

    def __post_init__(self):
        if self.kind not in ("call", "put"):
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        _check_coord(self.coord)
        if not np.isfinite(self.strike):
            raise ValueError(f"payoff strike must be finite; got {self.strike!r}")

    def __call__(self, x, y):
        if self.kind == "call":
            return np.maximum(y[..., self.coord] - self.strike, 0.0)
        return np.maximum(self.strike - y[..., self.coord], 0.0)

    @property
    def pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(knots, intercepts, slopes): the payoff is intercepts[p] + slopes[p] y_c on piece p.

        Piece p lies between knots p - 1 and p (-inf and +inf at the ends):
        the strike is the one knot, and a call is y - K above it, a put K - y
        below it.  ``__call__`` evaluates the same function with ``np.maximum``.
        """
        k = float(self.strike)
        if self.kind == "call":
            return np.array([k]), np.array([0.0, -k]), np.array([0.0, 1.0])
        return np.array([k]), np.array([k, 0.0]), np.array([-1.0, 0.0])


def _check_coord(coord):
    """ValueError unless coord is an integer >= 0 (numpy integers count; bools do not)."""
    if isinstance(coord, bool) or not isinstance(coord, (int, np.integer)) or coord < 0:
        raise ValueError(f"coord must be a nonnegative integer Y-block index; got {coord!r}")


@dataclass(frozen=True)
class MomentView:
    """Target expectation for a transformed coordinate or a payoff function.

    Exactly one of ``coord`` (integer index >= 0 into the Y block of the view
    map) or ``payoff`` (vectorized callable h(x, y)) must be given.
    """

    target: float
    coord: int | None = None
    payoff: Callable | None = None

    def __post_init__(self):
        if (self.coord is None) == (self.payoff is None):
            raise ValueError("specify exactly one of coord or payoff")
        if not np.isfinite(self.target):
            raise ValueError("moment target must be finite")
        if self.coord is not None:
            _check_coord(self.coord)


@dataclass(frozen=True)
class ViewSet:
    """A marginal-density view on the X block plus moment views on Y.

    ``marginal`` is a scalar density view (k1 == 1), or None when k1 == 0
    (moment views alone).  When every moment view is a coordinate view, the
    views must target exactly the coordinates 0..k2-k1-1 of the Y block, in
    order.
    """

    view_map: LinearViewMap
    marginal: MarginalDensity | None
    moments: tuple[MomentView, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "moments", tuple(self.moments))
        k1 = self.view_map.k1
        if self.marginal is None:
            if k1 != 0:
                raise ValueError("k1 > 0 requires a marginal density view")
        elif k1 != 1:
            raise ValueError("a marginal density view needs k1 == 1")
        if self.is_coordinate_linear:
            coords = [view.coord for view in self.moments]
            expected = list(range(self.view_map.k2 - k1))
            if sorted(coords) != expected:
                raise ValueError(
                    "coordinate moment views must cover Y coordinates "
                    f"0..{len(expected) - 1} exactly once (k2 - k1 = {len(expected)})"
                )

    @property
    def k1(self) -> int:
        return self.view_map.k1

    @property
    def n_moments(self) -> int:
        return len(self.moments)

    @property
    def is_coordinate_linear(self) -> bool:
        """True when all moment views are plain coordinate targets."""
        return all(view.coord is not None for view in self.moments)

    @property
    def targets(self) -> np.ndarray:
        return np.array([view.target for view in self.moments], dtype=float)

    @property
    def moment_coords(self) -> tuple[int, ...]:
        if not self.is_coordinate_linear:
            raise ValueError("views include payoff moments; no coordinate list")
        return tuple(view.coord for view in self.moments)
