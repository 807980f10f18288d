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

    Callable as a vectorized payoff h(x, y) on any broadcast shape.  Declaring
    the kind, coordinate and strike lets a one-dimensional Gaussian conditional
    draw its tilt exactly (``GaussianConditional.sample_tilted``).
    """

    kind: str
    coord: int
    strike: float

    def __post_init__(self):
        if self.kind not in ("call", "put"):
            raise ValueError(f"unknown payoff kind {self.kind!r}")

    def __call__(self, x, y):
        if self.kind == "call":
            return np.maximum(y[..., self.coord] - self.strike, 0.0)
        return np.maximum(self.strike - y[..., self.coord], 0.0)


@dataclass(frozen=True)
class MomentView:
    """Target expectation for a transformed coordinate or a payoff function.

    Exactly one of ``coord`` (index into the Y block of the view map) or
    ``payoff`` (vectorized callable h(x, y)) must be given.
    """

    target: float
    coord: int | None = None
    payoff: Callable | None = None

    def __post_init__(self):
        if (self.coord is None) == (self.payoff is None):
            raise ValueError("specify exactly one of coord or payoff")
        if not np.isfinite(self.target):
            raise ValueError("moment target must be finite")
        if self.coord is not None and self.coord < 0:
            raise ValueError("coord must be a nonnegative Y-block index")


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
