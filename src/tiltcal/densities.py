"""Univariate marginal densities used as distribution views.

Three kinds are supported: Gaussian, Student-t in location-scale form, and
tabulated grid densities with piecewise-linear interpolation.  Grid densities
are renormalized at construction.  All objects are immutable and evaluation is
pure, so instances can be shared freely across threads.  The analytic
kinds' cdf and ppf call the ``scipy.special`` kernels that ``scipy.stats``
uses for them, without loading ``scipy.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln, ndtr, ndtri, stdtr, stdtrit

__all__ = [
    "MarginalDensity",
    "GaussianDensity",
    "StudentTDensity",
    "GridDensity",
]


class MarginalDensity:
    """Common interface for the supported univariate density kinds.

    Subclasses provide ``pdf``, ``logpdf``, ``cdf``, ``ppf``, ``mean``,
    ``sample`` and ``quadrature_nodes``.  ``tail_index`` is the power-law
    index alpha for regularly varying kinds and ``None`` otherwise;
    ``tail_class`` is the kind's regular-variation class (see
    ``tails.check_assumption``).
    """

    tail_class = "unknown"

    @property
    def tail_index(self) -> float | None:
        return None

    def pdf(self, x):
        raise NotImplementedError

    def logpdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(x))

    def cdf(self, x):
        raise NotImplementedError

    def ppf(self, u):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator, keep: int | None = None) -> np.ndarray:
        """Inverse-CDF sampling of the first ``keep`` (default n) of n uniforms.

        Deterministic given the generator state, which moves past all n.
        """
        return self.ppf(rng.random(n)[:keep])

    def quadrature_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights integrating smooth functions against the density.

        Analytic kinds use midpoint-stratified quantiles (equal weights); the
        grid kind returns its knots and their exact masses (``GridDensity``).
        """
        u = (np.arange(n) + 0.5) / n
        return self.ppf(u), np.full(n, 1.0 / n)

    def support(self) -> tuple[float, float]:
        """Interval holding all mass up to numerical resolution."""
        return float(self.ppf(1e-15)), float(self.ppf(1.0 - 1e-15))


@dataclass(frozen=True)
class GaussianDensity(MarginalDensity):
    """Normal density with the given mean and standard deviation."""

    tail_class = "inadmissible"
    mean_: float
    stddev: float

    def __post_init__(self):
        if not np.isfinite(self.mean_) or not np.isfinite(self.stddev):
            raise ValueError("gaussian parameters must be finite")
        if self.stddev <= 0:
            raise ValueError("stddev must be positive")

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean_) / self.stddev
        return np.exp(-0.5 * z * z) / (self.stddev * np.sqrt(2.0 * np.pi))

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean_) / self.stddev
        return -0.5 * z * z - np.log(self.stddev) - 0.5 * np.log(2.0 * np.pi)

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mean_) / self.stddev)

    def ppf(self, u):
        return ndtri(u) * self.stddev + self.mean_

    def mean(self) -> float:
        return float(self.mean_)

    def var(self) -> float:
        return float(self.stddev**2)

    def dlogpdf_dloc(self, x):
        """Derivative of log-density in the location parameter."""
        x = np.asarray(x, dtype=float)
        return (x - self.mean_) / self.stddev**2


@dataclass(frozen=True)
class StudentTDensity(MarginalDensity):
    """Student-t density in location-scale form.

    ``df`` must exceed 1 so the mean exists; the density is regularly
    varying with tail index ``df + 1``.
    """

    tail_class = "admissible"
    df: float
    loc: float
    scale: float

    def __post_init__(self):
        if self.df <= 1:
            raise ValueError("df must exceed 1 (finite first moment required)")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if not (np.isfinite(self.df) and np.isfinite(self.loc) and np.isfinite(self.scale)):
            raise ValueError("student-t parameters must be finite")

    @property
    def tail_index(self) -> float:
        return float(self.df + 1.0)

    def _log_norm_const(self) -> float:
        n = self.df
        return float(
            gammaln((n + 1.0) / 2.0)
            - gammaln(n / 2.0)
            - 0.5 * np.log(n * np.pi)
            - np.log(self.scale)
        )

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def logpdf(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return self._log_norm_const() - 0.5 * (self.df + 1.0) * np.log1p(u * u / self.df)

    def cdf(self, x):
        """``stdtr``, except where it returns 0 because t^2 overflows.

        There (small df, |t| > ~1.3e154) the cdf is the leading term of
        I_x(df/2, 1/2) / 2, (sqrt(df) / |t|)^df / (df B(df/2, 1/2)), exact once df / t^2 <= 2^-53.
        """
        df = self.df
        t = (np.asarray(x, dtype=float) - self.loc) / self.scale
        u = stdtr(df, t)
        far = (u == 0.0) & (t <= -np.sqrt(df) * 2.0**26.5)
        if far.any():
            with np.errstate(divide="ignore", over="ignore"):
                tail = (np.sqrt(df) / np.abs(t)) ** df / (df * np.exp(betaln(df / 2.0, 0.5)))
            u = np.where(far, tail, u)[()]
        return u

    def ppf(self, u):
        """Quantile: ``stdtrit``, except in the far left tail.

        There u = I_x(df/2, 1/2) / 2 with x = df / (df + t^2), whose leading
        term x^(df/2) / (df B(df/2, 1/2)) is exact to double precision once
        x <= 2^-53, so t = -sqrt(df / x) = -sqrt(df) (u df B)^(-1/df).  It is
        used there and only below u = 1e-15, where ``stdtrit`` returns +inf
        or values off by up to 2x at small df; at u = 0 it gives -inf, the
        lower end of the support (``stdtrit(df, 0)`` is +inf).
        """
        u = np.asarray(u, dtype=float)
        df = self.df
        beta = np.exp(betaln(df / 2.0, 0.5))
        exact = 2.0 ** (-26.5 * df) / (df * beta)  # x <= 2^-53 for u up to here
        t = stdtrit(df, u)
        far = (u >= 0.0) & (u < 1e-15) & (u <= exact)
        if far.any():
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                tail = -np.sqrt(df) * (u * df * beta) ** (-1.0 / df)
            t = np.where(far, tail, t)
        return t * self.scale + self.loc

    def mean(self) -> float:
        return float(self.loc)

    def var(self) -> float:
        if self.df <= 2:
            return float("inf")
        return float(self.scale**2 * self.df / (self.df - 2.0))

    def dlogpdf_dloc(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return (self.df + 1.0) * u / (self.scale * (self.df + u * u))


class GridDensity(MarginalDensity):
    """Tabulated density on strictly increasing knots, linearly interpolated.

    The table is renormalized to unit trapezoid mass at construction.  The
    density is zero outside the knot range.  ``cdf``, ``ppf`` (piecewise
    quadratic in x) and the knot masses w_i = int hat_i f of the knots' hat
    functions are exact for the piecewise-linear pdf f; w integrates every
    function linear between knots.
    """

    def __init__(self, knots, densities):
        knots = np.asarray(knots, dtype=float)
        densities = np.asarray(densities, dtype=float)
        if knots.ndim != 1 or knots.shape != densities.shape:
            raise ValueError("knots and densities must be 1-D arrays of equal length")
        if knots.size < 2:
            raise ValueError("need at least two knots")
        if not np.all(np.isfinite(knots)) or not np.all(np.isfinite(densities)):
            raise ValueError("grid entries must be finite")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(densities < 0):
            raise ValueError("densities must be nonnegative")
        raw = float(np.trapezoid(densities, knots))
        if raw <= 0:
            raise ValueError("grid density has zero mass")
        self.knots = knots
        self.densities = densities / raw
        self._widths = np.diff(knots)
        self._slopes = np.diff(self.densities) / self._widths
        cdf = np.concatenate(
            [[0.0], np.cumsum(self._widths * (self.densities[1:] + self.densities[:-1]) / 2.0)]
        )
        self._cdf_knots = cdf / cdf[-1]
        # segment i gives hat_i d_i (2 f_i + f_{i+1}) / 6 and hat_{i+1} d_i (f_i + 2 f_{i+1}) / 6
        f, d = self.densities, self._widths
        masses = np.r_[d * (2.0 * f[:-1] + f[1:]), 0.0] + np.r_[0.0, d * (f[:-1] + 2.0 * f[1:])]
        self._masses = masses / masses.sum()  # the common factor 1/6 cancels
        for arr in (self.knots, self.densities, self._masses):
            arr.setflags(write=False)

    @classmethod
    def from_function(cls, pdf, lo: float, hi: float, n: int = 1001,
                      min_coverage: float = 0.9999) -> "GridDensity":
        """Tabulate an analytic pdf on [lo, hi]; reject if coverage < min_coverage."""
        knots = np.linspace(lo, hi, n)
        vals = np.asarray(pdf(knots), dtype=float)
        mass = float(np.trapezoid(vals, knots))
        if mass < min_coverage:
            raise ValueError(
                f"grid covers only {mass:.6f} of the mass (< {min_coverage}); widen the range"
            )
        return cls(knots, vals)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.knots, self.densities, left=0.0, right=0.0)

    def cdf(self, x):
        """The exact integral of the pdf, F_i + (x - x_i)(f_i + f(x)) / 2 on knot segment i."""
        x = np.clip(np.asarray(x, dtype=float), self.knots[0], self.knots[-1])
        i = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, self.knots.size - 2)
        t = x - self.knots[i]
        f_mid = self.densities[i] + 0.5 * self._slopes[i] * t  # the pdf halfway to x
        return np.minimum(self._cdf_knots[i] + t * f_mid, 1.0)

    def ppf(self, u):
        """The exact inverse of ``cdf``: on segment i, t = 2r / (f_i + sqrt(f_i^2 + 2 s_i r)).

        r = u - F_i and s_i is the segment's slope; a segment without mass gives t = 0.
        """
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        i = np.clip(np.searchsorted(self._cdf_knots, u, side="right") - 1, 0, self.knots.size - 2)
        r = u - self._cdf_knots[i]
        f = self.densities[i]
        root = f + np.sqrt(np.maximum(f * f + 2.0 * self._slopes[i] * r, 0.0))
        t = 2.0 * r / np.where(root > 0.0, root, np.inf)
        return self.knots[i] + np.minimum(t, self._widths[i])

    def mean(self) -> float:
        return float(self._masses @ self.knots)

    def var(self) -> float:
        """sum_i w_i (x_i - m)^2 less each segment's chord excess d^3 (f_i + f_{i+1}) / 12."""
        excess = self._widths**3 * (self.densities[:-1] + self.densities[1:]) / 12.0
        return float(self._masses @ (self.knots - self.mean()) ** 2 - excess.sum())

    def support(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def quadrature_nodes(self, n: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The knots and their masses w_i (n is ignored), so that nodes @ weights is ``mean()``."""
        return self.knots, self._masses

