"""Univariate marginal densities used as distribution views.

Three kinds are supported: Gaussian, Student-t in location-scale form, and
tabulated grid densities with piecewise-linear interpolation.  Grid densities
are renormalized at construction.  All objects are immutable and evaluation is
pure, so instances can be shared freely across threads.  The analytic
kinds' cdf and ppf call the ``scipy.special`` kernels that ``scipy.stats``
uses for them, without loading ``scipy.stats``, except the t quantile at
df = 3 and 4: there the cdf is elementary, and ``_t3_left`` inverts it in
numpy, ``_t4_left`` in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, factorial, gammaln, ndtr, ndtri, stdtr, stdtrit

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

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling of n uniforms; deterministic given the generator state."""
        return self.ppf(rng.random(n))

    def quadrature_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights integrating smooth functions against the density.

        Analytic kinds take the n-point trapezoid rule in t with x = loc +
        scale sinh(t), weights g(x) scale cosh(t) normalised to sum 1, over
        |x - loc| <= reach scale (``_sinh_frame``), where the part of
        E_g|X - loc| / scale left out is at most ``_OUTER_TAIL``.  The
        substitution spreads the nodes evenly over the log of |x - loc| in
        the tails, so a heavy tail is integrated too.  The grid kind returns
        its knots and their exact masses (``GridDensity``).
        """
        loc, scale, reach = self._sinh_frame()
        t = np.arcsinh(reach) * (2.0 * np.arange(n) - (n - 1)) / max(n - 1, 1)
        x = loc + scale * np.sinh(t)
        w = self.pdf(x) * np.cosh(t)
        w[[0, -1]] *= 0.5
        return x, w / w.sum()

    def _sinh_frame(self) -> tuple[float, float, float]:
        """(loc, scale, reach) of ``quadrature_nodes``' rule."""
        raise NotImplementedError


# The part of E_g|X - loc| / scale an analytic kind's outer rule leaves out.
_OUTER_TAIL = 1e-12
# The t kind's reach is at most this many scales, so that u^2 stays finite in its logpdf.
_MAX_REACH = 1e150


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

    def _sinh_frame(self) -> tuple[float, float, float]:
        """The reach r solves 2 phi(r) = tail: E[|Z|; |Z| > r] = 2 phi(r) for a standard Z."""
        reach = np.sqrt(2.0 * np.log(2.0 / (_OUTER_TAIL * np.sqrt(2.0 * np.pi))))
        return float(self.mean_), float(self.stddev), float(reach)


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

    def _log_norm_const(self):
        """log c of the standard t(df) density c (1 + t^2 / df)^(-(df + 1) / 2)."""
        n = self.df
        return gammaln((n + 1.0) / 2.0) - gammaln(n / 2.0) - 0.5 * np.log(n * np.pi)

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def logpdf(self, x):
        u = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return (self._log_norm_const() - np.log(self.scale)
                - 0.5 * (self.df + 1.0) * np.log1p(u * u / self.df))

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
        """Quantile: ``_t3_left`` at df = 3; else ``_t4_left`` at df = 4 and ``stdtrit``
        at other df, except in the far left tail.

        There u = I_x(df/2, 1/2) / 2 with x = df / (df + t^2), whose leading
        term x^(df/2) / (df B(df/2, 1/2)) is exact to double precision once
        x <= 2^-53, so t = -sqrt(df / x) = -sqrt(df) (u df B)^(-1/df).  It is
        used there and only below u = 1e-15, where ``stdtrit`` returns +inf
        or values off by up to 2x at small df; at u = 0 it gives -inf, the
        lower end of the support (``stdtrit(df, 0)`` is +inf).  u is scaled
        by 2^64 inside the power, so that a subnormal u keeps its digits.
        """
        u = np.asarray(u, dtype=float)
        df = self.df
        if df == 3.0:
            return _symmetric_ppf(_t3_left, u) * self.scale + self.loc
        beta = np.exp(betaln(df / 2.0, 0.5))
        exact = 2.0 ** (-26.5 * df) / (df * beta)  # x <= 2^-53 for u up to here
        t = _symmetric_ppf(_t4_left, u) if df == 4.0 else stdtrit(df, u)
        far = (u >= 0.0) & (u < 1e-15) & (u <= exact)
        if far.any():
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                tail = -np.sqrt(df) * (u * 2.0**64 * df * beta) ** (-1.0 / df) * 2.0 ** (64.0 / df)
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

    def _sinh_frame(self) -> tuple[float, float, float]:
        """The reach r solves 2 c nu^((nu+1)/2) (nu + r^2)^((1-nu)/2) / (nu - 1) = tail.

        That is E[|T|; |T| > r] for a standard t(nu) T, whose density is f(t) = c (1 + t^2 /
        nu)^(-(nu+1)/2) and E[T; T > r] = (nu + r^2) f(r) / (nu - 1).  It is capped at
        ``_MAX_REACH``.
        """
        nu = self.df
        log_r2 = 2.0 / (nu - 1.0) * (np.log(2.0 / ((nu - 1.0) * _OUTER_TAIL))
                                     + self._log_norm_const() + 0.5 * (nu + 1.0) * np.log(nu))
        reach = np.sqrt(np.exp(min(log_r2, 2.0 * np.log(_MAX_REACH))) - nu)
        return float(self.loc), float(self.scale), float(reach)


# The t(3) quantile.  With t = sqrt(3) tan(theta) the t(3) cdf is
# 1/2 + (2 theta + sin 2 theta) / (2 pi) (Shaw 2006, J. Comput. Finance
# 9(4):37-73), so t at lower tail probability l = min(u, 1 - u) solves one of
# two angle equations:
#   tail,   l < _T3_SWITCH:  psi - sin psi = 2 pi l,  t = -sqrt(3) cot(psi / 2);
#   centre, l >= _T3_SWITCH: arctan(tau) + tau / (1 + tau^2) = pi (1/2 - l),
#                            t = -sqrt(3) tau.
# Each takes two Halley steps from a series start.  Their residuals are formed
# so that the large terms cancel exactly (Sterbenz), with 2 pi l, pi (1/2 - l)
# and the last steps carried as unevaluated sums hi + lo (Dekker's exact
# product), so the result is within ~1.5 ulp of the exact quantile.
_T3_SWITCH = 0.15
_T3_AT_SWITCH = -1.2497781050332253  # the t(3) quantile at _T3_SWITCH, correctly rounded
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_SQRT3, _SQRT3_LO = 1.7320508075688772, 1.0035084221806903e-16  # sqrt(3) = hi + lo
_PI_LO = 1.2246467991473532e-16  # pi - np.pi
_12PI, _12PI_LO = 37.69911184307752, 1.4695761589768238e-15  # 12 pi = hi + lo
# 6 (psi - sin psi) = psi^3 - psi^5 sum_k _SIN_TAIL[k] psi^2k; k <= 10 reaches
# double precision for psi^2 <= 3.6 (psi at l = _T3_SWITCH is 1.89)
_SIN_TAIL = tuple((-1) ** k * 6.0 / factorial(2 * k + 5, exact=True) for k in range(11))


def _two_prod(a, b):
    """fl(a b) and its rounding error a b - fl(a b), both exact (Dekker 1971)."""
    p = a * b
    s = _SPLIT * a
    a_hi = s - (s - a)
    s = _SPLIT * b
    b_hi = s - (s - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _t3_tail(l):
    """t(3) quantile at 0 < l < _T3_SWITCH from psi - sin psi = 2 pi l.

    Solved as psi^3 - psi^5 S(psi^2) = 12 pi l in units where l carries a
    factor 2^162 and psi 2^54, so that psi^3 stays normal for subnormal l.
    The start is the series psi = x (1 + x^2/60 + x^4/1400 + x^6/25200) in
    x = (12 pi l)^(1/3); the second Halley step forms psi^3 exactly.  With
    z = tan(psi / 2), psi - sin psi has derivative 2 z^2 / (1 + z^2) and
    second derivative 2 z / (1 + z^2).
    """
    ls = l * 2.0**162
    c, c_lo = _two_prod(ls, _12PI)
    c_lo = c_lo + _12PI_LO * ls
    x = np.cbrt(c)
    y = (x * 2.0**-54) ** 2
    p = x * (1.0 + y * (1.0 / 60.0 + y * (1.0 / 1400.0 + y / 25200.0)))
    for last in (False, True):
        psi = p * 2.0**-54
        s = psi * psi
        series = _SIN_TAIL[-1]
        for coef in _SIN_TAIL[-2::-1]:
            series = series * s + coef
        if last:
            p2, p2_lo = _two_prod(p, p)
            p3, p3_lo = _two_prod(p2, p)
            p3_lo = p3_lo + p2_lo * p
        else:
            p3, p3_lo = p * p * p, 0.0
        f = ((p3 - c) + (p3_lo - c_lo)) - p3 * s * series  # 6 (psi - sin psi) - 12 pi l
        z = np.tan(0.5 * psi)
        zs = z * 2.0**54
        newton = f * (1.0 + z * z) / (12.0 * zs * zs)
        step = newton / (1.0 - newton / (2.0 * zs))
        p_new = p - step
        p_lo = (p - p_new) - step  # psi = p_new + p_lo after the last step
        p = p_new
    z = np.tan(p * 2.0**-55)
    zs = z * 2.0**54
    dz = 0.5 * p_lo * (1.0 + z * z)  # tan((psi + d) / 2) - tan(psi / 2)
    # t = -sqrt(3) / (zs + dz), the quotient's remainder kept exactly
    h = _SQRT3 / zs
    hz, hz_lo = _two_prod(h, zs)
    rem = ((_SQRT3 - hz) - hz_lo) + _SQRT3_LO - h * dz
    return -(h + rem / zs) * 2.0**54


def _t3_centre(l):
    """t(3) quantile at _T3_SWITCH <= l <= 1/2 from arctan(tau) + tau / (1 + tau^2) = pi (1/2 - l).

    The start is tau = tan(r / 2) with r the series root of r + sin r = 2c,
    r = c + c^3/12 + c^5/60 + 43 c^7/10080 + 223 c^9/181440.  The left side
    has derivative 2 / (1 + tau^2)^2 and second derivative -8 tau / (1 + tau^2)^3;
    in the residual arctan(tau) - c, then + tau, then - tau^3 / (1 + tau^2) each
    cancel exactly for tau <= 1.
    """
    h = 0.5 - l
    h_lo = (0.5 - h) - l
    c, c_lo = _two_prod(h, np.pi)
    c_lo = c_lo + _PI_LO * h + np.pi * h_lo
    c2 = c * c
    r = c * (1.0 + c2 * (1.0 / 12.0 + c2 * (1.0 / 60.0 + c2 * (43.0 / 10080.0
                                                              + c2 * (223.0 / 181440.0)))))
    tau = np.tan(0.5 * r)
    for _ in range(2):
        w = 1.0 + tau * tau
        f = (((np.arctan(tau) - c) + tau) - tau * tau * tau / w) - c_lo
        newton = 0.5 * f * w * w
        step = newton / (1.0 + 2.0 * newton * tau / w)
        tau_new = tau - step
        tau_lo = (tau - tau_new) - step
        tau = tau_new
    t, t_lo = _two_prod(tau, _SQRT3)
    return -(t + (t_lo + _SQRT3_LO * tau + _SQRT3 * tau_lo))


def _t3_left(l):
    """t(3) quantile at lower tail probability l: -inf at 0, NaN off [0, 1/2].

    The tail solve's values are capped and the centre's floored at the
    quantile at the switch, so the two meet without a step back.
    """
    t = np.full(l.shape, np.nan)
    t[l == 0.0] = -np.inf
    tail = (l > 0.0) & (l < _T3_SWITCH)
    centre = l >= _T3_SWITCH
    t[tail] = np.minimum(_t3_tail(l[tail]), _T3_AT_SWITCH)
    t[centre] = np.maximum(_t3_centre(l[centre]), _T3_AT_SWITCH)
    return t


# The t(4) quantile in closed form (Shaw 2006): with cos theta = c = sqrt(4 l (1 - l))
# at lower tail probability l, t = -2 sqrt(cos(theta / 3) / c - 1).  Below
# _T4_SWITCH it is evaluated as written, which is how ``stdtrit`` evaluates it.  From
# there to l = 1/2, where cos(theta / 3) / c - 1 cancels, it is -4 T / sqrt(1 - 3 T^2)
# with T = tan(theta / 3), the same value as c = cos^3(theta / 3) (1 - 3 T^2), and
# theta = arcsin(1 - 2l) with the rounding of 1 - 2l added back to first order.  One
# tangent costs less than the sine and cosine of theta / 3.  The result is within
# ~3 ulp of the exact quantile.
_T4_SWITCH = 0.15


def _t4_left(l):
    """t(4) quantile at lower tail probability l: -inf at 0, NaN off [0, 1/2].

    The centre's form is taken at every l, which costs less than gathering
    the centre's l, and the tail's form replaces it below _T4_SWITCH.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.sqrt(4.0 * l * (1.0 - l))
        y = 1.0 - 2.0 * l
        tan = np.tan((np.arcsin(y) + ((1.0 - y) - 2.0 * l) / c) / 3.0)
        t = -4.0 * tan / np.sqrt(1.0 - 3.0 * tan * tan)
    tail = np.flatnonzero((l > 0.0) & (l < _T4_SWITCH))
    c = c[tail]
    t[tail] = -np.sqrt(4.0 * np.cos(np.arccos(c) / 3.0) / c - 4.0)
    return np.where(l == 0.0, -np.inf, t)


_PPF_CHUNK = 8192  # values per pass; the temporaries then stay in cache


def _symmetric_ppf(left, u):
    """A standard t quantile of an array u from ``left``, its value at l = min(u, 1 - u).

    Taken in passes of _PPF_CHUNK values.  l is exact, as 1 - u is for u >= 1/2,
    and the sign of u - 1/2 gives ppf(1 - u) = -ppf(u) bit for bit wherever
    1 - u is a double.
    """
    flat = u.ravel()
    t = np.empty(flat.shape)
    for i in range(0, flat.size, _PPF_CHUNK):
        v = flat[i:i + _PPF_CHUNK]
        t[i:i + _PPF_CHUNK] = np.copysign(left(np.minimum(v, 1.0 - v)), v - 0.5)
    return t.reshape(u.shape)


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
    def from_function(cls, pdf, lo: float, hi: float, n: int = 1001) -> "GridDensity":
        """Tabulate an analytic pdf on [lo, hi]; ValueError if it covers under 0.9999 of the mass."""
        knots = np.linspace(lo, hi, n)
        vals = np.asarray(pdf(knots), dtype=float)
        mass = float(np.trapezoid(vals, knots))
        if mass < 0.9999:
            raise ValueError(f"grid covers only {mass:.6f} of the mass (< 0.9999); widen the range")
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

    def quadrature_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The knots and their masses w_i (n is ignored), so that nodes @ weights is ``mean()``."""
        return self.knots, self._masses

