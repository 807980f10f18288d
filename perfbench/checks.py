"""Output checks for the benchmark workloads, each against an independent oracle.

The oracles are written from the spec document alone with numpy/scipy and
share no code path with tiltcal's closed form, quadrature or sampling:

* Gaussian-conditional posteriors (the two six-index workloads) are rebuilt
  in raw factor coordinates from the prior moments, and marginal densities
  and VaR quantiles come from ``scipy.integrate.quad`` at ``epsrel`` 1e-10
  or finer.
* The payoff-calibrated ``option_chain`` posterior is integrated on a dense
  grid over x (trapezoid in asinh(x / scale), |x| <= 60, 4001 nodes) with
  the tilted y | x law of each node in closed form: the tilt
  exp(lam1 (y - a)+ + lam2 (b - y)+) is exponential-linear on each of the
  three y segments, so every segment is a shifted Gaussian.  The oracle
  takes lambda from ``calibration.json``.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy import integrate, optimize, stats
from scipy.special import ndtr

from tiltcal.densities import StudentTDensity

VAR_SE_TOL = 4.0  # VaR levels must lie within this many bootstrap SEs


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], np.array([[float(c) for c in row] for row in rows[1:]])


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def task(spec: dict, kind: str) -> dict:
    return next(t for t in spec["tasks"] if t["type"] == kind)


def var_se_bp(spec: dict, out_dir: str) -> float:
    """Largest bootstrap VaR standard error, in basis points of notional."""
    _, data = read_csv(os.path.join(out_dir, "var.csv"))
    return float(data[:, 2].max() / float(task(spec, "var").get("notional", 1.0)) * 1e4)


def _close(errors, label, got, want, rel, pointwise=False):
    """Relative error against the largest |want|, or against each |want|."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        errors.append(f"{label}: shape {got.shape} or non-finite values, want {want.shape}")
        return
    scale = np.abs(want) if pointwise else np.max(np.abs(want), initial=0.0)
    err = float(np.max(np.abs(got - want) / np.maximum(scale, 1e-300), initial=0.0))
    if err > rel:
        errors.append(f"{label}: relative error {err:.3g} > {rel:g}")


def _file_set(errors, out_dir, expected):
    found = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if found != sorted(expected):
        errors.append(f"output files {found} != {sorted(expected)}")
        return False
    return True


def _check_var_quantiles(errors, spec, out_dir, quantile):
    """var.csv levels, ordering, SEs, and |VaR - oracle quantile| <= 4 SE."""
    t = task(spec, "var")
    levels = [float(q) for q in t.get("levels", [0.9975, 0.995, 0.9925, 0.95, 0.75, 0.5])]
    notional = float(t.get("notional", 1.0))
    header, data = read_csv(os.path.join(out_dir, "var.csv"))
    if header != ["level", "var", "std_error"] or data.shape != (len(levels), 3):
        errors.append(f"var.csv layout {header} {data.shape}")
        return
    if not np.array_equal(data[:, 0], levels):
        errors.append("var.csv levels differ from the spec")
    if not (np.all(np.isfinite(data)) and np.all(data[:, 2] > 0)):
        errors.append("var.csv has non-finite values or non-positive SEs")
        return
    for q, v, se in data:
        want = quantile(q) * notional
        if abs(v - want) > VAR_SE_TOL * se:
            errors.append(f"VaR at {q}: {v:.6g} vs oracle {want:.6g} "
                          f"({abs(v - want) / se:.2f} SE)")


# ---------------------------------------------------------------------------
# Six-index workloads: Gaussian-conditional posterior in raw coordinates
# ---------------------------------------------------------------------------


class _SixIndexOracle:
    """Posterior with X = z[d] ~ g (or no X block) and z_rest | X Gaussian.

    Moment views are on coordinates of the view map's Y block; the posterior
    conditional of the remaining factors keeps the prior Schur covariance and
    shifts its mean so that the viewed factors average to their targets.
    """

    def __init__(self, spec: dict):
        mu = np.array(spec["prior"]["mean"], float)
        cov = np.array(spec["prior"]["covariance"], float)
        order = spec["view_map"]["permutation"]
        self.k1 = spec["view_map"]["k1"]
        self.x_idx = order[:self.k1]                       # raw index of X (or none)
        self.y_idx = order[self.k1:]                       # raw indices of the Y block
        self.viewed = [self.y_idx[m["coord"]] for m in spec["moments"]]
        self.targets = np.array([m["target"] for m in spec["moments"]], float)
        self.cov = cov
        if self.k1:
            marg = spec["marginal"]
            self.df, self.g_loc, self.g_scale = (float(marg[k]) for k in ("df", "loc", "scale"))
            self.g_log_norm = (math.lgamma((self.df + 1) / 2) - math.lgamma(self.df / 2)
                               - 0.5 * math.log(self.df * math.pi) - math.log(self.g_scale))
            d = self.x_idx[0]
            self.slope = cov[:, d] / cov[d, d]             # E[z | x] = a + slope x
            base = mu + self.slope * (marg["loc"] - mu[d])  # prior mean at E_g[X]
            self.schur = cov - np.outer(cov[:, d], cov[d, :]) / cov[d, d]
        else:
            self.g_loc, self.slope = 0.0, np.zeros(mu.size)
            base = mu.copy()
            self.schur = cov
        v = self.viewed
        self.s_mm = self.schur[np.ix_(v, v)]
        self.lam = np.linalg.solve(self.s_mm, self.targets - base[v])
        self.post_mean = base + self.schur[:, v] @ self.lam
        # conditional mean of z given X = x is intercept + slope * x
        self.intercept = self.post_mean - self.slope * self.g_loc

    def _g_pdf(self, x: float) -> float:
        u = (x - self.g_loc) / self.g_scale
        return math.exp(self.g_log_norm - 0.5 * (self.df + 1) * math.log1p(u * u / self.df))

    def factor_density(self, i: int, s: float) -> float:
        """Posterior marginal density of raw factor i at s (quad, epsrel 1e-10)."""
        sd = np.sqrt(self.schur[i, i])
        if not self.k1:
            return float(stats.norm.pdf(s, self.post_mean[i], sd))
        if i == self.x_idx[0]:
            return self._g_pdf(s)
        a, b = float(self.intercept[i]), float(self.slope[i])
        c = 1.0 / (sd * math.sqrt(2 * math.pi))

        def f(x):
            z = (s - a - b * x) / sd
            return c * math.exp(-0.5 * z * z) * self._g_pdf(x)

        centre, half = (s - a) / b, 12.0 * sd / abs(b)
        lo, hi = sorted((centre - half, centre + half))
        loc, scale = self.g_loc, self.g_scale
        lo, hi = min(lo, loc - 40 * scale), max(hi, loc + 40 * scale)
        pts = [p for p in (centre - half, centre, centre + half, loc) if lo < p < hi]
        kw = dict(epsabs=0.0, epsrel=1e-10, limit=500)
        return (integrate.quad(f, -np.inf, lo, **kw)[0]
                + integrate.quad(f, lo, hi, points=sorted(pts), **kw)[0]
                + integrate.quad(f, hi, np.inf, **kw)[0])

    def portfolio_quantile(self, weights, q: float) -> float:
        """q-quantile of w . z under the posterior."""
        w = np.asarray(weights, float)
        a, b = float(w @ self.intercept), float(w @ self.slope)
        sd = float(np.sqrt(w @ self.schur @ w))
        if not self.k1 or abs(b) < 1e-14:
            return float(a + b * self.g_loc + sd * stats.norm.ppf(q))

        def cdf(v):
            f = lambda x: ndtr((v - a - b * x) / sd) * self._g_pdf(x)
            loc, scale = self.g_loc, self.g_scale
            kw = dict(epsabs=0.0, epsrel=1e-12, limit=500)
            return (integrate.quad(f, -np.inf, loc - 50 * scale, **kw)[0]
                    + integrate.quad(f, loc - 50 * scale, loc + 50 * scale, **kw)[0]
                    + integrate.quad(f, loc + 50 * scale, np.inf, **kw)[0])

        width = 20 * (sd + abs(b) * self.g_scale)
        return float(optimize.brentq(lambda v: cdf(v) - q, a - width, a + width,
                                     xtol=1e-14, rtol=1e-12))


def _check_density_files(errors, spec, out_dir, oracle: _SixIndexOracle, stride=20):
    labels = spec["prior"]["labels"]
    mu = np.array(spec["prior"]["mean"], float)
    for i, name in enumerate(labels):
        path = os.path.join(out_dir, f"density_{name}.csv")
        header, data = read_csv(path)
        if header != ["s", "prior_density", "posterior_density"] or data.shape != (401, 3):
            errors.append(f"{name}: density file layout {header} {data.shape}")
            continue
        s = data[:, 0]
        _close(errors, f"{name} prior density", data[:, 1],
               stats.norm.pdf(s, mu[i], np.sqrt(oracle.cov[i, i])), 1e-12, pointwise=True)
        rows = data[::stride]
        want = [oracle.factor_density(i, sv) for sv in rows[:, 0]]
        _close(errors, f"{name} posterior density", rows[:, 2], want, 1e-6, pointwise=True)


def _check_gaussian_calibration(errors, out_dir, oracle: _SixIndexOracle):
    report = read_json(os.path.join(out_dir, "calibration.json"))
    if report.get("converged") is not True:
        errors.append("calibration did not converge")
    _close(errors, "lambda", report["lambda"], oracle.lam, 1e-8)
    _close(errors, "posterior mean", report["posterior_mean_z"], oracle.post_mean, 1e-9)
    got = np.array(report["posterior_mean_z"], float)[oracle.viewed]
    _close(errors, "targeted posterior means", got, oracle.targets, 1e-9)
    return report


def check_six_index_heavy_tail(spec: dict, out_dir: str) -> list[str]:
    errors: list[str] = []
    labels = spec["prior"]["labels"]
    expected = (["calibration.json", "var.csv", "tail.csv", "sensitivities.json",
                 "density_view.csv"] + [f"density_{n}.csv" for n in labels])
    if not _file_set(errors, out_dir, expected):
        return errors
    oracle = _SixIndexOracle(spec)
    _check_gaussian_calibration(errors, out_dir, oracle)

    # the view density column is the view's own pdf, bit for bit
    m = spec["marginal"]
    g = StudentTDensity(df=float(m["df"]), loc=float(m["loc"]), scale=float(m["scale"]))
    _, view = read_csv(os.path.join(out_dir, "density_view.csv"))
    if view.shape != (401, 3) or not np.array_equal(view[:, 2], g.pdf(view[:, 0])):
        errors.append("density_view.csv posterior column is not g.pdf bit for bit")
    _check_density_files(errors, spec, out_dir, oracle)

    # tail ratio: limit (sigma_xy / sigma_xx)^(alpha - 1), alpha = df + 1
    coord = task(spec, "tail").get("coord", 0)
    d, y = oracle.x_idx[0], oracle.y_idx[coord]
    limit = (oracle.cov[d, y] / oracle.cov[d, d]) ** oracle.df
    header, tail = read_csv(os.path.join(out_dir, "tail.csv"))
    if header != ["s", "measured_ratio", "target_ratio"] or tail.shape != (10, 3):
        errors.append(f"tail.csv layout {header} {tail.shape}")
    else:
        _close(errors, "tail probe points", tail[:, 0],
               m["loc"] + m["scale"] * 2.0 ** np.arange(2, 12), 1e-12)
        _close(errors, "tail target ratio", tail[:, 2], np.full(10, limit), 1e-12)
        if abs(tail[-1, 1] / limit - 1.0) > 0.05:
            errors.append(f"last tail ratio {tail[-1, 1]:.6g} not within 5% of {limit:.6g}")

    # sensitivities: V is the Schur block of the viewed factors, U its inverse,
    # and dPi/dc for r = a viewed factor is that factor's unit vector
    sens = read_json(os.path.join(out_dir, "sensitivities.json"))
    _close(errors, "sensitivity V", sens["V"], oracle.s_mm, 1e-10)
    _close(errors, "sensitivity U", sens["U"], np.linalg.inv(oracle.s_mm), 1e-8)
    r_w = np.array(task(spec, "sensitivities")["r"]["weights"], float)
    want = np.array([r_w[i] for i in oracle.viewed])
    if np.max(np.abs(np.array(sens["d_pi_d_c"], float) - want)) > 1e-8:
        errors.append("dPi/dc differs from the unit vector of the viewed factor")

    weights = task(spec, "var")["weights"]
    _check_var_quantiles(errors, spec, out_dir,
                         lambda q: oracle.portfolio_quantile(weights, q))
    return errors


def check_six_index_mean_audit(spec: dict, out_dir: str) -> list[str]:
    errors: list[str] = []
    labels = spec["prior"]["labels"]
    expected = ["calibration.json", "var.csv"] + [f"density_{n}.csv" for n in labels]
    if not _file_set(errors, out_dir, expected):
        return errors
    oracle = _SixIndexOracle(spec)
    report = _check_gaussian_calibration(errors, out_dir, oracle)
    if report.get("existence") != "interior":
        errors.append(f"existence is {report.get('existence')!r}, want 'interior'")
    _check_density_files(errors, spec, out_dir, oracle)
    weights = task(spec, "var")["weights"]
    _check_var_quantiles(errors, spec, out_dir,
                         lambda q: oracle.portfolio_quantile(weights, q))
    return errors


# ---------------------------------------------------------------------------
# option_chain: payoff-tilted Gaussian conditional, dense x grid
# ---------------------------------------------------------------------------


class _TiltedGridOracle:
    """Identity map, X = z0 ~ t view, Y = z1 | X Gaussian tilted by a call
    and a put on Y with multipliers ``lam``."""

    def __init__(self, spec: dict, lam, n_x: int = 4001, x_max: float = 60.0):
        mu = np.array(spec["prior"]["mean"], float)
        cov = np.array(spec["prior"]["covariance"], float)
        m = spec["marginal"]
        scale = float(m["scale"])
        t_max = np.arcsinh(x_max / scale)
        t = np.linspace(-t_max, t_max, n_x)
        x = float(m["loc"]) + scale * np.sinh(t)
        w = stats.t.pdf(x, m["df"], loc=m["loc"], scale=scale) * scale * np.cosh(t)
        w[[0, -1]] *= 0.5
        self.x, self.wx = x, w / w.sum()
        self.mean = mu[1] + cov[0, 1] / cov[0, 0] * (x - mu[0])   # E[y | x], per node
        self.sd = float(np.sqrt(cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0]))
        views = {v["payoff"]["kind"]: (float(v["payoff"]["strike"]), float(l))
                 for v, l in zip(spec["moments"], lam)}
        (a, lam_call), (b, lam_put) = views["call"], views["put"]
        # y segments with tilt exp(alpha y + beta): (-inf, b], (b, a], (a, inf)
        self.segments = [(-np.inf, b, -lam_put, lam_put * b),
                         (b, a, 0.0, 0.0),
                         (a, np.inf, lam_call, -lam_call * a)]
        self.norm = sum(self._mass(seg, -np.inf, np.inf) for seg in self.segments)

    def _shifted(self, seg):
        lo, hi, alpha, beta = seg
        scale = np.exp(beta + alpha * self.mean + 0.5 * (alpha * self.sd) ** 2)
        return lo, hi, self.mean + alpha * self.sd**2, scale

    def _mass(self, seg, lo, hi):
        """Per-node integral of tilt * N(y; mean, sd) over seg and (lo, hi)."""
        s_lo, s_hi, m, scale = self._shifted(seg)
        lo, hi = np.maximum(s_lo, lo), np.minimum(s_hi, hi)
        return scale * np.clip(ndtr((hi - m) / self.sd) - ndtr((lo - m) / self.sd), 0, None)

    def _first(self, seg, lo, hi, strike):
        """Per-node integral of tilt * (y - strike) * N(y; mean, sd) over seg and (lo, hi)."""
        s_lo, s_hi, m, scale = self._shifted(seg)
        lo, hi = np.maximum(s_lo, lo), np.minimum(s_hi, hi)
        z_lo, z_hi = (lo - m) / self.sd, (hi - m) / self.sd
        part = ((m - strike) * np.clip(ndtr(z_hi) - ndtr(z_lo), 0, None)
                - self.sd * (stats.norm.pdf(z_hi) - stats.norm.pdf(z_lo)))
        return scale * np.where(hi > lo, part, 0.0)

    def expect(self, kind: str, strike: float) -> float:
        """Posterior expectation of a call or put on y."""
        if kind == "call":
            per = sum(self._first(s, strike, np.inf, strike) for s in self.segments)
        else:
            per = -sum(self._first(s, -np.inf, strike, strike) for s in self.segments)
        return float(self.wx @ (per / self.norm))

    def portfolio_quantile(self, weights, q: float) -> float:
        """q-quantile of w0 x + w1 y under the posterior (w1 > 0)."""
        w0, w1 = (float(v) for v in weights)

        def cdf(v):
            cut = (v - w0 * self.x) / w1
            per = sum(self._mass(s, -np.inf, cut) for s in self.segments)
            return float(self.wx @ (per / self.norm))

        lo, hi = -5.0, 5.0
        while cdf(lo) > q:
            lo *= 2
        while cdf(hi) < q:
            hi *= 2
        return float(optimize.brentq(lambda v: cdf(v) - q, lo, hi, xtol=1e-13))


def check_option_chain(spec: dict, out_dir: str) -> list[str]:
    errors: list[str] = []
    if not _file_set(errors, out_dir, ["calibration.json", "price.json", "var.csv"]):
        return errors
    report = read_json(os.path.join(out_dir, "calibration.json"))
    if report.get("converged") is not True:
        errors.append("calibration did not converge")
    if report.get("existence") != "interior":
        errors.append(f"existence is {report.get('existence')!r}, want 'interior'")
    residuals = np.array(report["residuals"], float)
    if residuals.shape != (len(spec["moments"]),) or not np.all(residuals <= report["tolerance"]):
        errors.append(f"residuals {residuals} exceed tol {report['tolerance']}")
    oracle = _TiltedGridOracle(spec, report["lambda"])
    for view in spec["moments"]:
        got = oracle.expect(view["payoff"]["kind"], view["payoff"]["strike"])
        _close(errors, f"oracle {view['payoff']['kind']} target", got, view["target"], 1e-3)
    price_task = task(spec, "price")
    price = read_json(os.path.join(out_dir, "price.json"))
    want = np.exp(-price_task["discount"]) * oracle.expect(
        price_task["payoff"]["kind"], price_task["payoff"]["strike"])
    _close(errors, "price", price["price"], want, 1e-3)
    weights = task(spec, "var")["weights"]
    _check_var_quantiles(errors, spec, out_dir,
                         lambda q: oracle.portfolio_quantile(weights, q))
    return errors


CHECKS = {
    "six_index_heavy_tail": check_six_index_heavy_tail,
    "six_index_mean_audit": check_six_index_mean_audit,
    "option_chain": check_option_chain,
}
