"""Command-line entry point: load a calibration spec, run tasks, emit reports.

The spec file is JSON with a versioned schema: a prior (explicit moments or
estimated from a price history CSV), a linear view map, one marginal block,
moment views, and an ordered task list.  Reports are written atomically:
everything is staged to a temporary directory and renamed into place only
after every task has finished.

Exit codes: 0 success, 2 calibration did not converge, 3 spec validation
error, 1 any other engine error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .analytic import (
    GaussianMarginalPosterior,
    posterior_marginal_linear,
    resolve_posterior,
)
from .calibration import (
    CalibrationReport,
    TiltedPosterior,
    build_dual_problem,
    existence_check,
    solve_lambda_newton,
)
from .densities import GaussianDensity, GridDensity, StudentTDensity
from .errors import InsufficientData, SpecValidationError, TiltcalError
from .montecarlo import estimate_var, price_option, sample_posterior
from .priors import GaussianPrior, LinearViewMap
from .sensitivity import sensitivities
from .tails import tail_ratio_probe
from .views import MomentView, ViewSet

__all__ = [
    "PriceSeries",
    "load_price_csv",
    "estimate_prior",
    "load_spec",
    "run",
    "main",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PriceSeries:
    """Dated price history, one positive column per factor."""

    dates: tuple
    prices: np.ndarray
    labels: tuple[str, ...]
    frequency: str = "weekly"

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if prices.ndim != 2 or prices.shape[0] != len(self.dates):
            raise ValueError("prices must be (n_dates, n_factors)")
        if np.any(prices <= 0) or not np.all(np.isfinite(prices)):
            raise ValueError("prices must be positive and finite")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if self.frequency not in ("daily", "weekly"):
            raise ValueError("frequency must be 'daily' or 'weekly'")


def load_price_csv(path: str, frequency: str = "weekly") -> PriceSeries:
    """Read a price CSV: header `date,<name>...`, ISO dates, decimal prices.

    Rows with any missing or unparsable cell are dropped with a warning.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0].strip().lower() != "date":
            raise SpecValidationError("price CSV must start with a 'date' column")
        labels = tuple(name.strip() for name in header[1:])
        dates, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header) or any(cell.strip() == "" for cell in row):
                warnings.warn(f"dropping row {lineno}: missing cells")
                continue
            try:
                date = dt.date.fromisoformat(row[0].strip())
                values = [float(cell) for cell in row[1:]]
            except ValueError:
                warnings.warn(f"dropping row {lineno}: unparsable cells")
                continue
            dates.append(date)
            rows.append(values)
    if not rows:
        raise InsufficientData("price CSV contains no usable rows")
    return PriceSeries(tuple(dates), np.array(rows), labels, frequency)


def estimate_prior(series: PriceSeries, return_kind: str = "simple") -> GaussianPrior:
    """Gaussian prior from a price history: sample mean and (n-1)-covariance.

    ``return_kind`` is 'simple' (p_t / p_{t-1} - 1) or 'log'.
    """
    prices = series.prices
    if return_kind == "simple":
        returns = prices[1:] / prices[:-1] - 1.0
    elif return_kind == "log":
        returns = np.log(prices[1:] / prices[:-1])
    else:
        raise ValueError("return_kind must be 'simple' or 'log'")
    if returns.shape[0] < 30:
        raise InsufficientData(
            f"need at least 30 return observations, have {returns.shape[0]}"
        )
    mean = returns.mean(axis=0)
    cov = np.cov(returns, rowvar=False, ddof=1)
    return GaussianPrior(mean, np.atleast_2d(cov))


# ---------------------------------------------------------------------------
# Spec loading and validation
# ---------------------------------------------------------------------------


def _fail(msg: str) -> SpecValidationError:
    return SpecValidationError(msg)


def _require(cond: bool, msg: str):
    if not cond:
        raise _fail(msg)


@dataclass
class CalibrationSpec:
    """Validated in-memory form of a spec file."""

    prior: GaussianPrior
    views: ViewSet
    labels: tuple[str, ...]
    tasks: list
    solver: dict


def load_spec(path: str) -> CalibrationSpec:
    """Parse and validate a spec file; raises SpecValidationError on any issue."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _fail(f"cannot read spec: {exc}") from exc
    _require(isinstance(doc, dict), "spec root must be an object")
    _require("schema_version" in doc, "spec must declare schema_version")
    _require(doc["schema_version"] == SCHEMA_VERSION,
             f"unsupported schema_version {doc.get('schema_version')!r}")
    for key in ("prior", "view_map", "moments", "tasks"):
        _require(key in doc, f"spec is missing the '{key}' section")

    prior, labels = _parse_prior(doc["prior"], os.path.dirname(os.path.abspath(path)))
    n = prior.dim
    view_map = _parse_view_map(doc["view_map"], n)
    marginal = _parse_marginal(doc.get("marginal"))
    _require((marginal is None) == (view_map.k1 == 0),
             "exactly one marginal block is required when k1 > 0 (and none when k1 == 0)")
    moments = _parse_moments(doc["moments"], view_map)
    try:
        views = ViewSet(view_map, marginal, moments)
    except ValueError as exc:
        raise _fail(f"inconsistent views: {exc}") from exc
    tasks = doc["tasks"]
    _require(isinstance(tasks, list) and tasks, "tasks must be a non-empty list")
    known = {"calibrate", "var", "price", "tail", "sensitivities"}
    for task in tasks:
        _require(isinstance(task, dict) and task.get("type") in known,
                 f"unknown task entry {task!r}")
    solver = doc.get("solver", {})
    _require(isinstance(solver, dict), "solver section must be an object")
    allowed = {"n_x", "n_y", "tol", "max_iter"}
    _require(set(solver) <= allowed, f"solver keys must be among {sorted(allowed)}")
    return CalibrationSpec(prior, views, labels, tasks, solver)


def _parse_prior(node, base_dir: str):
    _require(isinstance(node, dict), "prior must be an object")
    if "estimate_from" in node:
        csv_path = node["estimate_from"]
        if not os.path.isabs(csv_path):
            csv_path = os.path.join(base_dir, csv_path)
        series = load_price_csv(csv_path, node.get("frequency", "weekly"))
        prior = estimate_prior(series, node.get("return_kind", "simple"))
        return prior, series.labels
    _require("mean" in node and "covariance" in node,
             "prior needs mean+covariance or estimate_from")
    try:
        prior = GaussianPrior(np.array(node["mean"], dtype=float),
                              np.array(node["covariance"], dtype=float))
    except (ValueError, TypeError) as exc:
        raise _fail(f"invalid prior: {exc}") from exc
    labels = tuple(node.get("labels", [f"z{i + 1}" for i in range(prior.dim)]))
    _require(len(labels) == prior.dim, "labels length must match prior dimension")
    return prior, labels


def _parse_view_map(node, n: int) -> LinearViewMap:
    _require(isinstance(node, dict), "view_map must be an object")
    k1, k2 = node.get("k1"), node.get("k2")
    _require(isinstance(k1, int) and isinstance(k2, int), "view_map needs integer k1, k2")
    _require(0 <= k1 <= k2 <= n, f"need 0 <= k1 <= k2 <= {n} (got k1={k1}, k2={k2})")
    try:
        if "permutation" in node:
            return LinearViewMap.from_permutation(node["permutation"], k1, k2)
        if "matrix" in node:
            matrix = np.array(node["matrix"], dtype=float)
            _require(matrix.shape == (n, n), f"view matrix must be {n}x{n}")
            return LinearViewMap(matrix, k1, k2)
        return LinearViewMap.identity(n, k1, k2)
    except (ValueError, TiltcalError) as exc:
        raise _fail(f"invalid view map: {exc}") from exc


def _parse_marginal(node):
    if node is None:
        return None
    _require(isinstance(node, dict) and "kind" in node, "marginal needs a 'kind'")
    kind = node["kind"]
    try:
        if kind == "student_t":
            return StudentTDensity(df=float(node["df"]), loc=float(node["loc"]),
                                   scale=float(node["scale"]))
        if kind == "gaussian":
            return GaussianDensity(mean_=float(node["mean"]), stddev=float(node["stddev"]))
        if kind == "grid":
            return GridDensity(np.array(node["knots"], dtype=float),
                               np.array(node["densities"], dtype=float))
    except (KeyError, ValueError, TypeError) as exc:
        raise _fail(f"invalid marginal: {exc}") from exc
    raise _fail(f"unknown marginal kind {kind!r}")


def _make_payoff(node, k1: int):
    kind = node.get("kind")
    coord = node.get("coord", 0)
    if kind == "call":
        strike = float(node["strike"])
        return lambda x, y: np.maximum(y[..., coord] - strike, 0.0)
    if kind == "put":
        strike = float(node["strike"])
        return lambda x, y: np.maximum(strike - y[..., coord], 0.0)
    raise _fail(f"unknown payoff kind {kind!r}")


def _parse_moments(nodes, view_map: LinearViewMap):
    _require(isinstance(nodes, list), "moments must be a list")
    out = []
    for node in nodes:
        _require(isinstance(node, dict) and "target" in node,
                 "each moment view needs a target")
        try:
            if "coord" in node:
                out.append(MomentView(target=float(node["target"]),
                                      coord=int(node["coord"])))
            elif "payoff" in node:
                out.append(MomentView(target=float(node["target"]),
                                      payoff=_make_payoff(node["payoff"], view_map.k1),
                                      name=json.dumps(node["payoff"], sort_keys=True)))
            else:
                raise _fail("moment view needs 'coord' or 'payoff'")
        except (ValueError, TypeError) as exc:
            raise _fail(f"invalid moment view: {exc}") from exc
    return tuple(out)


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """Locale-independent full-precision formatting (17 significant digits)."""
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows, stamp: str):
    with open(path, "w", newline="") as fh:
        fh.write(f"# generated {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


def _write_json(path: str, payload: dict):
    def default(obj):
        if isinstance(obj, np.ndarray):
            return [default(v) for v in obj.tolist()]
        if isinstance(obj, (np.floating, float)):
            return float(obj)
        return obj

    canon = json.loads(json.dumps(payload, default=default))
    with open(path, "w") as fh:
        json.dump(canon, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Task execution
# ---------------------------------------------------------------------------


class _TaskRunner:
    def __init__(self, spec: CalibrationSpec, out_dir: str, seed: int | None,
                 samples: int | None):
        self.spec = spec
        self.seed = seed
        self.samples = samples
        self.out_dir = out_dir
        self.stamp = dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds")
        self.report: CalibrationReport | None = None
        self._posterior = None
        self._batch_cache: dict = {}

    def posterior(self):
        """The calibrated posterior: one dual problem, one Newton solve.

        Coordinate views resolve to the closed-form Gaussian posterior,
        payoff views stay a quadrature-backed TiltedPosterior.
        """
        if self._posterior is None:
            spec, solver = self.spec, self.spec.solver
            problem = build_dual_problem(
                spec.prior, spec.views,
                n_x=int(solver.get("n_x", 10_000)), n_y=int(solver.get("n_y", 64)),
            )
            self.report = solve_lambda_newton(
                spec.prior, spec.views, problem=problem,
                tol=float(solver.get("tol", 1e-8)),
                max_iter=int(solver.get("max_iter", 100)),
            )
            self._posterior = resolve_posterior(
                TiltedPosterior(spec.prior, spec.views, self.report.lam, problem)
            )
        return self._posterior

    def batch(self, n: int, seed: int):
        key = (n, seed)
        if key not in self._batch_cache:
            self._batch_cache[key] = sample_posterior(self.posterior(), n, seed)
        return self._batch_cache[key]

    # -- tasks -------------------------------------------------------------
    def run_task(self, task: dict, stage: str):
        kind = task["type"]
        if kind == "calibrate":
            self._task_calibrate(task, stage)
        elif kind == "var":
            self._task_var(task, stage)
        elif kind == "price":
            self._task_price(task, stage)
        elif kind == "tail":
            self._task_tail(task, stage)
        elif kind == "sensitivities":
            self._task_sensitivities(task, stage)

    def _task_calibrate(self, task: dict, stage: str):
        post = self.posterior()
        report = self.report
        payload = {
            "schema_version": SCHEMA_VERSION,
            "lambda": report.lam,
            "residuals": report.residuals,
            "dual_value": report.dual_value,
            "iterations": report.iterations,
            "converged": report.converged,
            "tolerance": report.tolerance,
            "existence": report.existence,
            "independence_min_eig": report.independence_min_eig,
        }
        if task.get("check_existence", False):
            payload["existence"] = existence_check(
                self.spec.prior, self.spec.views,
                n_samples=int(task.get("n_samples", 100_000)),
                seed=self._seed_for(task),
            )
            report.existence = payload["existence"]
        if isinstance(post, GaussianMarginalPosterior):
            payload["posterior_mean_z"] = post.z_mean()
            self._write_density_files(post, stage)
        _write_json(os.path.join(stage, "calibration.json"), payload)

    def _write_density_files(self, post: GaussianMarginalPosterior, stage: str):
        prior_t = post.prior_t
        names = list(self.spec.labels)
        targets = [("view", None)] if post.k1 == 1 else []
        targets += [(names[i], i) for i in range(len(names))]
        for name, idx in targets:
            if idx is None:
                mean_pr = float(prior_t.mean[0])
                sd_pr = float(np.sqrt(prior_t.covariance[0, 0]))
                g = post.marginal
                sd_po = np.sqrt(g.var()) if np.isfinite(g.var()) else 3 * sd_pr
                center = g.mean()
            else:
                prior_z = self.spec.prior
                mean_pr = float(prior_z.mean[idx])
                sd_pr = float(np.sqrt(prior_z.covariance[idx, idx]))
                center = float(post.z_mean()[idx])
                sd_po = sd_pr
            lo = min(mean_pr, center) - 6.0 * max(sd_pr, sd_po)
            hi = max(mean_pr, center) + 6.0 * max(sd_pr, sd_po)
            grid = np.linspace(lo, hi, 401)
            prior_pdf = np.exp(
                -0.5 * ((grid - mean_pr) / sd_pr) ** 2
            ) / (sd_pr * np.sqrt(2 * np.pi))
            if idx is None:
                post_pdf = post.marginal.pdf(grid)
            else:
                post_pdf = posterior_marginal_linear(post, np.eye(post.view_map.n)[idx], grid)
            rows = zip(grid, prior_pdf, post_pdf)
            _write_csv(os.path.join(stage, f"density_{name}.csv"),
                       ["s", "prior_density", "posterior_density"], rows, self.stamp)

    def _seed_for(self, task: dict) -> int:
        if self.seed is not None:
            return self.seed
        return int(task.get("seed", 0))

    def _samples_for(self, task: dict, default: int = 100_000) -> int:
        if self.samples is not None:
            return self.samples
        return int(task.get("n_samples", default))

    def _task_var(self, task: dict, stage: str):
        levels = [float(q) for q in task.get("levels",
                                             [0.9975, 0.995, 0.9925, 0.95, 0.75, 0.5])]
        weights = np.asarray(task.get("weights",
                                      [1.0 / self.spec.prior.dim] * self.spec.prior.dim),
                             dtype=float)
        notional = float(task.get("notional", 1.0))
        batch = self.batch(self._samples_for(task), self._seed_for(task))
        report = estimate_var(batch, weights, notional, levels)
        rows = [(q, v, se) for q, v, se in report.as_rows()]
        _write_csv(os.path.join(stage, "var.csv"),
                   ["level", "var", "std_error"], rows, self.stamp)

    def _task_price(self, task: dict, stage: str):
        payoff = _make_payoff(task["payoff"], self.spec.views.k1)
        discount = float(task.get("discount", 0.0))
        result = price_option(self.posterior(), payoff, discount,
                              n_samples=self._samples_for(task, 200_000),
                              seed=self._seed_for(task))
        _write_json(os.path.join(stage, "price.json"), {
            "schema_version": SCHEMA_VERSION,
            "payoff": task["payoff"],
            "discount": discount,
            "price": result.price,
            "std_error": result.std_error,
            "method": result.method,
        })

    def _task_tail(self, task: dict, stage: str):
        _require(self.spec.views.is_coordinate_linear, "tail task requires coordinate moment views")
        post = self.posterior()
        report = tail_ratio_probe(post, coord=int(task.get("coord", 0)),
                                  s_max=task.get("s_max"),
                                  n_points=int(task.get("n_points", 10)))
        rows = [(s, m, report.target_ratio)
                for s, m in zip(report.probe_points, report.measured_ratios)]
        _write_csv(os.path.join(stage, "tail.csv"),
                   ["s", "measured_ratio", "target_ratio"], rows, self.stamp)

    def _task_sensitivities(self, task: dict, stage: str):
        _require(self.spec.views.is_coordinate_linear,
                 "sensitivities task requires coordinate moment views")
        post = self.posterior()
        node = task.get("r", {})
        _require("weights" in node, "sensitivities task needs r.weights in Z coordinates")
        w_z = np.asarray(node["weights"], dtype=float)
        _require(w_z.size == self.spec.prior.dim, "r.weights length must match factors")
        # r = w . Z = (V^-T w) . (x, y)
        r_view = np.linalg.solve(post.view_map.matrix.T, w_z)
        report = sensitivities(post, r_weights=r_view,
                               wrt_loc=bool(task.get("wrt_loc", False)))
        _write_json(os.path.join(stage, "sensitivities.json"), {
            "schema_version": SCHEMA_VERSION,
            "d_pi_d_c": report.d_pi_d_c,
            "V": report.v_matrix,
            "U": report.u_matrix,
            "d_pi_d_loc": report.d_pi_d_loc,
        })


def run(spec_path: str, out_dir: str, seed: int | None = None,
        samples: int | None = None) -> int:
    """Execute a spec file's tasks; returns the process exit code."""
    try:
        spec = load_spec(spec_path)
    except SpecValidationError as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}), file=sys.stderr)
        return 3
    os.makedirs(out_dir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    runner = _TaskRunner(spec, out_dir, seed, samples)
    try:
        for task in spec.tasks:
            try:
                runner.run_task(task, stage)
            except SpecValidationError:
                raise
            except (TiltcalError, ValueError) as exc:
                print(json.dumps({"task": task["type"],
                                  "code": type(exc).__name__,
                                  "detail": str(exc)}), file=sys.stderr)
                return 1
        for name in sorted(os.listdir(stage)):
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    except SpecValidationError as exc:
        print(json.dumps({"error": "validation", "detail": str(exc)}), file=sys.stderr)
        return 3
    finally:
        for name in os.listdir(stage):
            os.unlink(os.path.join(stage, name))
        os.rmdir(stage)
    if runner.report is not None and not runner.report.converged:
        print(json.dumps({"warning": "NotConverged",
                          "max_residual": runner.report.max_residual}), file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tiltcal",
        description="Calibrate a risk model to marginal-density and moment views.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cal = sub.add_parser("calibrate", help="run the tasks in a spec file")
    cal.add_argument("--spec", required=True, help="path to the JSON spec file")
    cal.add_argument("--out", required=True, help="output directory for reports")
    cal.add_argument("--seed", type=int, default=None, help="override task seeds")
    cal.add_argument("--samples", type=int, default=None,
                     help="override task sample counts")
    args = parser.parse_args(argv)
    if args.command == "calibrate":
        return run(args.spec, args.out, args.seed, args.samples)
    return 3


if __name__ == "__main__":
    raise SystemExit(main())
