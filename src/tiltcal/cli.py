"""Command-line entry point: load a calibration spec, run tasks, emit reports.

The spec file is JSON with a versioned schema: a prior (explicit moments or
estimated from a price history CSV), a linear view map, one marginal block,
moment views, and an ordered task list.  Reports are written atomically:
everything is staged to a temporary directory and renamed into place only
after every task has finished and no report's name is taken by a directory.

Exit codes: 0 success, 2 calibration did not converge, 3 spec validation
error or an unusable output directory, 1 any other engine error.
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

from .analytic import posterior_marginal_linear
from .calibration import (
    CalibrationReport,
    GaussianMarginalPosterior,
    _location_score,
    build_dual_problem,
    existence_check,
    solve_lambda_newton,
)
from .densities import GaussianDensity, GridDensity, StudentTDensity
from .errors import InsufficientData, SpecValidationError, TiltcalError
from .montecarlo import estimate_portfolio_var, price_option
from .priors import GaussianPrior, LinearViewMap, transform_prior
from .sensitivity import sensitivities
from .tails import _probe_points, _target_ratio, tail_ratio_probe
from .views import MomentView, OptionPayoff, ViewSet

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

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if prices.ndim != 2 or prices.shape[0] != len(self.dates):
            raise ValueError("prices must be (n_dates, n_factors)")
        if np.any(prices <= 0) or not np.all(np.isfinite(prices)):
            raise ValueError("prices must be positive and finite")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")


def load_price_csv(path: str) -> PriceSeries:
    """Read a price CSV: header `date,<name>...`, ISO dates, decimal prices.

    Rows with any missing or unparsable cell are dropped with a warning.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
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
    return PriceSeries(tuple(dates), np.array(rows), labels)


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


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecValidationError(msg)


def _known_keys(node: dict, allowed, what: str):
    """Refuse a key of ``node`` outside ``allowed``, naming it."""
    unknown = sorted(set(node) - set(allowed))
    _require(not unknown, f"unknown {what} key(s) {unknown}; allowed: {sorted(allowed)}")


@dataclass(frozen=True)
class Task:
    """A checked task: ``_TaskRunner._task_<type>`` runs it on ``args``.

    ``name`` is the stem of its report file: ``calibration`` for the one
    calibrate task, else the type for its first task and ``<type>_<i>`` for
    the i-th of that type in spec order (``var``, ``var_2``, ...).
    """

    type: str
    n_samples: int | None  # None, like seed, for a task that draws no samples
    seed: int | None
    args: tuple
    name: str


@dataclass
class CalibrationSpec:
    """Validated in-memory form of a spec file."""

    prior: GaussianPrior
    views: ViewSet
    labels: tuple[str, ...]
    tasks: list[Task]
    solver: dict  # {"problem": {n_x, n_y given}, "newton": {tol, max_iter given}}


def load_spec(path: str) -> CalibrationSpec:
    """Parse and validate a spec file; raises SpecValidationError on any issue.

    Every field is checked here, so no task raises a validation error when it
    runs.  Errors of the model classes' own checks (a PSD covariance, df > 1,
    a non-singular view map) and of reading a price history count as invalid.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return _read_spec(doc, os.path.dirname(os.path.abspath(path)))
    except SpecValidationError:
        raise
    except (OSError, ValueError, TiltcalError) as exc:
        raise SpecValidationError(f"invalid spec: {exc}") from exc


def _read_spec(doc, base_dir: str) -> CalibrationSpec:
    _require(isinstance(doc, dict), "spec root must be an object")
    version = doc.get("schema_version")
    _require(type(version) is int and version == SCHEMA_VERSION,
             f"unsupported schema_version {version!r}")
    _known_keys(doc, {"schema_version", "prior", "view_map", "marginal", "moments", "solver",
                      "tasks"}, "spec")
    for key in ("prior", "view_map", "moments", "tasks"):
        _require(key in doc, f"spec is missing the '{key}' section")

    prior, labels = _parse_prior(doc["prior"], base_dir)
    n = prior.dim
    view_map = _parse_view_map(doc["view_map"], n)
    marginal = _parse_marginal(doc.get("marginal"))
    _require((marginal is None) == (view_map.k1 == 0),
             "exactly one marginal block is required when k1 > 0 (and none when k1 == 0)")
    views = ViewSet(view_map, marginal, _parse_moments(doc["moments"], n - view_map.k1))
    tasks = doc["tasks"]
    _require(isinstance(tasks, list) and tasks, "tasks must be a non-empty list")
    records, counts = [], {}
    for task in tasks:
        _require(isinstance(task, dict) and isinstance(task.get("type"), str)
                 and task["type"] in _TASKS, f"unknown task entry {task!r}")
        kind = task["type"]
        reader, default_samples, fields = _TASKS[kind]
        draws = default_samples is not None
        _known_keys(task, {"type", *fields} | ({"n_samples", "seed"} if draws else set()),
                    f"{kind} task")
        counts[kind] = count = counts.get(kind, 0) + 1
        _require(kind != "calibrate" or count == 1,
                 "a spec takes at most one calibrate task: there is one calibration per spec")
        name = "calibration" if kind == "calibrate" else kind if count == 1 else f"{kind}_{count}"
        records.append(Task(kind,
                            _integer(task.get("n_samples", default_samples), "task n_samples", 1)
                            if draws else None,
                            _integer(task.get("seed", 0), "task seed", 0) if draws else None,
                            reader(task, prior, views), name))
    return CalibrationSpec(prior, views, labels, records, _parse_solver(doc.get("solver", {})))


def _parse_solver(node) -> dict:
    """The solver settings the spec gives, checked, as keywords for their callees.

    ``"problem"`` holds n_x and n_y for ``build_dual_problem`` and ``"newton"``
    holds tol and max_iter for ``solve_lambda_newton``; a key the spec leaves
    out keeps the callee's own default.
    """
    _require(isinstance(node, dict), "solver section must be an object")
    _known_keys(node, {"n_x", "n_y", "tol", "max_iter"}, "solver")
    problem, newton = ({key: _integer(node[key], f"solver {key}", 1) for key in keys if key in node}
                       for keys in (("n_x", "n_y"), ("max_iter",)))
    if "tol" in node:
        newton["tol"] = _number(node["tol"], "solver tol")
        _require(newton["tol"] > 0, f"solver tol must be > 0; got {newton['tol']!r}")
    return {"problem": problem, "newton": newton}


def _parse_calibrate_task(task: dict, prior: GaussianPrior, views: ViewSet):
    """A calibrate task's (check_existence,), checked."""
    check = task.get("check_existence", False)
    _require(isinstance(check, bool), f"check_existence must be a boolean; got {check!r}")
    return (check,)


def _parse_var_task(task: dict, prior: GaussianPrior, views: ViewSet):
    """A var task's (weights, notional, levels), defaults filled in and checked."""
    n = prior.dim
    levels = task.get("levels", [0.9975, 0.995, 0.9925, 0.95, 0.75, 0.5])
    _require(isinstance(levels, list) and levels, "var levels must be a non-empty list")
    levels = [_number(q, "var level") for q in levels]
    _require(all(0.0 < q < 1.0 for q in levels), "var levels must lie in (0, 1)")
    return (_factor_weights(task.get("weights", [1.0 / n] * n), n, "var weights"),
            _number(task.get("notional", 1.0), "var notional"), levels)


def _parse_price_task(task: dict, prior: GaussianPrior, views: ViewSet):
    """A price task's (payoff, payoff spec node, discount), checked."""
    node = task.get("payoff")
    return (_make_payoff(node, prior.dim - views.k1), node,
            _number(task.get("discount", 0.0), "discount"))


def _parse_tail_task(task: dict, prior: GaussianPrior, views: ViewSet):
    """A tail task's (coord, s_max, n_points), checked by the probe's schedule and target."""
    _require(views.is_coordinate_linear, "tail task requires coordinate moment views")
    s_max = task.get("s_max")
    args = (_coord(task.get("coord", 0), prior.dim - views.k1, "tail"),
            None if s_max is None else _number(s_max, "tail s_max"),
            _integer(task.get("n_points", 10), "tail n_points", 1))
    _probe_points(views.marginal, *args[1:])
    _target_ratio(views.marginal, transform_prior(prior, views.view_map).covariance, args[0])
    return args


def _parse_sensitivities_task(task: dict, prior: GaussianPrior, views: ViewSet):
    """A sensitivities task's (r weights in Z coordinates, wrt_loc), checked."""
    node, wrt_loc = task.get("r"), task.get("wrt_loc", False)
    _require(isinstance(node, dict) and "weights" in node,
             "sensitivities task needs an object r with weights in Z coordinates")
    _known_keys(node, {"weights"}, "sensitivities r")
    _require(isinstance(wrt_loc, bool), f"sensitivities wrt_loc must be a boolean; got {wrt_loc!r}")
    if wrt_loc:
        _location_score(views.marginal)
    return _factor_weights(node["weights"], prior.dim, "sensitivities r.weights"), wrt_loc


# Task type -> (reader (task, prior, views) -> args of _TaskRunner._task_<type>, default
# n_samples, or None for a task that draws no samples and so takes no n_samples or seed key,
# the task's own keys besides type, n_samples and seed).
_TASKS = {
    "calibrate": (_parse_calibrate_task, 100_000, {"check_existence"}),
    "var": (_parse_var_task, 100_000, {"levels", "weights", "notional"}),
    "price": (_parse_price_task, 200_000, {"payoff", "discount"}),
    "tail": (_parse_tail_task, None, {"coord", "s_max", "n_points"}),
    "sensitivities": (_parse_sensitivities_task, None, {"r", "wrt_loc"}),
}


def _integer(value, what: str, low: int) -> int:
    _require(isinstance(value, (int, np.integer)) and not isinstance(value, bool)
             and value >= low, f"{what} must be an integer >= {low}; got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    """A finite JSON number; bools and numeric strings are refused."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max, f"{what} must be a finite number; got {value!r}")
    return float(value)


def _coord(value, y_dim: int, what: str) -> int:
    _require(type(value) is int and 0 <= value < y_dim,
             f"{what} coord must be an integer in [0, {y_dim}); got {value!r}")
    return value


def _factor_weights(value, n: int, what: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) == n,
             f"{what} must be {n} finite numbers, one per factor")
    return np.array([_number(w, what) for w in value])


def _parse_prior(node, base_dir: str):
    """The prior and its labels: one distinct non-empty name without '/' per factor."""
    _require(isinstance(node, dict), "prior must be an object")
    if "estimate_from" in node:
        _known_keys(node, {"estimate_from", "return_kind"}, "prior")
        _require(isinstance(node["estimate_from"], str), "prior estimate_from must be a path")
        series = load_price_csv(os.path.join(base_dir, node["estimate_from"]))
        prior, labels = estimate_prior(series, node.get("return_kind", "simple")), series.labels
    else:
        _known_keys(node, {"mean", "covariance", "labels"}, "prior")
        _require("mean" in node and "covariance" in node,
                 "prior needs mean+covariance or estimate_from")
        mean, cov = node["mean"], node["covariance"]
        n = len(mean) if isinstance(mean, list) else 0
        _require(n > 0 and isinstance(cov, list) and len(cov) == n,
                 "prior needs a non-empty mean and one covariance row per factor")
        prior = GaussianPrior(_factor_weights(mean, n, "prior mean"),
                              np.array([_factor_weights(row, n, "prior covariance") for row in cov]))
        labels = node.get("labels", [f"z{i + 1}" for i in range(n)])
    _require(isinstance(labels, (list, tuple)) and len(labels) == prior.dim
             and all(isinstance(s, str) and s and "/" not in s for s in labels)
             and len(set(labels)) == prior.dim,
             f"labels must be {prior.dim} distinct non-empty strings without '/'; got {labels!r}")
    return prior, tuple(labels)


def _parse_view_map(node, n: int) -> LinearViewMap:
    _require(isinstance(node, dict), "view_map must be an object")
    _known_keys(node, {"k1", "k2", "permutation", "matrix"}, "view_map")
    _require(not {"permutation", "matrix"} <= set(node),
             "view_map takes at most one of 'permutation' and 'matrix'")
    k1, k2 = (_integer(node.get(key), f"view_map {key}", 0) for key in ("k1", "k2"))
    _require(k1 <= k2 <= n, f"need 0 <= k1 <= k2 <= {n} (got k1={k1}, k2={k2})")
    if "permutation" in node:
        order = node["permutation"]
        _require(isinstance(order, list) and len(order) == n,
                 f"view_map permutation must list {n} indices")
        return LinearViewMap.from_permutation(
            [_integer(i, "view_map permutation entry", 0) for i in order], k1, k2)
    if "matrix" in node:
        rows = node["matrix"]
        _require(isinstance(rows, list) and len(rows) == n, f"view matrix must be {n}x{n}")
        return LinearViewMap(np.array([_factor_weights(row, n, "view matrix row") for row in rows]),
                             k1, k2)
    return LinearViewMap.identity(n, k1, k2)


def _parse_marginal(node):
    if node is None:
        return None
    _require(isinstance(node, dict), "marginal must be an object")
    kind = node.get("kind")
    if kind == "student_t":
        _known_keys(node, {"kind", "df", "loc", "scale"}, "student_t marginal")
        return StudentTDensity(*(_number(node.get(key), f"marginal {key}")
                                 for key in ("df", "loc", "scale")))
    if kind == "gaussian":
        _known_keys(node, {"kind", "mean", "stddev"}, "gaussian marginal")
        return GaussianDensity(_number(node.get("mean"), "marginal mean"),
                               _number(node.get("stddev"), "marginal stddev"))
    if kind == "grid":
        _known_keys(node, {"kind", "knots", "densities"}, "grid marginal")
        knots, densities = node.get("knots"), node.get("densities")
        _require(isinstance(knots, list) and isinstance(densities, list),
                 "grid marginal needs lists of knots and densities")
        return GridDensity(np.array([_number(s, "grid knot") for s in knots]),
                           np.array([_number(d, "grid density") for d in densities]))
    raise SpecValidationError(f"unknown marginal kind {kind!r}")


def _make_payoff(node, y_dim: int):
    """A declared payoff on one Y-block coordinate, with a finite strike.

    ``OptionPayoff`` rejects a kind it does not know with ValueError, which
    ``load_spec`` reports as invalid.
    """
    _require(isinstance(node, dict), "payoff must be an object")
    _known_keys(node, {"kind", "coord", "strike"}, "payoff")
    return OptionPayoff(node.get("kind"), _coord(node.get("coord", 0), y_dim, "payoff"),
                        _number(node.get("strike"), "payoff strike"))


def _parse_moments(nodes, y_dim: int):
    _require(isinstance(nodes, list), "moments must be a list")
    out = []
    for node in nodes:
        _require(isinstance(node, dict), "each moment view must be an object")
        _known_keys(node, {"target", "coord", "payoff"}, "moment view")
        _require("target" in node and ("coord" in node) != ("payoff" in node),
                 "each moment view needs a target and exactly one of 'coord' or 'payoff'")
        target = _number(node["target"], "moment target")
        if "coord" in node:
            out.append(MomentView(target=target, coord=_coord(node["coord"], y_dim, "moment")))
        else:
            out.append(MomentView(target=target, payoff=_make_payoff(node["payoff"], y_dim)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: list[str], rows, stamp: str):
    """The stamp line, the header through ``csv.writer`` and the numeric rows.

    Every cell is written with 17 significant digits, locale-independent, in
    one ``%``-format call over all cells; the line ends are csv's ``\\r\\n``.
    """
    cells = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(f"# generated {stamp}\n")
        csv.writer(fh).writerow(header)
        fh.write((line * cells.shape[0]) % tuple(cells.ravel().tolist()))


def _write_json(path: str, payload: dict):
    """The payload, arrays as nested lists, as sorted 2-space-indented JSON in one write.

    ``json.dumps`` joins the encoder's small chunks that ``json.dump`` would
    write one by one; the bytes are the same.  The indenting encoder prints a
    float subclass such as ``np.float64`` with ``float.__repr__``, so only
    arrays and other numpy floats need ``default``.
    """
    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, np.floating):
            return float(obj)
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")

    with open(path, "w") as fh:
        fh.write(json.dumps(payload, default=default, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Task execution
# ---------------------------------------------------------------------------


class _TaskRunner:
    def __init__(self, spec: CalibrationSpec):
        self.spec = spec
        self.stamp = dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds")
        self.report: CalibrationReport | None = None
        self._posterior = None

    def posterior(self):
        """The calibrated posterior: one dual problem, one Newton solve.

        ``build_dual_problem`` picks the backend once, and its problem hands out
        its own posterior type at Newton's multipliers.  Each takes the solver
        settings the spec gives; the rest keep their defaults.
        """
        if self._posterior is None:
            spec = self.spec
            problem = build_dual_problem(spec.prior, spec.views, **spec.solver["problem"])
            self.report = solve_lambda_newton(spec.prior, spec.views, problem=problem,
                                              **spec.solver["newton"])
            self._posterior = problem.posterior(self.report.lam)
        return self._posterior

    # -- tasks -------------------------------------------------------------
    def run_task(self, task: Task, stage: str, seed: int | None, samples: int | None):
        """Run a checked task; ``seed`` and ``samples``, when given, override its own.

        A task that draws no samples has neither, and takes neither.  Its
        report is ``task.name`` plus the file type, in ``stage``.
        """
        draws = () if task.n_samples is None else (
            task.n_samples if samples is None else samples, task.seed if seed is None else seed)
        getattr(self, f"_task_{task.type}")(*task.args, *draws, stage, task.name)

    def _task_calibrate(self, check_existence: bool, n_samples: int, seed: int, stage: str,
                        name: str):
        post = self.posterior()
        report = self.report
        existence = "unchecked"
        if check_existence:
            existence = existence_check(self.spec.prior, self.spec.views,
                                        n_samples=n_samples, seed=seed)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "lambda": report.lam,
            "residuals": report.residuals,
            "dual_value": report.dual_value,
            "iterations": report.iterations,
            "converged": report.converged,
            "tolerance": report.tolerance,
            "existence": existence,
            "independence_min_eig": report.independence_min_eig,
        }
        if self.spec.views.is_coordinate_linear:
            payload["posterior_mean_z"] = post.z_mean()
            self._write_density_files(post, stage)
        _write_json(os.path.join(stage, f"{name}.json"), payload)

    def _write_density_files(self, post: GaussianMarginalPosterior, stage: str):
        prior_t = post.prior_t
        targets = [("view", None)] if post.marginal is not None else []
        targets += [(name, i) for i, name in enumerate(self.spec.labels)]
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
            prior_pdf = GaussianDensity(mean_pr, sd_pr).pdf(grid)
            if idx is None:
                post_pdf = post.marginal.pdf(grid)
            else:
                post_pdf = posterior_marginal_linear(post, np.eye(post.view_map.n)[idx], grid)
            _write_csv(os.path.join(stage, f"density_{name}.csv"),
                       ["s", "prior_density", "posterior_density"],
                       np.column_stack([grid, prior_pdf, post_pdf]), self.stamp)

    def _task_var(self, weights, notional: float, levels: list, n_samples: int, seed: int,
                  stage: str, name: str):
        report = estimate_portfolio_var(self.posterior(), weights, notional, levels,
                                        n_samples, seed)
        _write_csv(os.path.join(stage, f"{name}.csv"),
                   ["level", "var", "std_error"], report.as_rows(), self.stamp)

    def _task_price(self, payoff, payoff_node: dict, discount: float, n_samples: int, seed: int,
                    stage: str, name: str):
        result = price_option(self.posterior(), payoff, discount,
                              n_samples=n_samples, seed=seed)
        _write_json(os.path.join(stage, f"{name}.json"), {
            "schema_version": SCHEMA_VERSION,
            "payoff": payoff_node,
            "discount": discount,
            "price": result.price,
            "std_error": result.std_error,
            "method": result.method,
        })

    def _task_tail(self, coord: int, s_max, n_points: int, stage: str, name: str):
        report = tail_ratio_probe(self.posterior(), coord=coord, s_max=s_max, n_points=n_points)
        rows = [(s, m, report.target_ratio)
                for s, m in zip(report.probe_points, report.measured_ratios)]
        _write_csv(os.path.join(stage, f"{name}.csv"),
                   ["s", "measured_ratio", "target_ratio"], rows, self.stamp)

    def _task_sensitivities(self, w_z, wrt_loc: bool, stage: str, name: str):
        post = self.posterior()
        # r = w . Z = (V^-T w) . (x, y)
        r_view = w_z @ post.view_map.inverse
        report = sensitivities(post, r_weights=r_view, wrt_loc=wrt_loc)
        _write_json(os.path.join(stage, f"{name}.json"), {
            "schema_version": SCHEMA_VERSION,
            "d_pi_d_c": report.d_pi_d_c,
            "V": report.v_matrix,
            "U": report.u_matrix,
            "d_pi_d_loc": report.d_pi_d_loc,
        })


def _validation_error(detail: str) -> int:
    """Print the one validation error line; returns its exit code, 3."""
    print(json.dumps({"error": "validation", "detail": detail}), file=sys.stderr)
    return 3


def run(spec_path: str, out_dir: str, seed: int | None = None,
        samples: int | None = None) -> int:
    """Execute a spec file's tasks; returns the process exit code.

    ``seed`` (>= 0) and ``samples`` (>= 1) override every task's seed and
    sample count; other values are a validation error, like a bad spec.  So
    is an ``out_dir`` that cannot be made or written, and one that holds a
    directory under a report's name, found before any report is moved.
    """
    try:
        if seed is not None:
            _integer(seed, "--seed", 0)
        if samples is not None:
            _integer(samples, "--samples", 1)
        spec = load_spec(spec_path)
    except SpecValidationError as exc:
        return _validation_error(str(exc))
    try:
        os.makedirs(out_dir, exist_ok=True)
        stage = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    except OSError as exc:
        return _validation_error(f"--out {out_dir!r} is not a usable directory: {exc}")
    runner = _TaskRunner(spec)
    try:
        for task in spec.tasks:
            try:
                runner.run_task(task, stage, seed, samples)
            except (TiltcalError, ValueError) as exc:
                print(json.dumps({"task": task.type,
                                  "code": type(exc).__name__,
                                  "detail": str(exc)}), file=sys.stderr)
                return 1
        names = sorted(os.listdir(stage))
        # os.replace cannot put a file over a directory; it replaces a link itself
        taken = [name for name in names
                 if os.path.isdir(dest := os.path.join(out_dir, name)) and not os.path.islink(dest)]
        if taken:
            return _validation_error(f"--out {out_dir!r} holds directories named {taken}; "
                                     "no report was written")
        for name in names:
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
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
    return run(args.spec, args.out, args.seed, args.samples)


if __name__ == "__main__":
    raise SystemExit(main())
