"""Spec-file driven runs: prior estimation, reports, exit codes, atomicity."""

import copy
import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import tiltcal as tc
from tiltcal import cli
from tiltcal.cli import main, run
from conftest import SIX_INDEX_COV, SIX_INDEX_LABELS, SIX_INDEX_MEAN
from oracles import (
    sinh_outer_rule,
    solve_tilted_gaussian_legendre,
    tilted_gaussian_legendre,
    view_tensor_loop,
    write_csv_per_cell,
    write_json_streaming,
)


# ---------------------------------------------------------------------------
# Price ingestion and prior estimation
# ---------------------------------------------------------------------------


def _dates(n):
    import datetime as dt

    start = dt.date(2010, 1, 4)
    return tuple(start + dt.timedelta(weeks=i) for i in range(n))


def moment_matched_prices(mean, cov, n_returns=120, seed=0, start=100.0):
    """Price paths whose simple returns have exactly the given sample moments."""
    rng = np.random.default_rng(seed)
    dim = len(mean)
    r = rng.standard_normal((n_returns, dim))
    r = r - r.mean(axis=0)
    chol_sample = np.linalg.cholesky(np.cov(r, rowvar=False, ddof=1))
    r = r @ np.linalg.inv(chol_sample).T @ np.linalg.cholesky(cov).T + np.asarray(mean)
    prices = start * np.cumprod(np.vstack([np.ones(dim), 1.0 + r]), axis=0)
    return prices


class TestEstimatePrior:
    def test_constant_prices_are_degenerate(self):
        prices = np.full((40, 2), 50.0)
        series = tc.PriceSeries(_dates(40), prices, ("a", "b"))
        prior = tc.estimate_prior(series)
        np.testing.assert_allclose(prior.mean, 0.0)
        np.testing.assert_allclose(prior.covariance, 0.0)

    def test_recovers_known_moments_within_sampling_error(self):
        rng = np.random.default_rng(1)
        mean = np.array([0.001, 0.002])
        cov = np.array([[4e-4, 1e-4], [1e-4, 3e-4]])
        n = 10_000
        r = rng.multivariate_normal(mean, cov, size=n)
        prices = 100 * np.cumprod(np.vstack([np.ones(2), 1 + r]), axis=0)
        series = tc.PriceSeries(_dates(n + 1), prices, ("a", "b"))
        prior = tc.estimate_prior(series)
        se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(prior.mean - mean) < 3 * se)
        dd = np.diag(cov)
        se_cov = np.sqrt((np.outer(dd, dd) + cov**2) / n)
        assert np.all(np.abs(prior.covariance - cov) < 3 * se_cov)

    def test_six_index_fixture_reproduces_exact_moments(self):
        prices = moment_matched_prices(SIX_INDEX_MEAN, SIX_INDEX_COV)
        series = tc.PriceSeries(_dates(prices.shape[0]), prices, SIX_INDEX_LABELS)
        prior = tc.estimate_prior(series)
        np.testing.assert_allclose(prior.mean, SIX_INDEX_MEAN, atol=1e-14)
        np.testing.assert_allclose(prior.covariance, SIX_INDEX_COV, atol=1e-12)

    def test_too_short_series_rejected(self):
        prices = np.full((20, 1), 10.0)
        series = tc.PriceSeries(_dates(20), prices, ("a",))
        with pytest.raises(tc.InsufficientData):
            tc.estimate_prior(series)

    def test_log_returns_supported(self):
        prices = np.exp(np.linspace(0.0, 0.4, 41))[:, None] * 100
        series = tc.PriceSeries(_dates(41), prices, ("a",))
        prior = tc.estimate_prior(series, return_kind="log")
        assert prior.mean[0] == pytest.approx(0.01, abs=1e-12)
        assert prior.covariance[0, 0] == pytest.approx(0.0, abs=1e-20)


class TestLoadPriceCsv:
    def test_drops_gap_rows_with_warning(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "date,a,b\n2020-01-01,1.0,2.0\n2020-01-08,,2.1\n2020-01-15,1.2,2.2\n"
        )
        with pytest.warns(UserWarning, match="dropping row 3"):
            series = tc.load_price_csv(str(path))
        assert series.prices.shape == (2, 2)

    def test_non_increasing_dates_rejected(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,a\n2020-01-08,1.0\n2020-01-01,1.1\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            tc.load_price_csv(str(path))

    def test_missing_date_header_rejected(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(tc.SpecValidationError):
            tc.load_price_csv(str(path))


# ---------------------------------------------------------------------------
# Spec runs
# ---------------------------------------------------------------------------


WORKLOAD_DIR = Path(__file__).parents[1] / "perfbench" / "workloads"


def two_asset_spec(tasks=None):
    return {
        "schema_version": 1,
        "prior": {
            "mean": [1.0, 1.0],
            "covariance": [[9.1, 3.0], [3.0, 1.1]],
            "labels": ["a1", "a2"],
        },
        "view_map": {"matrix": [[0.7, 0.3], [0.0, 1.0]], "k1": 1, "k2": 2},
        "marginal": {"kind": "student_t", "df": 3, "loc": 1.5, "scale": 2.412},
        "moments": [{"coord": 0, "target": 1.5}],
        "tasks": tasks or [{"type": "calibrate"}],
    }


def six_index_spec(tasks):
    order = [1, 0, 2, 3, 4, 5]
    scale = float(np.sqrt(SIX_INDEX_COV[1, 1] / 3.0))
    return {
        "schema_version": 1,
        "prior": {
            "mean": SIX_INDEX_MEAN.tolist(),
            "covariance": SIX_INDEX_COV.tolist(),
            "labels": list(SIX_INDEX_LABELS),
        },
        "view_map": {"permutation": order, "k1": 1, "k2": 6},
        "marginal": {"kind": "student_t", "df": 3, "loc": 0.0028, "scale": scale},
        "moments": [
            {"coord": 0, "target": 0.001},
            {"coord": 1, "target": 0.001},
            {"coord": 2, "target": 0.0013},
            {"coord": 3, "target": 0.0024},
            {"coord": 4, "target": 0.0035},
        ],
        "tasks": tasks,
    }


def payoff_spec():
    """Call-payoff moment view on a Gaussian pair, calibrated then priced."""
    return {
        "schema_version": 1,
        "prior": {"mean": [0.0, 0.1], "covariance": [[1.0, 0.6], [0.6, 1.2]]},
        "view_map": {"k1": 1, "k2": 1},
        "marginal": {"kind": "gaussian", "mean": 0.0, "stddev": 1.0},
        "moments": [
            {"payoff": {"kind": "call", "coord": 0, "strike": 0.4}, "target": 0.45}
        ],
        "solver": {"n_x": 2001, "n_y": 64},
        "tasks": [
            {"type": "calibrate"},
            {"type": "price",
             "payoff": {"kind": "call", "coord": 0, "strike": 0.8},
             "discount": 0.01},
        ],
    }


def student_t_payoff_spec(tasks):
    """A call-payoff moment view on a Gaussian pair with a Student-t view, calibrated first."""
    return payoff_spec() | {
        "marginal": {"kind": "student_t", "df": 4, "loc": 0.0, "scale": 0.8},
        "tasks": [{"type": "calibrate"}, *tasks],
    }


def _write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _write_price_csv(path, labels, prices=None):
    """A six-index weekly price history with the given column names."""
    if prices is None:
        prices = moment_matched_prices(SIX_INDEX_MEAN, SIX_INDEX_COV)
    lines = ["date," + ",".join(labels)]
    for d, row in zip(_dates(prices.shape[0]), prices):
        lines.append(d.isoformat() + "," + ",".join(f"{v:.12f}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def _read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    header, body = rows[0], rows[1:]
    return header, np.array([[float(c) for c in row] for row in body])


class TestRun:
    def test_two_asset_run_emits_reports(self, tmp_path):
        tasks = [
            {"type": "calibrate"},
            {"type": "tail", "coord": 0},
            {"type": "sensitivities", "r": {"weights": [0.0, 1.0]}},
            {"type": "var", "levels": [0.95, 0.75], "notional": 1e6,
             "weights": [0.5, 0.5], "n_samples": 30_000, "seed": 5},
        ]
        out = tmp_path / "out"
        code = run(_write_spec(tmp_path, two_asset_spec(tasks)), str(out))
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == [
            "calibration.json", "density_a1.csv", "density_a2.csv",
            "density_view.csv", "sensitivities.json", "tail.csv", "var.csv",
        ]
        report = json.loads((out / "calibration.json").read_text())
        assert report["converged"] is True
        assert report["schema_version"] == 1

    def test_view_density_column_is_exact(self, tmp_path):
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, two_asset_spec()), str(out)) == 0
        header, data = _read_csv(out / "density_view.csv")
        assert header == ["s", "prior_density", "posterior_density"]
        g = tc.StudentTDensity(df=3.0, loc=1.5, scale=2.412)
        np.testing.assert_allclose(data[:, 2], g.pdf(data[:, 0]), atol=1e-10)

    def test_six_index_var_report(self, tmp_path):
        tasks = [
            {"type": "calibrate"},
            {"type": "var", "levels": [0.9975, 0.995, 0.9925, 0.95, 0.75, 0.5],
             "notional": 1e6, "n_samples": 30_000, "seed": 3},
        ]
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, six_index_spec(tasks)), str(out)) == 0
        header, data = _read_csv(out / "var.csv")
        assert header == ["level", "var", "std_error"]
        assert data.shape[0] == 6
        assert np.all(data[:, 1] > 0)
        assert np.all(np.diff(data[:, 1]) <= 0)  # levels listed high to low

    def test_estimated_prior_from_csv(self, tmp_path):
        _write_price_csv(tmp_path / "prices.csv", SIX_INDEX_LABELS)
        doc = six_index_spec([{"type": "calibrate"}])
        doc["prior"] = {"estimate_from": "prices.csv"}
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 0
        report = json.loads((out / "calibration.json").read_text())
        assert report["converged"] is True

    def test_payoff_moment_with_price_task(self, tmp_path):
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, payoff_spec()), str(out)) == 0
        price = json.loads((out / "price.json").read_text())
        assert price["method"] == "quadrature"
        assert 0.0 < price["price"] < 1.0

    def test_malformed_spec_exits_3_without_output(self, tmp_path):
        doc = two_asset_spec()
        doc["view_map"]["k1"] = 7  # exceeds the factor count
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 3
        assert not out.exists() or os.listdir(out) == []

    def test_runtime_task_error_exits_1_without_partial_output(self, tmp_path, capsys):
        # 1,000 draws expect 2.5 beyond the 0.9975 level, below the floor of 20
        doc = two_asset_spec(
            [{"type": "calibrate"}, {"type": "var", "levels": [0.9975], "n_samples": 1000}]
        )
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 1
        assert "InsufficientSamples" in capsys.readouterr().err
        assert os.listdir(out) == []  # staging discarded atomically

    def test_singular_viewed_schur_block_exits_1(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "prior": {"mean": [0.0, 0.0, 0.0],
                      "covariance": [[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]]},
            "view_map": {"k1": 1, "k2": 3},
            "marginal": {"kind": "gaussian", "mean": 0.0, "stddev": 1.0},
            "moments": [{"coord": 0, "target": 0.3}, {"coord": 1, "target": 0.3}],
            "tasks": [{"type": "calibrate"}],
        }
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 1
        assert "SingularConditionalCovariance" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_payoff_view_on_six_index_model_exits_1_with_typed_code(self, tmp_path, capsys):
        """Five conditional coordinates exceed the 3-D Gauss-Hermite tensor rule."""
        doc = six_index_spec([{"type": "calibrate"}])
        doc["moments"] = [
            {"payoff": {"kind": "call", "coord": 0, "strike": 0.0}, "target": 0.01}
        ]
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["code"] == "QuadratureFailure"
        assert "up to 3 dims" in error["detail"]
        assert os.listdir(out) == []

    def test_closed_form_tasks_reject_payoff_views(self, tmp_path):
        doc = student_t_payoff_spec([{"type": "tail", "coord": 0}])
        doc["solver"] = {"n_x": 501, "n_y": 16}
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 3
        assert not out.exists() or os.listdir(out) == []

    def test_sensitivities_run_on_payoff_views(self, tmp_path):
        """dPi/dc matches a central difference of re-calibrations, dPi/d loc one at fixed lam.

        The view is the declared call and E[y] is E[(y)+] - E[(-y)+], so both
        sides integrate Y | X exactly."""
        task = {"type": "sensitivities", "r": {"weights": [0.0, 1.0]}, "wrt_loc": True}
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, student_t_payoff_spec([task])), str(out)) == 0
        report = json.loads((out / "sensitivities.json").read_text())
        prior = tc.GaussianPrior([0.0, 0.1], [[1.0, 0.6], [0.6, 1.2]])
        call = tc.OptionPayoff("call", 0, 0.4)

        def problem(target, loc=0.0):
            views = tc.ViewSet(tc.LinearViewMap.identity(2, 1, 1),
                               tc.StudentTDensity(df=4.0, loc=loc, scale=0.8),
                               (tc.MomentView(target=target, payoff=call),))
            return tc.QuadratureProblem.from_prior(prior, views, n_x=2001, n_y=64)

        def pi(problem, lam):
            post = problem.posterior(lam)
            return (post.expectation(tc.OptionPayoff("call", 0, 0.0))
                    - post.expectation(tc.OptionPayoff("put", 0, 0.0)))

        def calibrated(target):
            p = problem(target)
            return p, tc.solve_lambda_newton(prior, p.views, problem=p, tol=1e-13).lam

        eps = 1e-4
        d_pi_d_c = (pi(*calibrated(0.45 + eps)) - pi(*calibrated(0.45 - eps))) / (2 * eps)
        assert report["d_pi_d_c"][0] == pytest.approx(d_pi_d_c, rel=1e-7)
        lam = calibrated(0.45)[1]
        d_pi_d_loc = (pi(problem(0.45, eps), lam) - pi(problem(0.45, -eps), lam)) / (2 * eps)
        # moving loc moves the outer nodes; the score integral stays on them
        assert report["d_pi_d_loc"] == pytest.approx(d_pi_d_loc, rel=1e-5)

    @pytest.mark.filterwarnings("error")
    def test_sensitivities_that_overflow_exit_1(self, tmp_path, capsys):
        """r weights of 1e308 on the heavy-tail spec make dPi/dc inf, which JSON cannot hold.

        dPi/d loc = w . slope overflows too, without a warning: the one line on
        stderr is the JSON error."""
        doc = json.loads((WORKLOAD_DIR / "six_index_heavy_tail.json").read_text())
        doc["tasks"] = [{"type": "sensitivities", "r": {"weights": [1e308] * 6}, "wrt_loc": True}]
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["code"] == "ValueError" and "overflow" in error["detail"]
        assert os.listdir(out) == []

    def test_not_converged_exits_2(self, tmp_path):
        """A call's expectation is never negative, so no multiplier reaches a target of -1."""
        doc = {
            "schema_version": 1,
            "prior": {"mean": [0.0, 0.0], "covariance": [[1.0, 0.3], [0.3, 1.0]]},
            "view_map": {"k1": 1, "k2": 1},
            "marginal": {"kind": "gaussian", "mean": 0.0, "stddev": 1.0},
            "moments": [
                {"payoff": {"kind": "call", "coord": 0, "strike": 0.0}, "target": -1.0}
            ],
            "solver": {"n_x": 201, "n_y": 16, "max_iter": 10},
            "tasks": [{"type": "calibrate"}],
        }
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 2
        assert json.loads((out / "calibration.json").read_text())["converged"] is False

    def test_repeated_task_types_write_numbered_reports(self, tmp_path):
        """Two var tasks used to leave one var.csv, the second's, and exit 0.

        Repeats are numbered in spec order, and each report is the one its task
        writes in a spec of its own.
        """
        doc = json.loads((WORKLOAD_DIR / "six_index_mean_audit.json").read_text())
        first, second = ({"type": "var", "levels": [0.95, 0.75], "notional": 1e6,
                          "weights": weights, "n_samples": 20_000, "seed": 4}
                         for weights in ([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.2] * 5 + [0.0]))
        out = tmp_path / "both"
        assert run(_write_spec(tmp_path, doc | {"tasks": [first, second]}), str(out)) == 0
        assert sorted(os.listdir(out)) == ["var.csv", "var_2.csv"]
        for name, task in (("var.csv", first), ("var_2.csv", second)):
            alone = tmp_path / name
            assert run(_write_spec(tmp_path, doc | {"tasks": [task]}, f"{name}.json"),
                       str(alone)) == 0
            assert _read_csv(out / name)[1].tolist() == _read_csv(alone / "var.csv")[1].tolist()
        assert _read_csv(out / "var.csv")[1].tolist() != _read_csv(out / "var_2.csv")[1].tolist()

    def test_every_repeated_type_is_numbered(self, tmp_path):
        tail = {"type": "tail", "coord": 0}
        sens = {"type": "sensitivities", "r": {"weights": [0.0, 1.0]}}
        var = {"type": "var", "levels": [0.95], "n_samples": 2_000}
        tasks = [{"type": "calibrate"}, tail, var, sens, tail, var, sens, var]
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, two_asset_spec(tasks)), str(out)) == 0
        assert sorted(os.listdir(out)) == [
            "calibration.json", "density_a1.csv", "density_a2.csv", "density_view.csv",
            "sensitivities.json", "sensitivities_2.json", "tail.csv", "tail_2.csv",
            "var.csv", "var_2.csv", "var_3.csv"]
        doc = payoff_spec()
        doc["tasks"] += doc["tasks"][1:]
        out = tmp_path / "prices"
        assert run(_write_spec(tmp_path, doc, "prices.json"), str(out)) == 0
        assert sorted(os.listdir(out)) == ["calibration.json", "price.json", "price_2.json"]

    def test_reruns_are_byte_identical_modulo_timestamp(self, tmp_path):
        tasks = [
            {"type": "calibrate"},
            {"type": "var", "levels": [0.95, 0.75], "notional": 1e6,
             "n_samples": 20_000, "seed": 9},
        ]
        spec = _write_spec(tmp_path, two_asset_spec(tasks))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(spec, str(out1)) == 0
        assert run(spec, str(out2)) == 0
        for name in os.listdir(out1):
            a = [l for l in (out1 / name).read_text().splitlines()
                 if not l.startswith("#")]
            b = [l for l in (out2 / name).read_text().splitlines()
                 if not l.startswith("#")]
            assert a == b, name

    def test_report_numbers_are_full_precision(self, tmp_path):
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, two_asset_spec()), str(out)) == 0
        _, data = _read_csv(out / "density_view.csv")
        g = tc.StudentTDensity(df=3.0, loc=1.5, scale=2.412)
        # 17 significant digits round-trip float64 exactly
        np.testing.assert_array_equal(data[:, 2], g.pdf(data[:, 0]))

    def test_missing_sections_rejected(self, tmp_path):
        doc = two_asset_spec()
        del doc["moments"]
        assert run(_write_spec(tmp_path, doc), str(tmp_path / "out")) == 3
        doc = two_asset_spec()
        del doc["schema_version"]
        assert run(_write_spec(tmp_path, doc), str(tmp_path / "out2")) == 3

    @pytest.mark.parametrize("bad", [
        {"weights": [1.0]},  # one entry for two factors
        {"weights": [0.5, float("nan")]},
        {"notional": float("inf")},
        {"levels": [0.95, 1.5]},
        {"levels": [0.0]},
    ])
    def test_invalid_var_task_exits_3_without_output(self, tmp_path, bad):
        task = {"type": "var", "levels": [0.95], "n_samples": 20_000} | bad
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, two_asset_spec([task])), str(out)) == 3
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("doc", [
        two_asset_spec([{"type": "tail", "coord": 0, "s_max": "abc"}]),
        six_index_spec([{"type": "calibrate"}, {"type": "tail", "coord": 9}]),
        two_asset_spec([{"type": "price", "discount": 0.01}]),
        two_asset_spec([{"type": "price", "payoff": {"kind": "call", "coord": 0}}]),
        payoff_spec() | {"moments": [{"payoff": {"kind": "call", "coord": 0},
                                      "target": 0.45}]},
        two_asset_spec([{"type": "sensitivities", "r": 5}]),
        two_asset_spec([{"type": "sensitivities"}]),
        two_asset_spec([{"type": "sensitivities", "r": {"weights": [1.0]}}]),
        two_asset_spec([{"type": "sensitivities", "r": {"weights": [0.0, "x"]}}]),
        two_asset_spec([{"type": "sensitivities", "r": {"weights": [0.0, 1.0]},
                         "wrt_loc": "yes"}]),
        two_asset_spec([{"type": "price", "payoff": {"kind": "call", "strike": 1.0},
                         "n_samples": 0}]),
        two_asset_spec([{"type": "var", "n_samples": "100000"}]),
        two_asset_spec([{"type": "var", "n_samples": 3e4}]),
        two_asset_spec([{"type": "calibrate", "check_existence": True, "seed": -1}]),
        two_asset_spec([{"type": "var", "seed": "7"}]),
        two_asset_spec([{"type": "var", "seed": True}]),
        two_asset_spec([{"type": []}]),
        two_asset_spec([{"type": "calibrate", "check_existence": "no"}]),
        two_asset_spec([{"type": "var", "notional": "1e6"}]),
        # what a task needs of the marginal view is checked before calibration
        two_asset_spec([{"type": "sensitivities", "r": {"weights": [0.0, 1.0]}, "wrt_loc": True}])
        | {"marginal": {"kind": "grid", "knots": [0.0, 1.5, 3.0], "densities": [0.0, 1.0, 0.0]}},
        two_asset_spec([{"type": "tail", "coord": 0}])
        | {"marginal": {"kind": "gaussian", "mean": 1.5, "stddev": 2.412}},
        json.loads((WORKLOAD_DIR / "six_index_mean_audit.json").read_text())
        | {"tasks": [{"type": "tail", "coord": 0}]},
        two_asset_spec([{"type": "tail", "coord": 0, "s_max": 0.0}]),
        # X and Y uncorrelated: the tail ratio has no limit
        two_asset_spec([{"type": "calibrate"}, {"type": "tail", "coord": 0}])
        | {"prior": {"mean": [1.0, 1.0], "covariance": [[9.1, 0.0], [0.0, 1.1]]},
           "view_map": {"k1": 1, "k2": 2}},
        two_asset_spec([{"type": "calibrate"}, {"type": "tail", "coord": 0}])
        | {"prior": {"mean": [1.0, 1.0], "covariance": [[9.1, -3.0], [-3.0, 1.1]]},
           "view_map": {"k1": 1, "k2": 2}},
        two_asset_spec([{"type": "calibrate"}, {"type": "calibrate", "check_existence": True}]),
        # the kind is OptionPayoff's to check
        two_asset_spec([{"type": "price", "payoff": {"kind": "digital", "strike": 1.0}}]),
        payoff_spec() | {"moments": [{"payoff": {"kind": ["call"], "coord": 0, "strike": 0.4},
                                      "target": 0.45}]},
    ], ids=["tail-s_max-text", "tail-coord-outside-y", "price-no-payoff",
            "price-no-strike", "moment-no-strike", "sens-r-number", "sens-no-r",
            "sens-weights-short", "sens-weights-text", "sens-wrt_loc-text",
            "price-n_samples-0", "var-n_samples-text",
            "var-n_samples-float", "calibrate-seed-negative", "var-seed-text",
            "var-seed-bool", "type-list", "check_existence-text", "var-notional-text",
            "sens-wrt_loc-grid", "tail-gaussian", "tail-k1-0", "tail-s_max-below-schedule",
            "tail-zero-covariance", "tail-negative-covariance", "calibrate-twice",
            "price-unknown-kind", "moment-kind-list"])
    def test_malformed_task_fields_exit_3(self, tmp_path, capsys, doc):
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "validation"
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("doc", [
        two_asset_spec() | {"moments": [{"coord": 0.9, "target": 1.5}]},
        six_index_spec([{"type": "calibrate"}]) | {"moments": [
            {"coord": 0, "target": 0.001}, {"coord": True, "target": 0.001},
            {"coord": 2, "target": 0.0013}, {"coord": 3, "target": 0.0024},
            {"coord": 4, "target": 0.0035}]},
        two_asset_spec() | {"moments": [{"coord": 0, "target": 1.5, "payoff": {
            "kind": "call", "coord": 0, "strike": 1.0}}]},
        two_asset_spec() | {"moments": [{"coord": 0, "target": "1.5"}]},
        two_asset_spec() | {"moments": [{"coord": 0, "target": True}]},
        two_asset_spec() | {"view_map": {"matrix": [[0.7, 0.3], [0.0, 1.0]],
                                         "k1": True, "k2": 2}},
        two_asset_spec() | {"view_map": {"permutation": [0, "a"], "k1": 1, "k2": 2}},
        two_asset_spec() | {"view_map": {"permutation": 5, "k1": 1, "k2": 2}},
        two_asset_spec() | {"marginal": {"kind": "student_t", "df": "3", "loc": 1.5,
                                         "scale": 2.412}},
        two_asset_spec() | {"prior": {"mean": ["1.0", 1.0],
                                      "covariance": [[9.1, 3.0], [3.0, 1.1]]}},
        two_asset_spec() | {"prior": {"mean": [1.0, 1.0],
                                      "covariance": [[9.1, 3.0], [3.0, 1.1]], "labels": 5}},
        two_asset_spec() | {"prior": {"mean": [1.0, 1.0], "covariance": [[9.1, 3.0], [3.0, 1.1]],
                                      "labels": ["a/b", "c"]}},
        two_asset_spec() | {"prior": {"mean": [1.0, 1.0], "covariance": [[9.1, 3.0], [3.0, 1.1]],
                                      "labels": ["", "c"]}},
        two_asset_spec() | {"prior": {"mean": [1.0, 1.0], "covariance": [[9.1, 3.0], [3.0, 1.1]],
                                      "labels": ["a", "a"]}},
        six_index_spec([{"type": "calibrate"}]) | {"prior": {"estimate_from": "missing.csv"}},
        six_index_spec([{"type": "calibrate"}]) | {"prior": {"estimate_from": 5}},
        six_index_spec([{"type": "calibrate"}]) | {"prior": {"estimate_from": "header.csv"}},
        six_index_spec([{"type": "calibrate"}]) | {"prior": {"estimate_from": "prices.csv",
                                                             "frequency": "monthly"}},
        six_index_spec([{"type": "calibrate"}]) | {"prior": {"estimate_from": "prices.csv",
                                                             "return_kind": "weird"}},
        six_index_spec([{"type": "calibrate"}]) | {"prior": {"estimate_from": "slashed.csv"}},
        two_asset_spec() | {"view_map": {"permutation": [1, 0],
                                         "matrix": [[0.7, 0.3], [0.0, 1.0]], "k1": 1, "k2": 2}},
        two_asset_spec() | {"prior": {"mean": [1.0, 1.0], "covariance": [[1.0, 2.0], [2.0, 1.0]]}},
    ], ids=["moment-coord-float", "moment-coord-bool", "moment-coord-and-payoff",
            "moment-target-text", "moment-target-bool", "k1-bool", "permutation-text",
            "permutation-number", "df-text", "mean-text", "labels-number", "labels-slash",
            "labels-empty", "labels-duplicate", "csv-missing", "csv-number", "csv-no-rows", "csv-monthly",
            "csv-return-kind", "csv-slashed-label", "permutation-and-matrix",
            "covariance-not-psd"])
    def test_malformed_model_values_exit_3(self, tmp_path, capsys, doc):
        _write_price_csv(tmp_path / "prices.csv", SIX_INDEX_LABELS)
        _write_price_csv(tmp_path / "slashed.csv", ("asx/x",) + SIX_INDEX_LABELS[1:])
        (tmp_path / "header.csv").write_text("date," + ",".join(SIX_INDEX_LABELS) + "\n")
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "validation"
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("doc, key", [
        (two_asset_spec() | {"comment": "x"}, "comment"),
        (two_asset_spec() | {"prior": {"mean": [1.0, 1.0], "covariance": [[9.1, 3.0], [3.0, 1.1]],
                                       "lables": ["a1", "a2"]}}, "lables"),
        (six_index_spec([{"type": "calibrate"}]) | {"prior": {
            "estimate_from": "prices.csv", "labels": list(SIX_INDEX_LABELS)}}, "labels"),
        (two_asset_spec() | {"view_map": {"matrix": [[0.7, 0.3], [0.0, 1.0]], "k1": 1, "k2": 2,
                                          "k3": 2}}, "k3"),
        (two_asset_spec() | {"marginal": {"kind": "student_t", "df": 3, "loc": 1.5,
                                          "scale": 2.412, "dof": 4}}, "dof"),
        (payoff_spec() | {"marginal": {"kind": "gaussian", "mean": 0.0, "stddev": 1.0,
                                       "loc": 0.0}}, "loc"),
        (two_asset_spec() | {"moments": [{"coord": 0, "target": 1.5, "trget": 2.0}]}, "trget"),
        (payoff_spec() | {"moments": [{"payoff": {"kind": "call", "coord": 0, "strike": 0.4,
                                                  "strke": 0.5}, "target": 0.45}]}, "strke"),
        (two_asset_spec([{"type": "var", "n_sample": 5000}]), "n_sample"),
        (two_asset_spec([{"type": "calibrate", "check_existance": True}]), "check_existance"),
        (two_asset_spec([{"type": "price", "discount": 0.01, "payoff": {
            "kind": "put", "coord": 0, "strike": 1.0, "notional": 2.0}}]), "notional"),
        (two_asset_spec([{"type": "tail", "coord": 0, "n_point": 3}]), "n_point"),
        (two_asset_spec([{"type": "sensitivities", "r": {"weights": [0.0, 1.0]},
                          "wrt": True}]), "wrt"),
        (two_asset_spec([{"type": "sensitivities", "r": {"weights": [0.0, 1.0],
                                                         "wrt_loc": True}}]), "wrt_loc"),
        (payoff_spec() | {"solver": {"n_x": 201, "ny": 8}}, "ny"),
    ], ids=["root", "prior-moments", "prior-csv-labels", "view_map", "student_t", "gaussian",
            "moment", "payoff", "var", "calibrate", "price-payoff", "tail", "sensitivities",
            "sensitivities-r", "solver"])
    def test_unknown_key_exits_3_naming_it(self, tmp_path, capsys, doc, key):
        _write_price_csv(tmp_path / "prices.csv", SIX_INDEX_LABELS)
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "validation"
        assert repr(key) in error["detail"]
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("key, value", [("n_samples", 50_000), ("seed", 3)])
    @pytest.mark.parametrize("task", [
        {"type": "tail", "coord": 0},
        {"type": "sensitivities", "r": {"weights": [0.0, 1.0]}},
    ], ids=["tail", "sensitivities"])
    def test_sample_keys_on_a_task_that_draws_none_exit_3(self, tmp_path, capsys, task, key,
                                                          value):
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, two_asset_spec([task | {key: value}])), str(out)) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "validation"
        assert repr(key) in error["detail"] and task["type"] in error["detail"]
        assert not out.exists() or os.listdir(out) == []

    def test_quadrature_price_ignores_its_sample_keys(self, tmp_path):
        """A node-tensor price reads neither n_samples nor seed: the reports are identical."""
        reports = []
        for i, keys in enumerate([{}, {"n_samples": 5, "seed": 11}]):
            doc = payoff_spec()
            doc["tasks"][1] |= keys
            out = tmp_path / f"out{i}"
            assert run(_write_spec(tmp_path, doc, f"spec{i}.json"), str(out)) == 0
            reports.append(json.loads((out / "price.json").read_text()))
        assert reports[0]["method"] == "quadrature"
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("text", [json.dumps(two_asset_spec())[:-7], ""],
                             ids=["truncated", "empty"])
    def test_malformed_json_text_exits_3(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert run(str(path), str(out)) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "validation"
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("k1", [1, 0])
    def test_collinear_price_columns_exit_1(self, tmp_path, capsys, k1):
        """Two proportional price columns give a singular viewed conditional covariance."""
        prices = moment_matched_prices(SIX_INDEX_MEAN, SIX_INDEX_COV)
        prices[:, 4] = 2.0 * prices[:, 3]
        _write_price_csv(tmp_path / "prices.csv", SIX_INDEX_LABELS, prices)
        doc = six_index_spec([{"type": "calibrate"}]) | {"prior": {"estimate_from": "prices.csv"}}
        if k1 == 0:
            del doc["marginal"]
            doc["view_map"] = {"k1": 0, "k2": 5}
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["code"] == "SingularConditionalCovariance"
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("doc", [
        two_asset_spec([
            {"type": "calibrate", "check_existence": True, "n_samples": 3000, "seed": 1},
            {"type": "var", "levels": [0.95, 0.75], "notional": 10.0,
             "weights": [0.5, 0.5], "n_samples": 3000, "seed": 2},
            {"type": "price", "payoff": {"kind": "call", "coord": 0, "strike": 1.0},
             "discount": 0.01, "n_samples": 3000, "seed": 3},
            {"type": "tail", "coord": 0, "s_max": 20.0, "n_points": 3},
            {"type": "sensitivities", "r": {"weights": [0.0, 1.0]}, "wrt_loc": True},
        ]) | {"solver": {"n_x": 201, "n_y": 8, "tol": 1e-8, "max_iter": 50}},
        payoff_spec() | {"view_map": {"permutation": [0, 1], "k1": 1, "k2": 1},
                         "solver": {"n_x": 201, "n_y": 8}},
    ], ids=["every-task", "payoff-view"])
    def test_junk_leaf_never_escapes_run(self, tmp_path, capsys, doc):
        """Each leaf of the spec in turn takes four values of a fixed junk list."""
        junk = [None, True, False, "x", "1", 1.5, -1, 0, 2, [], {}, [1], float("nan"), 1e308]
        failures = []
        for i, path in enumerate(_leaves(doc)):
            for value in (junk[(4 * i + j) % len(junk)] for j in range(4)):
                case = copy.deepcopy(doc)
                node = case
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                spec = _write_spec(tmp_path, case)
                try:
                    code = run(spec, str(tmp_path / "out"))
                except Exception as exc:
                    failures.append((path, value, repr(exc)))
                else:
                    if code not in (0, 1, 2, 3):
                        failures.append((path, value, code))
        assert failures == []

    @pytest.mark.parametrize("solver", [
        {"n_x": 0}, {"n_x": "abc"}, {"n_x": True}, {"n_y": 1.5}, {"n_y": 0},
        {"max_iter": 0}, {"max_iter": 2.0}, {"tol": -1}, {"tol": 0}, {"tol": float("nan")},
        {"tol": float("inf")}, {"tol": "abc"},
    ], ids=lambda solver: "-".join(f"{k}={v!r}" for k, v in solver.items()))
    def test_malformed_solver_values_exit_3(self, tmp_path, capsys, solver):
        out = tmp_path / "out"
        doc = payoff_spec() | {"solver": solver}
        assert run(_write_spec(tmp_path, doc), str(out)) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "validation"
        assert "solver" in error["detail"]
        assert not out.exists() or os.listdir(out) == []

    def test_samples_override_reaches_the_existence_check(self, tmp_path, monkeypatch):
        calls = []
        check = cli.existence_check

        def spy(*args, **kwargs):
            calls.append(kwargs["n_samples"])
            return check(*args, **kwargs)

        monkeypatch.setattr(cli, "existence_check", spy)
        doc = two_asset_spec([{"type": "calibrate", "check_existence": True,
                               "n_samples": 20_000}])
        spec = _write_spec(tmp_path, doc)
        assert run(spec, str(tmp_path / "o1")) == 0
        assert run(spec, str(tmp_path / "o2"), samples=5_000) == 0
        assert calls == [20_000, 5_000]

    @pytest.mark.parametrize("overrides", [{"samples": 0}, {"seed": -1}, {"samples": 1.5}])
    def test_invalid_overrides_exit_3(self, tmp_path, capsys, overrides):
        out = tmp_path / "out"
        doc = two_asset_spec([{"type": "price", "payoff": {"kind": "call", "strike": 1.0}}])
        assert run(_write_spec(tmp_path, doc), str(out), **overrides) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "validation"
        assert not out.exists() or os.listdir(out) == []

    def test_unknown_task_rejected(self, tmp_path):
        doc = two_asset_spec([{"type": "frobnicate"}])
        assert run(_write_spec(tmp_path, doc), str(tmp_path / "out")) == 3

    def test_existence_unchecked_without_check_existence(self, tmp_path):
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, two_asset_spec()), str(out)) == 0
        report = json.loads((out / "calibration.json").read_text())
        assert report["existence"] == "unchecked"

    def test_existence_diagnostic_in_calibration_report(self, tmp_path):
        doc = two_asset_spec(
            [{"type": "calibrate", "check_existence": True, "n_samples": 20_000}]
        )
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 0
        report = json.loads((out / "calibration.json").read_text())
        assert report["existence"] == "interior"

    def test_existence_without_moment_views_is_interior(self, tmp_path):
        """A t(4) view alone: the empty target is interior; the check used to exit 1."""
        doc = {
            "schema_version": 1,
            "prior": {"mean": [0.0, 0.1], "covariance": [[1.0, 0.6], [0.6, 1.2]]},
            "view_map": {"k1": 1, "k2": 1},
            "marginal": {"kind": "student_t", "df": 4, "loc": 0.0, "scale": 0.8},
            "moments": [],
            "tasks": [{"type": "calibrate", "check_existence": True, "n_samples": 2_000}],
        }
        out = tmp_path / "out"
        assert run(_write_spec(tmp_path, doc), str(out)) == 0
        report = json.loads((out / "calibration.json").read_text())
        assert report["existence"] == "interior"


def _leaves(node, path=()):
    """Key paths to every scalar and empty container of a JSON tree."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


WORKLOAD_SPECS = sorted(WORKLOAD_DIR.glob("*.json"))


@pytest.mark.parametrize("path", WORKLOAD_SPECS, ids=lambda path: path.stem)
def test_benchmark_specs_load_as_checked_tasks(path):
    tasks = json.loads(path.read_text())["tasks"]
    spec = cli.load_spec(str(path))
    draws_none = ("tail", "sensitivities")  # no n_samples or seed
    assert [(t.type, t.n_samples, t.seed) for t in spec.tasks] == [
        (t["type"], None, None) if t["type"] in draws_none else
        (t["type"], t.get("n_samples", 200_000 if t["type"] == "price" else 100_000),
         t.get("seed", 0)) for t in tasks]


_INDEX_DENSITIES = {f"density_{label}.csv" for label in SIX_INDEX_LABELS}
WORKLOAD_OUTPUTS = {
    "six_index_heavy_tail": _INDEX_DENSITIES | {"calibration.json", "density_view.csv",
                                                "sensitivities.json", "tail.csv", "var.csv"},
    "six_index_mean_audit": _INDEX_DENSITIES | {"calibration.json", "var.csv"},
    "option_chain": {"calibration.json", "price.json", "var.csv"},
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_OUTPUTS))
def test_benchmark_specs_run(tmp_path, name):
    """Every benchmark workload runs end to end, at fewer samples, and writes all its reports."""
    out = tmp_path / "out"
    assert run(str(WORKLOAD_DIR / f"{name}.json"), str(out), samples=20_000) == 0
    assert set(os.listdir(out)) == WORKLOAD_OUTPUTS[name]


def _lambda_twin(make_payoff):
    """``_make_payoff`` giving the plain lambda that evaluates each declared payoff."""
    def make(node, y_dim):
        payoff = make_payoff(node, y_dim)
        coord, strike = payoff.coord, payoff.strike
        if payoff.kind == "call":
            return lambda x, y: np.maximum(y[..., coord] - strike, 0.0)
        return lambda x, y: np.maximum(strike - y[..., coord], 0.0)
    return make


def _option_chain_doc(**solver):
    """The option_chain workload spec with the given solver settings."""
    doc = json.loads((WORKLOAD_DIR / "option_chain.json").read_text())
    doc["solver"] |= solver
    return doc


def test_declared_payoffs_match_the_legendre_oracle(tmp_path, monkeypatch):
    """option_chain's declared calls and puts are solved and priced exactly: lambda and the
    price match piecewise Gauss-Legendre on the same outer nodes to 1e-12.  Their lambda
    twins stay on the Gauss-Hermite tensor, whose lambda error shrinks from n_y = 64 to 128."""
    doc = _option_chain_doc(n_x=2000, tol=1e-13)
    path = _write_spec(tmp_path, doc)
    out = tmp_path / "declared"
    assert run(path, str(out), samples=20_000) == 0
    lam = np.array(json.loads((out / "calibration.json").read_text())["lambda"])
    price = json.loads((out / "price.json").read_text())["price"]
    spec = cli.load_spec(path)
    problem = tc.build_dual_problem(spec.prior, spec.views, n_x=2000)
    m, s = problem.law.mean(problem.x_nodes)[:, 0], float(np.sqrt(problem.law.cov[0, 0]))
    h = lambda y: view_tensor_loop(spec.views.moments, np.zeros((y.size, 1)), y[:, None])
    strikes = [view.payoff.strike for view in spec.views.moments]
    want = solve_tilted_gaussian_legendre(m, s, problem.x_weights, h, spec.views.targets,
                                          strikes)
    np.testing.assert_allclose(lam, want, rtol=1e-12, atol=0)
    task = next(task for task in doc["tasks"] if task["type"] == "price")
    strike = task["payoff"]["strike"]
    value = tilted_gaussian_legendre(m, s, problem.x_weights, h, want, strikes + [strike],
                                     f=lambda y: np.maximum(y - strike, 0.0))[3]
    assert price == pytest.approx(np.exp(-task["discount"]) * value, rel=1e-12, abs=0)
    monkeypatch.setattr(cli, "_make_payoff", _lambda_twin(cli._make_payoff))
    gaps = []
    for n_y in (64, 128):
        twin = tmp_path / f"twin-{n_y}"
        twin_doc = _option_chain_doc(n_x=2000, n_y=n_y, tol=1e-13)
        assert run(_write_spec(tmp_path, twin_doc, f"twin-{n_y}.json"), str(twin),
                   samples=20_000) == 0
        twin_lam = np.array(json.loads((twin / "calibration.json").read_text())["lambda"])
        gaps.append(np.abs(twin_lam / want - 1).max())
    assert 0 < gaps[1] < gaps[0] < 1e-4


def test_option_chain_lambda_matches_the_dense_sinh_oracle(tmp_path):
    """option_chain's lambda is within 1e-9 of a 2,001-node sinh rule over |x| <= 1e5 scale
    with Gauss-Legendre inner integrals; the midpoint rule it replaced was 3.8e-3 off."""
    path = str(WORKLOAD_DIR / "option_chain.json")
    assert run(path, str(tmp_path), samples=20_000) == 0
    lam = json.loads((tmp_path / "calibration.json").read_text())["lambda"]
    doc = json.loads(Path(path).read_text())
    mu, cov = np.array(doc["prior"]["mean"]), np.array(doc["prior"]["covariance"])
    g = doc["marginal"]
    x, w = sinh_outer_rule(lambda x: stats.t.pdf(x, g["df"], g["loc"], g["scale"]),
                           g["loc"], g["scale"], 2001, 1e5)
    m = mu[1] + cov[0, 1] / cov[0, 0] * (x - mu[0])
    s = float(np.sqrt(cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0]))
    payoffs = [tc.OptionPayoff(**view["payoff"]) for view in doc["moments"]]
    h = lambda y: np.vstack([payoff(None, y[:, None]) for payoff in payoffs])
    want = solve_tilted_gaussian_legendre(m, s, w, h, [view["target"] for view in doc["moments"]],
                                          [payoff.strike for payoff in payoffs])
    np.testing.assert_allclose(lam, want, rtol=1e-9, atol=0)


def _scaled_option_chain(c: float) -> dict:
    """option_chain with every quantity in units c times the workload's: the prior mean and
    the view's location and scale times c, the covariance times c^2, strikes and targets
    times c."""
    doc = json.loads((WORKLOAD_DIR / "option_chain.json").read_text())
    doc["prior"]["mean"] = [c * v for v in doc["prior"]["mean"]]
    doc["prior"]["covariance"] = [[c * c * v for v in row] for row in doc["prior"]["covariance"]]
    doc["marginal"]["loc"] *= c
    doc["marginal"]["scale"] *= c
    for node in doc["moments"]:
        node["target"] *= c
    for node in doc["moments"] + [task for task in doc["tasks"] if task["type"] == "price"]:
        node["payoff"]["strike"] *= c
    return doc


@pytest.mark.parametrize("c", [1e-4, 1e-6])
def test_option_chain_in_other_units_solves_the_same_model(tmp_path, c):
    """The Newton stop is unit-free: lambda c and price / c do not move with the units."""
    reports = {}
    for scale in (1.0, c):
        out = tmp_path / f"c{scale:g}"
        assert run(_write_spec(tmp_path, _scaled_option_chain(scale), f"c{scale:g}.json"),
                   str(out), samples=20_000) == 0
        reports[scale] = [json.loads((out / name).read_text())
                          for name in ("calibration.json", "price.json")]
    (base, base_price), (scaled, scaled_price) = reports[1.0], reports[c]
    assert scaled["converged"] and scaled["iterations"] == base["iterations"]
    np.testing.assert_allclose(np.array(scaled["lambda"]) * c, base["lambda"], rtol=1e-9, atol=0)
    assert scaled_price["price"] / c == pytest.approx(base_price["price"], rel=1e-9, abs=0)


def test_option_chain_run_builds_no_inner_rule(tmp_path, monkeypatch):
    """Every task of option_chain is exact: no Gauss-Hermite rule is built for it."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("GaussianConditional.rule was called")

    monkeypatch.setattr(tc.GaussianConditional, "rule", refuse)
    assert run(str(WORKLOAD_DIR / "option_chain.json"), str(tmp_path / "out"),
               samples=20_000) == 0


@pytest.mark.parametrize("n_rows", [0, 1, 401])
def test_csv_rows_match_the_per_cell_writer(tmp_path, n_rows):
    """One format call over every cell writes what csv.writer did cell by cell."""
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, 5e-324, -2.5e-310, 1e22,
               0.1, 1.0 / 3.0, -123456789.0, 7, np.float64(0.30000000000000004)]
    rng = np.random.default_rng(4)
    cells = special + list(rng.standard_normal(3 * n_rows) * 10.0 ** rng.integers(-30, 30,
                                                                                   3 * n_rows))
    rows = [tuple(cells[3 * i:3 * i + 3]) for i in range(n_rows)]
    header = ["s", "prior_density", "posterior_density"]
    cli._write_csv(tmp_path / "one_call.csv", header, rows, "stamp")
    write_csv_per_cell(tmp_path / "per_cell.csv", header, rows, "stamp")
    assert ((tmp_path / "one_call.csv").read_bytes()
            == (tmp_path / "per_cell.csv").read_bytes())
    cli._write_csv(tmp_path / "array.csv", header, np.array(rows, dtype=float).reshape(-1, 3),
                   "stamp")
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "per_cell.csv").read_bytes()


def test_json_report_matches_the_streaming_writer(tmp_path):
    """One json.dumps write gives the bytes json.dump streamed, special floats included."""
    rng = np.random.default_rng(3)
    payload = {
        "schema_version": 1,
        "signed_zero": -0.0,
        "specials": [np.nan, np.inf, -np.inf, np.float64(-0.0), 5e-324, 1e308],
        "matrix": rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-20, 20, (3, 4)),
        "nested": {"b": {"z": np.array([[np.nan, -0.0], [np.inf, 1.0 / 3.0]]), "a": None},
                   "a": [True, False, "text", 7, {"deep": np.float64(0.1)}]},
        "empty": {"list": [], "dict": {}, "matrix": np.zeros((0, 2))},
    }
    cli._write_json(str(tmp_path / "one_write.json"), payload)
    write_json_streaming(tmp_path / "streamed.json", payload)
    assert ((tmp_path / "one_write.json").read_bytes()
            == (tmp_path / "streamed.json").read_bytes())


class TestMainEntryPoint:
    def test_calibrate_subcommand(self, tmp_path):
        spec = _write_spec(tmp_path, two_asset_spec())
        out = tmp_path / "out"
        assert main(["calibrate", "--spec", spec, "--out", str(out)]) == 0
        assert (out / "calibration.json").exists()

    def test_seed_and_samples_overrides(self, tmp_path):
        tasks = [{"type": "var", "levels": [0.9], "notional": 1.0,
                  "n_samples": 30_000, "seed": 1}]
        spec = _write_spec(tmp_path, two_asset_spec(tasks))
        o1, o2, o3 = (tmp_path / n for n in ("o1", "o2", "o3"))
        assert main(["calibrate", "--spec", spec, "--out", str(o1)]) == 0
        assert main(["calibrate", "--spec", spec, "--out", str(o2),
                     "--seed", "1", "--samples", "30000"]) == 0
        assert main(["calibrate", "--spec", spec, "--out", str(o3),
                     "--seed", "2"]) == 0
        v1 = _read_csv(o1 / "var.csv")[1]
        v2 = _read_csv(o2 / "var.csv")[1]
        v3 = _read_csv(o3 / "var.csv")[1]
        np.testing.assert_array_equal(v1, v2)
        assert v1[0, 1] != v3[0, 1]
