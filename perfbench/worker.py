"""One benchmark run inside a fresh interpreter: jobs, checks and layer metrics.

Started by ``run.py`` with ``src`` on PYTHONPATH.  The loop is closed with
one client: each job is one ``tiltcal.cli.run(spec, out)`` call, and the
next job starts only after the previous one and its output check are done.

* Job 0 runs first, untimed: the peak RSS of this process right after it is
  the peak RSS of a fresh process that runs one job, and it warms caches.
* Timed jobs follow for ``--seconds`` (at least one; no job is started that
  would, at the last job's pace, end after the window).  With
  ``--trace 1`` the window is split: plain jobs for the first half, then
  jobs under ``tracing.instrumented`` for the second half, so the difference
  of the two medians is the tracing overhead.
* Every job's outputs are checked outside the timed region.  Outputs that are
  byte-identical to an already checked set (the ``# generated`` time stamp
  aside) share its verdict, since the oracles are functions of the bytes.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import checks
from tiltcal import cli
from tracing import SpanRecorder, instrumented

TIME_METRICS = {
    "analytic.marginal_s": ("analytic.posterior_marginal_linear",
                            "analytic.posterior_marginal_y1"),
    "analytic.build_posterior_s": ("analytic.build_posterior",),
    "densities.ppf_s": ("densities.GaussianDensity.ppf", "densities.StudentTDensity.ppf",
                        "densities.GridDensity.ppf"),
    "calibration.existence_s": ("calibration.existence_check",),
    "calibration.build_problem_s": ("calibration.build_dual_problem",),
    "calibration.newton_s": ("calibration.solve_lambda_newton",),
    "montecarlo.sample_s": ("montecarlo.sample_posterior",),
    "montecarlo.var_s": ("montecarlo.estimate_var",),
    "montecarlo.price_s": ("montecarlo.price_option",),
    "tails.probe_s": ("tails.tail_ratio_probe",),
    "sensitivity.sens_s": ("sensitivity.sensitivities",),
    "cli.load_spec_s": ("cli.load_spec",),
}
CALL_METRICS = {
    "analytic.marginal_points": ("analytic.quad",),
    "densities.pdf_calls": ("densities.GaussianDensity.pdf", "densities.StudentTDensity.pdf",
                            "densities.GridDensity.pdf"),
    "calibration.lp_solves": ("calibration.linprog",),
    "calibration.problem_builds": ("calibration.build_dual_problem",),
    "calibration.dual_evals": ("calibration.GaussianLinearProblem.dual_state",
                               "calibration.QuadratureProblem.dual_state"),
    "priors.transform_calls": ("priors.transform_prior",),
}


def layer_metrics(recorder, job, out_dir: str) -> dict:
    """Per-layer figures of one traced job."""
    out = {name: recorder.inclusive(job, spans) for name, spans in TIME_METRICS.items()}
    out.update({name: recorder.calls(job, spans) for name, spans in CALL_METRICS.items()})
    values = recorder.values[job]
    out["calibration.newton_iters"] = sum(values["calibration.newton_iters"])
    out["montecarlo.samples_drawn"] = sum(values["montecarlo.samples_drawn"])
    out["montecarlo.ess_ratio"] = min(values["montecarlo.ess_ratio"], default=1.0)
    out["cli.self_s"] = recorder.self_time(job, "cli.run")
    files = [os.path.join(out_dir, f) for f in os.listdir(out_dir)]
    out["cli.files_written"] = len(files)
    out["cli.bytes_written"] = sum(os.path.getsize(f) for f in files)
    return out


def output_digest(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            for line in fh:
                if not line.startswith(b"# generated "):
                    digest.update(line)
    return digest.hexdigest()


class Runner:
    def __init__(self, workload: str, spec_path: str, work_dir: str):
        self.workload = workload
        self.spec_path = spec_path
        with open(spec_path) as fh:
            self.spec = json.load(fh)
        self.work_dir = work_dir
        self.jobs: list[dict] = []
        self.verdicts: dict[str, list[str]] = {}

    def job(self, phase: str, recorder=None) -> dict:
        index = len(self.jobs)
        out_dir = os.path.join(self.work_dir, f"job-{index}")
        gc.collect()
        record = {"phase": phase}
        try:
            start = time.perf_counter()
            if recorder is None:
                code = cli.run(self.spec_path, out_dir)
            else:
                with recorder.job_scope(index):
                    code = cli.run(self.spec_path, out_dir)
            record["seconds"] = time.perf_counter() - start
        except Exception:  # a crash is a failed job, not a failed benchmark
            record.update(seconds=None, code=None, errors=[traceback.format_exc(limit=3)])
            self.jobs.append(record)
            shutil.rmtree(out_dir, ignore_errors=True)
            return record
        record["code"] = code
        if phase == "first":
            record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["errors"] = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            record["errors"] += self.check(out_dir)
            if not record["errors"]:
                record["var_se_bp"] = checks.var_se_bp(self.spec, out_dir)
        if recorder is not None and os.path.isdir(out_dir):
            record["layers"] = layer_metrics(recorder, index, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.jobs.append(record)
        return record

    def check(self, out_dir: str) -> list[str]:
        try:
            key = output_digest(out_dir)
            if key not in self.verdicts:
                self.verdicts[key] = checks.CHECKS[self.workload](self.spec, out_dir)
            return self.verdicts[key]
        except Exception:  # unreadable or malformed outputs fail the check
            return [traceback.format_exc(limit=3)]

    def window(self, seconds: float, phase: str, recorder=None) -> list[float]:
        """Run jobs while the next one, as long as the last, still ends in time."""
        times = []
        start = time.perf_counter()
        while True:
            record = self.job(phase, recorder)
            if record["seconds"] is None:
                return times
            times.append(record["seconds"])
            if time.perf_counter() - start + record["seconds"] > seconds:
                return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="with --trace 1, write the spans here as JSON lines")
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.spec, args.work)
    first = runner.job("first")
    result = {"rss_kb": first.get("rss_kb"), "jobs": runner.jobs}
    if args.trace == 0:
        runner.window(args.seconds, "timed")
    else:
        plain = runner.window(args.seconds / 2, "timed")
        recorder = SpanRecorder()
        with instrumented(recorder):
            traced = runner.window(args.seconds / 2, "traced", recorder)
        if plain and traced:
            result["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
        recorder.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
