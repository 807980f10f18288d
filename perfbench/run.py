"""Benchmark of whole ``tiltcal calibrate`` report jobs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload six_index_heavy_tail --seed 7 \\
        --seconds 24 --trace 0

Each workload is a spec file under ``perfbench/workloads``; the seed is
written into every task's ``seed`` field.  With ``--trace 0`` the run measures

* ``setup_s``: median wall time of fresh interpreters that import tiltcal
  and load the spec (what every CLI invocation pays),
* ``run_s``, ``peak_rss_mb``, ``ok_ratio`` and ``var_se_bp`` from
  ``worker.py``, one fresh process that runs the jobs one after another.

With ``--trace 1`` it prints the per-layer figures of a traced run instead
and writes the recorded spans to ``.perfbench_trace/<workload>-<seed>.jsonl``.
Nothing runs concurrently with a timed job.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("six_index_heavy_tail", "six_index_mean_audit", "option_chain")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import sys, tiltcal; from tiltcal.cli import load_spec; load_spec(sys.argv[1])"


def metric_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    """src first on PYTHONPATH; BLAS threads capped at the usable CPU count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            env[var] = str(min(max(int(env[var]), 1), nproc))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


def provenance(workload: str, seed: int, env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"workload": workload, "seed": seed, "git_commit": commit,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "blas_env": {v: env[v] for v in BLAS_VARS}, "load": "closed loop, 1 client"}


def write_spec(workload: str, seed: int, work: str) -> str:
    with open(os.path.join(HERE, "workloads", f"{workload}.json")) as fh:
        doc = json.load(fh)
    for task in doc["tasks"]:
        if "seed" in task:
            task["seed"] = seed
    path = os.path.join(work, "spec.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def setup_times(spec: str, env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, spec], env=env, cwd=ROOT,
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tiltcal report-job benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child and removes its work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "tiltcal", "__init__.py")):
        return fail(f"no tiltcal sources under {os.path.join(ROOT, 'src')}")

    env = child_env()
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        spec = write_spec(args.workload, args.seed, work)
        try:
            setup = setup_times(spec, env) if args.trace == 0 else []
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
                   "--spec", spec, "--work", work, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.trace:
                trace_dir = os.path.join(ROOT, ".perfbench_trace")
                os.makedirs(trace_dir, exist_ok=True)
                cmd += ["--trace-out",
                        os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl")]
            proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, text=True,
                                  stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            return fail(f"child process failed: {exc}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    jobs = result["jobs"]
    failed = sum(1 for j in jobs if j["errors"])
    for index, job in enumerate(jobs):
        for err in job["errors"]:
            print(f"job {index} ({job['phase']}) FAILED: {err}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args.workload, args.seed, env)}))
    timed = [j["seconds"] for j in jobs if j["phase"] == "timed" and j["seconds"] is not None]
    ses = [j["var_se_bp"] for j in jobs if "var_se_bp" in j]
    if args.trace == 0:
        if not timed or result["rss_kb"] is None:
            return fail("no timed job completed")
        units = metric_units("end_to_end")
        q1, q3 = quartiles(timed)
        metrics = {
            "run_s": statistics.median(timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["rss_kb"] / 1024.0,
            "ok_ratio": (len(jobs) - failed) / len(jobs),
        }
        print(f"{args.workload} seed={args.seed}: run_s median {metrics['run_s']:.4f} s "
              f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(timed)}); setup_s median "
              f"{metrics['setup_s']:.4f} s (n={len(setup)}); peak_rss_mb "
              f"{metrics['peak_rss_mb']:.1f} MB; failed_ratio {failed}/{len(jobs)}; "
              f"var_se_bp {statistics.median(ses) if ses else float('nan'):.4f} bp")
    else:
        traced = [j["layers"] for j in jobs if "layers" in j]
        if not traced or not ses or "trace_overhead_s" not in result:
            return fail("no traced job passed its checks")
        units = metric_units("per_layer")
        # low median: a value of one traced job, so counts stay whole numbers
        metrics = {name: statistics.median_low(j[name] for j in traced) for name in traced[0]}
        metrics["montecarlo.var_se_bp"] = statistics.median_low(ses)
        metrics["trace.overhead_s"] = result["trace_overhead_s"]
        print(f"{args.workload} seed={args.seed}: medians of {len(traced)} traced jobs")
        for name, value in metrics.items():
            print(f"  {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
