"""Show that the output checks are not vacuous.

For each workload this runs one job, checks that its outputs pass, then
corrupts them one way at a time and checks that the corruption is caught:

* ``var.csv`` with every VaR figure scaled by 1.05,
* one density file deleted (on workloads that write density files),
* every multiplier in ``calibration.json`` scaled by 1.01.

Run from the root of a source checkout:

    python3 perfbench/selftest.py [--seed 7] [workload ...]

Exits 0 when every clean output passes and every corruption fails its check.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run as bench  # noqa: E402
from tiltcal import cli  # noqa: E402


def scale_var(out_dir: str):
    path = os.path.join(out_dir, "var.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    with open(path, "w", newline="") as fh:
        fh.writelines(l + "\n" for l in lines if l.startswith("#"))
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for level, var, se in rows[1:]:
            writer.writerow([level, format(float(var) * 1.05, ".17g"), se])
    return True


def drop_density(out_dir: str):
    names = sorted(f for f in os.listdir(out_dir) if f.startswith("density_"))
    if not names:
        return False
    os.unlink(os.path.join(out_dir, names[0]))
    return True


def perturb_lambda(out_dir: str):
    path = os.path.join(out_dir, "calibration.json")
    report = checks.read_json(path)
    report["lambda"] = [1.01 * v for v in report["lambda"]]
    with open(path, "w") as fh:
        json.dump(report, fh)
    return True


CORRUPTIONS = {"var.csv x 1.05": scale_var, "drop a density file": drop_density,
               "lambda x 1.01": perturb_lambda}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="corrupt outputs; each check must fail")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=list(bench.WORKLOADS))
    args = parser.parse_args(argv)
    work = os.path.join(bench.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    ok = True
    try:
        for workload in args.workloads:
            spec_path = bench.write_spec(workload, args.seed, work)
            spec = checks.read_json(spec_path)
            clean = os.path.join(work, workload)
            code = cli.run(spec_path, clean)
            errors = checks.CHECKS[workload](spec, clean) if code == 0 else [f"exit {code}"]
            print(f"{workload}: clean outputs -> {'pass' if not errors else errors}")
            ok &= not errors
            for label, corrupt in CORRUPTIONS.items():
                bad = clean + "-bad"
                shutil.copytree(clean, bad)
                if corrupt(bad):  # False: this workload has nothing to corrupt
                    errors = checks.CHECKS[workload](spec, bad)
                    print(f"{workload}: {label} -> "
                          f"{'caught: ' + errors[0] if errors else 'NOT CAUGHT'}")
                    ok &= bool(errors)
                shutil.rmtree(bad)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
