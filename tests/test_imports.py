"""``import tiltcal`` loads only numpy, ``scipy.linalg`` and ``scipy.special``.

Every CLI call pays the package's import time, so the scipy submodules that
only some tasks use are imported where they are called: ``scipy.optimize``
on the first hull-gauge LP, ``scipy.spatial`` on the first 2-D or 3-D hull,
and ``scipy.integrate`` only when the benchmark tracer reads
``analytic.integrate``.  These tests run fresh interpreters, because the
test session itself has long since imported all of scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import tiltcal
from test_cli import _write_spec, six_index_spec

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = sorted((ROOT / "perfbench" / "workloads").glob("*.json"))
DEFERRED = ("scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.integrate")

# Loads every workload spec, then runs a k = 5 existence check; prints which
# deferred modules were loaded at each step and whether the two names that
# the benchmark tracer rebinds were bound from the start.
PROBE = """
import json, sys
import tiltcal
from tiltcal import analytic, calibration, cli

deferred, specs, existence_spec, out = json.loads(sys.argv[1])

def loaded():
    return sorted(m for m in deferred if m in sys.modules)

for path in specs:
    cli.load_spec(path)
report = {"after_load_spec": loaded(),
          "bound": ["linprog" in vars(calibration), "integrate" in vars(analytic)]}
report["exit"] = cli.run(existence_spec, out)
report["after_existence"] = loaded()
import scipy.integrate
report["integrate_quad"] = analytic.integrate.quad is scipy.integrate.quad
print(json.dumps(report))
"""


def _env():
    """This checkout's ``src`` first on the path, as in an uninstalled run."""
    src = str(Path(tiltcal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_import_and_load_spec_leave_optional_scipy_unloaded(tmp_path):
    assert len(WORKLOADS) == 3
    existence = six_index_spec(
        [{"type": "calibrate", "check_existence": True, "n_samples": 2_000}]
    )
    args = [list(DEFERRED), [str(p) for p in WORKLOADS],
            _write_spec(tmp_path, existence), str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(args)],
                          env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_load_spec"] == []
    assert report["bound"] == [True, True]
    assert report["exit"] == 0
    # k = 5 takes the gauge from one LP: scipy.optimize arrives with it.
    assert "scipy.optimize" in report["after_existence"]
    assert "scipy.stats" not in report["after_existence"]
    assert report["integrate_quad"] is True


def test_python_m_tiltcal_heavy_tail_run_imports_no_optional_scipy(tmp_path):
    tasks = [
        {"type": "calibrate"},
        {"type": "var", "levels": [0.99, 0.95], "notional": 1e6,
         "n_samples": 20_000, "seed": 3},
        {"type": "tail", "coord": 0},
    ]
    spec = _write_spec(tmp_path, six_index_spec(tasks))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tiltcal", "calibrate",
         "--spec", spec, "--out", str(out)],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert {"calibration.json", "var.csv", "tail.csv"} <= set(os.listdir(out))
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "tiltcal.cli" in imported
    assert [m for m in imported
            if any(m == d or m.startswith(d + ".") for d in DEFERRED)] == []
