"""``import tiltcal`` loads only numpy, ``scipy.linalg`` and ``scipy.special``.

Every CLI call pays the package's import time, so the scipy submodules that
only some tasks use are imported where they are called: ``scipy.optimize``
on the first hull-gauge LP, which every existence check solves whatever the
number of views, and ``scipy.integrate`` only when the benchmark tracer
reads ``analytic.integrate``.  ``scipy.spatial`` is never loaded.  These
tests run fresh interpreters, because the test session itself has long since
imported all of scipy.
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
    # The gauge comes from LPs: scipy.optimize arrives with the first check.
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


def _importers(stderr: str, prefix: str) -> list[list[str]]:
    """For each ``-X importtime`` line of a module under ``prefix``, the
    modules whose import caused it, innermost first.

    A line is printed when its import finishes, indented two spaces per
    nesting level, so its importer is the next line with less indentation.
    """
    rows = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and not line.endswith("imported package"):
            field = line.rsplit("|", 1)[-1]
            rows.append((len(field) - len(field.lstrip()), field.strip()))
    chains, stack = [], []
    for indent, name in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if name == prefix or name.startswith(prefix + "."):
            chains.append([outer for _, outer in reversed(stack)])
        stack.append((indent, name))
    return chains


def test_two_view_existence_check_loads_scipy_spatial_only_through_scipy_optimize(tmp_path):
    """No Qhull hull: a k = 2 check solves LPs like every other k.

    ``scipy.optimize`` itself imports ``scipy.spatial`` (through its shgo
    module), so the check pins that every ``scipy.spatial`` import happens
    inside the ``scipy.optimize`` import, never on tiltcal's own account.
    """
    spec = six_index_spec([{"type": "calibrate", "check_existence": True, "n_samples": 2_000}])
    spec.update(moments=spec["moments"][:2], view_map=dict(spec["view_map"], k2=3))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tiltcal", "calibrate",
         "--spec", _write_spec(tmp_path, spec), "--out", str(tmp_path / "out")],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads((tmp_path / "out" / "calibration.json").read_text())["existence"] \
        == "interior"
    assert _importers(proc.stderr, "scipy.optimize")
    spatial = _importers(proc.stderr, "scipy.spatial")
    assert [chain for chain in spatial
            if not any(m == "scipy.optimize" or m.startswith("scipy.optimize.")
                       for m in chain)] == []
