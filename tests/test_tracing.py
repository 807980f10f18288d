"""The benchmark tracer still finds every name it instruments.

``perfbench/tracing.py`` rebinds tiltcal functions, methods and two scipy
entry points by name, so a refactor that moves one of them would break a
traced benchmark run.  This loads the tracer read-only, runs CLI jobs under
it and checks that the dual evaluations and the LP solves were recorded and
that every binding is restored afterwards.
"""

import importlib.util
from pathlib import Path

from tiltcal import cli
from test_cli import _write_spec, payoff_spec, six_index_spec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    """Every attribute of the traced modules and of the traced classes."""
    modules = {name: importlib.import_module(f"{tracing.PACKAGE}.{name}")
               for name in tracing.MODULES}
    snapshot = {(tracing.PACKAGE, attr): value
                for attr, value in vars(importlib.import_module(tracing.PACKAGE)).items()}
    for name, module in modules.items():
        snapshot.update({(name, attr): value for attr, value in vars(module).items()})
    for mod_name, cls_name, _ in tracing.TIMED_METHODS + tracing.COUNTED_METHODS:
        cls = getattr(modules[mod_name], cls_name)
        snapshot.update({(cls_name, attr): value for attr, value in vars(cls).items()})
    return snapshot


def test_traced_run_counts_dual_and_lp_and_restores_bindings(tmp_path):
    tracing = _load_tracing()
    before = _bindings(tracing)
    recorder = tracing.SpanRecorder()
    existence = six_index_spec(
        [{"type": "calibrate", "check_existence": True, "n_samples": 2_000}]
    )
    with tracing.instrumented(recorder), recorder.job_scope("smoke"):
        assert cli.run(_write_spec(tmp_path, payoff_spec()), str(tmp_path / "payoff")) == 0
        assert cli.run(_write_spec(tmp_path, existence, "existence.json"),
                       str(tmp_path / "existence")) == 0
    assert recorder.calls("smoke", ["calibration.QuadratureProblem.dual_state"]) > 0
    assert recorder.calls("smoke", ["calibration.linprog"]) > 0
    assert recorder.calls("smoke", ["cli.run"]) == 2
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_six_index_existence_check_solves_one_lp(tmp_path):
    """The k = 5 existence check takes the hull gauge from a single LP."""
    tracing = _load_tracing()
    recorder = tracing.SpanRecorder()
    existence = six_index_spec(
        [{"type": "calibrate", "check_existence": True, "n_samples": 2_000}]
    )
    with tracing.instrumented(recorder), recorder.job_scope("existence"):
        assert cli.run(_write_spec(tmp_path, existence), str(tmp_path / "out")) == 0
    assert recorder.calls("existence", ["calibration.linprog"]) == 1
