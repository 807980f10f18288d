"""In-memory span recorder and outside-in instrumentation of tiltcal.

A span is one call of an instrumented function: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it started, and
the job it belongs to.  Spans and counters stay in memory while jobs run;
``SpanRecorder.dump`` writes them out as JSON lines once the run is over.

``instrumented(recorder)`` wraps tiltcal from the outside, without editing
the package: every public function named in a module's ``__all__`` is
replaced at *every* module binding (``cli``, ``tails``, ``montecarlo`` and
``sensitivity`` hold their own ``from .x import f`` references), a few
methods that carry a layer's work are wrapped on their classes, and two
third-party entry points (``scipy.integrate.quad`` as seen by ``analytic``,
``linprog`` as seen by ``calibration``) are counted.  Methods called more
than ~1e4 times per job (density ``pdf``) get count-only wrappers, so their
time stays in the calling span.  Leaving the context restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

PACKAGE = "tiltcal"
MODULES = ("analytic", "calibration", "cli", "densities", "entropy", "montecarlo",
           "priors", "sensitivity", "tails", "views")

# (module, class, method) wrapped with a timed span.
TIMED_METHODS = (
    ("densities", "GaussianDensity", "ppf"),
    ("densities", "StudentTDensity", "ppf"),
    ("densities", "GridDensity", "ppf"),
    ("calibration", "GaussianLinearProblem", "dual_state"),
    ("calibration", "QuadratureProblem", "dual_state"),
)
# (module, class, method) wrapped with a call counter only.
COUNTED_METHODS = (
    ("densities", "GaussianDensity", "pdf"),
    ("densities", "StudentTDensity", "pdf"),
    ("densities", "GridDensity", "pdf"),
)


class SpanRecorder:
    """Spans, counters and observed values, grouped by job id.

    Nothing is recorded while no job is open, so code that runs between
    jobs (output checks, set-up) leaves no trace even when instrumented.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: dict = defaultdict(Counter)
        self.values: dict = defaultdict(lambda: defaultdict(list))
        self.job = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def job_scope(self, job):
        self.job, self._open = job, []
        try:
            yield
        finally:
            self.job = None

    def observe(self, name: str, value):
        if self.job is not None:
            self.values[self.job][name].append(value)

    def timed(self, name: str, func, on_result=None):
        """Wrap ``func`` so each call inside a job records a span."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return func(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._open[-1] if self._open else None, self.job]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counted(self, name: str, func):
        """Wrap ``func`` so each call inside a job bumps a counter."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.job is not None:
                self.counts[self.job][name] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- queries -----------------------------------------------------------
    def job_spans(self, job) -> list[tuple[int, list]]:
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == job]

    def inclusive(self, job, names) -> float:
        """Wall time inside spans named in ``names``, nested repeats counted once."""
        names = set(names)
        total = 0.0
        for _, span in self.job_spans(job):
            if span[0] not in names:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent is None:
                total += span[2] - span[1]
        return total

    def calls(self, job, names) -> int:
        names = set(names)
        timed = sum(1 for _, s in self.job_spans(job) if s[0] in names)
        return timed + sum(self.counts[job][n] for n in names)

    def self_time(self, job, name: str) -> float:
        """Duration of ``name`` spans minus the time their child spans cover."""
        spans = self.job_spans(job)
        total = 0.0
        for index, span in spans:
            if span[0] != name:
                continue
            covered, cursor = 0.0, span[1]
            children = sorted((c[1], c[2]) for _, c in spans if c[3] == index)
            for start, end in children:
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            total += (span[2] - span[1]) - covered
        return total

    def dump(self, path: str):
        """Write every span, then per-job counters and values, as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"span": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
            for job in sorted(set(self.counts) | set(self.values), key=str):
                fh.write(json.dumps({"job": job, "counts": dict(self.counts[job]),
                                     "values": dict(self.values[job])}) + "\n")


def _observe_newton(recorder: SpanRecorder, report):
    recorder.observe("calibration.newton_iters", report.iterations)


def _observe_batch(recorder: SpanRecorder, batch):
    recorder.observe("montecarlo.samples_drawn", batch.n)
    w = batch.weights
    ess = 1.0 if w is None else float(w.sum() ** 2 / (w @ w) / w.size)
    recorder.observe("montecarlo.ess_ratio", ess)


ON_RESULT = {
    "calibration.solve_lambda_newton": _observe_newton,
    "montecarlo.sample_posterior": _observe_batch,
}


class _CountingModule:
    """Stand-in for a module binding that counts calls of one attribute."""

    def __init__(self, module, attr: str, wrapper):
        self._module, self._attr, self._wrapper = module, attr, wrapper

    def __getattr__(self, name):
        return self._wrapper if name == self._attr else getattr(self._module, name)


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder):
    """Install the wrappers on tiltcal for the duration of the context."""
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    namespaces = [importlib.import_module(PACKAGE), *modules.values()]
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for mod_name, module in modules.items():
            for public in module.__all__:
                func = getattr(module, public)
                if not inspect.isfunction(func):
                    continue
                name = f"{mod_name}.{public}"
                wrapper = recorder.timed(name, func, ON_RESULT.get(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is func:
                            rebind(ns, attr, wrapper)
        for entry in TIMED_METHODS + COUNTED_METHODS:
            mod_name, cls_name, method = entry
            cls = getattr(modules[mod_name], cls_name)
            wrap = recorder.counted if entry in COUNTED_METHODS else recorder.timed
            rebind(cls, method, wrap(f"{mod_name}.{cls_name}.{method}", vars(cls)[method]))
        analytic, calibration = modules["analytic"], modules["calibration"]
        rebind(analytic, "integrate", _CountingModule(
            analytic.integrate, "quad",
            recorder.counted("analytic.quad", analytic.integrate.quad)))
        rebind(calibration, "linprog",
               recorder.counted("calibration.linprog", calibration.linprog))
        yield recorder
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
