"""Layer tracing for the benchmark: spans recorded around pathfuse's public calls.

The tracer wraps the layer-boundary functions listed in ``LAYERS``.  pathfuse
modules import each other with ``from ... import name``, so a function is
looked up under several module names; the tracer replaces the function under
every ``pathfuse.*`` attribute that holds it, and puts each one back when the
``installed()`` block ends.  Private helpers (``_robust_filter``,
``_loo_residuals``, ...) are not wrapped: their time shows as self time of
the public caller, minus the public calls they make.  Hot leaf helpers such
as ``soft_threshold``, ``mad_scale`` and ``predict_abg`` are not wrapped
either, because a span costs about as much as one of their calls.

Each call records a span ``(name, start, end, parent)``; a layer's self time
is its spans' durations minus the durations of their direct child spans.

``PathLossSample`` constructions are counted by ``counting_sample_objects``
in a call of their own: the counting wrapper runs once per sample (about
365k times per ``integration`` call) and would otherwise inflate the self
time of every layer that builds samples.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time

from pathfuse.models import PathLossSample

#: (module, function, counter) for every function the trace wraps.  The
#: counter, when set, turns the return value into a work count.
LAYERS = (
    ("synthesis", "synthesize_corpus", "samples"),
    ("synthesis", "synthesize_from_model", None),
    ("synthesis", "inject_outliers", None),
    ("synthesis", "add_scattering_noise", None),
    ("atmosphere", "remove_gas_loss", "samples"),
    ("models", "build_design_system", None),
    ("pipeline", "fit_pathloss_model", None),
    ("pipeline", "compute_weights", None),
    ("estimators", "fit_theilsen", "pairs"),
    ("estimators", "tune_penalty_kfold", None),
    ("estimators", "fit_ridge", None),
    ("estimators", "fit_lasso", None),
    ("estimators", "fit_elasticnet", None),
    ("estimators", "fit_ransac", None),
    ("estimators", "solve_wls", None),
    ("evaluation", "loocv", None),
    ("evaluation", "evaluate_gates", None),
    ("io", "load_samples", "rows"),
    ("io", "save_model", None),
    ("cli", "main", None),
)

COUNTERS = {
    "samples": len,
    "rows": len,
    "pairs": lambda fit: fit.iterations_used,
}

PENALIZED_FITS = ("estimators.fit_ridge", "estimators.fit_lasso", "estimators.fit_elasticnet")
SAMPLE_OBJECTS = "models.sample_objects"


class Tracer:
    """Spans and counts for one traced workload call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {f"{m}.{f}.{c}": 0 for m, f, c in LAYERS if c}
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS[counter] if counter else None
        key = f"{name}.{counter}"

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                counts[key] += count(out)
            return out

        traced.perfbench_wrapper = True
        return traced

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _install(self):
        for module_name, _, _ in LAYERS:
            importlib.import_module(f"pathfuse.{module_name}")
        modules = _pathfuse_modules()
        for module_name, function, counter in LAYERS:
            original = getattr(sys.modules[f"pathfuse.{module_name}"], function)
            wrapper = self._wrap(f"{module_name}.{function}", original, counter)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attribute, wrapper)


    def _remove(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block, then restore it."""
        self._install()
        try:
            yield self
        finally:
            self._remove()

    def self_times(self):
        """Layer name -> summed self time (s) and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - inner, calls + 1)
        return out

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def summary(self):
        """This call's per-layer values and ``fit_pathloss_model`` durations.

        The spans are dropped: kept alive, their lists would make the
        garbage collector slower in every later call of the run.
        """
        times = self.self_times()
        values = dict(self.counts)
        for module_name, function, _ in LAYERS:
            name = f"{module_name}.{function}"
            values[f"{name}.self_s"], values[f"{name}.calls"] = times.get(name, (0.0, 0))
        values["estimators.penalized_fits"] = sum(
            values[f"{name}.calls"] for name in PENALIZED_FITS
        )
        fits = self.durations("pipeline.fit_pathloss_model")
        self.spans = []
        return values, fits


@contextlib.contextmanager
def counting_sample_objects(counts):
    """Count ``PathLossSample`` constructions into ``counts[SAMPLE_OBJECTS]``."""
    init = PathLossSample.__init__
    counts.setdefault(SAMPLE_OBJECTS, 0)

    def counted_init(obj, *args, **kwargs):
        counts[SAMPLE_OBJECTS] += 1
        init(obj, *args, **kwargs)

    counted_init.perfbench_wrapper = True
    PathLossSample.__init__ = counted_init
    try:
        yield counts
    finally:
        PathLossSample.__init__ = init


def _pathfuse_modules():
    return [
        module for name, module in sorted(sys.modules.items())
        if name == "pathfuse" or name.startswith("pathfuse.")
    ]


def leftover_wrappers():
    """Names under ``pathfuse`` that still hold a trace wrapper; empty when clean."""
    left = [
        f"{module.__name__}.{attribute}"
        for module in _pathfuse_modules()
        for attribute, value in vars(module).items()
        if getattr(value, "perfbench_wrapper", False)
    ]
    if getattr(PathLossSample.__init__, "perfbench_wrapper", False):
        left.append("pathfuse.models.PathLossSample.__init__")
    return left


def tail(values):
    """The highest order statistic with at least ten values beyond it.

    With ten values or fewer there is no such statistic; the maximum stands
    in for it.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def layer_metrics(summaries):
    """Per-layer metrics from the ``Tracer.summary()`` of several calls.

    Self times and counts are medians over the calls; the latency figures of
    ``fit_pathloss_model`` pool the spans of all calls.
    """
    per_call = [values for values, _ in summaries]
    out = {
        name: statistics.median(values[name] for values in per_call)
        for name in per_call[0]
    }
    fits = [d for _, durations in summaries for d in durations]
    out["pipeline.fit_pathloss_model.p50_ms"] = 1e3 * statistics.median(fits) if fits else 0.0
    out["pipeline.fit_pathloss_model.tail_ms"] = 1e3 * tail(fits) if fits else 0.0
    return out
