"""Tracing from outside the program: wraps public functions of the `ost`
layer modules at every binding inside `ost.*` and records one span per
call (name, start, end, parent, call id) plus exact work counts.

Spans stay in memory and are written out when the run ends. A layer's self
time is its span's duration minus the time covered by its child spans;
since the program is single-threaded the children of a span never overlap.
"""

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

VARIANTS = ("ost", "ost_e", "ost_g", "ost_eg")

# (module, function) pairs wrapped; their order is the metric order.
TARGETS = (
    ("cli", "main"),
    ("synth", "render_notes"),
    ("frontend", "decode_wav"),
    ("frontend", "stft_magnitude"),
    ("frontend", "normalize_frames"),
    ("dictionary", "make_harmonic_dictionary"),
    ("costs", "harmonic_cost"),
    ("costs", "append_noise_column"),
    ("solvers", "unmix"),
    ("baselines", "plca_unmix"),
    ("baselines", "ot_unmix_lp"),
    ("baselines", "solve_lp"),
    ("evaluation", "make_toy_scenario"),
    ("evaluation", "parse_ground_truth"),
    ("evaluation", "events_to_roll"),
    ("evaluation", "threshold_activations"),
    ("evaluation", "f_measure"),
    ("tsvio", "matrix_text"),
    ("tsvio", "atomic_write_text"),
)


def _unmix_counts(args, result):
    """Tag by variant; cells = M * K * active frames."""
    cost, frames = args["cost"].values, args["frames"]
    active = int(frames.active_mask.sum())
    return args["variant"], {"cells": cost.shape[0] * cost.shape[1] * active}


def _plca_counts(args, result):
    iterations = result[1].iterations
    active = int(args["frames"].active_mask.sum())
    return None, {"iterations": int(iterations.sum()),
                  "capped": int((iterations >= args["max_iter"]).sum()),
                  "active_frames": active}


def _stft_counts(args, result):
    """Computed bytes: float64 windowed frames plus complex128 spectra."""
    m, n = result.values.shape
    return None, {"bytes_computed": n * 2 * m * 8 + n * (m + 1) * 16}


def _text_counts(result):
    return None, {"bytes": len(result.encode("utf-8"))}


def _write_counts(args, result):
    """Bytes written. Not exact across runs: reports carry wall times."""
    return _text_counts(args["text"])


COUNTERS = {
    "solvers.unmix": _unmix_counts,
    "baselines.plca_unmix": _plca_counts,
    "frontend.stft_magnitude": _stft_counts,
    "tsvio.matrix_text": lambda args, result: _text_counts(result),
    "tsvio.atomic_write_text": _write_counts,
}


@dataclass
class Span:
    call_id: int
    parent: int
    name: str
    tag: str
    start: float
    end: float = 0.0
    error: bool = False
    context: tuple = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs wrappers, records spans while `context` is set (None means
    calls pass through unrecorded), and restores the originals."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.context = None
        self.originals = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if (name == "ost" or name.startswith("ost.")) and m is not None]
        for module_name, func_name in TARGETS:
            original = getattr(importlib.import_module("ost." + module_name),
                               func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.originals.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in self.originals:
            setattr(module, attr, original)
        self.originals = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.context is None:
                return fn(*args, **kwargs)
            span = Span(call_id=len(tracer.spans),
                        parent=tracer.stack[-1].call_id if tracer.stack else -1,
                        name=name, tag=None, start=0.0,
                        context=tracer.context)
            tracer.spans.append(span)
            tracer.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.tag, span.counts = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        covered = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [span.end - span.start - covered[span.call_id]
                for span in self.spans]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "id": span.call_id, "parent": span.parent,
                    "name": span.name, "tag": span.tag, "start": span.start,
                    "end": span.end, "self_s": self_s, "error": span.error,
                    "context": list(span.context), "counts": span.counts}) + "\n")


def metric_names():
    """(name, unit) of every per-layer metric, in output order."""
    names = []
    for module_name, func_name in TARGETS:
        base = f"{module_name}.{func_name}"
        if base == "solvers.unmix":
            for v in VARIANTS:
                names += [(f"{base}.self_s.{v}", "s"), (f"{base}.cells.{v}", "count"),
                          (f"{base}.ns_per_cell.{v}", "ns")]
        else:
            names.append((f"{base}.self_s", "s"))
        names += [(f"{base}.calls", "count"), (f"{base}.errors", "count")]
    names += [("frontend.stft_magnitude.bytes_computed", "B"),
              ("baselines.plca_unmix.iterations", "count"),
              ("baselines.plca_unmix.capped_ratio", "ratio"),
              ("tsvio.matrix_text.bytes", "B"),
              ("tsvio.atomic_write_text.bytes", "B")]
    return names


def layer_metrics(tracer, passes, setups):
    """Per-layer values for one pass of every method (spans recorded in
    context ("pass", method) are divided by that method's pass count) plus
    one input synthesis (context ("setup",) divided by the setup count).
    Layers not reached on the workload read 0."""
    by_context = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        sums = by_context[span.context]
        key = span.name + (f".self_s.{span.tag}" if span.tag else ".self_s")
        sums[key] += self_s
        sums[span.name + ".calls"] += 1
        sums[span.name + ".errors"] += span.error
        for count, value in span.counts.items():
            suffix = f".{span.tag}" if span.tag else ""
            sums[f"{span.name}.{count}{suffix}"] += value
    totals = defaultdict(float)
    for context, sums in by_context.items():
        divisor = passes[context[1]] if context[0] == "pass" else setups
        for key, value in sums.items():
            totals[key] += value / divisor
    for v in VARIANTS:
        cells = totals[f"solvers.unmix.cells.{v}"]
        totals[f"solvers.unmix.ns_per_cell.{v}"] = (
            1e9 * totals[f"solvers.unmix.self_s.{v}"] / cells if cells else 0.0)
    active = totals["baselines.plca_unmix.active_frames"]
    totals["baselines.plca_unmix.capped_ratio"] = (
        totals["baselines.plca_unmix.capped"] / active if active else 0.0)
    return {name: {"value": totals[name], "unit": unit}
            for name, unit in metric_names()}


def pass_self_seconds(tracer, method, passes):
    """Sum of span self times over one pass of `method`: everything inside
    the traced cli.main calls, which the benchmark's timer wraps."""
    total = sum(s for span, s in zip(tracer.spans, tracer.self_times())
                if span.context == ("pass", method))
    return total / passes
