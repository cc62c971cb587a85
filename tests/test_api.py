"""The public API: sorted `ost.__all__` is pinned in tests/api_names.txt,
the fields of every public dataclass, in constructor order, in
tests/api_fields.txt, and the signature of every public function in
tests/api_signatures.txt, so every added, removed or renamed name,
constructor field, parameter or default shows up as a diff of those
files. The functions the benchmark's tracer wraps keep their names and
the parameters its counters read, and a traced run gives every counter
the result attributes it reads."""

import dataclasses
import importlib
import inspect
import re
import types
from pathlib import Path

import numpy as np
import pytest

import ost
from ost import cli
from ost.evaluation import NoteEvent
from ost.synth import render_notes
from ost.tsvio import read_activations

from helpers import write_ground_truth, write_wav


def test_api_names_are_unchanged():
    golden = (Path(__file__).parent / "api_names.txt").read_text().split()
    assert sorted(ost.__all__) == golden


def test_every_api_name_resolves():
    missing = [name for name in ost.__all__ if not hasattr(ost, name)]
    assert missing == []


def api_fields() -> str:
    """One line per public dataclass: its name, then its field names."""
    lines = [" ".join([name] + [f.name for f in dataclasses.fields(obj)])
             for name in sorted(ost.__all__)
             if dataclasses.is_dataclass(obj := getattr(ost, name))]
    return "\n".join(lines) + "\n"


def test_api_fields_are_unchanged():
    golden = (Path(__file__).parent / "api_fields.txt").read_text()
    assert api_fields() == golden


def api_signatures() -> str:
    """One line per public function: its name, then its signature."""
    lines = [f"{name}{inspect.signature(obj)}" for name in sorted(ost.__all__)
             if inspect.isfunction(obj := getattr(ost, name))]
    return "\n".join(lines) + "\n"


def test_api_signatures_are_unchanged():
    golden = (Path(__file__).parent / "api_signatures.txt").read_text()
    assert api_signatures() == golden


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the README's Library example, run as written on a rendered piece.wav
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    events = [NoteEvent(0.0, 0.8, 60), NoteEvent(0.4, 1.2, 67)]
    monkeypatch.chdir(tmp_path)
    write_wav(tmp_path / "piece.wav", render_notes(events, seed=2))
    exec(compile(example, "README.md", "exec"), {})
    values, labels, times = read_activations(tmp_path / "piece.activations.tsv")
    assert labels == [str(m) for m in range(21, 109)]
    assert values.shape == (88, times.size) and times.size > 0


def benchmark_spans() -> types.ModuleType:
    """perfbench/spans.py, executed from its source without importing it
    as a module, so nothing is written beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    module = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_functions_resolve():
    missing = [f"{m}.{f}" for m, f in benchmark_spans().TARGETS
               if not inspect.isfunction(getattr(
                   importlib.import_module("ost." + m), f, None))]
    assert missing == []


@pytest.mark.parametrize("target, params", [
    ("solvers.unmix", ("frames", "cost", "variant")),
    ("baselines.plca_unmix", ("frames", "max_iter")),
    ("tsvio.atomic_write_text", ("text",)),
])
def test_counted_parameters_exist(target, params):
    assert target in benchmark_spans().COUNTERS
    module, name = target.split(".")
    fn = getattr(importlib.import_module("ost." + module), name)
    assert set(params) <= set(inspect.signature(fn).parameters)


# What each counted layer records; which solver a transcribe call reaches
# depends on its method.
COUNTED = {"frontend.stft_magnitude": {"bytes_computed"},
           "tsvio.matrix_text": {"bytes"},
           "tsvio.atomic_write_text": {"bytes"}}
SOLVER_COUNTS = {"plca": ("baselines.plca_unmix",
                          {"iterations", "capped", "active_frames"}),
                 "ost": ("solvers.unmix", {"cells"})}


@pytest.mark.parametrize("method", sorted(SOLVER_COUNTS))
def test_traced_transcribe_feeds_every_counter(method, tmp_path):
    # the counters read .values of a Spectrogram and a CostMatrix,
    # .active_mask of NormalizedFrames and .iterations of PlcaState; the
    # benchmark itself reads .samples of render_notes' result
    events = [NoteEvent(0.0, 0.6, 60), NoteEvent(0.3, 1.0, 64)]
    audio = render_notes(events, sample_rate=8000, seed=1)
    assert isinstance(audio.samples, np.ndarray)
    write_wav(tmp_path / "duet.wav", audio)
    write_ground_truth(tmp_path / "truth.tsv", events)
    tracer = benchmark_spans().Tracer()
    tracer.install()
    try:
        tracer.context = ("pass", method)
        code = cli.main(["transcribe", str(tmp_path / "duet.wav"), "--method", method,
                         "--ground-truth", str(tmp_path / "truth.tsv"),
                         "--midi-low", "55", "--midi-high", "67",
                         "--window-len", "512", "--hop", "256",
                         "--output-dir", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert [s.name for s in tracer.spans if s.error] == []
    solver, solver_counts = SOLVER_COUNTS[method]
    expected = {**COUNTED, solver: solver_counts}
    counted = {s.name: set(s.counts) for s in tracer.spans if s.name in expected}
    assert counted == expected
    assert not hasattr(cli.main, "__wrapped__")  # the originals are back


def test_traced_toy_feeds_every_solver_counter(capsys):
    # the benchmark's toy workload runs all six methods on one frame: unmix
    # counts cells per variant, plca_unmix its iterations
    tracer = benchmark_spans().Tracer()
    tracer.install()
    try:
        tracer.context = ("pass", "all")
        code = cli.main(["toy", "a", "--methods", "all", "--bins", "64",
                         "--f-max", "700"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert [s.name for s in tracer.spans if s.error] == []
    unmix_counts = {s.tag: set(s.counts) for s in tracer.spans
                    if s.name == "solvers.unmix"}
    assert unmix_counts == {v: {"cells"} for v in benchmark_spans().VARIANTS}
    plca_counts = [set(s.counts) for s in tracer.spans
                   if s.name == "baselines.plca_unmix"]
    assert plca_counts == [{"iterations", "capped", "active_frames"}]
    assert not hasattr(cli.main, "__wrapped__")
