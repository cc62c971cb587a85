"""Tests of the benchmark itself (not collected by the package's suite):

    python3 -m pytest -q perfbench/tests

Runs every workload on tiny inputs, checks the emitted metric names and
units against BENCHMARK.json, that exact work counts repeat, that the
correctness gate trips on perturbed outputs, and that the benchmark fails
without the package sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("piece30", "piece_long", "toy")
EXACT_COUNTS = ("solvers.unmix.cells.ost", "solvers.unmix.cells.ost_e",
                "solvers.unmix.cells.ost_g", "solvers.unmix.cells.ost_eg",
                "baselines.plca_unmix.iterations", "baselines.solve_lp.calls",
                "tsvio.matrix_text.bytes", "frontend.stft_magnitude.bytes_computed")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH, "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return proc


_CACHE = {}


def _result(workload, trace, repeat=0):
    key = (workload, trace, repeat)
    if key not in _CACHE:
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        _CACHE[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _CACHE[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    spec = _spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if workload == "piece_long" and not trace:
        # not in BENCHMARK.json; it runs only ost and ost_e
        absent = {"run_s.plca", "run_s.ost_g", "run_s.ost_eg"}
        declared = [m for m in declared if m["name"] not in absent]
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


@pytest.mark.parametrize("workload", ("piece30", "toy"))
def test_exact_counts_repeat(workload):
    first = _result(workload, 1)["metrics"]
    second = _result(workload, 1, repeat=1)["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["cli.main.calls"]["value"] > 0


def _program(argv):
    from ost.cli import main
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


def _perturb_first_value(text, delta):
    lines = text.split("\n")
    cells = lines[1].split("\t")
    cells[1] = format(float(cells[1]) + delta, ".12g")
    lines[1] = "\t".join(cells)
    return "\n".join(lines)


def test_gate_trips_on_perturbed_outputs(tmp_path):
    from ost.evaluation import NoteEvent
    from ost.synth import render_notes
    wl = workloads.WORKLOADS["piece30"]
    events = workloads.make_piece(5, 3.0)
    audio = render_notes([NoteEvent(*e) for e in events], sample_rate=wl.sample_rate,
                         inharmonicity=workloads.INHARMONICITY, seed=5)
    pcm = workloads.to_pcm16(audio.samples)
    wav, truth = str(tmp_path / "p.wav"), str(tmp_path / "p.tsv")
    workloads.write_wav(wav, wl.sample_rate, pcm)
    workloads.write_ground_truth(truth, events)

    def flags(method):
        return {"eps0": 10.0, "lambda_e": 30.0, "lambda_g": 300.0,
                "noise": 30.0 if method in ("ost", "ost_e") else None}

    piece = gate.PieceGate(pcm, wl.sample_rate, 2048, 1024, events, flags)
    for method, delta in (("ost", 1e-9), ("ost_e", 1e-9), ("plca", 1e-3)):
        _program(workloads.piece_args(wl, wav, truth, method, str(tmp_path)))
        act_path, report_path = workloads.piece_outputs(str(tmp_path), wav, method)
        with open(act_path) as fh:
            act = fh.read()
        with open(report_path) as fh:
            report = fh.read()
        assert piece.check(method, act, report) == []
        assert piece.check(method, _perturb_first_value(act, delta), report)
        worse = report.replace("\ntp\t", "\ntp\t1")
        assert piece.check(method, act, worse)

    toy = gate.ToyGate(64, 700.0)
    for method in ("ost", "ost_eg"):
        out = _program(workloads.toy_args("b", 1, method))
        assert toy.check(method, "b", 1, out) == []
        row = next(line for line in out.splitlines() if line.startswith(method + " "))
        l1 = row.split()[1]
        bad = out.replace(row, row.replace(l1, format(float(l1) + 1e-9, ".12g"), 1))
        assert toy.check(method, "b", 1, bad)


def test_entropic_tolerance_admits_rounding_only():
    values = np.array([0.25, 1e-20, 0.7])
    assert reference.within(values + 4e-13, values, reference.ENTROPIC_ATOL)
    assert not reference.within(values + 1e-11, values, reference.ENTROPIC_ATOL)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("toy", 0, cwd=str(tmp_path),
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
