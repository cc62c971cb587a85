"""End-to-end command-line behavior: exit codes, outputs, determinism."""

import os
import re
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import ost
from ost import baselines, cli
from ost.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, RunConfig,
                     decompose, load_frames, main)
from ost.evaluation import (NoteEvent, events_to_roll, f_measure,
                            parse_ground_truth, threshold_activations)
from ost.frontend import AudioBuffer, decode_wav
from ost.synth import render_notes
from ost.tsvio import read_activations, read_matrix

from helpers import traced_peak, write_ground_truth, write_wav


def source_tree_env():
    """Environment for a fresh interpreter that imports `ost` from the same
    source tree as this test process."""
    src_dir = str(Path(ost.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def toy_errors(stdout: str) -> dict:
    """method -> l1_error parsed from a printed toy table."""
    errs = {}
    for line in stdout.strip().split("\n")[3:]:
        if line.startswith("wrote "):
            continue
        cells = line.split()
        errs[cells[0]] = float(cells[1])
    return errs


@pytest.fixture(scope="module")
def note50(tmp_path_factory):
    """A 1.2 s MIDI-50 note WAV plus its ground-truth table."""
    root = tmp_path_factory.mktemp("note50")
    events = [NoteEvent(0.0, 1.2, 50)]
    write_wav(root / "note50.wav",
              render_notes(events, sample_rate=8000, seed=0))
    write_ground_truth(root / "truth.tsv", events)
    return root


@pytest.fixture(scope="module")
def duet(tmp_path_factory):
    """Two overlapping notes (MIDI 60 and 64) plus ground truth."""
    root = tmp_path_factory.mktemp("duet")
    events = [NoteEvent(0.0, 0.6, 60), NoteEvent(0.3, 1.0, 64)]
    write_wav(root / "duet.wav",
              render_notes(events, sample_rate=8000, seed=1))
    write_ground_truth(root / "truth.tsv", events)
    return root


DUET_FLAGS = ["--window-len", "512", "--hop", "256",
              "--midi-low", "55", "--midi-high", "67"]


class TestUsageErrors:
    def test_lambda_e_rejected_for_plain_ost(self, capsys, tmp_path):
        code = main(["transcribe", str(tmp_path / "missing.wav"),
                     "--method", "ost", "--lambda-e", "10"])
        assert code == EXIT_USAGE
        assert "--lambda-e" in capsys.readouterr().err

    def test_template_flag_rejected_for_ost(self, capsys, tmp_path):
        code = main(["transcribe", str(tmp_path / "missing.wav"),
                     "--method", "ost", "--kernel-width-bins", "1.5"])
        assert code == EXIT_USAGE

    def test_unknown_method_name(self, capsys):
        assert main(["toy", "a", "--methods", "quux"]) == EXIT_USAGE
        assert "quux" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        assert main(["toy", "z"]) == EXIT_USAGE

    def test_lp_method_needs_coarse_grid(self, capsys):
        code = main(["toy", "a", "--methods", "ot_h", "--bins", "128"])
        assert code == EXIT_USAGE
        assert "--bins" in capsys.readouterr().err

    def test_hop_longer_than_window(self, capsys, tmp_path):
        code = main(["transcribe", str(tmp_path / "missing.wav"),
                     "--window-len", "512", "--hop", "513"])
        assert code == EXIT_USAGE
        assert "--hop" in capsys.readouterr().err

    @pytest.mark.parametrize("f_max", ["-5", "10"])
    def test_toy_grid_without_the_notes(self, capsys, f_max):
        # a negative top frequency, or a grid below every toy fundamental
        assert main(["toy", "a", "--f-max", f_max]) == EXIT_USAGE
        assert "toy problem" in capsys.readouterr().err

    @pytest.mark.parametrize("f_max", ["0", "-5", "nan", "inf"])
    def test_toy_top_frequency_is_named(self, capsys, f_max):
        # once reported as a kernel width out of range
        assert main(["toy", "a", "--f-max", f_max]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error: no toy problem at these settings: f_max must be finite "
                f"and positive, got {float(f_max):g} Hz\n")

    @pytest.mark.parametrize("argv", [
        ["toy", "a", "--bins", "64", "--f-max", "700"],
        ["bench", "--bins", "64", "--notes", "4", "--frames", "2"]])
    def test_negative_seed_refused_before_any_work(self, capsys, tmp_path, argv):
        # np.random.default_rng raised on it: a traceback from bench, a
        # toy-problem fault from toy
        assert main(argv + ["--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: --seed must be non-negative\n")
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed=-1\n")
        assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: --seed must be non-negative\n")

    @pytest.mark.parametrize("argv", [
        ["transcribe", "missing.wav", "--method", "plca"],
        ["toy", "a", "--bins", "64", "--f-max", "700"],
        ["bench", "--bins", "64", "--notes", "4", "--frames", "2"]])
    def test_partial_count_is_capped(self, capsys, argv):
        # one weight per requested partial is allocated before the partials
        # above the top bin are dropped: 1e9 of them took 8 GB
        code, peak = traced_peak(main, argv + ["--n-partials", "65537"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: --n-partials must be at most 65536\n"
        assert peak < 2 ** 20

    def test_unknown_flag(self, capsys):
        assert main(["toy", "a", "--frobnicate"]) == EXIT_USAGE

    def test_threads_flag_is_gone(self, capsys, duet, tmp_path):
        outdir = tmp_path / "out"
        code = main(["transcribe", str(duet / "duet.wav"), "--method", "plca",
                     "--threads", "2"] + DUET_FLAGS
                    + ["--output-dir", str(outdir)])
        assert code == EXIT_USAGE
        assert "--threads" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text("threads=2\n")
        code = main(["transcribe", str(duet / "duet.wav"), "--method", "plca",
                     "--config", str(config)] + DUET_FLAGS
                    + ["--output-dir", str(outdir)])
        assert code == EXIT_USAGE
        assert not outdir.exists()

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_toy_rejects_bins_below_one(self, capsys, bins):
        assert main(["toy", "a", "--bins", bins]) == EXIT_USAGE
        assert "--bins must be at least 1" in capsys.readouterr().err

    def test_bench_rejects_zero_notes(self, capsys):
        assert main(["bench", "--notes", "0"]) == EXIT_USAGE

    def test_bench_grid_without_templates(self, capsys):
        # the bench grid comes from --bins: a comb too narrow to touch any
        # bin is a flag fault, not a data error
        code = main(["bench", "--bins", "64", "--notes", "4", "--frames", "2",
                     "--kernel-width-bins", "1e-9"])
        assert code == EXIT_USAGE
        assert "bin grid" in capsys.readouterr().err

    def test_sweep_empty_grid(self, capsys, tmp_path):
        code = main(["sweep", str(tmp_path / "x.wav"),
                     "--ground-truth", str(tmp_path / "t.tsv"),
                     "--grid", "epsilon0="])
        assert code == EXIT_USAGE

    def test_sweep_grid_must_apply_to_method(self, capsys, tmp_path):
        code = main(["sweep", str(tmp_path / "x.wav"),
                     "--ground-truth", str(tmp_path / "t.tsv"),
                     "--method", "ost", "--grid", "lambda_e=10"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        (["toy", "a", "--methods", ","], "at least one method"),
        (["sweep", "--grid", "epsilon0"], "name=v1,v2"),
        (["sweep", "--grid", "bogus=1"], "cannot sweep 'bogus'"),
        (["sweep", "--grid", "epsilon0=x"], "bad grid values"),
        (["bench", "--notes", "93"], "--notes must be at most 92"),
        (["toy", "a", "--config"], "--config needs a file"),
        (["sweep", "--method", "ost", "--grid", "epsilon0=1",
          "--grid", "epsilon0=10,100"], "--grid names 'epsilon0' twice"),
    ])
    def test_malformed_value_is_named(self, capsys, tmp_path, argv, message):
        if argv[0] == "sweep":
            argv = argv[:1] + [str(tmp_path / "x.wav"), "--ground-truth",
                               str(tmp_path / "t.tsv")] + argv[1:]
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err


    OUT_OF_RANGE = [
        (["sweep", "--method", "ost", "--grid", "epsilon0=-1"],
         "--epsilon0 must be finite and non-negative"),
        (["sweep", "--method", "ost_e", "--grid", "lambda_e=0"],
         "--lambda-e must be finite and positive"),
        (["sweep", "--method", "ost_g", "--grid", "lambda_g=inf"],
         "--lambda-g must be finite, positive and at most 3.595e+302"),
        (["sweep", "--method", "ost", "--grid", "noise_amplitude=-1"],
         "--noise-amplitude must be finite and non-negative"),
        (["sweep", "--method", "plca", "--grid", "damping=-1"],
         "--damping must be finite and non-negative"),
        (["sweep", "--method", "plca", "--grid", "kernel_width_bins=0"],
         "--kernel-width-bins must be finite and positive"),
        (["transcribe", "--method", "ost", "--epsilon0", "inf"],
         "--epsilon0 must be finite and non-negative"),
        (["transcribe", "--method", "ost_e", "--lambda-e", "inf"],
         "--lambda-e must be finite and positive"),
        (["transcribe", "--method", "ost_g", "--lambda-g", "inf"],
         "--lambda-g must be finite, positive and at most 3.595e+302"),
        (["transcribe", "--method", "ost_eg", "--lambda-g", "1e303"],
         "--lambda-g must be finite, positive and at most 3.595e+302"),
        (["transcribe", "--method", "ost", "--noise-amplitude", "inf"],
         "--noise-amplitude must be finite and non-negative"),
        (["transcribe", "--method", "plca", "--damping", "inf"],
         "--damping must be finite and non-negative"),
        (["transcribe", "--method", "plca", "--kernel-width-bins", "inf"],
         "--kernel-width-bins must be finite and positive"),
        (["transcribe", "--method", "ost_g", "--mm-iterations", "0"],
         "--mm-iterations must be at least 1"),
        (["transcribe", "--method", "plca", "--n-partials", "0"],
         "--n-partials must be at least 1"),
        (["transcribe", "--midi-low", "60", "--midi-high", "50"],
         "--midi-low/--midi-high must satisfy 0 <= low <= high <= 127"),
        (["transcribe", "--window-len", "511"],
         "--window-len must be a positive even integer"),
    ]

    @pytest.mark.parametrize("argv, message", OUT_OF_RANGE,
                             ids=[f"argv{i}" for i in range(len(OUT_OF_RANGE))])
    def test_out_of_range_value_beats_missing_wav(self, capsys, tmp_path,
                                                  argv, message):
        inputs = [str(tmp_path / "missing.wav")]
        if argv[0] == "sweep":
            inputs += ["--ground-truth", str(tmp_path / "t.tsv")]
        assert main(argv[:1] + inputs + argv[1:]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["toy", "a", "--bins", "64", "--noise-amplitude", "1e-9"],
        ["bench", "--frames", "0", "--noise-amplitude", "10"],
        ["bench", "--frames", "0", "--lambda-g", "10"],
        ["bench", "--frames", "0", "--mm-iterations", "5"],
        ["transcribe", "missing.wav", "--seed", "3"],
        ["eval", "a.tsv", "--ground-truth", "t.tsv", "--epsilon0", "1"],
        # the noise axis is --grid noise_amplitude=...
        ["sweep", "a.wav", "--ground-truth", "t.tsv", "--sweep-noise", "1"],
    ])
    def test_flag_a_command_ignores_is_unknown(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert argv[-2] in capsys.readouterr().err

    def test_flag_prefixes_are_not_expanded(self, capsys, tmp_path):
        # a prefix once reached --config, whose file was then never read
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed=7\n")
        assert main(["toy", "a", "--conf", str(cfg)]) == EXIT_USAGE
        assert "--conf" in capsys.readouterr().err
        assert main(["bench", "--frames", "0", "--lambda", "5"]) == EXIT_USAGE
        assert "--lambda" in capsys.readouterr().err


def help_texts():
    """`ost --help` and `ost COMMAND --help` at 80 columns, as printed when
    every command's arguments were built on each call: "== ost [COMMAND]"
    heads each text in tests/cli_help.txt."""
    golden = (Path(__file__).parent / "cli_help.txt").read_text()
    parts = re.split(r"^== (ost.*)\n", golden, flags=re.M)[1:]
    return dict(zip(parts[::2], parts[1::2]))


class TestHelp:
    @pytest.mark.parametrize("command", ["ost", "ost transcribe", "ost toy",
                                         "ost sweep", "ost bench", "ost eval"])
    def test_help_is_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(command.split()[1:] + ["--help"]) == EXIT_OK
        assert capsys.readouterr().out == help_texts()[command]


class TestDataErrors:
    def test_missing_wav_leaves_no_outputs(self, capsys, tmp_path):
        outdir = tmp_path / "out"
        code = main(["transcribe", str(tmp_path / "missing.wav"),
                     "--method", "ost", "--output-dir", str(outdir)])
        assert code == EXIT_DATA
        assert not outdir.exists()

    def test_undecodable_wav(self, capsys, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio at all")
        code = main(["transcribe", str(bad), "--method", "ost",
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA

    def test_toy_output_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "nodir" / "table.tsv"
        code = main(["toy", "a", "--bins", "64", "--f-max", "700",
                     "--methods", "ost", "--output", str(target)])
        assert code == EXIT_DATA
        assert not target.exists()

    def test_eval_rejects_non_midi_rows(self, capsys, tmp_path):
        acts = tmp_path / "acts.tsv"
        acts.write_text("component\\time_s\t0\nfoo\t0.5\n")
        truth = tmp_path / "truth.tsv"
        write_ground_truth(truth, [NoteEvent(0.0, 1.0, 60)])
        code = main(["eval", str(acts), "--ground-truth", str(truth)])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("label", ["200", "128", "-1"])
    def test_eval_rejects_pitches_outside_midi(self, capsys, tmp_path, label):
        acts = tmp_path / "acts.tsv"
        acts.write_text(f"component\\time_s\t0\n{label}\t0.5\n")
        truth = tmp_path / "truth.tsv"
        write_ground_truth(truth, [NoteEvent(0.0, 1.0, 60)])
        code = main(["eval", str(acts), "--ground-truth", str(truth)])
        assert code == EXIT_DATA
        assert "0-127" in capsys.readouterr().err

    @pytest.mark.parametrize("n_samples", [0, 100])
    def test_wav_shorter_than_window(self, capsys, tmp_path, n_samples):
        path = tmp_path / "short.wav"
        write_wav(path, AudioBuffer(samples=np.zeros(n_samples), sample_rate=8000))
        code = main(["transcribe", str(path), "--method", "ost",
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wav_header_with_zero_sample_rate(self, capsys, tmp_path):
        path = tmp_path / "rate0.wav"
        write_wav(path, AudioBuffer(samples=np.zeros(8192), sample_rate=8000))
        raw = bytearray(path.read_bytes())
        raw[24:32] = bytes(8)  # the fmt chunk's sample rate and byte rate
        path.write_bytes(bytes(raw))
        code = main(["transcribe", str(path), "--method", "ost",
                     "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "0 Hz" in capsys.readouterr().err

    # each malformed table and the fault its message names
    MALFORMED_TABLES = {
        "component\\time_s\t0.2\t0.1\n60\t0.5\t0.5\n": "must increase",  # times fall
        "component\\time_s\t0.2\t0.2\n60\t0.5\t0.5\n": "must increase",  # times repeat
        "component\\time_s\t0.1\t0.2\n60\t-1\t0.5\n":  # negative activation
            "must be finite and non-negative",
        "component\\time_s\t0.1\t0.2\n60\tnan\t0.5\n":  # non-finite activation
            "must be finite and non-negative",
        "component\\time_s\t0.1\t0.2\nnoise\t1\t1\n":  # no pitch rows
            "contiguous MIDI range",
        "component\\time_s\t0.1\tinf\n60\t0.5\t0.5\n": "must be finite",  # infinite time
        "component\\time_s\t-inf\t0.1\n60\t0.5\t0.5\n": "must be finite",  # at the start
        "component\\time_s\tnan\t0.1\n60\t0.5\t0.5\n": "must be finite",  # a NaN time
    }

    @pytest.mark.parametrize("table", MALFORMED_TABLES)
    def test_eval_rejects_malformed_activations(self, capsys, tmp_path, table):
        acts = tmp_path / "acts.tsv"
        acts.write_text(table)
        truth = tmp_path / "truth.tsv"
        write_ground_truth(truth, [NoteEvent(0.0, 1.0, 60)])
        code = main(["eval", str(acts), "--ground-truth", str(truth)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err
        assert self.MALFORMED_TABLES[table] in err

    @staticmethod
    def scored_argv(command, note50, tmp_path, truth_bytes):
        """eval of a three-frame table (0.1, 0.7 and 5.0 s), or transcribe
        of note50, against a ground-truth file holding truth_bytes."""
        truth = tmp_path / "truth.tsv"
        truth.write_bytes(truth_bytes)
        if command == "eval":
            acts = tmp_path / "acts.tsv"
            acts.write_text("component\\time_s\t0.1\t0.7\t5\n60\t0.5\t0.5\t0.5\n")
            argv = ["eval", str(acts)]
        else:
            argv = ["transcribe", str(note50 / "note50.wav"), "--method", "ost",
                    "--output-dir", str(tmp_path / "out")]
        return argv + ["--ground-truth", str(truth)]

    @pytest.mark.parametrize("command", ["eval", "transcribe"])
    @pytest.mark.parametrize("pitch", ["inf", "-inf", "1e400"])
    def test_infinite_pitch_in_ground_truth(self, capsys, note50, tmp_path,
                                            command, pitch):
        # the pitch is rounded to an integer, which an infinity cannot be
        argv = self.scored_argv(command, note50, tmp_path, (
            f"OnsetTime\tOffsetTime\tMidiPitch\n0.0\t1.0\t{pitch}\n").encode())
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed row 2")
        assert "infinity" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "transcribe"])
    @pytest.mark.parametrize("offset", ["inf", "1e400"])
    def test_infinite_offset_in_ground_truth(self, capsys, note50, tmp_path,
                                             command, offset):
        # a note without an end would sound in every frame from its onset on
        argv = self.scored_argv(command, note50, tmp_path, (
            f"OnsetTime\tOffsetTime\tMidiPitch\n0.0\t{offset}\t60\n").encode())
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: malformed row 2 in {str(tmp_path / 'truth.tsv')!r}: "
            "offset must be finite\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, table", [
        ("eval", "truth.tsv"), ("transcribe", "truth.tsv"), ("eval", "acts.tsv")])
    def test_table_not_utf8(self, capsys, note50, tmp_path, command, table):
        argv = self.scored_argv(command, note50, tmp_path,
                                b"OnsetTime\tOffsetTime\tMidiPitch\n0.0\t1.0\t60\n")
        path = tmp_path / table
        path.write_bytes(path.read_bytes().replace(b"0.", b"0.\xff", 1))
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {str(path)!r} is not UTF-8 text: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_templates_above_the_wav_top_bin(self, capsys, note50, tmp_path):
        # 8 kHz audio tops out at 4 kHz; MIDI 108 sits at 4186 Hz
        code = main(["transcribe", str(note50 / "note50.wav"), "--method",
                     "plca", "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "bin grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transcribe", "sweep"])
    @pytest.mark.parametrize("method", cli.METHODS)
    def test_no_note_on_the_bin_grid(self, capsys, duet, tmp_path, command,
                                     method):
        # 8 kHz audio tops out at 4 kHz and MIDI 108 sits at 4186 Hz: no
        # method has a note to send mass to
        argv = [command, str(duet / "duet.wav"), "--method", method,
                "--window-len", "512", "--hop", "256",
                "--midi-low", "108", "--midi-high", "108"]
        if command == "transcribe":
            argv += ["--output-dir", str(tmp_path / "out")]
        else:
            argv += ["--ground-truth", str(duet / "truth.tsv")]
        assert main(argv) == EXIT_DATA
        assert "bin grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eval_scores_at_the_header_times(self, capsys, tmp_path):
        # frames centered at 0.1, 0.2 and 0.5 s: a note on [0.45, 0.55)
        # sounds in the third only, which a clock rebuilt from the first
        # two times would put at 0.3 s
        acts = tmp_path / "acts.tsv"
        acts.write_text("component\\time_s\t0.1\t0.2\t0.5\n"
                        "60\t0.2\t0.7\t0.9\n61\t0.8\t0.3\t0.1\n")
        truth = tmp_path / "truth.tsv"
        write_ground_truth(truth, [NoteEvent(0.45, 0.55, 60)])
        code = main(["eval", str(acts), "--ground-truth", str(truth)])
        assert code == EXIT_OK
        assert "tp=1 fp=0 fn=0" in capsys.readouterr().out

    def test_value_error_is_not_a_data_error(self, note50, tmp_path,
                                             monkeypatch):
        def broken(*args):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(cli, "decompose", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["transcribe", str(note50 / "note50.wav"), "--method", "ost",
                  "--output-dir", str(tmp_path / "out")])


def mutate(data: bytes, rng) -> bytes:
    """data with 1-3 edits at random places: a byte flipped, deleted or
    inserted, any of the 256 values."""
    data = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        edit, at = rng.integers(3), int(rng.integers(len(data)))
        if edit == 0:
            data[at] ^= int(rng.integers(1, 256))
        elif edit == 1:
            del data[at]
        else:
            data.insert(at, int(rng.integers(256)))
    return bytes(data)


class TestTextMutationFuzz:
    """Damaged text inputs of `ost eval` end as an exit code and at most one
    stderr line, never as a traceback."""

    INPUTS = {
        "acts.tsv": b"component\\time_s\t0.1\t0.7\t5\n60\t0.9\t0.1\t0.2\n"
                    b"61\t0.05\t0.8\t0.5\n62\t0\t0.1\t0.3\nnoise\t0.05\t0\t0\n",
        "truth.tsv": b"OnsetTime\tOffsetTime\tMidiPitch\n0\t0.5\t60\n0.6\t6\t61\n",
        "eval.cfg": b"# scoring input\nground_truth=truth.tsv\n",
    }
    ARGV = ["eval", "acts.tsv", "--config", "eval.cfg"]

    @pytest.mark.parametrize("seed, target", enumerate(INPUTS), ids=list(INPUTS))
    def test_mutated_input_ends_as_an_exit_code(self, capsys, tmp_path,
                                                monkeypatch, seed, target):
        monkeypatch.chdir(tmp_path)
        for name, data in self.INPUTS.items():
            Path(name).write_bytes(data)
        assert main(self.ARGV) == EXIT_OK
        assert "tp=3 fp=0 fn=0" in capsys.readouterr().out
        rng = np.random.default_rng(seed)
        failures = []
        for case in range(150):
            damaged = mutate(self.INPUTS[target], rng)
            Path(target).write_bytes(damaged)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(self.ARGV)
                except Exception as exc:  # recorded, so every case runs
                    code = repr(exc)
            err = capsys.readouterr().err
            if code not in (EXIT_OK, EXIT_USAGE, EXIT_DATA) or caught \
                    or len(err.splitlines()) > 1:
                failures.append((case, damaged, code, err, caught))
        assert failures == []


class TestNumericExit:
    # the ids name the classes these three LP failures once raised
    @pytest.mark.parametrize("problem, message", [
        ((np.ones(1), np.ones((2, 1)), np.array([1.0, 2.0])),
         "The problem is infeasible."),
        ((np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.zeros(1)),
         "The problem is unbounded."),
        ((np.zeros(5001), np.zeros((1, 5001)), np.zeros(1)),
         "5001 variables exceed the desk-scale guard (5000)"),
    ], ids=["LpInfeasibleError", "LpUnboundedError", "LpGuardError"])
    def test_lp_errors_are_numeric_errors(self, problem, message, capsys,
                                          note50, tmp_path, monkeypatch):
        # an LP failure is a NumericError, which main maps to exit 3
        monkeypatch.setattr(cli, "solve",
                            lambda *args: baselines.solve_lp(*problem))
        outdir = tmp_path / "out"
        code = main(["transcribe", str(note50 / "note50.wav"), "--method", "ost",
                     "--output-dir", str(outdir)])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("numeric error: " + message)
        assert not outdir.exists()

    def test_lp_guard_maps_to_numeric_code(self, capsys, note50, tmp_path):
        # 256-sample windows give 128 bins, past what the exact LP accepts.
        outdir = tmp_path / "out"
        code = main(["transcribe", str(note50 / "note50.wav"),
                     "--method", "ot_h", "--window-len", "256", "--hop", "128",
                     "--midi-low", "36", "--midi-high", "60",
                     "--output-dir", str(outdir)])
        assert code == EXIT_NUMERIC
        assert "numeric error" in capsys.readouterr().err
        assert not outdir.exists()

    def test_non_finite_plca_maps_to_numeric_code(self, capsys, duet,
                                                  tmp_path, monkeypatch):
        solve_block = baselines._plca_block

        def poisoned(*args):
            h, iters = solve_block(*args)
            h[0, 0] = np.nan
            return h, iters

        monkeypatch.setattr(baselines, "_plca_block", poisoned)
        outdir = tmp_path / "out"
        code = main(["transcribe", str(duet / "duet.wav"), "--method", "plca"]
                    + DUET_FLAGS + ["--output-dir", str(outdir)])
        assert code == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not outdir.exists()


class TestToy:
    def test_same_seed_same_errors(self, capsys):
        argv = ["toy", "a", "--bins", "64", "--f-max", "700", "--seed", "11"]
        assert main(argv) == EXIT_OK
        first = toy_errors(capsys.readouterr().out)
        assert main(argv) == EXIT_OK
        second = toy_errors(capsys.readouterr().out)
        assert first == second
        assert set(first) == {"plca", "ost", "ost_e", "ost_g", "ost_eg"}

    def test_group_variants_win_with_all_methods(self, capsys):
        code = main(["toy", "a", "--methods", "all", "--bins", "64",
                     "--f-max", "700", "--kernel-width-bins", "0.2",
                     "--seed", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("scenario=shifted_fundamentals seed=2 bins=64")
        errs = toy_errors(out)
        assert len(errs) == 6
        best_two = set(sorted(errs, key=errs.get)[:2])
        assert best_two == {"ost_g", "ost_eg"}

    def test_scenario_b_group_beats_plca(self, capsys):
        assert main(["toy", "b", "--seed", "0"]) == EXIT_OK
        errs = toy_errors(capsys.readouterr().out)
        assert errs["ost_g"] < errs["plca"]

    def test_output_table_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.tsv"
        code = main(["toy", "a", "--bins", "64", "--f-max", "700",
                     "--seed", "3", "--output", str(target)])
        assert code == EXIT_OK
        printed = toy_errors(capsys.readouterr().out)
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "method\tl1_error\tseconds"
        written = {row.split("\t")[0]: float(row.split("\t")[1])
                   for row in lines[1:]}
        assert written == printed
        assert list(written) == ["plca", "ost", "ost_e", "ost_g", "ost_eg"]


    def test_output_file_header_and_method_column(self, capsys, tmp_path):
        target = tmp_path / "table.tsv"
        assert main(["toy", "a", "--methods", "all", "--bins", "64",
                     "--f-max", "700", "--seed", "3",
                     "--output", str(target)]) == EXIT_OK
        lines = target.read_text().split("\n")
        assert lines[0] == "method\tl1_error\tseconds"
        assert [line.split("\t")[0] for line in lines[1:]] \
            == ["plca", "ot_h", "ost", "ost_e", "ost_g", "ost_eg", ""]
        assert all(len(line.split("\t")) == 3 for line in lines[1:-1])


class TestConfigFile:
    def test_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\nbins=64\nf_max=700\nmethods=ost\n")
        assert main(["toy", "a", "--config", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("scenario=shifted_fundamentals seed=7 bins=64")

    def test_explicit_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\nbins=64\nf_max=700\nmethods=ost\n")
        assert main(["toy", "a", "--config", str(cfg), "--seed", "9"]) \
            == EXIT_OK
        assert "seed=9" in capsys.readouterr().out.split("\n")[0]

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed\n")
        assert main(["toy", "a", "--config", str(cfg)]) == EXIT_USAGE

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=3\n")
        assert main(["toy", "a", "--config", str(cfg)]) == EXIT_USAGE

    def test_missing_file(self, capsys, tmp_path):
        code = main(["toy", "a", "--config", str(tmp_path / "none.cfg")])
        assert code == EXIT_USAGE

    def test_file_not_utf8(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=7\xff\n")
        assert main(["toy", "a", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {str(cfg)!r}: ")
        assert len(err.splitlines()) == 1

    def test_nul_character(self, capsys, tmp_path):
        # open() refuses a path holding one with a ValueError, no OSError
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=7\noutput=ta\0ble.tsv\n")
        assert main(["toy", "a", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err \
            == "error: config line 2 holds a NUL character\n"

    def test_config_without_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\n")
        assert main(["--config", str(cfg)]) == EXIT_USAGE

    def test_equals_form_reads_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\nbins=64\nf_max=700\nmethods=ost\n")
        assert main(["toy", "a", f"--config={cfg}"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("scenario=shifted_fundamentals seed=7 bins=64")

    def test_true_false_are_plain_values(self, capsys, duet, tmp_path):
        # lambda_e=false was once dropped, leaving the default weight; true
        # and false are values like any other, so sweep_noise= is an
        # unknown flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bins=64\nf_max=700\nmethods=ost_e\nlambda_e=false\n")
        assert main(["toy", "a", "--config", str(cfg)]) == EXIT_USAGE
        assert "--lambda-e" in capsys.readouterr().err
        for value in ("true", "False"):
            cfg.write_text(f"sweep_noise={value}\n")
            target = tmp_path / f"{value}.tsv"
            code = main(["sweep", str(duet / "duet.wav"), "--config", str(cfg),
                         "--ground-truth", str(duet / "truth.tsv"),
                         "--method", "ost", "--grid", "epsilon0=1",
                         "--output", str(target)] + DUET_FLAGS)
            assert code == EXIT_USAGE
            assert "--sweep-noise" in capsys.readouterr().err
            assert not target.exists()

    def test_file_cannot_name_another(self, capsys, tmp_path):
        # a nested file's lines were once spliced in and then ignored
        inner = tmp_path / "b.cfg"
        inner.write_text("seed=7\n")
        outer = tmp_path / "a.cfg"
        outer.write_text(f"bins=64\nf_max=700\nmethods=ost\nconfig={inner}\n")
        assert main(["toy", "a", "--config", str(outer)]) == EXIT_USAGE
        assert "line 4" in capsys.readouterr().err

    def test_second_file_is_refused(self, capsys, tmp_path):
        # the first file was once dropped without a word
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("seed=7\n")
        second.write_text("f_max=700\n")
        argv = ["toy", "a", "--methods", "ost", "--bins", "64",
                "--config", str(first)]
        for again in (["--config", str(second)], [f"--config={second}"]):
            assert main(argv + again) == EXIT_USAGE
            assert capsys.readouterr().err \
                == "error: --config may be given only once\n"


class TestTranscribe:
    def test_single_note_lands_on_its_pitch_not_the_octave(self, capsys,
                                                           note50, tmp_path):
        outdir = tmp_path / "out"
        code = main(["transcribe", str(note50 / "note50.wav"),
                     "--method", "ost_e", "--window-len", "1024",
                     "--hop", "512",
                     "--ground-truth", str(note50 / "truth.tsv"),
                     "--output-dir", str(outdir)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        match = re.search(r"f_measure=([0-9.]+)", out)
        assert float(match.group(1)) >= 0.9

        roll, rows, _ = read_matrix(outdir / "note50.ost_e.pianoroll.tsv")
        assert rows == [str(m) for m in range(21, 109)]
        active = roll[rows.index("50")]
        assert active.sum() >= roll.shape[1] // 2
        assert roll[rows.index("62")].sum() == 0

        report = dict(line.split("\t") for line in
                      (outdir / "note50.ost_e.report.tsv")
                      .read_text().strip().split("\n"))
        assert report["method"] == "ost_e"
        assert float(report["f_measure"]) >= 0.9
        for stage in ("decode", "stft", "decompose", "total"):
            assert float(report[f"wall_time_seconds.{stage}"]) >= 0

    def test_without_truth_writes_activations_and_report_only(self, capsys,
                                                              duet, tmp_path):
        outdir = tmp_path / "out"
        code = main(["transcribe", str(duet / "duet.wav"), "--method", "ost"]
                    + DUET_FLAGS + ["--output-dir", str(outdir)])
        assert code == EXIT_OK
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["duet.ost.activations.tsv", "duet.ost.report.tsv"]
        values, labels, times = read_activations(
            outdir / "duet.ost.activations.tsv")
        assert labels == [str(m) for m in range(55, 68)]
        # frame centers start at half the analysis window
        assert abs(times[0] - 512 / (2 * 8000)) < 1e-9

    def test_noise_column_adds_row(self, capsys, duet, tmp_path):
        outdir = tmp_path / "out"
        code = main(["transcribe", str(duet / "duet.wav"), "--method", "ost",
                     "--noise-amplitude", "50"] + DUET_FLAGS
                    + ["--output-dir", str(outdir)])
        assert code == EXIT_OK
        values, labels, _ = read_activations(
            outdir / "duet.ost.activations.tsv")
        assert labels[-1] == "noise"
        assert values.shape[0] == 14

    def test_activations_table_reads_back(self, capsys, duet, tmp_path):
        # the written table holds decompose's activations, noise row
        # included, to the 12 significant digits the writer keeps, at
        # load_frames' times; the piano roll has the same time header
        outdir = tmp_path / "out"
        code = main(["transcribe", str(duet / "duet.wav"), "--method", "ost_e",
                     "--lambda-e", "100", "--noise-amplitude", "50",
                     "--ground-truth", str(duet / "truth.tsv")]
                    + DUET_FLAGS + ["--output-dir", str(outdir)])
        assert code == EXIT_OK
        values, labels, times = read_activations(
            outdir / "duet.ost_e.activations.tsv")
        act_header = read_matrix(outdir / "duet.ost_e.activations.tsv")[2]
        _, roll_rows, roll_header = read_matrix(outdir / "duet.ost_e.pianoroll.tsv")
        assert roll_header == act_header
        assert roll_rows == [str(m) for m in range(55, 68)]

        cfg = RunConfig(method="ost_e", lambda_e=100.0, noise_amplitude=50.0,
                        midi_low=55, midi_high=67, window_len=512, hop=256)
        frames, freqs, expected_times, _ = load_frames(duet / "duet.wav", cfg)
        acts, expected_labels = decompose(frames, freqs, cfg)
        assert labels == expected_labels
        assert values.shape == acts.shape
        assert np.count_nonzero(values) > values.size // 2
        np.testing.assert_allclose(values, acts, rtol=1e-11, atol=0)
        np.testing.assert_allclose(times, expected_times, rtol=1e-11, atol=0)
        assert roll_header == [format(t, ".12g") for t in expected_times]

    def test_load_frames_returns_f_ordered_columns(self, duet):
        # the MM kernels gather their blocks in F order, a copy-free gather
        # only for F-ordered frames
        cfg = RunConfig(method="ost_eg", midi_low=55, midi_high=67,
                        window_len=512, hop=256)
        frames = load_frames(duet / "duet.wav", cfg)[0]
        assert frames.columns.flags.f_contiguous
        assert not frames.columns.flags.c_contiguous

    def test_peak_is_the_samples_and_two_frame_matrices(self, capsys, tmp_path):
        # 30 s of notes with silent gaps (masked frames). Holding the STFT's
        # windowed frames and complex spectra at once, or the samples, the
        # raw spectrogram and the frames through decompose, takes about
        # samples + 4 M x N matrices.
        events = [NoteEvent(t, t + 0.6, 45 + (5 * i) % 24)
                  for i, t in enumerate(np.arange(0.0, 30.0, 1.5))]
        write_wav(tmp_path / "piece.wav", render_notes(events, sample_rate=8000, seed=3))
        window_len, hop = 512, 256
        argv = ["transcribe", str(tmp_path / "piece.wav"), "--method", "ost",
                "--window-len", str(window_len), "--hop", str(hop),
                "--midi-low", "45", "--midi-high", "75",
                "--output-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK  # warm: imports and first-call caches
        code, peak = traced_peak(main, argv)
        assert code == EXIT_OK
        n_samples = decode_wav(tmp_path / "piece.wav").samples.size
        n_frames = (n_samples - window_len) // hop + 1
        frames_matrix = (window_len // 2) * n_frames * 8
        assert peak <= n_samples * 8 + 2 * frames_matrix + 2 ** 20

    def test_eval_reproduces_transcribe_scores(self, capsys, note50,
                                               tmp_path):
        outdir = tmp_path / "out"
        argv = ["transcribe", str(note50 / "note50.wav"), "--method", "ost_e",
                "--window-len", "1024", "--hop", "512",
                "--ground-truth", str(note50 / "truth.tsv"),
                "--output-dir", str(outdir)]
        assert main(argv) == EXIT_OK
        transcribed = capsys.readouterr().out
        report = tmp_path / "eval.tsv"
        code = main(["eval", str(outdir / "note50.ost_e.activations.tsv"),
                     "--ground-truth", str(note50 / "truth.tsv"),
                     "--output", str(report)])
        assert code == EXIT_OK
        evaluated = capsys.readouterr().out
        for field in ("precision", "recall", "f_measure"):
            want = re.search(rf"{field}=([0-9.]+)", transcribed).group(1)
            got = re.search(rf"{field}=([0-9.]+)", evaluated).group(1)
            assert want == got
        # the score lines of the transcribe report, then nothing else
        transcribe_report = outdir / "note50.ost_e.report.tsv"
        scores = transcribe_report.read_text().split("\n")[:6]
        assert report.read_text() == "\n".join(scores) + "\n"
        assert [line.split("\t")[0] for line in scores] \
            == ["precision", "recall", "f_measure", "tp", "fp", "fn"]


class TestSweep:
    def test_five_decade_grid_reports_best(self, capsys, duet, tmp_path):
        code = main(["sweep", str(duet / "duet.wav"),
                     "--ground-truth", str(duet / "truth.tsv"),
                     "--method", "ost_e", "--lambda-e", "300",
                     "--grid", "epsilon0=1,10,100,1000,10000"] + DUET_FLAGS)
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split() == ["epsilon0", "val_f_measure"]
        data = [line.split() for line in lines[2:7]]
        assert [float(row[0]) for row in data] == [1, 10, 100, 1000, 10000]
        scores = [float(row[1]) for row in data]
        best = re.search(r"val_f_measure=([0-9.]+)", lines[7])
        assert abs(float(best.group(1)) - max(scores)) < 5e-5

    def test_single_point_grid_matches_library_route(self, capsys, duet,
                                                     tmp_path):
        code = main(["sweep", str(duet / "duet.wav"),
                     "--ground-truth", str(duet / "truth.tsv"),
                     "--method", "ost_e", "--lambda-e", "100",
                     "--grid", "epsilon0=2"] + DUET_FLAGS)
        assert code == EXIT_OK
        printed = re.search(r"test_f_measure=([0-9.]+)",
                            capsys.readouterr().out)

        cfg = RunConfig(method="ost_e", epsilon0=2.0, lambda_e=100.0,
                        lambda_g=300.0, midi_low=55, midi_high=67,
                        window_len=512, hop=256)
        frames, freqs, times, _ = load_frames(duet / "duet.wav", cfg)
        pitch = decompose(frames, freqs, cfg)[0]
        truth = events_to_roll(parse_ground_truth(duet / "truth.tsv"), (55, 67),
                               times)
        half = frames.n_frames // 2
        ref = truth[:, half:]
        expected = f_measure(threshold_activations(pitch[:, half:], ref),
                             ref).f_measure
        assert abs(float(printed.group(1)) - expected) < 5e-5


    def test_each_grid_point_is_decomposed_once(self, capsys, duet,
                                                monkeypatch):
        calls = []

        def counted(frames, freqs, config):
            calls.append(config.epsilon0)
            return decompose(frames, freqs, config)

        monkeypatch.setattr(cli, "decompose", counted)
        code = main(["sweep", str(duet / "duet.wav"),
                     "--ground-truth", str(duet / "truth.tsv"),
                     "--method", "ost", "--grid", "epsilon0=1,10,100"]
                    + DUET_FLAGS)
        assert code == EXIT_OK
        assert calls == [1.0, 10.0, 100.0]

    @pytest.mark.parametrize("method, header, n_rows", [
        ("ost", "epsilon0", 5),
        ("ost_e", "epsilon0\tlambda_e", 20),
        ("plca", "damping\tkernel_width_bins", 12),
    ])
    def test_default_axes(self, capsys, duet, tmp_path, method, header,
                          n_rows):
        target = tmp_path / "sweep.tsv"
        code = main(["sweep", str(duet / "duet.wav"),
                     "--ground-truth", str(duet / "truth.tsv"),
                     "--method", method, "--output", str(target)] + DUET_FLAGS)
        assert code == EXIT_OK
        table, summary = target.read_text().split("\n\n")
        lines = table.split("\n")
        assert lines[0] == header + "\tval_f_measure"
        assert len(lines) == 1 + n_rows
        assert summary.startswith("best\t")

    def test_output_file_bytes(self, capsys, duet, tmp_path):
        target = tmp_path / "sweep.tsv"
        code = main(["sweep", str(duet / "duet.wav"),
                     "--ground-truth", str(duet / "truth.tsv"),
                     "--method", "ost", "--grid", "epsilon0=1,10,100",
                     "--grid", "noise_amplitude=10,100,1000",
                     "--output", str(target)] + DUET_FLAGS)
        assert code == EXIT_OK
        rows = "".join(f"{eps}\t{noise}\t{f}\n" for eps in (1, 10, 100)
                       for noise, f in ((10, "0.304347826087"), (100, 1),
                                        (1000, 1)))
        assert target.read_text() == (
            "epsilon0\tnoise_amplitude\tval_f_measure\n" + rows
            + "\nbest\tepsilon0=1 noise_amplitude=100\ntest_f_measure\t1\n")


class TestBench:
    def test_zero_frames_prints_empty_table(self, capsys):
        assert main(["bench", "--frames", "0"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split() == ["method", "total_s", "per_frame_s",
                                    "speedup_vs_plca"]
        assert len(lines) == 2  # header and its underline, no rows

    def test_zero_frames_writes_the_empty_table(self, capsys, tmp_path):
        target = tmp_path / "b.tsv"
        assert main(["bench", "--frames", "0", "--output", str(target)]) == EXIT_OK
        assert target.read_text() == "method\ttotal_s\tper_frame_s\tspeedup_vs_plca\n"
        assert capsys.readouterr().out.strip().split("\n")[-1] == f"wrote {target}"

    def test_small_run_times_three_methods(self, capsys):
        code = main(["bench", "--bins", "64", "--notes", "4",
                     "--frames", "3"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "bins=64 notes=4 frames=3 seed=0"
        rows = [line.split() for line in lines[3:]]
        assert [row[0] for row in rows] == ["plca", "ost", "ost_e"]
        assert float(rows[0][3]) == 1.0
        assert all(float(row[1]) > 0 for row in rows)

    def test_single_note_dictionary(self, capsys):
        assert main(["bench", "--bins", "32", "--notes", "1",
                     "--frames", "2"]) == EXIT_OK


    def test_output_header_and_method_column(self, capsys, tmp_path):
        target = tmp_path / "bench.tsv"
        assert main(["bench", "--bins", "64", "--notes", "4", "--frames", "3",
                     "--output", str(target)]) == EXIT_OK
        lines = target.read_text().split("\n")
        assert lines[0] == "method\ttotal_s\tper_frame_s\tspeedup_vs_plca"
        assert [line.split("\t")[0] for line in lines[1:]] \
            == ["plca", "ost", "ost_e", ""]
        assert lines[1].split("\t")[3] == "1"


EXTREME_VALUES = ("1e300", "1e-300", "1e308")


def extreme_cases():
    """(command, setting, method or None, value): every real-valued setting
    of every command that decomposes, at each extreme value; transcribe and
    sweep once per method the setting applies to, bar ot_h, whose exact LP
    refuses their 257-bin grids (toy runs it at 64 bins)."""
    cases = []
    for command in ("transcribe", "sweep"):
        for name in cli.SWEEPABLE:
            methods = sorted(cli.SETTINGS[name].metadata["methods"] - {"ot_h"})
            cases += [(command, name, m, v) for m in methods
                      for v in EXTREME_VALUES]
    toy = ["epsilon0", "lambda_e", "lambda_g", "kernel_width_bins", "damping",
           "f_max"]
    bench = ["epsilon0", "lambda_e", "kernel_width_bins", "damping"]
    cases += [("toy", n, None, v) for n in toy for v in EXTREME_VALUES]
    cases += [("bench", n, None, v) for n in bench for v in EXTREME_VALUES]
    return cases


class TestExtremeSettings:
    @pytest.mark.parametrize("command, name, method, value", extreme_cases())
    def test_ends_as_an_exit_code(self, capsys, note50, duet, tmp_path,
                                  command, name, method, value):
        flag = "--" + name.replace("_", "-")
        if command == "transcribe":
            argv = [command, str(note50 / "note50.wav"), "--method", method,
                    flag, value, "--output-dir", str(tmp_path)] + DUET_FLAGS
        elif command == "sweep":
            argv = [command, str(duet / "duet.wav"), "--ground-truth",
                    str(duet / "truth.tsv"), "--method", method,
                    "--grid", f"{name}={value}"] + DUET_FLAGS
        elif command == "toy":
            argv = [command, "a", "--methods", "all", "--bins", "64",
                    "--f-max", "700", flag, value]
        else:
            argv = [command, "--bins", "64", "--notes", "4", "--frames", "2",
                    flag, value]
        bufsize = np.getbufsize()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning seen before shows again
            code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        assert np.getbufsize() == bufsize
        if code != EXIT_OK:
            assert len(capsys.readouterr().err.splitlines()) == 1


class TestConsoleScript:
    def test_entry_point_is_installed(self, tmp_path):
        """The declared ``ost`` console script resolves to the CLI and runs.

        Reads ``[project.scripts]["ost"]`` from the repository's
        ``pyproject.toml`` and checks that the target loads as
        ``ost.cli.main``. Then runs that target in a fresh interpreter the
        way an installed launcher does (``sys.exit(main())``), as
        ``ost bench --frames 0``, and checks the exit code and that the
        output starts with the ``method`` table header. The child imports
        ``ost`` from the same source tree as this test process and runs
        outside the repository. Writing the launcher into ``bin/`` is
        left to pip and is not checked here, so no install is needed.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["ost"]
        ep = EntryPoint(name="ost", value=target, group="console_scripts")
        assert ep.load() is main

        launcher = (f"import sys; from {ep.module} import {ep.attr}; "
                    f"sys.exit({ep.attr}())")
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "bench", "--frames", "0"],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env=source_tree_env())
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("method"), proc.stderr


def run_probe(code, cwd):
    """Standard output of `code` run in a fresh interpreter on this tree."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, cwd=cwd, env=source_tree_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


LOADED_SCIPY = ("; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")


class TestStartup:
    def test_cli_import_leaves_lp_solver_unloaded(self, tmp_path):
        # scipy.optimize takes ~0.17 s to import; only solve_lp needs it
        probe = "import sys, ost.cli; print('scipy.optimize' in sys.modules)"
        assert run_probe(probe, tmp_path) == "False"

    @pytest.mark.parametrize("module", ["ost", "ost.cli"])
    def test_import_loads_no_scipy(self, tmp_path, module):
        # scipy.io alone took ~0.3 s of a 0.6 s start-up
        assert run_probe(f"import sys, {module}" + LOADED_SCIPY, tmp_path) == "[]"

    def test_transcribe_with_ost_loads_no_scipy(self, note50, tmp_path):
        argv = ["transcribe", str(note50 / "note50.wav"), "--method", "ost",
                "--window-len", "1024", "--hop", "512",
                "--ground-truth", str(note50 / "truth.tsv"),
                "--output-dir", str(tmp_path / "out")]
        probe = (f"import sys; from ost.cli import main; assert main({argv!r}) == 0"
                 + LOADED_SCIPY)
        assert run_probe(probe, tmp_path).splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "note50.ost.pianoroll.tsv").exists()


class TestWarnings:
    def test_each_call_warns_on_its_own_stderr(self, note50, tmp_path):
        # a root handler from logging.basicConfig kept the first call's
        # stderr, so a second in-process call's warning landed in the first
        # call's buffer; pytest installs root handlers of its own, so the
        # calls run in a fresh interpreter
        argv = ["transcribe", str(note50 / "note50.wav"), "--method", "ost",
                "--window-len", "1024", "--hop", "512",
                "--midi-low", "55", "--midi-high", "67",
                "--ground-truth", str(note50 / "truth.tsv"),
                "--output-dir", str(tmp_path / "out")]
        probe = ("import contextlib, io\nfrom ost.cli import main\n"
                 "errs = [io.StringIO(), io.StringIO()]\n"
                 "for err in errs:\n"
                 "    with contextlib.redirect_stderr(err):\n"
                 f"        assert main({argv!r}) == 0\n"
                 "print([err.getvalue() for err in errs])")
        line = "dropped 1 ground-truth events outside MIDI range [55, 67]\n"
        assert run_probe(probe, tmp_path).splitlines()[-1] == repr([line, line])
