"""Table I/O tests: round trips, atomicity, label handling."""

import os
from dataclasses import asdict

import numpy as np
import pytest

from ost.errors import DataError
from ost.evaluation import EvalReport, NoteEvent, parse_ground_truth
from ost.tsvio import (_format, atomic_write_text, format_table, matrix_text,
                       read_activations, read_matrix, write_activations,
                       write_matrix, write_pianoroll, write_report)

from helpers import write_ground_truth


def _format_cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    return str(x)


def matrix_text_per_cell(values, row_labels, col_labels, corner):
    """Reference for matrix_text: formats every cell on its own, with the
    isinstance chain matrix_text ran per cell before it picked one
    formatter per matrix."""
    lines = ["\t".join([corner] + [_format_cell(c) for c in col_labels])]
    for label, row in zip(row_labels, np.asarray(values)):
        lines.append("\t".join([_format_cell(label)]
                               + [_format_cell(x) for x in row]))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, 9.99999999999e-6, 1e-5, 1e16,
               123456789012345678.0, 0.1 + 0.2, np.nan, np.inf, -np.inf,
               -1.5, 1e-300, 2.5e300, 1.0 / 3.0, 123456789012.5]


def _wide_floats():
    rng = np.random.default_rng(70)
    signs = rng.choice([-1.0, 1.0], size=(7, 40))
    return signs * 10.0 ** rng.uniform(-310, 308, size=(7, 40))


MATRICES = {
    "float_edges": np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]),
    "float_wide_range": _wide_floats(),
    "float32": np.array([[0.0, -0.0, 1e-45, 9.99999999999e-6, 1e-5, 1e16,
                          0.1 + 0.2, np.nan, np.inf, -np.inf, 3.4e38, 0.7]],
                        dtype=np.float32),
    "longdouble": np.array([[0.1, 1e-5, 2.0 / 3.0]], dtype=np.longdouble),
    "int64": np.array([[123456789012345, -7, 0], [1, 2**62, -(2**63)]],
                      dtype=np.int64),
    "uint64": np.array([[2**64 - 1, 0]], dtype=np.uint64),
    "bool": np.random.default_rng(71).random((5, 9)) < 0.3,
    "object": np.array([["a", 1.5, 2, True]], dtype=object),
    "float_0xn": np.zeros((0, 3)),
    "float_mx0": np.zeros((2, 0)),
    "int_mx0": np.zeros((2, 0), dtype=np.int64),
    "bool_0xn": np.zeros((0, 3), dtype=bool),
    "bool_mx0": np.zeros((3, 0), dtype=bool),
}


class TestAtomicWrite:
    def test_writes_text(self, tmp_path):
        path = tmp_path / "out.tsv"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / "out.tsv"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_failure_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "out.tsv"
        with pytest.raises(TypeError):
            atomic_write_text(path, 12345)  # not a string: write() blows up
        assert not path.exists()
        assert os.listdir(tmp_path) == []

    def test_failure_keeps_previous_content(self, tmp_path):
        path = tmp_path / "out.tsv"
        atomic_write_text(path, "kept\n")
        with pytest.raises(TypeError):
            atomic_write_text(path, None)
        assert path.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["out.tsv"]


class TestMatrixRoundTrip:
    def test_values_and_labels_survive(self, tmp_path):
        path = tmp_path / "m.tsv"
        values = np.array([[1.5, -2.0], [0.0, 1e-11]])
        write_matrix(path, values, ["r0", "r1"], [0.0, 0.5], "corner\\t")
        got, rows, cols = read_matrix(path)
        np.testing.assert_allclose(got, values, rtol=1e-12)
        assert rows == ["r0", "r1"]
        assert [float(c) for c in cols] == [0.0, 0.5]

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            matrix_text(np.ones((2, 2)), ["a"], ["x", "y"], "c")

    @pytest.mark.parametrize("n", [0, 1, 647, 6461])
    def test_time_header_matches_per_label_format(self, n):
        # the header of float frame times is written by one %.12g template
        rng = np.random.default_rng(n)
        times = np.sort(rng.uniform(0.0, 400.0, size=n))
        times[:min(n, len(EDGE_FLOATS))] = EDGE_FLOATS[:n]  # 1e-5, 1e16, nan, ...
        header = matrix_text(np.zeros((0, n)), [], times, "midi\\time_s").split("\n")[0]
        assert header == "midi\\time_s" + "".join("\t" + _format(t) for t in times)
        listed = matrix_text(np.zeros((0, n)), [], times.tolist(), "c").split("\n")[0]
        assert listed == "c" + "".join("\t" + _format(t) for t in times)

    @pytest.mark.parametrize("labels", [[3, -(2**62)], [True, False], ["a", "0.30"],
                                        [np.float32(0.1), np.float32(1e-5)], [None, "x"]])
    def test_other_header_labels_match_per_label_format(self, labels):
        header = matrix_text(np.zeros((0, len(labels))), [], labels, "c").split("\n")[0]
        assert header == "c" + "".join("\t" + _format(x) for x in labels)

    def test_bool_and_int_formatting(self):
        text = matrix_text(np.array([[True, False]]), ["row"], [1, 2], "c")
        assert text == "c\t1\t2\nrow\t1\t0\n"

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_bytes_match_per_cell_formatting(self, name):
        values = MATRICES[name]
        m, n = values.shape
        rows = [f"r{i}" for i in range(m)]
        cols = 0.25 + 0.5 * np.arange(n)
        assert (matrix_text(values, rows, cols, "c")
                == matrix_text_per_cell(values, rows, cols, "c"))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, 1),
                                       (3, 17), (88, 647)])
    def test_bool_buffer_matches_per_cell_format(self, shape):
        # the bool branch writes all rows from one byte buffer
        rng = np.random.default_rng(sum(shape))
        for density in (0.0, 0.1, 0.5, 1.0):
            values = rng.random(shape) < density
            rows = [f"r{i}" for i in range(shape[0])]
            cols = list(range(shape[1]))
            lines = ["\t".join(["c"] + [_format(x) for x in cols])]
            lines += ["\t".join([label] + [_format(x) for x in row])
                      for label, row in zip(rows, values)]
            assert matrix_text(values, rows, cols, "c") == "\n".join(lines) + "\n"

    def test_read_errors(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        with pytest.raises(DataError):
            read_matrix(empty)
        ragged = tmp_path / "ragged.tsv"
        ragged.write_text("c\ta\tb\nrow\t1.0\n")
        with pytest.raises(DataError):
            read_matrix(ragged)
        alpha = tmp_path / "alpha.tsv"
        alpha.write_text("c\ta\nrow\tx\n")
        with pytest.raises(DataError):
            read_matrix(alpha)
        latin1 = tmp_path / "latin1.tsv"
        latin1.write_bytes(b"c\ta\n\xe9t\xe9\t1.0\n")
        with pytest.raises(DataError, match="latin1.tsv' is not UTF-8 text"):
            read_matrix(str(latin1))


class TestActivationsRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "acts.tsv"
        acts = np.array([[0.25, 0.75], [0.75, 0.25]])
        write_activations(path, acts, ["48", "60"], [0.25, 0.75])
        values, labels, times = read_activations(path)
        np.testing.assert_allclose(values, acts, rtol=1e-12)
        assert labels == ["48", "60"]
        np.testing.assert_allclose(times, [0.25, 0.75])

    def test_non_numeric_times_rejected(self, tmp_path):
        path = tmp_path / "acts.tsv"
        path.write_text("component\\time_s\tearly\n48\t0.5\n")
        with pytest.raises(DataError):
            read_activations(path)


class TestPianoRollWriter:
    def test_binary_cells_and_midi_labels(self, tmp_path):
        path = tmp_path / "roll.tsv"
        roll = np.array([[True, False], [False, True]])
        write_pianoroll(path, roll, 60, [0.0, 1.0])
        values, rows, cols = read_matrix(path)
        np.testing.assert_array_equal(values, [[1.0, 0.0], [0.0, 1.0]])
        assert rows == ["60", "61"]
        assert cols == ["0", "1"]


class TestWriterClock:
    @pytest.mark.parametrize("n_frames", [2, 4])
    def test_clock_of_another_frame_count_leaves_no_file(self, tmp_path,
                                                         n_frames):
        times = 0.5 * np.arange(n_frames)
        with pytest.raises(ValueError):
            write_activations(tmp_path / "acts.tsv", np.ones((2, 3)),
                              ["60", "61"], times)
        with pytest.raises(ValueError):
            write_pianoroll(tmp_path / "roll.tsv", np.ones((2, 3), dtype=bool),
                            60, times)
        assert os.listdir(tmp_path) == []


class TestReportWriter:
    def test_scores_counts_and_extras(self, tmp_path):
        path = tmp_path / "report.tsv"
        report = EvalReport(precision=0.5, recall=0.25, f_measure=1.0 / 3.0,
                            tp=2, fp=2, fn=6)
        write_report(path, list(asdict(report).items()) + [("method", "ost")])
        pairs = dict(line.split("\t")
                     for line in path.read_text().strip().split("\n"))
        assert float(pairs["precision"]) == 0.5
        assert float(pairs["recall"]) == 0.25
        assert int(pairs["tp"]) == 2 and int(pairs["fn"]) == 6
        assert pairs["method"] == "ost"

    def test_extra_only(self, tmp_path):
        path = tmp_path / "report.tsv"
        write_report(path, [("alpha", 1), ("beta", 2.5)])
        assert path.read_text() == "alpha\t1\nbeta\t2.5\n"


class TestGroundTruthWriter:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "truth.tsv"
        events = [NoteEvent(0.0, 0.5, 48), NoteEvent(0.25, 1.0, 62)]
        write_ground_truth(path, events)
        assert parse_ground_truth(path) == events
        header = path.read_text().split("\n", 1)[0]
        assert header == "OnsetTime\tOffsetTime\tMidiPitch"


class TestFormatTable:
    def test_alignment_golden(self):
        text = format_table(("method", "l1_error"),
                            [("plca", 0.5), ("ost_eg", 0.125)])
        assert text == ("method  l1_error\n"
                        "------  --------\n"
                        "plca    0.5\n"
                        "ost_eg  0.125")

    def test_wide_cells_stretch_columns(self):
        text = format_table(("k",), [("a_very_long_cell",)])
        lines = text.split("\n")
        assert lines[1] == "-" * len("a_very_long_cell")
