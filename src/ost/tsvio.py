"""Tab-separated readers and writers for every artifact the tools emit.

All writers go through an atomic path: content is written to a temporary
file in the destination directory and renamed over the target only once
the write succeeded, so a crash never leaves a truncated artifact behind.
"""

import os
import tempfile

import numpy as np

from .dictionary import Dictionary, midi_to_freq
from .errors import DataError
from .evaluation import EvalReport, PianoRoll
from .solvers import Activations


def _format(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    return str(x)


def atomic_write_text(path, text: str):
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-", suffix=".tsv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def matrix_text(values, row_labels, col_labels, corner: str) -> str:
    values = np.asarray(values)
    if values.shape != (len(row_labels), len(col_labels)):
        raise ValueError("label counts must match the matrix shape")
    lines = ["\t".join([corner] + [_format(c) for c in col_labels])]
    for label, row in zip(row_labels, values):
        lines.append("\t".join([_format(label)] + [_format(x) for x in row]))
    return "\n".join(lines) + "\n"


def write_matrix(path, values, row_labels, col_labels, corner: str):
    atomic_write_text(path, matrix_text(values, row_labels, col_labels, corner))


def read_matrix(path):
    """Inverse of write_matrix: returns (values, row_labels, col_labels)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise DataError(f"empty table {path!r}")
    header = lines[0].split("\t")
    col_labels = header[1:]
    row_labels, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(header):
            raise DataError(f"ragged row {lineno} in {path!r}")
        row_labels.append(parts[0])
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise DataError(f"non-numeric cell at row {lineno} in {path!r}") from exc
    values = np.array(rows) if rows else np.zeros((0, len(col_labels)))
    return values, row_labels, col_labels


def frame_times(n_frames: int, hop_seconds: float, t0: float = 0.0) -> np.ndarray:
    return t0 + hop_seconds * np.arange(n_frames)


def activation_row_labels(dictionary: Dictionary, midi_pitches=None,
                          noise: bool = False):
    """Row labels for an activation table: MIDI numbers when known, else
    fundamentals in Hz, plus a trailing `noise` row when one exists."""
    if midi_pitches is not None:
        labels = [str(int(m)) for m in midi_pitches]
    else:
        labels = [_format(f) for f in dictionary.fundamentals]
    if noise:
        labels.append("noise")
    return labels


def write_activations(path, acts: Activations, row_labels, t0: float = 0.0):
    times = frame_times(acts.values.shape[1], acts.frame_hop_seconds, t0)
    write_matrix(path, acts.values, row_labels, times, "component\\time_s")


def read_activations(path):
    """Returns (values, row_labels, times). The inverse of write_activations."""
    values, row_labels, col_labels = read_matrix(path)
    try:
        times = np.array([float(c) for c in col_labels])
    except ValueError as exc:
        raise DataError(f"non-numeric frame times in {path!r}") from exc
    return values, row_labels, times


def write_pianoroll(path, roll: PianoRoll, t0: float = 0.0):
    times = frame_times(roll.active.shape[1], roll.frame_hop_seconds, t0)
    labels = list(range(roll.midi_low, roll.midi_high + 1))
    write_matrix(path, roll.active.astype(int), labels, times, "midi\\time_s")


def write_report(path, report: EvalReport = None, extra=None):
    """Key/value table: scores and counts (when a report is given) plus any
    wall times and extra pairs."""
    pairs = []
    if report is not None:
        pairs += [("precision", report.precision), ("recall", report.recall),
                  ("f_measure", report.f_measure), ("tp", report.tp),
                  ("fp", report.fp), ("fn", report.fn)]
        for name, seconds in sorted(report.wall_time_seconds.items()):
            pairs.append((f"wall_time_seconds.{name}", seconds))
    if extra:
        pairs.extend(extra.items() if isinstance(extra, dict) else extra)
    lines = [f"{key}\t{_format(value)}" for key, value in pairs]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_ground_truth(path, events):
    lines = ["\t".join(("OnsetTime", "OffsetTime", "MidiPitch"))]
    for ev in events:
        lines.append("\t".join((_format(ev.onset_seconds),
                                _format(ev.offset_seconds),
                                str(ev.midi_pitch))))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_dictionary(path, dictionary: Dictionary):
    if dictionary.kind == "dirac":
        lines = ["fundamental_hz"]
        lines += [_format(f) for f in dictionary.fundamentals]
        atomic_write_text(path, "\n".join(lines) + "\n")
    else:
        write_matrix(path, dictionary.templates,
                     [f"bin{i}" for i in range(dictionary.templates.shape[0])],
                     dictionary.fundamentals, "bin\\fundamental_hz")


def format_table(headers, rows) -> str:
    """Monospace table for terminal summaries (not TSV)."""
    cells = [[_format(x) for x in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(parts):
        return "  ".join(p.ljust(w) for p, w in zip(parts, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out += [line(row) for row in cells]
    return "\n".join(out)


def midi_labels_for(fundamentals, midi_pitches) -> list:
    """Sanity-checked MIDI labels: each pitch must map to its fundamental."""
    labels = []
    for m, f in zip(midi_pitches, fundamentals):
        if abs(midi_to_freq(m) - f) > 1e-6 * f:
            raise ValueError("midi pitches do not match fundamentals")
        labels.append(str(int(m)))
    return labels
