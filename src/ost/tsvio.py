"""Tab-separated readers and writers for every artifact the tools emit.

All writers go through an atomic path: content is written to a temporary
file in the destination directory and renamed over the target only once
the write succeeded, so a crash never leaves a truncated artifact behind.
"""

import os
import tempfile

import numpy as np

from .errors import DataError


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


def _row_cells(values: np.ndarray) -> list:
    """The cells of each row of `values`, each led by a tab, with the bytes
    _format gives; one string per row. `%.12g` is the C routine behind
    format(x, ".12g"); integers use `%d`, which stays exact beyond 12
    digits. A bool matrix is written at once as one byte buffer of
    (tab, '0' or '1') pairs."""
    kind = values.dtype.kind
    if kind == "b":
        pairs = np.empty(values.shape + (2,), dtype=np.uint8)
        pairs[..., 0] = ord("\t")
        pairs[..., 1] = values
        pairs[..., 1] += ord("0")
        text, width = pairs.tobytes().decode("ascii"), 2 * values.shape[1]
        return [text[i * width:(i + 1) * width] for i in range(values.shape[0])]
    if kind in "fiu":
        template = ("\t%.12g" if kind == "f" else "\t%d") * values.shape[1]
        return [template % tuple(row.tolist()) for row in values]
    return ["".join(["\t" + _format(x) for x in row]) for row in values]


def matrix_text(values, row_labels, col_labels, corner: str) -> str:
    values = np.asarray(values)
    if values.shape != (len(row_labels), len(col_labels)):
        raise ValueError("label counts must match the matrix shape")
    lines = [corner + _row_cells(np.asarray(col_labels)[None])[0]]  # frame times: one template
    lines += [_format(label) + cells
              for label, cells in zip(row_labels, _row_cells(values))]
    return "\n".join(lines) + "\n"


def read_lines(path) -> list:
    """The non-blank lines of a UTF-8 text file, without their newlines;
    DataError naming the file if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path!r} is not UTF-8 text: {exc}") from exc


def read_matrix(path):
    """Inverse of matrix_text: returns (values, row_labels, col_labels)."""
    lines = read_lines(path)
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


def write_activations(path, values, row_labels, times):
    """A K x N activation matrix with one column per frame, headed by the
    frame's center time in seconds; `times` of another length raises
    ValueError."""
    atomic_write_text(path, matrix_text(values, row_labels, times,
                                        "component\\time_s"))


def read_activations(path):
    """Returns (values, row_labels, times). The inverse of write_activations."""
    values, row_labels, col_labels = read_matrix(path)
    try:
        times = np.array([float(c) for c in col_labels])
    except ValueError as exc:
        raise DataError(f"non-numeric frame times in {path!r}") from exc
    if not np.all(np.isfinite(times)):
        raise DataError(f"frame times in {path!r} must be finite")
    if not np.all(np.diff(times) > 0):
        raise DataError(f"frame times in {path!r} must increase")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise DataError(f"activations in {path!r} must be finite and non-negative")
    return values, row_labels, times


def write_pianoroll(path, roll, midi_low: int, times):
    """A bool piano roll as write_activations writes activations, row k
    labelled by MIDI pitch midi_low + k."""
    labels = list(range(midi_low, midi_low + len(roll)))
    atomic_write_text(path, matrix_text(roll, labels, times, "midi\\time_s"))


def write_report(path, pairs):
    """Key/value table, one (key, value) pair per line."""
    lines = [f"{key}\t{_format(value)}" for key, value in pairs]
    atomic_write_text(path, "\n".join(lines) + "\n")


def table_text(headers, rows) -> str:
    """TSV text of a header line and rows of cells (an empty row gives a
    blank line)."""
    lines = ["\t".join(headers)]
    lines += ["\t".join([_format(x) for x in row]) for row in rows]
    return "\n".join(lines) + "\n"


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
