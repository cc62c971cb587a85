"""Correctness gate: compares what `ost` wrote or printed against the
independent reference in reference.py.

Each check returns a list of problems; an empty list means the output
passed. Expected values are computed once per method (or toy problem) and
cached.
"""

import hashlib

import numpy as np

import reference as ref

TOY_NOTES = len(ref.TOY_PITCHES)


def _g(x):
    return format(float(x), ".12g")


def digest(*texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def parse_matrix(text):
    """(corner, column labels, row labels, values) of a TSV matrix."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    labels, rows = [], []
    for line in lines[1:]:
        parts = line.split("\t")
        labels.append(parts[0])
        rows.append(np.array(parts[1:], dtype=np.float64))
    return header[0], header[1:], labels, np.array(rows)


def parse_report(text):
    return dict(line.split("\t", 1) for line in text.splitlines() if line)


class PieceGate:
    """Reference activations and scores for one rendered piece."""

    def __init__(self, pcm, sample_rate, window_len, hop, events, flags):
        self.columns, self.active, self.freqs = ref.frames_from_pcm(
            pcm, sample_rate, window_len, hop)
        n = self.columns.shape[1]
        t0 = window_len / (2.0 * sample_rate)
        hop_s = hop / sample_rate
        self.times = [_g(t) for t in t0 + hop_s * np.arange(n)]
        self.truth = ref.truth_roll(events, n, t0, hop_s)
        self.flags = flags
        self.expected = {}

    def _expected(self, method):
        if method not in self.expected:
            f = self.flags(method)
            self.expected[method] = ref.piece_activations(
                method, self.columns, self.active, self.freqs, **f)
        return self.expected[method]

    def check(self, method, act_text, report_text):
        values, labels = self._expected(method)
        try:
            corner, times, got_labels, got = parse_matrix(act_text)
            report = parse_report(report_text)
        except (ValueError, IndexError) as exc:
            return [f"{method}: unreadable output ({exc})"]
        problems = []
        if corner != "component\\time_s" or times != self.times:
            problems.append(f"{method}: frame-time header differs")
        if got_labels != labels or got.shape != values.shape:
            return problems + [f"{method}: rows {got_labels[:3]}... shape "
                               f"{got.shape}, expected {values.shape}"]
        atol = ref.tolerance(method)
        if atol is None:
            expected_rows = ["\t".join(_g(x) for x in row) for row in values]
            got_rows = [line.split("\t", 1)[1] for line in
                        act_text.rstrip("\n").split("\n")[1:]]
            if got_rows != expected_rows:
                problems.append(f"{method}: activation text differs from "
                                "the reference")
        elif not ref.within(got, values, atol):
            worst = float(np.abs(got - values).max())
            problems.append(f"{method}: activations off by {worst:.3e} "
                            f"(tolerance {atol:g})")
        tp, fp, fn, f = ref.score(got[:self.truth.shape[0]], self.truth)
        expected = {"f_measure": _g(f), "tp": str(tp), "fp": str(fp),
                    "fn": str(fn)}
        for key, value in expected.items():
            if report.get(key) != value:
                problems.append(f"{method}: report {key}={report.get(key)}, "
                                f"reference {value}")
        return problems


class ToyGate:
    """Reference l1 errors for the toy problems."""

    def __init__(self, bins, f_max):
        self.bins, self.f_max = bins, f_max
        self.expected = {}

    def l1(self, method, scenario, seed):
        key = (method, scenario, seed)
        if key not in self.expected:
            self.expected[key] = ref.toy_l1(method, scenario, seed,
                                            self.bins, self.f_max)
        return self.expected[key]

    def check(self, method, scenario, seed, stdout):
        rows = [line.split() for line in stdout.splitlines()]
        texts = [row[1] for row in rows if len(row) >= 2 and row[0] == method]
        if len(texts) != 1:
            return [f"toy {scenario}/{seed} {method}: no result row"]
        expected = self.l1(method, scenario, seed)
        atol = ref.tolerance(method)
        if atol is None:
            ok = texts[0] == _g(expected)
        else:
            try:
                ok = ref.within(float(texts[0]), expected, TOY_NOTES * atol)
            except ValueError:
                ok = False
        if ok:
            return []
        return [f"toy {scenario}/{seed} {method}: l1 {texts[0]}, "
                f"reference {_g(expected)}"]
