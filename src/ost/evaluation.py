"""Ground-truth ingestion, piano rolls, scoring, and toy unmixing scenarios."""

import logging
from dataclasses import dataclass

import numpy as np

from .dictionary import (DEFAULT_DAMPING, DEFAULT_KERNEL_WIDTH_BINS,
                         DEFAULT_N_PARTIALS, _check_comb, damped_weights,
                         harmonic_column, midi_to_freq)
from .errors import DataError
from .tsvio import read_lines

logger = logging.getLogger(__name__)

GROUND_TRUTH_COLUMNS = ("OnsetTime", "OffsetTime", "MidiPitch")

# Toy grid and synthesis defaults. The eight pitches keep the listed order:
# the 8th (MIDI 60) is the upper octave of the 1st (MIDI 48), acting as the
# decoy column that unregularized transport leaks even partials into.
# The grid is fine enough that the 2-bin kernel stays narrow against the
# closest equal-temperament partial collisions (a few Hz), so bumps do not
# straddle assignment boundaries between two active notes.
TOY_PITCHES = (48, 52, 55, 57, 59, 62, 64, 60)
TOY_PAIR_A = (0, 3)
TOY_PAIR_B = (0, 5)
TOY_BINS = 8192
TOY_F_MAX = 2800.0
TOY_SHIFT_PCT = 1.5
TOY_AMP_RANGE = (0.25, 4.0)
TOY_RESIDUAL_DECAY = 0.1
TOY_WEIGHTS = (0.5, 0.5)

SCENARIO_ALIASES = {
    "a": "shifted_fundamentals",
    "b": "wrong_amplitudes",
    "shifted_fundamentals": "shifted_fundamentals",
    "wrong_amplitudes": "wrong_amplitudes",
}


@dataclass(frozen=True)
class NoteEvent:
    onset_seconds: float
    offset_seconds: float
    midi_pitch: int

    def __post_init__(self):
        if not self.onset_seconds < self.offset_seconds:
            raise ValueError("onset must precede offset")
        if self.onset_seconds < 0:
            raise ValueError("onset must be non-negative")
        if not np.isfinite(self.offset_seconds):  # only +inf is left
            raise ValueError("offset must be finite")
        if not 0 <= self.midi_pitch <= 127:
            raise ValueError("midi_pitch out of range [0, 127]")


@dataclass(eq=False)
class EvalReport:
    """Pooled frame-level scores and counts."""

    precision: float
    recall: float
    f_measure: float
    tp: int
    fp: int
    fn: int


def events_to_roll(events, midi_range, times) -> np.ndarray:
    """The piano roll of events: a bool K x len(times) matrix whose row k is
    MIDI pitch midi_range[0] + k, active in frame n iff the note's [onset,
    offset) interval contains times[n], the frame's center in seconds.
    Pitches outside midi_range are dropped (logged with a count)."""
    low, high = midi_range
    times = np.asarray(times, dtype=np.float64)
    active = np.zeros((high - low + 1, times.size), dtype=bool)
    dropped = 0
    for ev in events:
        if not low <= ev.midi_pitch <= high:
            dropped += 1
            continue
        hit = (times >= ev.onset_seconds) & (times < ev.offset_seconds)
        active[ev.midi_pitch - low, hit] = True
    if dropped:
        logger.warning("dropped %d ground-truth events outside MIDI range [%d, %d]",
                       dropped, low, high)
    return active


def parse_ground_truth(path) -> list:
    """Read a MAPS-style annotation file: TSV with a header line naming
    OnsetTime, OffsetTime and MidiPitch columns."""
    lines = read_lines(path)
    if not lines:
        raise DataError(f"empty ground-truth file {path!r}")
    header = lines[0].split("\t")
    try:
        cols = [header.index(name) for name in GROUND_TRUTH_COLUMNS]
    except ValueError as exc:
        raise DataError(f"missing ground-truth columns in {path!r}: "
                        f"expected {GROUND_TRUTH_COLUMNS}") from exc
    events = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) <= max(cols):
            raise DataError(f"malformed row {lineno} in {path!r}")
        try:
            onset = float(parts[cols[0]])
            offset = float(parts[cols[1]])
            pitch = int(round(float(parts[cols[2]])))
            events.append(NoteEvent(onset, offset, pitch))
        except (ValueError, OverflowError) as exc:  # OverflowError: an infinite pitch
            raise DataError(f"malformed row {lineno} in {path!r}: {exc}") from exc
    return events


def load_ground_truth(path, midi_range, times) -> np.ndarray:
    """Parse a MAPS-style TSV and rasterize it onto frames centered at
    `times`."""
    return events_to_roll(parse_ground_truth(path), midi_range, times)


def threshold_activations(values, truth) -> np.ndarray:
    """Keep, per frame, the support of the P_n largest activation entries,
    where P_n is the ground-truth polyphony of frame n (ties resolve to the
    lowest index; P_n = 0 leaves the frame empty). Returns a roll of the
    truth roll's shape."""
    values, truth = np.asarray(values), np.asarray(truth, dtype=bool)
    if values.shape != truth.shape:
        raise ValueError("activations shape must match the truth roll")
    rank = np.empty(values.shape, dtype=np.intp)  # of each entry in its column
    np.put_along_axis(rank, np.argsort(-values, axis=0, kind="stable"),
                      np.arange(len(values))[:, None], axis=0)
    return rank < truth.sum(axis=0)


def f_measure(estimate, truth) -> EvalReport:
    """Frame-level precision/recall/F with counts pooled over two rolls of
    one shape."""
    est, ref = np.asarray(estimate, dtype=bool), np.asarray(truth, dtype=bool)
    if est.shape != ref.shape:
        raise ValueError("piano-roll shapes must match")
    tp, fp, fn = (int(m.sum()) for m in (est & ref, est & ~ref, ~est & ref))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(precision=precision, recall=recall, f_measure=f,
                      tp=tp, fp=fp, fn=fn)


def l1_activation_error(h_est, h_true) -> float:
    h_est = np.asarray(h_est, dtype=np.float64)
    h_true = np.asarray(h_true, dtype=np.float64)
    if h_est.shape != h_true.shape:
        raise ValueError("length mismatch")
    return float(np.abs(h_est - h_true).sum())


@dataclass(eq=False)
class ToyScenario:
    """One synthesized unmixing problem: a frame, its true activations, the
    note fundamentals, and the bin grid everything lives on. The OST methods
    need only the fundamentals; the baselines' clean templates come from
    `RunConfig.harmonic_dictionary(freqs, fundamentals)` in `ost.cli`."""

    freqs: np.ndarray
    frame: np.ndarray
    h_true: np.ndarray
    fundamentals: np.ndarray
    which: str


def toy_fundamentals() -> np.ndarray:
    return np.array([midi_to_freq(m) for m in TOY_PITCHES])


def make_toy_scenario(which: str, seed: int, bins: int = TOY_BINS,
                      f_max: float = TOY_F_MAX,
                      kernel_width_bins: float = DEFAULT_KERNEL_WIDTH_BINS,
                      damping: float = DEFAULT_DAMPING,
                      n_partials: int = DEFAULT_N_PARTIALS) -> ToyScenario:
    """Build one misspecified-unmixing draw.

    shifted_fundamentals ("a"): mix templates 1 and 4 with each note's
    fundamental moved by a seeded random sign times TOY_SHIFT_PCT percent,
    the shift propagated to all partials.

    wrong_amplitudes ("b"): mix templates 1 and 6 at the exact frequencies
    but with the partial amplitudes redrawn log-uniformly in TOY_AMP_RANGE
    around a TOY_RESIDUAL_DECAY envelope much flatter than the dictionary's,
    so the observed timbre no longer follows the modeled exponential
    envelope (each column renormalizes before mixing).

    The comb settings are checked as those of the baselines' clean,
    unshifted templates: ValueError, as from make_harmonic_dictionary, if
    they are out of range.
    """
    try:
        which = SCENARIO_ALIASES[which]
    except KeyError:
        raise ValueError(f"unknown scenario {which!r}") from None
    delta = f_max / bins
    freqs = delta * np.arange(1, bins + 1)
    kernel_width = kernel_width_bins * delta
    _check_comb(kernel_width, damping, n_partials)
    fundamentals = toy_fundamentals()

    rng = np.random.default_rng(seed)
    clean_weights = damped_weights(damping, n_partials)
    pair = TOY_PAIR_A if which == "shifted_fundamentals" else TOY_PAIR_B
    v = np.zeros_like(freqs)
    for note, weight in zip(pair, TOY_WEIGHTS):
        nu = fundamentals[note]
        if which == "shifted_fundamentals":
            sign = rng.choice((-1.0, 1.0))
            nu = nu * (1.0 + sign * TOY_SHIFT_PCT / 100.0)
            partial_weights = clean_weights
        else:
            lo, hi = np.log(TOY_AMP_RANGE[0]), np.log(TOY_AMP_RANGE[1])
            decay = np.exp(-TOY_RESIDUAL_DECAY * np.arange(1, n_partials + 1))
            partial_weights = decay * np.exp(rng.uniform(lo, hi, n_partials))
        col = harmonic_column(freqs, nu, kernel_width, partial_weights)
        if not col.sum() > 0:
            raise ValueError(f"note at {nu:g} Hz has no mass on the grid")
        v += weight * (col / col.sum())
    h_true = np.zeros(len(fundamentals))
    h_true[list(pair)] = TOY_WEIGHTS
    return ToyScenario(freqs=freqs, frame=v, h_true=h_true,
                       fundamentals=fundamentals, which=which)
