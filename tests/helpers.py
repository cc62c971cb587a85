"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np

from ost.dictionary import (DEFAULT_KERNEL_WIDTH_BINS, HarmonicTemplateParams,
                            make_harmonic_dictionary)
from ost.frontend import NormalizedFrames
from ost.solvers import MM_BLOCK_FRAMES
from ost.tsvio import atomic_write_text, table_text


def write_ground_truth(path, events):
    """MAPS-style ground-truth TSV (OnsetTime, OffsetTime, MidiPitch) of
    NoteEvents, in the number format the program writes."""
    rows = [(ev.onset_seconds, ev.offset_seconds, ev.midi_pitch) for ev in events]
    atomic_write_text(path, table_text(("OnsetTime", "OffsetTime", "MidiPitch"),
                                       rows))


def toy_templates(sc, kernel_width_bins=DEFAULT_KERNEL_WIDTH_BINS):
    """The clean harmonic templates of toy scenario `sc`, built at the kernel
    width (in bins) the scenario was built with."""
    bin_hz = sc.freqs[1] - sc.freqs[0]
    params = HarmonicTemplateParams(kernel_width=kernel_width_bins * bin_hz)
    return make_harmonic_dictionary(sc.freqs, sc.fundamentals, params)


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the peak bytes tracemalloc saw allocated during it)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def partly_masked_frames(rng, m, n):
    """n random simplex frames of m bins, F-ordered as the STFT gives them,
    with the first frame, the two around the first block edge and the last
    frame masked and zeroed."""
    columns = rng.dirichlet(np.full(m, 0.5), size=n).T
    masked = [0, MM_BLOCK_FRAMES - 1, MM_BLOCK_FRAMES, n - 1]
    columns[:, masked] = 0.0
    mask = np.ones(n, dtype=bool)
    mask[masked] = False
    return NormalizedFrames(columns=columns, active_mask=mask)


def active_copy(frames):
    """The active columns of frames, copied out, as all-active frames."""
    columns = frames.columns[:, frames.active_mask]
    return NormalizedFrames(columns=columns,
                            active_mask=np.ones(columns.shape[1], dtype=bool))
