"""Additive note rendering tests."""

import numpy as np
import pytest

from ost.evaluation import NoteEvent
from ost.frontend import stft_magnitude
from ost.synth import render_notes


class TestRenderNotes:
    def test_length_peak_and_determinism(self):
        events = [NoteEvent(0.0, 0.5, 60), NoteEvent(0.25, 1.0, 64)]
        buf = render_notes(events, sample_rate=8000, seed=3)
        assert buf.sample_rate == 8000
        assert buf.samples.size == int(round((1.0 + 0.1) * 8000))
        assert np.abs(buf.samples).max() == pytest.approx(0.5)
        again = render_notes(events, sample_rate=8000, seed=3)
        np.testing.assert_array_equal(buf.samples, again.samples)
        other = render_notes(events, sample_rate=8000, seed=4)
        assert not np.array_equal(buf.samples, other.samples)

    def test_fundamental_dominates_spectrum(self):
        buf = render_notes([NoteEvent(0.0, 1.0, 69)], sample_rate=44100,
                           seed=0)
        spec = stft_magnitude(buf, window_len=4096, hop=4096)
        mid = spec.values.shape[1] // 2
        peak = spec.freqs[np.argmax(spec.values[:, mid])]
        assert abs(peak - 440.0) < 44100.0 / 4096.0

    def test_partials_sit_at_integer_multiples(self):
        buf = render_notes([NoteEvent(0.0, 1.0, 57)], sample_rate=44100,
                           seed=1)
        nu = 220.0
        spec = stft_magnitude(buf, window_len=8192, hop=8192)
        column = spec.values[:, 0]
        resolution = 44100.0 / 8192.0
        for p in (1, 2, 3, 4):
            lo = int((p * nu - 4 * resolution) / resolution)
            hi = int((p * nu + 4 * resolution) / resolution)
            window_peak = spec.freqs[lo + np.argmax(column[lo:hi])]
            assert abs(window_peak - p * nu) < resolution

    def test_silence_between_notes(self):
        events = [NoteEvent(0.0, 0.2, 60), NoteEvent(0.8, 1.0, 60)]
        buf = render_notes(events, sample_rate=8000, seed=0)
        gap = buf.samples[int(0.3 * 8000):int(0.7 * 8000)]
        np.testing.assert_array_equal(gap, 0.0)

    def test_partials_above_nyquist_dropped(self):
        # at 2 kHz sampling, only the fundamental of MIDI 69 fits below
        # Nyquist; rendering must stay finite and keep the peak at 440
        buf = render_notes([NoteEvent(0.0, 1.0, 69)], sample_rate=2000,
                           seed=0)
        assert np.all(np.isfinite(buf.samples))
        spec = stft_magnitude(buf, window_len=512, hop=512)
        peak = spec.freqs[np.argmax(spec.values[:, 1])]
        assert abs(peak - 440.0) < 2 * 2000.0 / 512.0

    def test_inharmonicity_moves_partials(self):
        clean = render_notes([NoteEvent(0.0, 0.5, 60)], sample_rate=8000,
                             inharmonicity=0.0, seed=7)
        rough = render_notes([NoteEvent(0.0, 0.5, 60)], sample_rate=8000,
                             inharmonicity=0.01, seed=7)
        assert not np.array_equal(clean.samples, rough.samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            render_notes([], sample_rate=8000)
        with pytest.raises(ValueError):
            render_notes([NoteEvent(0.0, 1.0, 60)], sample_rate=0)
        with pytest.raises(ValueError):
            render_notes([NoteEvent(0.0, 1.0, 60)], inharmonicity=1.0)
        with pytest.raises(ValueError):
            render_notes([NoteEvent(0.0, 1.0, 60)], inharmonicity=-0.1)
