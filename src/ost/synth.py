"""Additive rendering of note lists into audio, for tests and demos."""

import numpy as np

from .dictionary import DEFAULT_DAMPING, DEFAULT_N_PARTIALS, midi_to_freq
from .frontend import AudioBuffer

FADE_SECONDS = 0.005
PEAK = 0.5
TAIL_SECONDS = 0.1


def render_notes(events, sample_rate: int = 44100, inharmonicity: float = 0.0,
                 seed: int = 0) -> AudioBuffer:
    """Sum damped sinusoid stacks for each note event.

    Each partial p = 1..DEFAULT_N_PARTIALS of a note at fundamental nu gets
    frequency p * nu * (1 + u) with u drawn uniformly from [-inharmonicity,
    +inharmonicity] (per note and partial), a random phase, and amplitude
    exp(-DEFAULT_DAMPING * p), the envelope of the default harmonic
    templates. Partials at or above Nyquist are dropped. Raised cosine fades
    of FADE_SECONDS avoid onset/offset clicks, the mix ends TAIL_SECONDS
    after the last offset and is scaled so its peak is PEAK.
    """
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    if not 0.0 <= inharmonicity < 1.0:
        raise ValueError("inharmonicity must lie in [0, 1)")
    events = list(events)
    if not events:
        raise ValueError("no events to render")
    rng = np.random.default_rng(seed)
    duration = max(ev.offset_seconds for ev in events) + TAIL_SECONDS
    out = np.zeros(int(round(duration * sample_rate)))
    nyquist = sample_rate / 2.0
    for ev in events:
        i0 = int(round(ev.onset_seconds * sample_rate))
        i1 = int(round(ev.offset_seconds * sample_rate))
        n = i1 - i0
        if n <= 0:
            continue
        t = np.arange(n) / sample_rate
        nu = midi_to_freq(ev.midi_pitch)
        note = np.zeros(n)
        for p in range(1, DEFAULT_N_PARTIALS + 1):
            detune = rng.uniform(-inharmonicity, inharmonicity)
            f = p * nu * (1.0 + detune)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            if f >= nyquist:
                continue
            note += np.exp(-DEFAULT_DAMPING * p) * np.sin(2.0 * np.pi * f * t + phase)
        fade = min(int(round(FADE_SECONDS * sample_rate)), n // 2)
        if fade > 0:
            ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
            note[:fade] *= ramp
            note[-fade:] *= ramp[::-1]
        out[i0:i1] += note
    top = np.abs(out).max()
    if top > 0:
        out *= PEAK / top
    return AudioBuffer(samples=out, sample_rate=sample_rate)
