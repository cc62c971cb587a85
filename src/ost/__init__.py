"""Optimal spectral transportation: fast harmonic-invariant unmixing.

Decomposes magnitude spectra onto a dictionary of note fundamentals by
transporting each frame's mass to Dirac targets under a harmonic-invariant
cost, in closed form per frame, with entropic and group-sparse variants,
plus PLCA and exact-LP baselines and a transcription evaluation harness.
"""

from .errors import OstError, DataError, NumericError
from .frontend import (AudioBuffer, Spectrogram, NormalizedFrames,
                       decode_wav, stft_magnitude, normalize_frames)
from .dictionary import (midi_to_freq, midi_range_fundamentals, harmonic_column,
                         make_harmonic_dictionary)
from .costs import (CostMatrix, quadratic_cost, harmonic_cost,
                    append_noise_column)
from .solvers import unmix
from .baselines import (PlcaState, plca_unmix, solve_lp,
                        wasserstein_divergence, ot_unmix_lp)
from .evaluation import (NoteEvent, EvalReport, parse_ground_truth,
                         events_to_roll, threshold_activations, f_measure,
                         l1_activation_error, make_toy_scenario)
from .synth import render_notes

__all__ = [
    "OstError", "DataError", "NumericError",
    "AudioBuffer", "Spectrogram", "NormalizedFrames", "decode_wav",
    "stft_magnitude", "normalize_frames",
    "midi_to_freq", "midi_range_fundamentals", "harmonic_column",
    "make_harmonic_dictionary",
    "CostMatrix", "quadratic_cost", "harmonic_cost", "append_noise_column",
    "unmix",
    "PlcaState", "plca_unmix", "solve_lp",
    "wasserstein_divergence", "ot_unmix_lp",
    "NoteEvent", "EvalReport",
    "parse_ground_truth", "events_to_roll",
    "threshold_activations", "f_measure", "l1_activation_error",
    "make_toy_scenario",
    "render_notes",
]
