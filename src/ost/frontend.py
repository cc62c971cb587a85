"""Audio decoding, magnitude spectrogram, and frame normalization.

The frontend turns a WAV file into a matrix of non-negative spectral frames
whose active columns are probability distributions over frequency bins.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.io.wavfile

from .errors import DecodeError, UnsupportedEncodingError

DEFAULT_WINDOW_LEN = 4096
DEFAULT_HOP = 2048
DEFAULT_SILENCE_THRESHOLD = 1e-10


@dataclass(eq=False)
class AudioBuffer:
    """Mono audio samples in [-1, 1] plus their sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass(eq=False)
class Spectrogram:
    """Non-negative M x N magnitude matrix with a bin frequency axis."""

    values: np.ndarray
    freqs: np.ndarray
    frame_hop_seconds: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be an M x N matrix")
        if self.values.shape[0] != self.freqs.shape[0]:
            raise ValueError("freqs length must match the number of rows")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrogram values must be finite")
        if np.any(self.values < 0):
            raise ValueError("spectrogram values must be non-negative")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if self.frame_hop_seconds <= 0:
            raise ValueError("frame_hop_seconds must be positive")


@dataclass(eq=False)
class NormalizedFrames:
    """Frame matrix whose active columns sum to one.

    `freqs` and `frame_hop_seconds` are carried along from the source
    spectrogram so downstream consumers keep the frequency axis and the
    frame clock.
    """

    columns: np.ndarray
    active_mask: np.ndarray
    freqs: np.ndarray = field(default=None)
    frame_hop_seconds: float = 1.0

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=np.float64)
        self.active_mask = np.asarray(self.active_mask, dtype=bool)
        if self.columns.ndim != 2:
            raise ValueError("columns must be an M x N matrix")
        if not np.all(np.isfinite(self.columns)):
            raise ValueError("columns must be finite")
        if np.any(self.columns < 0):
            raise ValueError("columns must be non-negative")
        if self.active_mask.shape != (self.columns.shape[1],):
            raise ValueError("active_mask length must match the frame count")
        if self.freqs is None:
            self.freqs = np.arange(1, self.columns.shape[0] + 1, dtype=np.float64)
        else:
            self.freqs = np.asarray(self.freqs, dtype=np.float64)

    @property
    def n_frames(self) -> int:
        return self.columns.shape[1]


def decode_wav(path) -> AudioBuffer:
    """Decode a 16-bit PCM or 32-bit float WAV file to mono samples in [-1, 1].

    Stereo input is downmixed by averaging the two channels. Unreadable
    files raise DecodeError; any other sample encoding (8-bit, 24/32-bit
    integer, 64-bit float) raises UnsupportedEncodingError.
    """
    try:
        sample_rate, data = scipy.io.wavfile.read(path)
    except (OSError, ValueError) as exc:
        raise DecodeError(f"cannot read WAV file {path!r}: {exc}") from exc

    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise UnsupportedEncodingError(
            f"unsupported WAV encoding {data.dtype} in {path!r}: "
            "expected 16-bit PCM or 32-bit float"
        )

    if samples.ndim == 2:
        if samples.shape[1] > 2:
            raise UnsupportedEncodingError(
                f"{samples.shape[1]}-channel WAV not supported (mono or stereo only)"
            )
        samples = samples.mean(axis=1)
    if not np.all(np.isfinite(samples)):
        raise DecodeError(f"non-finite samples in {path!r}")
    return AudioBuffer(samples=samples, sample_rate=int(sample_rate))


def stft_magnitude(audio: AudioBuffer, window_len: int = DEFAULT_WINDOW_LEN,
                   hop: int = DEFAULT_HOP) -> Spectrogram:
    """Hann-windowed magnitude spectrogram.

    Frames cover samples [n*hop, n*hop + window_len), no padding, so
    N = floor((len - window_len)/hop) + 1. The DC bin is dropped and the
    Nyquist bin kept: M = window_len/2 bins at freqs[i] = (i+1)*fs/window_len.
    """
    x = audio.samples
    if x.size == 0:
        raise ValueError("empty audio")
    if window_len > x.size:
        raise ValueError(f"window ({window_len}) longer than signal ({x.size})")
    if not 0 < hop <= window_len:
        raise ValueError("hop must satisfy 0 < hop <= window_len")
    if window_len % 2 != 0:
        raise ValueError("window_len must be even")

    window = np.hanning(window_len)
    n_frames = (x.size - window_len) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, window_len)[::hop][:n_frames]
    spectra = np.fft.rfft(frames * window, axis=1)
    values = np.abs(spectra[:, 1:]).T  # drop DC, keep Nyquist: M = window_len/2
    m = window_len // 2
    freqs = (np.arange(m) + 1) * (audio.sample_rate / window_len)
    return Spectrogram(values=values, freqs=freqs,
                       frame_hop_seconds=hop / audio.sample_rate)


def normalize_frames(spec: Spectrogram,
                     silence_threshold: float = DEFAULT_SILENCE_THRESHOLD) -> NormalizedFrames:
    """Normalize each column to sum to one; columns at or below the silence
    threshold are zeroed and masked inactive."""
    if silence_threshold < 0:
        raise ValueError("silence_threshold must be non-negative")
    sums = spec.values.sum(axis=0)
    active = sums > silence_threshold
    columns = np.zeros_like(spec.values)
    if np.any(active):
        columns[:, active] = spec.values[:, active] / sums[active]
    return NormalizedFrames(columns=columns, active_mask=active,
                            freqs=spec.freqs.copy(),
                            frame_hop_seconds=spec.frame_hop_seconds)
