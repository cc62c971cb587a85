"""Audio decoding, magnitude spectrogram, and frame normalization.

The frontend turns a WAV file into a matrix of non-negative spectral frames
whose active columns are probability distributions over frequency bins.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

DEFAULT_WINDOW_LEN = 4096
DEFAULT_HOP = 2048
SILENCE_THRESHOLD = 1e-10
# Frames per rfft call of stft_magnitude; bounds its windowed-frame and
# complex-spectrum temporaries.
STFT_BLOCK_FRAMES = 64
SIMPLEX_TOL = 1e-9  # largest |sum - 1| NormalizedFrames accepts on an active column


@dataclass(eq=False)
class AudioBuffer:
    """Mono audio samples in [-1, 1] plus their sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        _check_finite(self.samples, "samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


def _check_finite(values: np.ndarray, name: str) -> float:
    """Raise ValueError unless every entry is finite, from one min/max pair
    rather than a bool temporary of the values' size: NaN propagates
    through min, and -inf / +inf are the min / max. Returns the min."""
    if values.size == 0:
        return 0.0
    low, high = values.min(), values.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError(f"{name} must be finite")
    return low


def _check_finite_non_negative(values: np.ndarray, name: str):
    """_check_finite, then the sign: a non-finite entry is reported first."""
    if _check_finite(values, name) < 0:
        raise ValueError(f"{name} must be non-negative")


@dataclass(eq=False)
class Spectrogram:
    """Non-negative M x N magnitude matrix with a bin frequency axis."""

    values: np.ndarray
    freqs: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.freqs = np.asarray(self.freqs, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be an M x N matrix")
        if self.values.shape[0] != self.freqs.shape[0]:
            raise ValueError("freqs length must match the number of rows")
        _check_finite_non_negative(self.values, "spectrogram values")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")


@dataclass(eq=False)
class NormalizedFrames:
    """Frame matrix whose active columns sum to one, to within SIMPLEX_TOL.

    `freqs` is the bin frequency axis of the source spectrogram, from which
    the costs and templates are built. The frames carry no time axis: the
    caller that chose the STFT hop places them in time (cli's
    load_frames).
    """

    columns: np.ndarray
    active_mask: np.ndarray
    freqs: np.ndarray = field(default=None)

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=np.float64)
        self.active_mask = np.asarray(self.active_mask, dtype=bool)
        if self.columns.ndim != 2:
            raise ValueError("columns must be an M x N matrix")
        _check_finite_non_negative(self.columns, "columns")
        if self.active_mask.shape != (self.columns.shape[1],):
            raise ValueError("active_mask length must match the frame count")
        sums = self.columns.sum(axis=0)[self.active_mask]
        if np.any(np.abs(sums - 1.0) > SIMPLEX_TOL):
            raise ValueError("active columns must sum to one")
        if self.freqs is None:
            self.freqs = np.arange(1, self.columns.shape[0] + 1, dtype=np.float64)
        else:
            self.freqs = np.asarray(self.freqs, dtype=np.float64)
            if self.freqs.shape != (self.columns.shape[0],):
                raise ValueError("freqs length must match the number of rows")

    @property
    def n_frames(self) -> int:
        return self.columns.shape[1]


# wFormatTag values, and the tail that a WAVE_FORMAT_EXTENSIBLE subformat
# GUID {XXXXXXXX-0000-0010-8000-00AA00389B71} shares with every plain format
WAVE_FORMAT_PCM = 1
WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
_GUID_TAIL = bytes.fromhex("800000aa00389b71")


def decode_wav(path) -> AudioBuffer:
    """Decode a 16-bit PCM or 32-bit float WAV file to mono samples in [-1, 1].

    Containers: little-endian RIFF, big-endian RIFX, and RF64 (sizes from its
    ds64 chunk). Encodings: format 1 (PCM, 16-bit), format 3 (IEEE float,
    32-bit), or WAVE_FORMAT_EXTENSIBLE with either as its subformat. Stereo
    input is downmixed by averaging the two channels. Chunks other than
    `fmt ` and `data` are skipped, and a `data` chunk cut short by the end of
    the file yields the whole frames present.

    A missing or unreadable file, a non-WAVE file, an invalid header, a
    missing `fmt ` or `data` chunk, non-finite samples, any other sample
    encoding (8-bit, 24/32-bit integer, 64-bit float, compressed) or more
    than two channels raise DataError.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        sample_rate, channels, data = _wav_data(raw, path)
    except (OSError, struct.error) as exc:
        raise DataError(f"cannot read WAV file {path!r}: {exc}") from exc

    # 16-bit PCM holds no NaN or inf: only float data can fail this check,
    # made on the float32 samples before the float64 copy
    if data.dtype.kind == "f" and data.size and not (
            np.isfinite(data.min()) and np.isfinite(data.max())):
        raise DataError(f"non-finite samples in {path!r}")
    samples = data.astype(np.float64)
    if data.dtype.kind == "i":
        samples /= 32768.0
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return AudioBuffer(samples=samples, sample_rate=sample_rate)


def _wav_data(raw: bytes, path):
    """(sample rate, channels, raw samples of the whole frames in `data`) of
    a WAV file's bytes."""
    container = raw[:4]
    if container not in (b"RIFF", b"RIFX", b"RF64") or raw[8:12] != b"WAVE":
        raise DataError(f"{path!r} is not a RIFF/RIFX/RF64 WAVE file")
    order = ">" if container == b"RIFX" else "<"
    pos, rf64_data_size, fmt = 12, None, None
    if container == b"RF64":
        if raw[12:16] != b"ds64":
            raise DataError(f"RF64 file {path!r} has no ds64 chunk")
        ds64_size, _, rf64_data_size = struct.unpack_from("<IQQ", raw, 16)
        pos = 20 + ds64_size
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        size = struct.unpack_from(order + "I", raw, pos + 4)[0]
        body = pos + 8
        if chunk_id == b"fmt ":
            fmt = _wav_format(raw[body:body + size], order, path)
        elif chunk_id == b"data":
            if fmt is None:
                break
            sample_rate, channels, dtype = fmt
            if rf64_data_size is not None:
                size = rf64_data_size
            n_frames = min(size, len(raw) - body) // (dtype.itemsize * channels)
            return sample_rate, channels, np.frombuffer(
                raw, dtype=dtype, count=n_frames * channels, offset=body)
        pos = body + size + size % 2
    raise DataError(f"no fmt chunk before the data in {path!r}" if fmt is None
                    else f"no data chunk in {path!r}")


def _wav_format(chunk: bytes, order: str, path):
    """(sample rate, channels, sample dtype) from a `fmt ` chunk body."""
    if len(chunk) < 16:
        raise DataError(f"fmt chunk of {path!r} is shorter than 16 bytes")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from(
        order + "HHIIHH", chunk)
    if tag == WAVE_FORMAT_EXTENSIBLE:
        if len(chunk) < 40 or struct.unpack_from(order + "H", chunk, 16)[0] < 22:
            raise DataError(f"truncated WAVE_FORMAT_EXTENSIBLE header in {path!r}")
        if chunk[28:40] == struct.pack(order + "HH", 0, 0x10) + _GUID_TAIL:
            tag = struct.unpack_from(order + "I", chunk, 24)[0]
    if tag == WAVE_FORMAT_PCM and byte_rate != rate * block_align:
        raise DataError(f"invalid WAV header in {path!r}: byte rate {byte_rate}"
                        f" != {rate} Hz x {block_align}-byte frames")
    if channels == 0 or rate == 0:
        raise DataError(f"WAV header of {path!r}: {channels} channels at {rate} Hz")
    width = block_align // channels
    if tag == WAVE_FORMAT_PCM and width == 2 and 8 < bits <= 16:
        dtype = np.dtype(order + "i2")
    elif tag == WAVE_FORMAT_IEEE_FLOAT and width == 4 and bits == 32:
        dtype = np.dtype(order + "f4")
    else:
        raise DataError(f"unsupported WAV encoding (format {tag:#x}, {bits}-bit in "
                        f"{width}-byte samples) in {path!r}: expected 16-bit PCM "
                        "or 32-bit float")
    if channels > 2:
        raise DataError(f"{channels}-channel WAV not supported (mono or stereo only)")
    return rate, channels, dtype


def stft_magnitude(audio: AudioBuffer, window_len: int = DEFAULT_WINDOW_LEN,
                   hop: int = DEFAULT_HOP) -> Spectrogram:
    """Hann-windowed magnitude spectrogram.

    Frames cover samples [n*hop, n*hop + window_len), no padding, so
    N = floor((len - window_len)/hop) + 1. The DC bin is dropped and the
    Nyquist bin kept: M = window_len/2 bins at freqs[i] = (i+1)*fs/window_len.

    The rfft runs over blocks of STFT_BLOCK_FRAMES frames, each block's
    magnitudes written into one preallocated N x M array whose transpose is
    returned (an F-ordered M x N matrix). So the call holds the output and
    one block's windowed frames and complex spectra, never all frames'; each
    frame's rfft is computed alone, so the values are those of one rfft over
    every frame, bit for bit.
    """
    x = audio.samples
    if x.size == 0:
        raise DataError("empty audio")
    if window_len > x.size:
        raise DataError(f"window ({window_len}) longer than signal ({x.size})")
    if not 0 < hop <= window_len:
        raise ValueError("hop must satisfy 0 < hop <= window_len")
    if window_len % 2 != 0:
        raise ValueError("window_len must be even")

    window = np.hanning(window_len)
    n_frames = (x.size - window_len) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, window_len)[::hop][:n_frames]
    m = window_len // 2
    magnitudes = np.empty((n_frames, m))
    for lo in range(0, n_frames, STFT_BLOCK_FRAMES):
        hi = lo + STFT_BLOCK_FRAMES
        spectra = np.fft.rfft(frames[lo:hi] * window, axis=1)
        np.abs(spectra[:, 1:], out=magnitudes[lo:hi])  # drop DC, keep Nyquist
    freqs = (np.arange(m) + 1) * (audio.sample_rate / window_len)
    return Spectrogram(values=magnitudes.T, freqs=freqs)


def normalize_frames(spec: Spectrogram) -> NormalizedFrames:
    """Normalize each column to sum to one; columns at or below
    SILENCE_THRESHOLD are zeroed and masked inactive."""
    sums = spec.values.sum(axis=0)
    active = sums > SILENCE_THRESHOLD
    # zeros_like keeps the F order, on which later column sums' bits depend
    columns = np.divide(spec.values, sums, out=np.zeros_like(spec.values),
                        where=active)
    return NormalizedFrames(columns=columns, active_mask=active,
                            freqs=spec.freqs.copy())
