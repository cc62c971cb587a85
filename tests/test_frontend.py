"""Frontend tests: WAV decoding, spectrogram shape and content, normalization.

The spectrogram is checked against a direct DFT evaluated with an explicit
double loop, so any disagreement points at the frontend rather than at the
FFT library.
"""

import struct
import warnings

import numpy as np
import pytest
import scipy.io.wavfile

from ost.baselines import plca_unmix
from ost.cli import RunConfig, load_frames
from ost.costs import CostMatrix
from ost.errors import DataError
from ost.frontend import (SILENCE_THRESHOLD, SIMPLEX_TOL,
                          STFT_BLOCK_FRAMES, AudioBuffer, NormalizedFrames,
                          Spectrogram, decode_wav, normalize_frames,
                          stft_magnitude)

from helpers import traced_peak, write_wav


def dft_magnitudes(frame, window):
    """O(N^2) windowed DFT magnitudes for bins 1..N/2, written longhand."""
    n = frame.size
    out = np.zeros(n // 2)
    for k in range(1, n // 2 + 1):
        acc = 0.0 + 0.0j
        for t in range(n):
            acc += window[t] * frame[t] * np.exp(-2j * np.pi * k * t / n)
        out[k - 1] = abs(acc)
    return out


def one_shot_stft(x, window_len, hop):
    """The unblocked spectrogram: one rfft over every windowed frame."""
    n_frames = (x.size - window_len) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, window_len)[::hop][:n_frames]
    spectra = np.fft.rfft(frames * np.hanning(window_len), axis=1)
    return np.abs(spectra[:, 1:]).T


class TestDecodeWav:
    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "mono16.wav"
        data = np.array([0, 16384, -32768, 32767], dtype=np.int16)
        scipy.io.wavfile.write(path, 8000, data)
        buf = decode_wav(path)
        assert buf.sample_rate == 8000
        np.testing.assert_allclose(
            buf.samples, [0.0, 0.5, -1.0, 32767.0 / 32768.0], atol=0)

    def test_float32_passthrough(self, tmp_path):
        path = tmp_path / "mono32f.wav"
        data = np.array([0.25, -0.75, 1.0, -1.0], dtype=np.float32)
        scipy.io.wavfile.write(path, 44100, data)
        buf = decode_wav(path)
        np.testing.assert_allclose(buf.samples, data.astype(np.float64), atol=0)

    def test_stereo_downmix_is_channel_mean(self, tmp_path):
        path = tmp_path / "stereo.wav"
        left = np.array([0.2, 0.4, -0.6], dtype=np.float32)
        right = np.array([0.6, 0.0, -0.2], dtype=np.float32)
        scipy.io.wavfile.write(path, 16000, np.stack([left, right], axis=1))
        buf = decode_wav(path)
        np.testing.assert_allclose(buf.samples, (left + right) / 2.0, atol=1e-12)

    def test_uint8_rejected(self, tmp_path):
        path = tmp_path / "mono8.wav"
        scipy.io.wavfile.write(path, 8000, np.array([0, 128, 255], dtype=np.uint8))
        with pytest.raises(DataError, match="unsupported WAV encoding"):
            decode_wav(path)

    def test_int32_rejected(self, tmp_path):
        path = tmp_path / "mono32i.wav"
        scipy.io.wavfile.write(path, 8000, np.array([0, 1 << 20], dtype=np.int32))
        with pytest.raises(DataError, match="unsupported WAV encoding"):
            decode_wav(path)

    def test_more_than_two_channels_rejected(self, tmp_path):
        path = tmp_path / "quad.wav"
        data = np.zeros((16, 4), dtype=np.int16)
        scipy.io.wavfile.write(path, 8000, data)
        with pytest.raises(DataError, match="4-channel WAV not supported"):
            decode_wav(path)

    def test_garbage_file_raises_decode_error(self, tmp_path):
        path = tmp_path / "not_audio.wav"
        path.write_text("certainly not RIFF data")
        with pytest.raises(DataError, match="is not a RIFF/RIFX/RF64 WAVE file"):
            decode_wav(path)

    def test_missing_file_raises_decode_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read WAV file"):
            decode_wav(tmp_path / "never_written.wav")

    def test_non_finite_samples_raise_decode_error(self, tmp_path):
        path = tmp_path / "nan.wav"
        data = np.array([0.0, np.nan, 0.5], dtype=np.float32)
        scipy.io.wavfile.write(path, 8000, data)
        with pytest.raises(DataError, match="non-finite samples"):
            decode_wav(path)


def chunk(chunk_id, body, order="<"):
    """One RIFF chunk: id, size, body and the pad byte of an odd size."""
    return (chunk_id + struct.pack(order + "I", len(body)) + body
            + b"\0" * (len(body) % 2))


def wav_bytes(data, rate, container=b"RIFF", extensible=False,
              before=b"", after=b"", cut=0):
    """A hand-built WAV file of an int16 or float32 array, mono (n,) or
    multichannel (n, c): `before`/`after` are raw chunks placed around the
    `data` chunk, and `cut` drops that many bytes from the end of the data
    while its header keeps the full size."""
    order = ">" if container == b"RIFX" else "<"
    data = np.asarray(data)
    channels = 1 if data.ndim == 1 else data.shape[1]
    payload = data.astype(data.dtype.newbyteorder(order)).tobytes()
    tag = 1 if data.dtype.kind == "i" else 3
    bits = data.dtype.itemsize * 8
    block_align = data.dtype.itemsize * channels
    fmt = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag,
                      channels, rate, rate * block_align, block_align, bits)
    if extensible:
        guid = (struct.pack(order + "IHH", tag, 0, 0x10)
                + bytes.fromhex("800000aa00389b71"))
        fmt += struct.pack(order + "HHI", 22, bits, 0) + guid
    body = chunk(b"fmt ", fmt, order) + before
    if container == b"RF64":
        data_chunk = b"data" + struct.pack("<I", 0xFFFFFFFF) + payload
        riff_size = 4 + 36 + len(body) + len(data_chunk) + len(after)
        ds64 = chunk(b"ds64", struct.pack("<QQQI", riff_size, len(payload),
                                          data.shape[0], 0))
        head = b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + ds64
    else:
        data_chunk = chunk(b"data", payload, order)
        riff_size = 4 + len(body) + len(data_chunk) + len(after)
        head = container + struct.pack(order + "I", riff_size) + b"WAVE"
    raw = head + body + data_chunk + after
    return raw[:len(raw) - cut] if cut else raw


def scipy_samples(path):
    """The samples and rate that scipy's WAV reader yields, scaled and
    downmixed as decode_wav specifies: the parity oracle."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.io.wavfile.WavFileWarning)
        rate, data = scipy.io.wavfile.read(path)
    samples = data.astype(np.float64)
    if data.dtype.kind == "i":
        samples = samples / 32768.0
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return samples, rate


def signal(dtype, channels, n=101, seed=3):
    rng = np.random.default_rng(seed)
    shape = (n,) if channels == 1 else (n, channels)
    if np.dtype(dtype).kind == "i":
        return rng.integers(-32768, 32768, size=shape).astype(dtype)
    return rng.uniform(-1.0, 1.0, size=shape).astype(dtype)


class TestWavParity:
    """decode_wav against scipy.io.wavfile.read, sample for sample."""

    def check(self, path, expected_len=None):
        buf = decode_wav(path)
        samples, rate = scipy_samples(path)
        assert buf.sample_rate == rate
        assert np.array_equal(buf.samples, samples)
        if expected_len is not None:
            assert buf.samples.size == expected_len

    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_scipy_written_files(self, tmp_path, dtype, channels):
        path = tmp_path / "written.wav"
        scipy.io.wavfile.write(path, 22050, signal(dtype, channels))
        self.check(path, expected_len=101)

    @pytest.mark.parametrize("container", [b"RIFF", b"RIFX", b"RF64"])
    @pytest.mark.parametrize("extensible", [False, True])
    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    def test_hand_built_headers(self, tmp_path, container, extensible, dtype):
        order = ">" if container == b"RIFX" else "<"
        path = tmp_path / "built.wav"
        path.write_bytes(wav_bytes(signal(dtype, 2), 44100, container,
                                   extensible, after=chunk(b"LIST", b"INFO", order)))
        self.check(path, expected_len=101)

    @pytest.mark.parametrize("container", [b"RIFF", b"RIFX"])
    def test_odd_chunk_before_data_and_chunk_after(self, tmp_path, container):
        order = ">" if container == b"RIFX" else "<"
        path = tmp_path / "chunks.wav"
        path.write_bytes(wav_bytes(
            signal(np.int16, 1), 8000, container,
            before=chunk(b"LIST", b"INFOabc", order),
            after=chunk(b"LIST", b"INFOxy", order) + chunk(b"JUNK", b"z", order)))
        self.check(path, expected_len=101)

    @pytest.mark.parametrize("dtype", [np.int16, np.float32])
    def test_data_cut_mid_sample_keeps_whole_samples(self, tmp_path, dtype):
        path = tmp_path / "cut.wav"
        path.write_bytes(wav_bytes(signal(dtype, 1), 8000, cut=1))
        self.check(path, expected_len=100)

    def test_stereo_cut_mid_frame_keeps_whole_frames(self, tmp_path):
        # scipy cannot reshape an odd sample count into frames; the oracle
        # reads the same file cut back to its last whole frame instead.
        data = signal(np.int16, 2)
        cut, whole = tmp_path / "cut.wav", tmp_path / "whole.wav"
        cut.write_bytes(wav_bytes(data, 8000, cut=2))
        whole.write_bytes(wav_bytes(data[:-1], 8000))
        samples, rate = scipy_samples(whole)
        buf = decode_wav(cut)
        assert buf.sample_rate == rate
        assert np.array_equal(buf.samples, samples)
        assert buf.samples.size == 100

    def test_missing_fmt_chunk_raises_decode_error(self, tmp_path):
        path = tmp_path / "nofmt.wav"
        body = b"WAVE" + chunk(b"data", signal(np.int16, 1).tobytes())
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(DataError, match="no fmt chunk"):
            decode_wav(path)

    def test_missing_data_chunk_raises_decode_error(self, tmp_path):
        path = tmp_path / "nodata.wav"
        raw = wav_bytes(signal(np.int16, 1), 8000)
        path.write_bytes(raw[:raw.index(b"data")])
        with pytest.raises(DataError, match="data chunk"):
            decode_wav(path)

    @pytest.mark.parametrize("container", [b"RIFF", b"RIFX"])
    def test_24_bit_pcm_rejected(self, tmp_path, container):
        order = ">" if container == b"RIFX" else "<"
        fmt = struct.pack(order + "HHIIHH", 1, 1, 8000, 3 * 8000, 3, 24)
        body = b"WAVE" + chunk(b"fmt ", fmt, order) + chunk(b"data", bytes(30), order)
        path = tmp_path / "pcm24.wav"
        path.write_bytes(container + struct.pack(order + "I", len(body)) + body)
        with pytest.raises(DataError, match="unsupported WAV encoding"):
            decode_wav(path)

    def test_float64_rejected(self, tmp_path):
        path = tmp_path / "mono64f.wav"
        scipy.io.wavfile.write(path, 8000, np.array([0.5, -0.5]))
        with pytest.raises(DataError, match="unsupported WAV encoding"):
            decode_wav(path)


class TestStftMagnitude:
    def test_matches_direct_dft(self):
        # Strong content check: every cell of the spectrogram equals the
        # longhand windowed DFT of the corresponding signal slice.
        rng = np.random.default_rng(7)
        x = rng.standard_normal(200)
        buf = AudioBuffer(samples=x, sample_rate=640)
        spec = stft_magnitude(buf, window_len=32, hop=16)
        window = np.hanning(32)
        n_frames = (200 - 32) // 16 + 1
        assert spec.values.shape == (16, n_frames)
        for n in range(n_frames):
            frame = x[n * 16:n * 16 + 32]
            np.testing.assert_allclose(spec.values[:, n],
                                       dft_magnitudes(frame, window),
                                       atol=1e-10)

    def test_bin_frequencies_drop_dc_keep_nyquist(self):
        rng = np.random.default_rng(0)
        buf = AudioBuffer(samples=rng.standard_normal(8192), sample_rate=44100)
        spec = stft_magnitude(buf, window_len=4096, hop=2048)
        assert spec.values.shape[0] == 2048
        np.testing.assert_allclose(spec.freqs,
                                   (np.arange(2048) + 1) * 44100.0 / 4096.0,
                                   rtol=0, atol=0)
        assert spec.freqs[0] == pytest.approx(10.7666015625)
        assert spec.freqs[-1] == pytest.approx(22050.0)  # Nyquist stays

    def test_transcription_clock_hop_and_t0(self, tmp_path):
        # frame n of stft_magnitude covers samples [n*hop, n*hop + window_len),
        # so load_frames places it at (window_len / 2 + n * hop) / fs seconds
        write_wav(tmp_path / "silence.wav",
                  AudioBuffer(samples=np.zeros(8192), sample_rate=44100))
        config = RunConfig(method="ost", window_len=4096, hop=2048)
        frames, freqs, times, _ = load_frames(tmp_path / "silence.wav", config)
        np.testing.assert_array_equal(freqs, (np.arange(2048) + 1) * 44100.0 / 4096.0)
        assert times.shape == (frames.n_frames,) == (3,)
        assert times[1] - times[0] == pytest.approx(2048.0 / 44100.0)
        assert times[1] - times[0] == pytest.approx(0.04644, abs=5e-6)
        assert times[0] == pytest.approx(2048.0 / 44100.0)
        np.testing.assert_allclose(times,
                                   (2048.0 + 2048.0 * np.arange(3)) / 44100.0,
                                   rtol=1e-15)

    def test_frame_count_no_padding(self):
        buf = AudioBuffer(samples=np.zeros(1000), sample_rate=8000)
        spec = stft_magnitude(buf, window_len=256, hop=128)
        assert spec.values.shape == (128, (1000 - 256) // 128 + 1)

    def test_pure_tone_lands_on_its_bin(self):
        fs, wl = 8000, 256
        k = 10  # cycles per window -> output row k - 1
        t = np.arange(4 * wl) / fs
        buf = AudioBuffer(samples=np.sin(2 * np.pi * (k * fs / wl) * t),
                          sample_rate=fs)
        spec = stft_magnitude(buf, window_len=wl, hop=wl)
        for n in range(spec.values.shape[1]):
            assert int(np.argmax(spec.values[:, n])) == k - 1
        assert spec.freqs[k - 1] == pytest.approx(k * fs / wl)

    def test_prefix_of_signal_gives_prefix_of_frames(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1200)
        full = stft_magnitude(AudioBuffer(x, 8000), window_len=128, hop=64)
        head = stft_magnitude(AudioBuffer(x[:640], 8000), window_len=128, hop=64)
        np.testing.assert_array_equal(full.values[:, :head.values.shape[1]],
                                      head.values)

    @pytest.mark.parametrize("n_frames", [1, STFT_BLOCK_FRAMES - 1, STFT_BLOCK_FRAMES,
                                          STFT_BLOCK_FRAMES + 1,
                                          2 * STFT_BLOCK_FRAMES + 3])
    def test_blocked_rfft_bitwise_equal_to_one_shot(self, n_frames):
        window_len, hop = 128, 48
        # a few samples past the last frame, which no frame covers
        x = np.random.default_rng(n_frames).standard_normal(
            (n_frames - 1) * hop + window_len + hop - 1)
        spec = stft_magnitude(AudioBuffer(x, 8000), window_len, hop)
        expected = one_shot_stft(x, window_len, hop)
        assert spec.values.shape == expected.shape == (window_len // 2, n_frames)
        assert spec.values.flags.f_contiguous
        assert spec.values.tobytes(order="F") == expected.tobytes(order="F")

    def test_traced_peak_is_the_output_plus_two_blocks(self):
        # all frames at once would hold N x window_len windowed frames and
        # N x (M + 1) complex spectra: 8 MB here, against a 1 MB output
        window_len, hop, n_frames = 1024, 512, 4 * STFT_BLOCK_FRAMES
        m = window_len // 2
        x = np.random.default_rng(1).standard_normal((n_frames + 1) * hop)
        audio = AudioBuffer(x, 8000)
        spec, peak = traced_peak(stft_magnitude, audio, window_len, hop)
        assert spec.values.shape == (m, n_frames)
        block = STFT_BLOCK_FRAMES * (window_len * 8 + (m + 1) * 16)
        assert peak < m * n_frames * 8 + 2 * block

    @pytest.mark.parametrize("samples,window_len,hop", [
        (np.array([]), 64, 32),          # empty signal
        (np.zeros(63), 64, 32),          # window longer than signal
        (np.zeros(256), 64, 0),          # hop must be positive
        (np.zeros(256), 64, 65),         # hop cannot exceed the window
        (np.zeros(256), 63, 21),         # odd window has no clean Nyquist bin
        (np.zeros(1024), 512, 1.5),      # counts are integers: each of these
        (np.zeros(1024), 512.0, 256),    # was a TypeError from numpy
        (np.zeros(1024), 512, 256.0),
    ])
    def test_rejects_bad_framing(self, samples, window_len, hop):
        # a signal shorter than the window is bad input data; bad framing
        # parameters are a caller's bug
        error = DataError if samples.size < window_len else ValueError
        buf = AudioBuffer(samples=samples, sample_rate=8000)
        with pytest.raises(error):
            stft_magnitude(buf, window_len=window_len, hop=hop)


class TestNormalizeFrames:
    def test_active_columns_sum_to_one(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1.0, size=(6, 9))
        spec = Spectrogram(values=values, freqs=np.arange(1.0, 7.0))
        frames = normalize_frames(spec)
        assert frames.active_mask.all()
        np.testing.assert_allclose(frames.columns.sum(axis=0), 1.0, atol=1e-12)
        assert frames.columns.shape == spec.values.shape  # row i is bin spec.freqs[i]

    def test_silent_column_zeroed_and_masked(self):
        values = np.array([[0.3, 0.0, 0.1],
                           [0.1, 0.0, 0.3]])
        spec = Spectrogram(values=values, freqs=np.array([1.0, 2.0]))
        frames = normalize_frames(spec)
        np.testing.assert_array_equal(frames.active_mask, [True, False, True])
        np.testing.assert_array_equal(frames.columns[:, 1], [0.0, 0.0])
        np.testing.assert_allclose(frames.columns[:, 0], [0.75, 0.25])

    def test_threshold_boundary_is_inactive(self):
        # a column whose mass equals the threshold exactly counts as silent
        values = np.full((2, 1), SILENCE_THRESHOLD / 2)
        assert values.sum() == SILENCE_THRESHOLD
        spec = Spectrogram(values=values, freqs=np.array([1.0, 2.0]))
        frames = normalize_frames(spec)
        assert not frames.active_mask[0]
        np.testing.assert_array_equal(frames.columns, [[0.0], [0.0]])

    def test_columns_bitwise_equal_to_masked_quotient(self):
        # an STFT with a silent stretch: F-ordered values and masked frames
        x = np.random.default_rng(5).standard_normal(4096)
        x[1024:2560] = 0.0
        spec = stft_magnitude(AudioBuffer(samples=x, sample_rate=8000), 256, 128)
        frames = normalize_frames(spec)
        sums = spec.values.sum(axis=0)
        active = sums > SILENCE_THRESHOLD
        expected = np.zeros_like(spec.values)
        expected[:, active] = spec.values[:, active] / sums[active]
        assert 0 < active.sum() < active.size
        np.testing.assert_array_equal(frames.active_mask, active)
        assert frames.columns.tobytes(order="F") == expected.tobytes(order="F")
        assert frames.columns.flags.f_contiguous


class TestContainers:
    def test_audio_buffer_validation(self):
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.zeros((4, 2)), sample_rate=8000)
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.array([0.0, np.inf]), sample_rate=8000)
        with pytest.raises(ValueError):
            AudioBuffer(samples=np.zeros(4), sample_rate=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_audio_buffer_rejects_non_finite(self, bad):
        samples = np.zeros(5)
        samples[3] = bad
        with pytest.raises(ValueError, match="^samples must be finite$"):
            AudioBuffer(samples=samples, sample_rate=8000)
        AudioBuffer(samples=np.array([-1.0, 0.5]), sample_rate=8000)  # no sign test

    def test_spectrogram_validation(self):
        with pytest.raises(ValueError):
            Spectrogram(values=np.array([[0.0, -1.0]]), freqs=np.array([1.0]))
        with pytest.raises(ValueError):
            Spectrogram(values=np.ones((2, 2)), freqs=np.array([1.0]))
        with pytest.raises(ValueError):
            Spectrogram(values=np.ones((2, 2)), freqs=np.array([2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spectrogram_rejects_non_finite(self, bad):
        values = np.ones((2, 3))
        values[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Spectrogram(values=values, freqs=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_reported_before_negative(self, bad):
        values = np.array([[0.5, -1.0], [0.5, bad]])
        with pytest.raises(ValueError, match="spectrogram values must be finite"):
            Spectrogram(values=values, freqs=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="columns must be finite"):
            NormalizedFrames(columns=values, active_mask=np.array([True, True]))
        # CostMatrix and the template check of plca_unmix (and ot_unmix_lp)
        # share the frontend's check
        two_bins = NormalizedFrames(columns=np.full((2, 1), 0.5),
                                    active_mask=np.array([True]))
        makers = {"cost values": lambda x: CostMatrix(values=x),
                  "templates": lambda x: plca_unmix(two_bins, x)}
        for name, make in makers.items():
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                make(values)
            with pytest.raises(ValueError,
                               match=f"^{name} must be non-negative$"):
                make(np.where(np.isfinite(values), values, 0.5))

    def test_size_zero_matrices_accepted(self):
        spec = Spectrogram(values=np.zeros((2, 0)), freqs=np.array([1.0, 2.0]))
        frames = NormalizedFrames(columns=spec.values,
                                  active_mask=np.zeros(0, dtype=bool))
        assert frames.n_frames == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_normalized_frames_reject_non_finite_and_negative(self, bad):
        columns = np.full((3, 2), 1.0 / 3.0)
        columns[1, 1] = bad
        with pytest.raises(ValueError):
            NormalizedFrames(columns=columns, active_mask=np.array([True, True]))

    def test_normalized_frames_active_columns_on_the_simplex(self):
        with pytest.raises(ValueError, match="sum to one"):
            NormalizedFrames(columns=[[5.0], [7.0]], active_mask=[True])
        columns = np.array([[0.5 + SIMPLEX_TOL / 2, 0.5 + 2 * SIMPLEX_TOL, 5.0],
                            [0.5, 0.5, 7.0]])
        with pytest.raises(ValueError, match="sum to one"):
            NormalizedFrames(columns=columns, active_mask=[True, True, False])
        # masked columns are not checked
        frames = NormalizedFrames(columns=columns, active_mask=[True, False, False])
        assert frames.n_frames == 3

    def test_normalized_frames_mask_length_checked(self):
        with pytest.raises(ValueError):
            NormalizedFrames(columns=np.ones((3, 2)),
                             active_mask=np.array([True, True, False]))
