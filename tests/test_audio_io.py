import io
import math
import tracemalloc
import warnings
import wave

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from echobake.audio_io import _CHUNK, AudioBuffer, wav_read, wav_write
from echobake.errors import InputError

QUANT = 1.0 / 32767.0


class TestAudioBuffer:
    def test_basic_properties(self):
        buf = AudioBuffer(44100, np.zeros(22050))
        assert buf.duration_s == pytest.approx(0.5)
        assert buf.peak() == 0.0

    def test_peak_uses_magnitude(self):
        buf = AudioBuffer(8000, np.array([0.1, -0.7, 0.3]))
        assert buf.peak() == pytest.approx(0.7)

    def test_list_input_coerced(self):
        buf = AudioBuffer(8000, [0.0, 0.5])
        assert buf.samples.dtype == np.float64

    def test_empty_ok(self):
        assert AudioBuffer(8000, np.array([])).peak() == 0.0

    def test_rejects_stereo_array(self):
        with pytest.raises(InputError, match="mono"):
            AudioBuffer(8000, np.zeros((100, 2)))

    def test_rejects_nan(self):
        with pytest.raises(InputError, match="finite"):
            AudioBuffer(8000, np.array([0.0, np.nan]))

    def test_rejects_bad_rate(self):
        with pytest.raises(InputError):
            AudioBuffer(0, np.zeros(10))


class TestWithoutWholeSignalTemporaries:
    """The peak, the finiteness check and the chunked encoding give the
    same bits as the whole-signal forms they replace."""

    @pytest.mark.parametrize("scale", [0.15, 0.9])
    def test_same_bits_and_warning_as_whole_signal_forms(self, scale):
        # Three chunks and a partial one; 0.9 clips, 0.15 does not.
        x = np.random.default_rng(12).standard_normal(3 * _CHUNK + 123) * scale
        x[[0, 5, -1]] = [-0.0, 0.0, -0.0]
        buf = AudioBuffer(48000, x)
        peak = float(np.max(np.abs(x)))
        assert buf.peak() == peak
        if peak > 1.0:
            with pytest.warns(UserWarning) as caught:
                data = wav_write(buf)
            assert [str(w.message) for w in caught] == [
                f"clipping audio: peak {peak:.3f} exceeds full scale"]
        else:
            data = wav_write(buf)
        ints = np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2")
        assert data[44:] == ints.tobytes()
        back = wav_read(data)
        assert np.array_equal(back.samples, ints.astype(np.float64) / 32767.0)

    def test_peak_is_the_magnitude_exactly(self):
        assert AudioBuffer(8000, np.array([0.1, -0.7, 0.3])).peak() == 0.7
        zero = AudioBuffer(8000, np.array([-0.0, -0.0])).peak()
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 777, -1])
    def test_rejects_any_non_finite_sample(self, bad, where):
        x = np.linspace(-1.0, 1.0, 1000)
        x[where] = bad
        with pytest.raises(InputError, match="finite"):
            AudioBuffer(8000, x)

    def test_rejects_both_infinities_and_float_max_is_finite(self):
        with pytest.raises(InputError, match="finite"):
            AudioBuffer(8000, np.array([np.inf, 0.0, -np.inf]))
        big = np.finfo(np.float64).max
        assert AudioBuffer(8000, np.array([big, -big])).peak() == big


class TestWavMemory:
    """tracemalloc peaks of a 10 s, 48 kHz encode and decode."""

    N = 10 * 48000

    @pytest.mark.parametrize("scale", [0.1, 2.0])
    def test_wav_write_holds_the_pcm_twice_and_one_chunk(self, scale):
        buf = AudioBuffer(48000, np.random.default_rng(13).standard_normal(
            self.N) * scale)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                wav_write(buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The PCM array and the encoded bytes, plus one chunk of floats.
        assert peak <= 2 * (2 * self.N) + 8 * _CHUNK + 64 * 1024

    def test_wav_read_holds_the_frames_and_one_float_array(self):
        data = wav_write(AudioBuffer(48000, np.random.default_rng(14)
                                     .standard_normal(self.N) * 0.1))
        tracemalloc.start()
        try:
            back = wav_read(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.samples.size == self.N
        # The frames, the float result and the ufunc's fixed cast buffer.
        assert peak <= 2 * self.N + back.samples.nbytes + 128 * 1024


class TestWavRoundTrip:
    def test_sine_within_quantization(self):
        t = np.arange(4410) / 44100.0
        x = 0.8 * np.sin(2 * np.pi * 440.0 * t)
        back = wav_read(wav_write(AudioBuffer(44100, x)))
        assert back.sample_rate == 44100
        assert back.samples.size == x.size
        assert np.abs(back.samples - x).max() <= QUANT

    def test_full_scale_endpoints_survive(self):
        x = np.array([1.0, -1.0, 0.0])
        back = wav_read(wav_write(AudioBuffer(8000, x)))
        assert np.array_equal(back.samples, x)

    def test_zero_length(self):
        back = wav_read(wav_write(AudioBuffer(8000, np.array([]))))
        assert back.samples.size == 0
        assert back.sample_rate == 8000

    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
           st.sampled_from([8000, 44100, 48000]))
    def test_any_in_range_signal(self, values, rate):
        x = np.asarray(values)
        back = wav_read(wav_write(AudioBuffer(rate, x)))
        assert back.sample_rate == rate
        assert np.abs(back.samples - x).max() <= QUANT

    def test_clipping_warns_and_bounds(self):
        x = np.array([0.5, 1.7, -2.0])
        with pytest.warns(UserWarning, match="clipping"):
            data = wav_write(AudioBuffer(8000, x))
        back = wav_read(data)
        assert back.samples.max() <= 1.0
        assert back.samples.min() >= -1.0
        assert back.samples[1] == 1.0

    def test_in_range_signal_does_not_warn(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wav_write(AudioBuffer(8000, np.array([1.0, -1.0])))


class TestWavReadRejections:
    def test_truncated_header(self):
        with pytest.raises(InputError, match="malformed"):
            wav_read(b"RIFF1234")

    def test_empty_bytes(self):
        with pytest.raises(InputError, match="malformed"):
            wav_read(b"")

    @pytest.mark.parametrize("cut", [1, 3])
    def test_odd_data_length_rejected(self, cut):
        data = wav_write(AudioBuffer(8000, np.zeros(10)))[:-cut]
        with pytest.raises(InputError, match=f"is {20 - cut} bytes"):
            wav_read(data)

    def test_stereo_rejected(self):
        bio = io.BytesIO()
        with wave.open(bio, "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(b"\x00\x00\x00\x00" * 4)
        with pytest.raises(InputError, match="mono"):
            wav_read(bio.getvalue())

    def test_eight_bit_rejected(self):
        bio = io.BytesIO()
        with wave.open(bio, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(8000)
            w.writeframes(b"\x80" * 16)
        with pytest.raises(InputError, match="16-bit"):
            wav_read(bio.getvalue())

    def test_chunk_longer_than_data_rejected(self):
        data = bytearray(wav_write(AudioBuffer(48000, np.zeros(64))))
        data[16] = 0xF8  # the fmt chunk now claims 248 bytes of 172
        with pytest.raises(InputError, match="chunk is longer"):
            wav_read(bytes(data))

    @settings(max_examples=500, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 47), st.integers(0, 255)),
                          min_size=1, max_size=4),
           cut=st.integers(0, 172))
    def test_mutated_header_raises_only_input_error(self, edits, cut):
        # Any header bytes, and any truncation, either decode to an
        # AudioBuffer or raise InputError; nothing else may escape.
        data = bytearray(wav_write(AudioBuffer(48000, np.zeros(64))))
        for pos, byte in edits:
            data[pos] = byte
        try:
            buf = wav_read(bytes(data[:cut or None]))
        except InputError:
            return
        assert isinstance(buf, AudioBuffer)
