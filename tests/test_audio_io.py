import io
import wave

import numpy as np
import pytest
from hypothesis import given, strategies as st

from echobake.audio_io import AudioBuffer, wav_read, wav_write
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
