"""Mono 16-bit PCM WAV input and output.

Thin wrappers over the stdlib wave module working on bytes, so callers
can stay file-agnostic. Only the one format the renderer produces is
accepted on read; everything else is rejected loudly rather than
resampled or converted.
"""

from __future__ import annotations

import io
import math
import wave
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_PCM_SCALE = 32767.0
# Samples scaled and cast per step of wav_write.
_CHUNK = 65_536


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio, float64 samples nominally in [-1, 1]."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise InputError("sample_rate must be positive")
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise InputError("audio must be mono (1-D sample array)")
        # min and max propagate NaN and meet any infinity, so this checks
        # every sample without a whole-signal temporary.
        if arr.size and not (math.isfinite(arr.min())
                             and math.isfinite(arr.max())):
            raise InputError("audio contains non-finite samples")
        object.__setattr__(self, "samples", arr)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    def peak(self) -> float:
        """Largest |sample|: the larger magnitude of the two extremes."""
        x = self.samples
        return max(abs(float(x.max())), abs(float(x.min()))) if x.size else 0.0


def wav_write(buf: AudioBuffer) -> bytes:
    """Encode as 16-bit PCM mono.

    Peaks beyond full scale are clipped, with a warning naming the peak
    value; quantization is round-to-nearest at 1/32767.
    """
    x = buf.samples
    peak = buf.peak()
    clip = peak > 1.0
    if clip:
        warnings.warn(f"clipping audio: peak {peak:.3f} exceeds full scale",
                      stacklevel=2)
    # Clip, scale and round one chunk at a time in one float buffer, and
    # cast each chunk into the one PCM array, so no float temporary is as
    # long as the signal.
    ints = np.empty(x.size, dtype="<i2")
    scratch = np.empty(min(x.size, _CHUNK))
    for c0 in range(0, x.size, _CHUNK):
        part = x[c0:c0 + _CHUNK]
        f = scratch[:part.size]
        if clip:
            part = np.clip(part, -1.0, 1.0, out=f)
        np.multiply(part, _PCM_SCALE, out=f)
        ints[c0:c0 + f.size] = np.round(f, out=f)
    bio = io.BytesIO()
    with wave.open(bio, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(buf.sample_rate)
        w.writeframes(ints)
    return bio.getvalue()


def wav_read(data: bytes) -> AudioBuffer:
    """Decode 16-bit PCM mono WAV bytes; anything else is an error."""
    try:
        with wave.open(io.BytesIO(data), "rb") as r:
            channels = r.getnchannels()
            width = r.getsampwidth()
            rate = r.getframerate()
            frames = r.readframes(r.getnframes())
    except (wave.Error, EOFError) as exc:
        raise InputError(f"malformed WAV data: {exc}") from exc
    except RuntimeError as exc:
        # The wave module's chunk reader raises a bare RuntimeError when a
        # chunk declares more bytes than the data holds.
        raise InputError("malformed WAV data: a chunk is longer than the "
                         "data that holds it") from exc
    if channels != 1:
        raise InputError(f"only mono WAV is supported, got {channels} channels")
    if width != 2:
        raise InputError(f"only 16-bit PCM is supported, got {8 * width}-bit")
    if len(frames) % 2:
        raise InputError(f"WAV sample data is {len(frames)} bytes, not a whole "
                         "number of 16-bit samples; the file may be truncated")
    # One pass and one float array: the cast happens inside the division.
    samples = np.divide(np.frombuffer(frames, dtype="<i2"), _PCM_SCALE,
                        dtype=np.float64)
    return AudioBuffer(rate, samples)
