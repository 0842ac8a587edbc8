"""Mono 16-bit PCM WAV input and output.

Thin wrappers over the stdlib wave module working on bytes, so callers
can stay file-agnostic. Only the one format the renderer produces is
accepted on read; everything else is rejected loudly rather than
resampled or converted.
"""

from __future__ import annotations

import io
import wave
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_PCM_SCALE = 32767.0


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
        if arr.size and not np.all(np.isfinite(arr)):
            raise InputError("audio contains non-finite samples")
        object.__setattr__(self, "samples", arr)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    def peak(self) -> float:
        return float(np.max(np.abs(self.samples))) if self.samples.size else 0.0


def wav_write(buf: AudioBuffer) -> bytes:
    """Encode as 16-bit PCM mono.

    Peaks beyond full scale are clipped, with a warning naming the peak
    value; quantization is round-to-nearest at 1/32767.
    """
    x = buf.samples
    peak = buf.peak()
    if peak > 1.0:
        warnings.warn(f"clipping audio: peak {peak:.3f} exceeds full scale",
                      stacklevel=2)
        x = np.clip(x, -1.0, 1.0)
    # Scale and round in one float buffer, freed before the bytes are
    # built, so a long signal needs one whole-signal temporary here, not two.
    scaled = x * _PCM_SCALE
    ints = np.round(scaled, out=scaled).astype("<i2")
    del scaled
    bio = io.BytesIO()
    with wave.open(bio, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(buf.sample_rate)
        w.writeframes(ints.tobytes())
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
    if channels != 1:
        raise InputError(f"only mono WAV is supported, got {channels} channels")
    if width != 2:
        raise InputError(f"only 16-bit PCM is supported, got {8 * width}-bit")
    if len(frames) % 2:
        raise InputError(f"WAV sample data is {len(frames)} bytes, not a whole "
                         "number of 16-bit samples; the file may be truncated")
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / _PCM_SCALE
    return AudioBuffer(rate, samples)
