"""Schroeder-style artificial reverberator.

Four parallel feedback combs feed two series allpasses. Every comb's
feedback gain is chosen as 10^(-3 * delay / RT60), which makes each comb
lose exactly 60 dB per RT60 seconds of recirculation, so the bank's tail
decays at the requested rate regardless of the individual delays.

The filters are evaluated blockwise (blocks no longer than the delay) so
numpy does the work, while producing bit-identical output to the
sample-by-sample recurrence; a per-sample gain array slots into the same
kernels, which is how `render_path` cross-fades between cluster RT60s
without a separate filter implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .errors import InputError
from .perception import ClusterMap

COMB_DELAYS_MS = (29.7, 37.1, 41.1, 43.7)
ALLPASS_DELAYS_MS = (5.0, 1.7)
DEFAULT_ALLPASS_GAIN = 0.7
SUPPORTED_RATES = (44100, 48000)

# Feedback below this renders the comb bank useless (the tail dies inside
# a single recirculation); the requested RT60 was too short.
MIN_COMB_GAIN = 1e-4

# Tail cutoff: -80 dBFS.
TAIL_FLOOR = 1e-4
FADE_S = 0.05
MAX_RENDER_S = 600.0

_COMB_SCALE = 0.25


@dataclass(frozen=True)
class ReverbParams:
    """Delays in samples, gains dimensionless. Comb delays must be
    pairwise coprime so the recirculation spikes interleave instead of
    piling onto a common period."""

    sample_rate: int
    comb_delays: tuple[int, int, int, int]
    comb_gains: tuple[float, float, float, float]
    allpass_delays: tuple[int, int]
    allpass_gain: float = DEFAULT_ALLPASS_GAIN
    wet_dry_mix: float = 1.0

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise InputError("sample_rate must be positive")
        if any(d < 1 for d in self.comb_delays + self.allpass_delays):
            raise InputError("filter delays must be at least 1 sample")
        for i in range(len(self.comb_delays)):
            for j in range(i + 1, len(self.comb_delays)):
                if math.gcd(self.comb_delays[i], self.comb_delays[j]) != 1:
                    raise InputError(
                        f"comb delays {self.comb_delays[i]} and "
                        f"{self.comb_delays[j]} share a factor"
                    )
        if any(not 0.0 < g < 1.0 for g in self.comb_gains):
            raise InputError("comb gains must lie strictly in (0, 1)")
        if not 0.0 < self.allpass_gain < 1.0:
            raise InputError("allpass gain must lie strictly in (0, 1)")
        if not 0.0 <= self.wet_dry_mix <= 1.0:
            raise InputError("wet_dry_mix must lie in [0, 1]")

    def implied_rt60(self) -> float:
        """Longest 60 dB decay time across the comb bank."""
        return max(-3.0 * (d / self.sample_rate) / math.log10(g)
                   for d, g in zip(self.comb_delays, self.comb_gains))


def comb_feedback_gain(delay_s: float, rt60_s: float) -> float:
    """Feedback giving a comb 60 dB of decay per rt60_s seconds."""
    if delay_s <= 0.0 or rt60_s <= 0.0:
        raise InputError("delay and rt60 must be positive")
    return 10.0 ** (-3.0 * delay_s / rt60_s)


def _round_half_away(x: float) -> int:
    return math.floor(x + 0.5)


def coprime_comb_delays(sample_rate: int) -> tuple[int, int, int, int]:
    """Comb delays in samples, nudged to the nearest pairwise-coprime set.

    Each delay starts at the exact millisecond target and moves to the
    closest integer coprime with every delay already chosen, so the
    nudge never exceeds a few samples.
    """
    chosen: list[int] = []
    for ms in COMB_DELAYS_MS:
        exact = ms * sample_rate / 1000.0
        base = _round_half_away(exact)
        candidates = sorted(range(max(1, base - 50), base + 51),
                            key=lambda c: (abs(c - exact), c))
        for cand in candidates:
            if all(math.gcd(cand, prev) == 1 for prev in chosen):
                chosen.append(cand)
                break
        else:
            raise InputError(f"no coprime delay near {exact:.1f} samples")
    return tuple(chosen)


def params_from_rt60(rt60_s: float, sample_rate: int,
                     wet_dry_mix: float = 1.0) -> ReverbParams:
    """Build the standard parameterization for a target decay time.

    Raises InputError for unsupported sample rates and for RT60 values so
    short that a comb's feedback would drop below 1e-4, at which point
    the filter no longer produces a tail worth calling reverberation.
    """
    if sample_rate not in SUPPORTED_RATES:
        raise InputError(
            f"sample_rate must be one of {SUPPORTED_RATES}, got {sample_rate}"
        )
    if rt60_s <= 0.0:
        raise InputError("rt60 must be positive")
    delays = coprime_comb_delays(sample_rate)
    gains = tuple(comb_feedback_gain(d / sample_rate, rt60_s) for d in delays)
    if any(g < MIN_COMB_GAIN for g in gains):
        raise InputError(
            f"rt60 {rt60_s} s is too short for the comb delays; "
            "feedback degenerates below 1e-4"
        )
    ap = tuple(_round_half_away(ms * sample_rate / 1000.0)
               for ms in ALLPASS_DELAYS_MS)
    return ReverbParams(sample_rate, delays, gains, ap,
                        DEFAULT_ALLPASS_GAIN, wet_dry_mix)


def _feedback_comb(x: np.ndarray, delay: int, gain) -> np.ndarray:
    """y[n] = x[n] + g[n] * y[n - delay], evaluated in delay-sized blocks.

    `gain` is a scalar or a per-sample array of x's length. Within one
    block every needed y[n - delay] predates the block, so the vector
    statement computes exactly the scalar recurrence.
    """
    n = x.size
    ypad = np.zeros(delay + n, dtype=np.float64)
    per_sample = np.ndim(gain) > 0
    for i0 in range(0, n, delay):
        i1 = min(i0 + delay, n)
        g = gain[i0:i1] if per_sample else gain
        ypad[delay + i0:delay + i1] = x[i0:i1] + g * ypad[i0:i1]
    return ypad[delay:]


def _allpass(x: np.ndarray, delay: int, gain: float) -> np.ndarray:
    """y[n] = -g * x[n] + x[n - delay] + g * y[n - delay], blockwise."""
    n = x.size
    xpad = np.concatenate([np.zeros(delay, dtype=np.float64), x])
    ypad = np.zeros(delay + n, dtype=np.float64)
    for i0 in range(0, n, delay):
        i1 = min(i0 + delay, n)
        ypad[delay + i0:delay + i1] = (
            (-gain) * x[i0:i1] + xpad[i0:i1] + gain * ypad[i0:i1]
        )
    return ypad[delay:]


def _render_wet(x: np.ndarray, params: ReverbParams, comb_gains) -> np.ndarray:
    acc = np.zeros_like(x)
    for d, g in zip(params.comb_delays, comb_gains):
        acc += _feedback_comb(x, d, g)
    acc *= _COMB_SCALE
    for d in params.allpass_delays:
        acc = _allpass(acc, d, params.allpass_gain)
    return acc


def _tail_pad_samples(rt60_s: float, sample_rate: int) -> int:
    return int(math.ceil(sample_rate * (1.5 * rt60_s + 0.1)))


def _render(dry: np.ndarray, params: ReverbParams, rt60_max: float,
            gains_for_length, mix: float, sample_rate: int) -> np.ndarray:
    """Shared render loop: pad, filter, extend until the tail clears the
    floor, cut, and mix. `gains_for_length(n)` supplies the comb gains
    (scalars or per-sample arrays of length n)."""
    n_dry = dry.size
    if n_dry == 0:
        return dry.copy()
    pad = _tail_pad_samples(rt60_max, sample_rate)
    max_len = int(MAX_RENDER_S * sample_rate)
    # The tail is only considered finished when a full recirculation
    # period passes below the floor; a single quiet sample between comb
    # spikes proves nothing.
    guard = max(params.comb_delays) + sum(params.allpass_delays) + 8
    while True:
        total = min(n_dry + pad, max_len)
        x = np.concatenate([dry, np.zeros(total - n_dry, dtype=np.float64)])
        wet = _render_wet(x, params, gains_for_length(total))
        above = np.nonzero(np.abs(wet) >= TAIL_FLOOR)[0]
        cut = int(above[-1]) + 1 if above.size else 0
        if total - cut >= guard:
            break
        if total >= max_len:
            raise InputError(
                f"reverb tail exceeds {MAX_RENDER_S:.0f} s; "
                "check the requested rt60"
            )
        pad *= 2
    n_out = max(n_dry, cut)
    out = mix * wet[:n_out]
    out[:n_dry] += (1.0 - mix) * dry
    return out


def render_reverb(dry: AudioBuffer, params: ReverbParams) -> AudioBuffer:
    """Run the dry buffer through the reverberator.

    Output is wet_dry_mix of the filtered signal plus the remainder of
    the dry signal, extended past the input until the wet tail falls
    below -80 dBFS for good.
    """
    if dry.sample_rate != params.sample_rate:
        raise InputError(
            f"sample rate mismatch: audio {dry.sample_rate} Hz, "
            f"params {params.sample_rate} Hz"
        )
    out = _render(dry.samples, params, params.implied_rt60(),
                  lambda n: params.comb_gains, params.wet_dry_mix,
                  params.sample_rate)
    return AudioBuffer(dry.sample_rate, out)


def _cluster_rt60(cmap: ClusterMap, cluster_id: int) -> float:
    if not 0 <= cluster_id < cmap.n_clusters:
        raise InputError(f"schedule references unknown cluster {cluster_id}")
    c = cmap.clusters[cluster_id]
    if c.rt60_bands is None:
        raise InputError(f"cluster {cluster_id} has no rt60; bake it first")
    return sum(c.rt60_bands) / len(c.rt60_bands)


def render_path(dry: AudioBuffer, cmap: ClusterMap,
                schedule: list[tuple[float, int]],
                wet_dry_mix: float = 1.0) -> AudioBuffer:
    """Reverberate while the listener moves between clusters.

    `schedule` lists (start time in seconds, cluster id) switches; it
    must start at 0 and be strictly increasing, and every referenced
    cluster needs a baked RT60. Comb gains ramp linearly over `FADE_S`
    at each switch and hold their final values through the tail, so a
    single-entry schedule reproduces `render_reverb` exactly.
    """
    if not schedule:
        raise InputError("schedule is empty")
    times = [t for t, _ in schedule]
    if not all(math.isfinite(t) for t in times):
        raise InputError(f"schedule times must be finite, got {times}")
    if times[0] != 0.0:
        raise InputError(
            "schedule must start at t=0; the first "
            f"entry starts at {times[0]} s"
        )
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise InputError("schedule times must be strictly increasing")
    if times[-1] >= dry.duration_s and len(schedule) > 1:
        raise InputError("schedule extends past the end of the audio")

    fs = dry.sample_rate
    rt60s = [_cluster_rt60(cmap, cid) for _, cid in schedule]
    plist = [params_from_rt60(rt, fs, wet_dry_mix) for rt in rt60s]
    params = plist[0]
    n_fade = max(1, int(round(FADE_S * fs)))
    switches = [int(round(t * fs)) for t in times]

    def gains_for_length(n: int) -> list[np.ndarray]:
        out = []
        for k in range(len(params.comb_delays)):
            g = np.full(n, plist[0].comb_gains[k], dtype=np.float64)
            for s, p in zip(switches[1:], plist[1:]):
                if s >= n:
                    break
                old = float(g[s - 1]) if s > 0 else float(g[0])
                new = p.comb_gains[k]
                ramp_end = min(s + n_fade, n)
                steps = np.arange(1, ramp_end - s + 1, dtype=np.float64)
                g[s:ramp_end] = old + (new - old) * steps / n_fade
                g[ramp_end:] = new
            out.append(g)
        return out

    out = _render(dry.samples, params, max(rt60s), gains_for_length,
                  wet_dry_mix, fs)
    return AudioBuffer(fs, out)
