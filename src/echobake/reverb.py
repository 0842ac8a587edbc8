"""Schroeder-style artificial reverberator.

Four parallel feedback combs feed two series allpasses. Every comb's
feedback gain is chosen as 10^(-3 * delay / RT60), which makes each comb
lose exactly 60 dB per RT60 seconds of recirculation, so the bank's tail
decays at the requested rate regardless of the individual delays.

`render_path` streams the signal through the bank in blocks of
`BLOCK_SAMPLES`: every filter carries its delay line from block to block.
Working memory beyond the input and the output is a fixed set of block
buffers allocated once per render: about 15 blocks, 4 MB at 32,768
samples a block, a size that keeps them near a 2 MB per-core L2 cache. The
output is allocated once and filled block by block. Every filter is one
recurrence, y[n] = w[n] + g[n] * y[n - d], run in place in the filter's
own buffer over rows of d samples, two ufunc calls a row. The row views
into those buffers are built once per render, and each block runs a prefix
of them. A block's comb gains are computed only where a cross-fade runs; a
steady block reuses the gains already in the buffer. The output is
bit-identical to the sample-by-sample recurrence, however the signal is
split into blocks, so once the dry signal has ended the loop takes shorter
blocks to stop soon after the tail falls silent.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .errors import InputError, is_finite_real
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
# Longest tail rendered past the end of the dry signal.
MAX_TAIL_S = 600.0
BLOCK_SAMPLES = 32_768

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


def comb_feedback_gain(delay_s: float, rt60_s: float) -> float:
    """Feedback giving a comb 60 dB of decay per rt60_s seconds."""
    if delay_s <= 0.0 or rt60_s <= 0.0:
        raise InputError("delay and rt60 must be positive")
    return 10.0 ** (-3.0 * delay_s / rt60_s)


def _round_half_away(x: float) -> int:
    return math.floor(x + 0.5)


@functools.cache
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


def params_from_rt60(rt60_s: float, sample_rate: int) -> ReverbParams:
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
    return ReverbParams(sample_rate, delays, gains, ap)


def _feedback_comb(w: np.ndarray, gain: float | np.ndarray,
                   ypad: np.ndarray):
    """Build y[n] = w[n] + g[n] * y[n - d] for blocks of up to w.size
    samples, computed in place in `ypad`, a contiguous buffer of d + w.size
    samples whose head holds the d prior outputs; `gain` is a scalar or one
    value per sample of w. Returns `run(n)`, which runs one block over
    w[:n] and gain[:n] (filled by the caller), leaves the block's last d
    outputs at the head, and returns the block's outputs as ypad[d:d + n].

    The output is viewed as rows of d samples, so each row reads only the
    row before it and two in-place ufunc calls compute it. The row views
    are built here, once, over the whole buffers; a block runs the first
    n // d of them, and its last partial row is done after the loop. The
    product is added to w[n] as the scalar recurrence does, so every sample
    is bit-identical to it. Only `ypad` is written; w and gain must not
    share memory with it.
    """
    d = ypad.size - w.size
    g = np.broadcast_to(gain, w.shape)
    full = w.size - w.size % d
    ys = list(ypad[:d + full].reshape(-1, d))
    ws = list(w[:full].reshape(-1, d))
    gs = list(g[:full].reshape(-1, d))

    def run(n: int) -> np.ndarray:
        m = n // d
        # Local names and a positional output: the rows are short, so the
        # lookups and keyword parsing are a large part of each call.
        multiply, add = np.multiply, np.add
        for prev, row, w_row, g_row in zip(ys[:m], ys[1:], ws, gs):
            multiply(prev, g_row, row)
            add(w_row, row, row)
        if m * d < n:
            row = ypad[d + m * d:d + n]
            np.multiply(ypad[m * d:n], g[m * d:n], out=row)
            np.add(w[m * d:n], row, out=row)
        # The head and the returned view do not overlap, so the view survives.
        ypad[:d] = ypad[n:n + d]
        return ypad[d:d + n]
    return run


def _allpass(state: np.ndarray, w: np.ndarray):
    """Build y[n] = -g * x[n] + x[n - d] + g * y[n - d] for blocks of up to
    w.size samples, in place in `state`, a (2, d + w.size) buffer whose rows
    hold the inputs and the outputs, each with its d prior values at the
    head. This is a feedback comb fed with the feed-forward sum, which is
    computed for the whole block first into the scratch `w`, as the scalar
    recurrence adds it before the feedback term. Returns `run(x)`, which
    runs one block of x and returns its outputs as a view of state[1]."""
    g = DEFAULT_ALLPASS_GAIN
    xpad = state[0]
    d = xpad.size - w.size
    comb = _feedback_comb(w, g, state[1])

    def run(x: np.ndarray) -> np.ndarray:
        n = x.size
        xpad[d:d + n] = x
        np.multiply(x, -g, out=w[:n])
        np.add(w[:n], xpad[:n], out=w[:n])
        xpad[:d] = xpad[n:n + d]
        return comb(n)
    return run


def _comb_gains(ramps: list, starts: list, n_fade: int, b0: int,
                g: np.ndarray) -> np.ndarray:
    """Fill `g` with the comb gains for samples [b0, b0 + g.shape[1]), one
    row per comb, and return it. `ramps` lists (start sample, old, new) in
    schedule order, gains as (4, 1) columns; each moves linearly from old
    to new over `n_fade` samples, then holds until a later one starts.
    `starts` lists the ramps' start samples; each ramp is written only up
    to the next one's start, so the work is linear in the ramps."""
    b1 = b0 + g.shape[1]
    first, last = bisect_right(starts, b0) - 1, bisect_left(starts, b1)
    for (s, old, new), end in zip(ramps[first:last],
                                  starts[first + 1:last] + [b1]):
        lo, hi = max(s, b0), min(s + n_fade, end)
        if hi > lo:
            steps = np.arange(lo - s + 1, hi - s + 1, dtype=np.float64)
            g[:, lo - b0:hi - b0] = old + (new - old) * steps / n_fade
        g[:, max(lo, hi) - b0:end - b0] = new
    return g


def _tail_bound(comb_lines: list, allpass_lines: list) -> float:
    """Bound on every later |wet| sample when only zeros follow: a comb
    only rescales its line by gains below 1, and an allpass adds its line's
    free response (at most max|x| + g max|y|) to its input filtered by a
    response whose absolute sum is 1 + 2g."""
    g = DEFAULT_ALLPASS_GAIN
    bound = _COMB_SCALE * sum(float(np.abs(line).max()) for line in comb_lines)
    for line in allpass_lines:
        bound = ((1.0 + 2.0 * g) * bound + float(np.abs(line[0]).max())
                 + g * float(np.abs(line[1]).max()))
    return bound


def _cluster_rt60(cmap: ClusterMap, cluster_id: int) -> float:
    if not 0 <= cluster_id < cmap.n_clusters:
        raise InputError(f"schedule references unknown cluster {cluster_id}")
    c = cmap.clusters[cluster_id]
    if c.rt60_bands is None:
        raise InputError(f"cluster {cluster_id} has no rt60; bake it first")
    return sum(c.rt60_bands) / len(c.rt60_bands)


def fold_schedule(schedule: list[tuple[float, int]]) -> list[tuple[float, int]]:
    """Check a (start time, cluster id) schedule and drop every row that
    repeats the cluster of the row before it.

    Times must be finite, start at 0 and strictly increase; every row is
    checked before any is dropped.
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
    folded = [schedule[0]]
    for row in schedule[1:]:
        if row[1] != folded[-1][1]:
            folded.append(row)
    return folded


def render_path(dry: AudioBuffer, cmap: ClusterMap,
                schedule: list[tuple[float, int]],
                wet_dry_mix: float = 1.0) -> AudioBuffer:
    """Reverberate while the listener moves between clusters.

    `schedule` lists (start time in seconds, cluster id) rows; it must
    start at 0 and be strictly increasing, and every referenced cluster
    needs a baked RT60. Rows are checked, then folded by
    :func:`fold_schedule`, so only a change of cluster is a switch. Comb
    gains ramp linearly over `FADE_S` at each switch and hold their final
    values through the tail.

    The output mixes `wet_dry_mix` of the wet signal with the rest of the
    dry one; a mix that is not a finite number in [0, 1] raises
    InputError. After the input, zeros are fed until no later wet sample
    can reach -80 dBFS, and the output ends after the last one that did; a
    tail longer than `MAX_TAIL_S` raises InputError.
    """
    if not (is_finite_real(wet_dry_mix) and 0.0 <= wet_dry_mix <= 1.0):
        raise InputError(f"wet_dry_mix must lie in [0, 1], got {wet_dry_mix!r}")
    schedule = fold_schedule(schedule)
    times = [t for t, _ in schedule]
    if times[-1] >= dry.duration_s and len(schedule) > 1:
        raise InputError("schedule extends past the end of the audio")

    fs, x_dry = dry.sample_rate, dry.samples
    plist = [params_from_rt60(_cluster_rt60(cmap, cid), fs)
             for _, cid in schedule]
    n_fade = max(1, int(round(FADE_S * fs)))
    gains = [np.array(p.comb_gains)[:, None] for p in plist]
    ramps, starts = [(0, gains[0], gains[0])], [0]
    for t, new in zip(times[1:], gains[1:]):
        s = int(round(t * fs))
        old = _comb_gains(ramps, starts, n_fade, max(s - 1, 0),
                          np.empty(new.shape))
        ramps.append((s, old, new))
        starts.append(s)

    n_dry, block = x_dry.size, BLOCK_SAMPLES
    limit = n_dry + int(MAX_TAIL_S * fs)
    # Every buffer is allocated here, once: each filter's d-sample delay
    # line sits at the head of a buffer with room for one block after it.
    comb_delays, allpass_delays = plist[0].comb_delays, plist[0].allpass_delays
    combs = [np.zeros(d + block) for d in comb_delays]
    allpasses = [np.zeros((2, d + block)) for d in allpass_delays]
    comb_lines = [c[:d] for c, d in zip(combs, comb_delays)]
    allpass_lines = [a[:, :d] for a, d in zip(allpasses, allpass_delays)]
    x_buf, acc_buf, scratch = np.empty(block), np.empty(block), np.empty(block)
    g_buf = np.empty((len(comb_delays), block))
    above = np.empty(block, dtype=bool)
    comb_runs = [_feedback_comb(x_buf, g, c) for c, g in zip(combs, g_buf)]
    allpass_runs = [_allpass(a, scratch) for a in allpasses]
    # The output grows by a block at a time only while the tail outruns
    # it, through ndarray.resize (a realloc); concatenating blocks would
    # hold two copies of it at once. It is sized by a resize too: numpy
    # advises huge pages for a large fresh array, and on Linux 6.18 a
    # realloc that moved such an array raised the peak RSS by its whole
    # size, where a realloc of an unadvised one only remapped its pages.
    # The resizes skip numpy's reference check, which a profiler or tracer
    # fails by holding the frame's locals, `out` among them. That is safe
    # because this function never keeps a view of `out`: only
    # `_write_block` takes views of it, and they die when it returns.
    out = np.empty(0)
    out.resize(min(n_dry + block, limit), refcheck=False)
    b0 = cut = 0
    held = False  # whether g_buf holds a steady block's gains throughout
    while b0 < n_dry or _tail_bound(comb_lines, allpass_lines) >= TAIL_FLOOR:
        if b0 >= limit:
            raise InputError(
                f"reverb tail exceeds {MAX_TAIL_S:.0f} s past the input; "
                "check the requested rt60"
            )
        # Once the dry signal has ended, the tail bound is checked every
        # eighth of a block, so the loop stops soon after the bound allows.
        b1 = (min(b0 + block, n_dry) if b0 < n_dry
              else min(b0 + max(block // 8, 1), limit))
        n = b1 - b0
        if b1 > out.size:
            out.resize(min(out.size + block, limit), refcheck=False)
        part = x_dry[b0:b1]
        x = x_buf[:n]
        x[:part.size] = part
        x[part.size:] = 0.0
        wet = acc_buf[:n]
        wet.fill(0.0)
        # A block is steady when its ramp has finished and no ramp starts
        # in it; its gains are then that ramp's final ones throughout. Two
        # steady blocks in a row share their ramp, since any other ramp
        # starts inside a block between them.
        i = bisect_right(starts, b0) - 1
        if starts[i] + n_fade > b0 or bisect_left(starts, b1) > i + 1:
            _comb_gains(ramps, starts, n_fade, b0, g_buf[:, :n])
            held = False
        elif not held:
            g_buf[:] = ramps[i][2]
            held = True
        for comb in comb_runs:
            wet += comb(n)
        wet *= _COMB_SCALE
        for allpass in allpass_runs:
            wet = allpass(wet)
        # Only a tail block can set the cut: a block that ends inside the
        # dry signal would set one below the output's length of n_dry.
        if b0 >= n_dry:
            mag = np.abs(wet, out=scratch[:n])
            hits = np.greater_equal(mag, TAIL_FLOOR, out=above[:n])[::-1]
            last = int(hits.argmax())
            if hits[last]:
                cut = b1 - last
        _write_block(out, b0, wet, part, wet_dry_mix, scratch)
        b0 = b1
    out.resize(max(n_dry, cut), refcheck=False)
    return AudioBuffer(fs, out)


def _write_block(out: np.ndarray, b0: int, wet: np.ndarray, part: np.ndarray,
                 wet_dry_mix: float, scratch: np.ndarray) -> None:
    """Mix one block into `out` from sample `b0` on: `wet_dry_mix` of the
    wet block plus the rest of the dry `part`, which may be shorter."""
    np.multiply(wet, wet_dry_mix, out=out[b0:b0 + wet.size])
    dry_part = np.multiply(part, 1.0 - wet_dry_mix, out=scratch[:part.size])
    out[b0:b0 + part.size] += dry_part
