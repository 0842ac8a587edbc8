import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import baked_map

from echobake import reverb
from echobake.audio_io import AudioBuffer
from echobake.errors import InputError
from echobake.perception import Cluster, ClusterMap
from echobake.reverb import (ALLPASS_DELAYS_MS, COMB_DELAYS_MS,
                             DEFAULT_ALLPASS_GAIN, FADE_S, MIN_COMB_GAIN,
                             SUPPORTED_RATES, TAIL_FLOOR, ReverbParams,
                             _allpass, _feedback_comb, comb_feedback_gain,
                             coprime_comb_delays, fold_schedule, params_from_rt60,
                             render_path)

FS = 44100


def _has_vmhwm():
    try:
        with open("/proc/self/status") as f:
            return "VmHWM:" in f.read()
    except OSError:
        return False


# Run by test_process_peak_is_input_plus_output in a fresh interpreter.
_PEAK_CHILD = """
import json
import numpy as np
from conftest import baked_map
from echobake.audio_io import AudioBuffer, wav_write
from echobake.reverb import render_path

def _vmhwm_bytes():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

base = _vmhwm_bytes()
x = np.random.default_rng(3).standard_normal(60 * 48000)
x *= 0.05
out = render_path(AudioBuffer(48000, x), baked_map([1.5, 2.5]),
                  [(0.0, 0), (30.0, 1)])
after_render = _vmhwm_bytes()
wav = wav_write(out)
print(json.dumps({"base": base, "input": x.nbytes,
                  "output": out.samples.nbytes, "pcm": len(wav),
                  "tail": out.samples.size - x.size,
                  "after_render": after_render,
                  "after_write": _vmhwm_bytes()}))
"""


def comb_reference(x, delay, gain):
    """Sample-by-sample recurrence, the ground truth for the kernels."""
    y = np.zeros_like(x)
    for n in range(x.size):
        g = gain[n] if np.ndim(gain) else gain
        back = y[n - delay] if n >= delay else 0.0
        y[n] = x[n] + g * back
    return y


def allpass_reference(x, delay, gain):
    y = np.zeros_like(x)
    for n in range(x.size):
        xd = x[n - delay] if n >= delay else 0.0
        yd = y[n - delay] if n >= delay else 0.0
        y[n] = -gain * x[n] + xd + gain * yd
    return y


def comb(x, delay, gain):
    """One pass of the block kernel from an empty delay line."""
    gains = np.broadcast_to(np.asarray(gain, dtype=np.float64), x.shape)
    return _feedback_comb(x, gains, np.zeros(delay + x.size))


def allpass(x, delay):
    return _allpass(x, np.zeros((2, delay + x.size)), np.empty(x.size))


def impulse(n=2048):
    x = np.zeros(n)
    x[0] = 1.0
    return x


def render(dry, rt60, mix=1.0):
    """The plain reverberator: one cluster, no switch."""
    return render_path(AudioBuffer(FS, dry), baked_map([rt60]), [(0.0, 0)],
                       wet_dry_mix=mix).samples


def broadband(rt60):
    """The broadband RT60 render_path takes from baked_map([rt60])."""
    return sum((rt60,) * 4) / 4


def reference_render(dry, fs, cmap, schedule, mix):
    """Sample-by-sample Schroeder recurrence with linear gain crossfades,
    run over the dry signal plus three times the longest RT60 of silence
    (180 dB of comb decay), then cut after the last wet sample at or above
    TAIL_FLOOR. `schedule` must already be folded."""
    rt60s = [sum(cmap.clusters[c].rt60_bands) / 4 for _, c in schedule]
    n_dry = len(dry)
    n = n_dry + int(3.0 * max(rt60s) * fs)
    x = list(dry) + [0.0] * (n - n_dry)
    n_fade = int(round(FADE_S * fs))
    switches = [int(round(t * fs)) for t, _ in schedule]
    p0 = params_from_rt60(rt60s[0], fs)
    acc = [0.0] * n
    for k, d in enumerate(p0.comb_delays):
        targets = [params_from_rt60(rt, fs).comb_gains[k] for rt in rt60s]
        g = [targets[0]] * n
        for s, new in zip(switches[1:], targets[1:]):
            old = g[s - 1] if s > 0 else g[0]
            for j in range(1, n_fade + 1):
                g[s + j - 1] = old + (new - old) * j / n_fade
            g[s + n_fade:] = [new] * (n - s - n_fade)
        y = [0.0] * (n + d)
        for i in range(n):
            y[i + d] = x[i] + g[i] * y[i]
        for i in range(n):
            acc[i] += y[i + d]
    wet = [a * 0.25 for a in acc]
    for d in p0.allpass_delays:
        xp = [0.0] * d + wet
        y = [0.0] * (n + d)
        for i in range(n):
            y[i + d] = (-DEFAULT_ALLPASS_GAIN * xp[i + d] + xp[i]
                        + DEFAULT_ALLPASS_GAIN * y[i])
        wet = y[d:]
    above = [i for i, w in enumerate(wet) if abs(w) >= TAIL_FLOOR]
    n_out = max(n_dry, above[-1] + 1 if above else 0)
    return np.array([mix * wet[i] + (1.0 - mix) * x[i] for i in range(n_out)])


class TestCombGain:
    def test_thirty_ms_one_second(self):
        assert comb_feedback_gain(0.030, 1.0) == 10.0 ** -0.09
        assert comb_feedback_gain(0.030, 1.0) == pytest.approx(0.8128, abs=5e-5)

    def test_longest_comb_half_second(self):
        got = comb_feedback_gain(0.0437, 0.5)
        assert got == pytest.approx(0.5467641107291688, rel=1e-15)

    def test_huge_rt60_approaches_unity_from_below(self):
        g = comb_feedback_gain(0.0297, 1e6)
        assert 0.9999 < g < 1.0

    def test_longer_rt60_means_more_feedback(self):
        assert comb_feedback_gain(0.03, 2.0) > comb_feedback_gain(0.03, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            comb_feedback_gain(0.0, 1.0)
        with pytest.raises(InputError):
            comb_feedback_gain(0.03, -1.0)


class TestCoprimeDelays:
    def test_frozen_44100(self):
        assert coprime_comb_delays(44100) == (1310, 1637, 1813, 1927)

    def test_frozen_48000(self):
        assert coprime_comb_delays(48000) == (1426, 1781, 1973, 2097)

    @pytest.mark.parametrize("fs", SUPPORTED_RATES)
    def test_pairwise_coprime_and_near_target(self, fs):
        delays = coprime_comb_delays(fs)
        for i in range(4):
            for j in range(i + 1, 4):
                assert math.gcd(delays[i], delays[j]) == 1
            exact = COMB_DELAYS_MS[i] * fs / 1000.0
            assert abs(delays[i] - exact) < 2.0


class TestParamsFromRt60:
    def test_implied_rt60_round_trip(self):
        for rt in (0.3, 0.5, 1.0, 2.0, 5.0):
            p = params_from_rt60(rt, FS)
            implied = max(-3.0 * (d / FS) / math.log10(g)
                          for d, g in zip(p.comb_delays, p.comb_gains))
            assert implied == pytest.approx(rt, rel=1e-12)

    def test_allpass_delays(self):
        assert params_from_rt60(1.0, 44100).allpass_delays == (221, 75)
        assert params_from_rt60(1.0, 48000).allpass_delays == (240, 82)
        assert ALLPASS_DELAYS_MS == (5.0, 1.7)

    def test_gains_ordered_by_delay(self):
        p = params_from_rt60(1.0, FS)
        # Longer loops need less per-pass decay... more feedback? No:
        # a longer delay decays fewer times per second, so it needs a
        # SMALLER gain to lose 60 dB in the same time.
        assert sorted(p.comb_gains, reverse=True) == list(p.comb_gains)

    def test_unsupported_rate_rejected(self):
        with pytest.raises(InputError, match="sample_rate"):
            params_from_rt60(1.0, 22050)

    def test_rt60_too_short_for_bank(self):
        with pytest.raises(InputError, match="too short"):
            params_from_rt60(0.03, FS)
        with pytest.raises(InputError):
            params_from_rt60(0.0, FS)

    def test_gains_above_floor(self):
        p = params_from_rt60(0.04, FS)
        assert all(g >= MIN_COMB_GAIN for g in p.comb_gains)


class TestReverbParamsValidation:
    def good(self, **kw):
        base = dict(sample_rate=FS, comb_delays=(1310, 1637, 1813, 1927),
                    comb_gains=(0.8, 0.8, 0.8, 0.8),
                    allpass_delays=(221, 75))
        base.update(kw)
        return ReverbParams(**base)

    def test_good_params_accept(self):
        assert self.good().wet_dry_mix == 1.0

    def test_shared_factor_rejected(self):
        with pytest.raises(InputError, match="share a factor"):
            self.good(comb_delays=(1310, 1636, 1813, 1927))

    def test_gain_bounds(self):
        with pytest.raises(InputError):
            self.good(comb_gains=(0.8, 1.0, 0.8, 0.8))
        with pytest.raises(InputError):
            self.good(comb_gains=(0.8, 0.0, 0.8, 0.8))

    def test_mix_bounds(self):
        with pytest.raises(InputError):
            self.good(wet_dry_mix=1.5)
        assert self.good(wet_dry_mix=0.0).wet_dry_mix == 0.0

    def test_zero_delay_rejected(self):
        with pytest.raises(InputError):
            self.good(allpass_delays=(0, 75))


class TestFilterKernels:
    def test_comb_matches_recurrence(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        for delay in (1, 7, 64, 499):
            assert np.array_equal(comb(x, delay, 0.8),
                                  comb_reference(x, delay, 0.8))

    def test_comb_delay_longer_than_signal(self):
        x = np.random.default_rng(1).standard_normal(50)
        assert np.array_equal(comb(x, 200, 0.9), comb_reference(x, 200, 0.9))

    def test_comb_gain_array_matches_recurrence(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(400)
        g = np.linspace(0.5, 0.9, 400)
        assert np.array_equal(comb(x, 37, g), comb_reference(x, 37, g))

    def test_comb_constant_array_equals_scalar(self):
        x = np.random.default_rng(3).standard_normal(300)
        assert np.array_equal(comb(x, 41, np.full(300, 0.73)),
                              comb_reference(x, 41, 0.73))

    def test_allpass_matches_recurrence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500)
        for delay in (1, 75, 221, 499):
            assert np.array_equal(allpass(x, delay),
                                  allpass_reference(x, delay, DEFAULT_ALLPASS_GAIN))

    def test_allpass_preserves_energy_of_impulse(self):
        # An allpass has unit magnitude response, so an impulse comes
        # out with total energy 1 once the tail has rung out.
        y = allpass(impulse(40000), 75)
        assert float(np.sum(y * y)) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("delay", [1, 37, 75, 221, 1000])
    def test_blocks_carry_the_delay_lines(self, delay):
        # Cuts both shorter and longer than the delay, and a single-sample
        # block, must give exactly the one-pass output.
        rng = np.random.default_rng(delay)
        x = rng.standard_normal(3000)
        g = np.linspace(0.95, 0.5, 3000)
        cuts = [0, 1, 2, 30, 31, 400, 1777, 1800, 3000]
        # One buffer per filter, sized for the longest block, as render_path
        # allocates them; each block's outputs are read before the next call.
        comb_buf, ap_buf = np.zeros(delay + 1777), np.zeros((2, delay + 1777))
        w = np.empty(1777)
        comb_out, ap_out = [], []
        for b0, b1 in zip(cuts, cuts[1:]):
            n = b1 - b0
            comb_out.append(_feedback_comb(x[b0:b1], g[b0:b1],
                                           comb_buf[:delay + n]).copy())
            ap_out.append(_allpass(x[b0:b1], ap_buf[:, :delay + n],
                                   w[:n]).copy())
        assert np.array_equal(np.concatenate(comb_out), comb(x, delay, g))
        assert np.array_equal(np.concatenate(ap_out), allpass(x, delay))
        assert np.array_equal(comb_buf[:delay], comb(x, delay, g)[-delay:])


def recurrence_reference(w, gain, line):
    """y[n] = w[n] + g[n] * y[n - d], one sample at a time, after the d
    prior outputs in `line`."""
    d = line.size
    y = list(line) + [0.0] * w.size
    for n in range(w.size):
        g = gain[n] if np.ndim(gain) else gain
        y[d + n] = w[n] + g * y[n]
    return np.array(y[d:]), np.array(y[w.size:])


def read_only(a):
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


class TestRowRecurrence:
    """`_feedback_comb` runs both filters' recurrence in rows of d samples
    written in place in the filter's own buffer; the block edge cases of
    that row split."""

    # (block length, delay): whole rows only, one short row, exactly one
    # row, one-sample rows, and a partial last row.
    CASES = [(300, 60), (50, 60), (60, 60), (100, 1), (250, 60)]

    @pytest.mark.parametrize("n, delay", CASES)
    @pytest.mark.parametrize("per_sample", [False, True])
    def test_matches_reference_and_writes_no_input(self, n, delay, per_sample):
        rng = np.random.default_rng(n * delay)
        x = read_only(rng.standard_normal(n))
        gain = (read_only(np.linspace(0.9, 0.4, n)) if per_sample
                else 0.73)
        line = read_only(rng.standard_normal(delay))
        ypad = np.empty(delay + n)
        ypad[:delay] = line
        y = _feedback_comb(x, gain, ypad)
        ref_y, ref_line = recurrence_reference(x, gain, line)
        assert np.array_equal(y, ref_y)
        assert np.array_equal(ypad[:delay], ref_line)
        # The outputs are the buffer's tail, clear of the new line at its
        # head, and of every input.
        assert np.shares_memory(y, ypad[delay:]) and y.size == n
        assert not np.shares_memory(y, ypad[:delay])
        for arg in (x, gain, line):
            assert not np.shares_memory(ypad, arg)

    @pytest.mark.parametrize("n, delay", CASES)
    def test_allpass_with_prior_state(self, n, delay):
        rng = np.random.default_rng(n + delay)
        x = read_only(rng.standard_normal(n))
        line = read_only(rng.standard_normal((2, delay)))
        g = DEFAULT_ALLPASS_GAIN
        state = np.empty((2, delay + n))
        state[:, :delay] = line
        w = np.empty(n)
        y = _allpass(x, state, w)
        xpad = np.concatenate([line[0], x])
        ref_y, ref_y_line = recurrence_reference(
            np.array([-g * x[i] + xpad[i] for i in range(n)]), g, line[1])
        assert np.array_equal(y, ref_y)
        assert np.array_equal(state[:, :delay], np.stack([xpad[n:], ref_y_line]))
        assert np.shares_memory(y, state[1, delay:]) and y.size == n
        assert not np.shares_memory(y, state[:, :delay])
        for arg in (x, line):
            assert not np.shares_memory(state, arg)
            assert not np.shares_memory(w, arg)
        assert not np.shares_memory(y, w)


class TestRenderReverb:
    """The plain reverberator: render_path on one cluster."""

    def test_matches_reference_chain_prefix(self):
        p = params_from_rt60(broadband(0.4), FS)
        n = 4000
        out = render(impulse(n), 0.4)
        x = np.zeros(out.size)
        x[0] = 1.0
        acc = np.zeros_like(x)
        for d, g in zip(p.comb_delays, p.comb_gains):
            acc += comb_reference(x, d, g)
        acc *= 0.25
        for d in p.allpass_delays:
            acc = allpass_reference(acc, d, DEFAULT_ALLPASS_GAIN)
        assert np.array_equal(out, acc[:out.size])

    def test_silence_in_silence_out(self):
        out = render(np.zeros(1000), 1.0)
        assert out.size == 1000
        assert not out.any()

    def test_tail_extends_past_input_and_ends_at_floor(self):
        out = render(impulse(100), 0.5)
        assert out.size > 100
        assert abs(out[-1]) >= TAIL_FLOOR
        # Rough span check: a 0.5 s RT60 from unit impulse reaches
        # -80 dBFS somewhere past two thirds of a second.
        assert 0.4 < out.size / FS < 1.5

    def test_scaling_by_half_is_exact(self):
        full = render(impulse(), 0.5)
        half = render(0.5 * impulse(), 0.5)
        n = min(full.size, half.size)
        assert np.array_equal(half[:n], 0.5 * full[:n])

    def test_additivity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(3000) * 0.1
        b = rng.standard_normal(3000) * 0.1
        ya, yb, yab = render(a, 0.4), render(b, 0.4), render(a + b, 0.4)
        # Tail cuts differ per render, so compare the common prefix.
        n = min(ya.size, yb.size, yab.size)
        assert ya[:n] + yb[:n] == pytest.approx(yab[:n], abs=1e-9)

    def test_stable_decay(self):
        out = render(impulse(10), 0.5)
        early = np.abs(out[: FS // 4]).max()
        late = np.abs(out[FS // 2 : ]).max() if out.size > FS // 2 else 0.0
        assert late < early

    def test_dry_mix_passthrough(self):
        dry = np.random.default_rng(6).standard_normal(500) * 0.1
        out = render(dry, 0.5, mix=0.0)
        assert out[:500] == pytest.approx(dry, abs=1e-12)

    def test_empty_input(self):
        assert render(np.array([]), 0.5).size == 0


class TestRenderPath:
    def test_constant_schedule_equals_plain_render(self):
        cmap = baked_map([0.7])
        dry = np.random.default_rng(7).standard_normal(2000) * 0.1
        via_path = render_path(AudioBuffer(FS, dry), cmap, [(0.0, 0)])
        plain = reference_render(dry, FS, cmap, [(0.0, 0)], 1.0)
        assert np.array_equal(via_path.samples, plain)

    def test_constant_schedule_respects_mix(self):
        cmap = baked_map([0.7])
        dry = np.random.default_rng(8).standard_normal(1000) * 0.1
        via_path = render_path(AudioBuffer(FS, dry), cmap, [(0.0, 0)],
                               wet_dry_mix=0.3)
        plain = reference_render(dry, FS, cmap, [(0.0, 0)], 0.3)
        assert np.array_equal(via_path.samples, plain)

    def test_switch_between_equal_clusters_is_inert(self):
        # Ramping a gain onto its own value must not perturb a single
        # sample, whatever the fade length does internally.
        cmap = baked_map([0.6, 0.6])
        dry = AudioBuffer(FS, impulse(FS))
        switched = render_path(dry, cmap, [(0.0, 0), (0.5, 1)])
        constant = render_path(dry, cmap, [(0.0, 0)])
        assert np.array_equal(switched.samples, constant.samples)

    def test_switch_changes_late_tail_only(self):
        cmap = baked_map([0.4, 1.2])
        dry = AudioBuffer(FS, impulse(FS))
        moved = render_path(dry, cmap, [(0.0, 0), (0.5, 1)]).samples
        still = render_path(dry, cmap, [(0.0, 0)]).samples
        pre_switch = int(0.5 * FS)
        assert np.array_equal(moved[:pre_switch], still[:pre_switch])
        n = min(moved.size, still.size)
        late = slice(int(0.7 * FS), n)
        assert np.abs(moved[late]).max() > 10 * np.abs(still[late]).max()

    def test_post_switch_decay_tracks_new_cluster(self):
        from echobake.acoustics import edc_from_impulse_response, rt60_from_decay
        # Fire the impulse well after the fade finishes, so its whole
        # tail rings at the second cluster's reverberation time.
        cmap = baked_map([0.3, 1.0])
        dry = np.zeros(int(0.3 * FS))
        hit = int(0.2 * FS)
        dry[hit] = 1.0
        out = render_path(AudioBuffer(FS, dry), cmap,
                          [(0.0, 0), (0.1, 1)]).samples
        est = rt60_from_decay(edc_from_impulse_response(out[hit:], FS))
        assert est.bands[0] == pytest.approx(1.0, rel=0.10)

    def test_schedule_validation(self):
        cmap = baked_map([0.5, 0.8])
        dry = AudioBuffer(FS, impulse(FS))
        with pytest.raises(InputError, match="empty"):
            render_path(dry, cmap, [])
        with pytest.raises(InputError, match="t=0"):
            render_path(dry, cmap, [(0.1, 0)])
        with pytest.raises(InputError, match="increasing"):
            render_path(dry, cmap, [(0.0, 0), (0.5, 1), (0.5, 0)])
        with pytest.raises(InputError, match="past the end"):
            render_path(dry, cmap, [(0.0, 0), (2.0, 1)])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InputError, match="finite"):
                render_path(dry, cmap, [(0.0, 0), (bad, 1)])
        with pytest.raises(InputError, match="unknown cluster"):
            render_path(dry, cmap, [(0.0, 5)])

    def test_fold_schedule(self):
        assert fold_schedule([(0.0, 1), (0.2, 1), (0.3, 0), (0.4, 0), (0.5, 1)]) == [
            (0.0, 1), (0.3, 0), (0.5, 1)]
        # Rows that fold away are checked first.
        for bad in ([(0.0, 0), (float("nan"), 0)], [(0.0, 0), (0.5, 0), (0.1, 0)]):
            with pytest.raises(InputError):
                fold_schedule(bad)

    def test_repeated_cluster_rows_render_as_one(self):
        cmap = baked_map([0.5, 0.8])
        dry = AudioBuffer(FS, impulse(FS))
        repeated = render_path(dry, cmap, [(0.0, 1), (0.3, 1), (0.6, 1)])
        assert np.array_equal(repeated.samples,
                              render_path(dry, cmap, [(0.0, 1)]).samples)

    def test_unbaked_cluster_rejected(self):
        bare = ClusterMap((Cluster(0, 1, 2.0, 2.0, 0.02),), 1)
        with pytest.raises(InputError, match="no rt60"):
            render_path(AudioBuffer(FS, impulse(100)), bare, [(0.0, 0)])


# Schedules with three or more switches, fades that overlap (switches less
# than FADE_S apart) and two switch times that round to one sample; the
# 0.2-sample switch also rounds to sample 0.
REFERENCE_CASES = [
    (FS, [0.3, 0.6, 0.45], 0.25, 1.0,
     [(0.0, 0), (0.05, 1), (0.07, 2), (0.12, 1), (0.12 + 0.3 / FS, 0)]),
    (48000, [0.5, 0.25, 0.35, 0.6], 0.3, 0.7,
     [(0.0, 3), (0.2 / 48000, 1), (0.1, 2), (0.11, 0), (0.2, 1),
      (0.2 + 0.2 / 48000, 3)]),
    (FS, [0.2, 0.55, 0.4], 0.2, 0.0,
     [(0.0, 1), (0.02, 0), (0.04, 2), (0.06, 1), (0.19, 2)]),
]


class TestStreamedRender:
    @pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
    def test_matches_reference_at_two_block_sizes(self, case, monkeypatch):
        fs, rt60s, seconds, mix, schedule = REFERENCE_CASES[case]
        cmap = baked_map(rt60s)
        dry = np.random.default_rng(case).standard_normal(int(seconds * fs)) * 0.3
        dry[::997] = 1.0
        ref = reference_render(dry, fs, cmap, schedule, mix)
        buf = AudioBuffer(fs, dry.copy())
        outs = [render_path(buf, cmap, schedule, mix).samples]
        # Blocks shorter than the shortest allpass delay.
        monkeypatch.setattr(reverb, "BLOCK_SAMPLES", 50)
        outs.append(render_path(buf, cmap, schedule, mix).samples)
        assert ref.size > dry.size
        for out in outs:
            assert out.size == ref.size
            assert np.array_equal(out, ref)
        assert np.array_equal(buf.samples, dry)

    def test_tail_that_rises_again_is_kept(self, monkeypatch):
        # The four combs' tails of a 70 Hz tone cancel below the floor for
        # 2,607 samples, longer than one recirculation period, and then
        # rise above it once more at sample 88,594.
        dry = np.sin(np.arange(FS) * 0.01) * 0.3
        cmap = baked_map([0.9])
        ref = reference_render(dry, FS, cmap, [(0.0, 0)], 1.0)
        assert ref.size == 88595
        for block in (reverb.BLOCK_SAMPLES, 50):
            monkeypatch.setattr(reverb, "BLOCK_SAMPLES", block)
            out = render_path(AudioBuffer(FS, dry), cmap, [(0.0, 0)]).samples
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("seconds", [10, 60])
    def test_peak_memory_is_bounded_by_the_output(self, seconds):
        # Beyond the output, the render holds a fixed set of block buffers
        # (about 16 blocks), whatever the length; one more copy of a 60 s
        # output would be 44 blocks.
        fs = 48000
        x = np.random.default_rng(9).standard_normal(seconds * fs)
        x *= 0.1
        dry = AudioBuffer(fs, x)
        cmap = baked_map([1.0, 1.5])
        tracemalloc.start()
        try:
            out = render_path(dry, cmap, [(0.0, 0), (seconds / 2, 1)], 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.samples.size > x.size + reverb.BLOCK_SAMPLES
        assert peak - out.samples.nbytes <= 20 * reverb.BLOCK_SAMPLES * 8

    def test_peak_memory_with_a_tail_of_several_blocks(self):
        # The output grows in place while the tail runs on, so a long tail
        # costs no more working memory than a short one.
        fs = 48000
        x = np.random.default_rng(11).standard_normal(10 * fs)
        x *= 0.1
        cmap = baked_map([4.0, 6.0])
        tracemalloc.start()
        try:
            out = render_path(AudioBuffer(fs, x), cmap, [(0.0, 0), (5.0, 1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.samples.size - x.size >= 3 * reverb.BLOCK_SAMPLES
        assert peak - out.samples.nbytes <= 20 * reverb.BLOCK_SAMPLES * 8

    @pytest.mark.skipif(not _has_vmhwm(), reason="needs VmHWM in /proc/self/status")
    def test_process_peak_is_input_plus_output(self):
        # tracemalloc cannot see a realloc that copies, or memory the
        # kernel holds twice while it moves pages, so a fresh process runs
        # a 60 s render whose tail outgrows the first output block, then
        # encodes it, and reports its own peak resident set (VmHWM, which
        # unlike ru_maxrss is not inherited from this process).
        src = Path(reverb.__file__).resolve().parents[1]
        tests = Path(__file__).resolve().parent
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_CHILD],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        r = json.loads(proc.stdout)
        mb = 1 << 20
        assert r["tail"] > reverb.BLOCK_SAMPLES
        # 8 MB of block buffers plus allocator slack (11 MB in all, measured
        # on Linux); a second copy of the output would add 23 MB.
        margin = 16 * mb
        base = r["base"] + r["input"] + r["output"]
        assert r["after_render"] <= base + margin, r
        assert r["after_write"] <= base + r["pcm"] + margin, r

    @pytest.mark.parametrize("hook", ["profile", "trace"])
    def test_renders_under_a_profiler(self, hook):
        # A profiler or tracer holds references to the render's locals,
        # which numpy's reference check on a resize counts. The tail
        # outgrows the first output block, so the output is resized inside
        # the block loop as well as before and after it.
        fs = 48000
        x = np.random.default_rng(5).standard_normal(fs)
        x *= 0.1
        cmap, schedule = baked_map([4.0, 6.0]), [(0.0, 0), (0.5, 1)]
        plain = render_path(AudioBuffer(fs, x), cmap, schedule).samples
        assert plain.size > x.size + 2 * reverb.BLOCK_SAMPLES
        get, set_ = getattr(sys, "get" + hook), getattr(sys, "set" + hook)

        def hook_fn(frame, event, arg):
            return hook_fn

        previous = get()
        set_(hook_fn)
        try:
            hooked = render_path(AudioBuffer(fs, x), cmap, schedule).samples
        finally:
            set_(previous)
        assert hooked.tobytes() == plain.tobytes()

    def test_input_longer_than_tail_cap_renders(self, monkeypatch):
        dry = np.random.default_rng(10).standard_normal(2 * FS) * 0.1
        full = render(dry, 0.3)
        monkeypatch.setattr(reverb, "MAX_TAIL_S", 1.0)
        assert np.array_equal(render(dry, 0.3), full)

    def test_tail_longer_than_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(reverb, "MAX_TAIL_S", 0.2)
        with pytest.raises(InputError, match="tail exceeds"):
            render(impulse(100), 1.0)
