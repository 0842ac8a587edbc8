import math

import numpy as np
import pytest

from echobake.audio_io import AudioBuffer
from echobake.errors import InputError
from echobake.perception import Cluster, ClusterMap
from echobake.reverb import (ALLPASS_DELAYS_MS, COMB_DELAYS_MS,
                             DEFAULT_ALLPASS_GAIN, MIN_COMB_GAIN,
                             SUPPORTED_RATES, TAIL_FLOOR, ReverbParams,
                             _allpass, _feedback_comb, comb_feedback_gain,
                             coprime_comb_delays, params_from_rt60,
                             render_path, render_reverb)

FS = 44100


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


def impulse(n=2048):
    x = np.zeros(n)
    x[0] = 1.0
    return x


def baked_map(rt60s):
    """Single-sample-per-cluster map with baked band RT60s."""
    clusters = tuple(
        Cluster(i, i + 1, 2.0, 2.0, 0.02, rt60_bands=(rt,) * 4,
                r_squared=(1.0,) * 4, lr_position=(0.0, 0.0, 0.0))
        for i, rt in enumerate(rt60s))
    return ClusterMap(clusters, len(rt60s))


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
            assert p.implied_rt60() == pytest.approx(rt, rel=1e-12)

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
        p = self.good()
        assert p.allpass_gain == DEFAULT_ALLPASS_GAIN
        assert p.wet_dry_mix == 1.0

    def test_shared_factor_rejected(self):
        with pytest.raises(InputError, match="share a factor"):
            self.good(comb_delays=(1310, 1636, 1813, 1927))

    def test_gain_bounds(self):
        with pytest.raises(InputError):
            self.good(comb_gains=(0.8, 1.0, 0.8, 0.8))
        with pytest.raises(InputError):
            self.good(comb_gains=(0.8, 0.0, 0.8, 0.8))
        with pytest.raises(InputError):
            self.good(allpass_gain=1.0)

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
            assert np.array_equal(_feedback_comb(x, delay, 0.8),
                                  comb_reference(x, delay, 0.8))

    def test_comb_delay_longer_than_signal(self):
        x = np.random.default_rng(1).standard_normal(50)
        assert np.array_equal(_feedback_comb(x, 200, 0.9),
                              comb_reference(x, 200, 0.9))

    def test_comb_gain_array_matches_recurrence(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(400)
        g = np.linspace(0.5, 0.9, 400)
        assert np.array_equal(_feedback_comb(x, 37, g),
                              comb_reference(x, 37, g))

    def test_comb_constant_array_equals_scalar(self):
        x = np.random.default_rng(3).standard_normal(300)
        g = np.full(300, 0.73)
        assert np.array_equal(_feedback_comb(x, 41, g),
                              _feedback_comb(x, 41, 0.73))

    def test_allpass_matches_recurrence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500)
        for delay in (1, 75, 221, 499):
            assert np.array_equal(_allpass(x, delay, 0.7),
                                  allpass_reference(x, delay, 0.7))

    def test_allpass_preserves_energy_of_impulse(self):
        # An allpass has unit magnitude response, so an impulse comes
        # out with total energy 1 once the tail has rung out.
        y = _allpass(impulse(40000), 75, 0.7)
        assert float(np.sum(y * y)) == pytest.approx(1.0, rel=1e-9)


class TestRenderReverb:
    def test_matches_reference_chain_prefix(self):
        p = params_from_rt60(0.4, FS)
        n = 4000
        dry = np.zeros(n)
        dry[0] = 1.0
        out = render_reverb(AudioBuffer(FS, dry), p)
        x = np.zeros(out.samples.size)
        x[0] = 1.0
        acc = np.zeros_like(x)
        for d, g in zip(p.comb_delays, p.comb_gains):
            acc += comb_reference(x, d, g)
        acc *= 0.25
        for d in p.allpass_delays:
            acc = allpass_reference(acc, d, p.allpass_gain)
        assert np.array_equal(out.samples, acc[:out.samples.size])

    def test_silence_in_silence_out(self):
        p = params_from_rt60(1.0, FS)
        out = render_reverb(AudioBuffer(FS, np.zeros(1000)), p)
        assert out.samples.size == 1000
        assert not out.samples.any()

    def test_tail_extends_past_input_and_ends_at_floor(self):
        p = params_from_rt60(0.5, FS)
        out = render_reverb(AudioBuffer(FS, impulse(100)), p)
        assert out.samples.size > 100
        assert abs(out.samples[-1]) >= TAIL_FLOOR
        # Rough span check: a 0.5 s RT60 from unit impulse reaches
        # -80 dBFS somewhere past two thirds of a second.
        assert 0.4 < out.duration_s < 1.5

    def test_scaling_by_half_is_exact(self):
        p = params_from_rt60(0.5, FS)
        full = render_reverb(AudioBuffer(FS, impulse()), p)
        half = render_reverb(AudioBuffer(FS, 0.5 * impulse()), p)
        n = min(full.samples.size, half.samples.size)
        assert np.array_equal(half.samples[:n], 0.5 * full.samples[:n])

    def test_additivity(self):
        p = params_from_rt60(0.4, FS)
        rng = np.random.default_rng(5)
        a = rng.standard_normal(3000) * 0.1
        b = rng.standard_normal(3000) * 0.1
        ya = render_reverb(AudioBuffer(FS, a), p).samples
        yb = render_reverb(AudioBuffer(FS, b), p).samples
        yab = render_reverb(AudioBuffer(FS, a + b), p).samples
        # Tail cuts differ per render, so compare the common prefix.
        n = min(ya.size, yb.size, yab.size)
        assert ya[:n] + yb[:n] == pytest.approx(yab[:n], abs=1e-9)

    def test_stable_decay(self):
        p = params_from_rt60(0.5, FS)
        out = render_reverb(AudioBuffer(FS, impulse(10)), p).samples
        early = np.abs(out[: FS // 4]).max()
        late = np.abs(out[FS // 2 : ]).max() if out.size > FS // 2 else 0.0
        assert late < early

    def test_dry_mix_passthrough(self):
        p = params_from_rt60(0.5, FS, wet_dry_mix=0.0)
        dry = np.random.default_rng(6).standard_normal(500) * 0.1
        out = render_reverb(AudioBuffer(FS, dry), p)
        assert out.samples[:500] == pytest.approx(dry, abs=1e-12)

    def test_sample_rate_mismatch_rejected(self):
        p = params_from_rt60(0.5, 48000)
        with pytest.raises(InputError, match="mismatch"):
            render_reverb(AudioBuffer(FS, impulse()), p)

    def test_empty_input(self):
        p = params_from_rt60(0.5, FS)
        assert render_reverb(AudioBuffer(FS, np.array([])), p).samples.size == 0


class TestRenderPath:
    def test_constant_schedule_equals_plain_render(self):
        cmap = baked_map([0.7])
        dry = AudioBuffer(FS, np.random.default_rng(7).standard_normal(2000) * 0.1)
        via_path = render_path(dry, cmap, [(0.0, 0)])
        plain = render_reverb(dry, params_from_rt60(0.7, FS))
        assert np.array_equal(via_path.samples, plain.samples)

    def test_constant_schedule_respects_mix(self):
        cmap = baked_map([0.7])
        dry = AudioBuffer(FS, np.random.default_rng(8).standard_normal(1000) * 0.1)
        via_path = render_path(dry, cmap, [(0.0, 0)], wet_dry_mix=0.3)
        plain = render_reverb(dry, params_from_rt60(0.7, FS, wet_dry_mix=0.3))
        assert np.array_equal(via_path.samples, plain.samples)

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

    def test_unbaked_cluster_rejected(self):
        bare = ClusterMap((Cluster(0, 1, 2.0, 2.0, 0.02),), 1)
        with pytest.raises(InputError, match="no rt60"):
            render_path(AudioBuffer(FS, impulse(100)), bare, [(0.0, 0)])
