import numpy as np
import pytest

from echobake.acoustics import (MFP_RT60_COEFF, SABINE_COEFF,
                                decay_csv_text, mfp_analytic, mfp_from_trace,
                                rt60_from_decay, rt60_from_mfp, rt60_sabine,
                                schroeder_integral)
from echobake.errors import InputError, InsufficientDecayError
from echobake.pipeline import run_mfp_validation
from echobake.tracer import (EnergyDecayCurve, TraceConfig,
                             trace_energy_decay, trace_segments)

from measures import edc_from_impulse_response

CENTER = (2.5, 2.5, 2.5)


def exponential_curve(rt60, duration=None, bin_width=1e-3):
    """Ideal curve whose power falls exactly 60 dB every rt60 seconds."""
    duration = 3.0 * rt60 if duration is None else duration
    t = (np.arange(int(duration / bin_width)) + 0.5) * bin_width
    e = np.power(10.0, -6.0 * t / rt60)
    return EnergyDecayCurve(bin_width, e[:, None])


class TestClosedFormFormulas:
    def test_coefficients(self):
        assert SABINE_COEFF == 0.1611
        assert MFP_RT60_COEFF == 0.1611 / 4.0

    def test_mfp_analytic_cube(self):
        # 4V/S of a 5 m cube: 4 * 125 / 150.
        assert mfp_analytic(125.0, 150.0) == pytest.approx(10.0 / 3.0)

    def test_mfp_analytic_rejects_nonpositive(self):
        with pytest.raises(InputError):
            mfp_analytic(0.0, 150.0)
        with pytest.raises(InputError):
            mfp_analytic(125.0, -1.0)

    def test_sabine_hand_value(self):
        # 0.1611 * 125 / (150 * 0.2), exact in binary floating point.
        assert rt60_sabine(125.0, 150.0, 0.2) == 0.67125

    def test_mfp_rt60_hand_value(self):
        got = rt60_from_mfp(10.0 / 3.0, 0.2)
        assert got == pytest.approx(0.6016306508045208, rel=1e-15)

    def test_small_absorption_limits_agree(self):
        # -ln(1 - a) -> a as a -> 0, so both formulas converge.
        sab = rt60_sabine(125.0, 150.0, 0.001)
        eyr = rt60_from_mfp(10.0 / 3.0, 0.001)
        assert eyr == pytest.approx(sab, rel=1e-3)
        assert eyr < sab

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.1, 1.5])
    def test_absorption_domain(self, a):
        with pytest.raises(InputError):
            rt60_sabine(125.0, 150.0, a)
        with pytest.raises(InputError):
            rt60_from_mfp(10.0 / 3.0, a)

    def test_mfp_rt60_rejects_nonpositive_mfp(self):
        with pytest.raises(InputError):
            rt60_from_mfp(0.0, 0.2)


class TestMfpFromTrace:
    def test_cube_estimate_near_analytic(self, cube_scene):
        cfg = TraceConfig(n_rays=500, n_bounces=20, rng_seed=0)
        [res] = trace_segments(cube_scene, [CENTER], cfg)
        mu = mfp_from_trace(res)
        assert res.n_segments == 500 * 20
        assert not res.escaped.any()
        assert mu == pytest.approx(float(res.lengths.sum()) / (500 * 20),
                                   rel=1e-12)
        assert abs(mu - 10.0 / 3.0) / (10.0 / 3.0) < 0.05

    def test_relative_error_definition(self):
        # Each table1 row's error is the traced value's distance from 4V/S,
        # relative to 4V/S, in percent.
        for r in run_mfp_validation().rows:
            assert r.pct_error == 100 * (abs(r.mu_traced - r.mu_analytic)
                                         / r.mu_analytic)


class TestSchroederIntegral:
    def test_hand_case(self):
        out = schroeder_integral(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, [6.0, 5.0, 3.0])

    def test_two_dim_bands_independent(self):
        e = np.array([[1.0, 0.0], [1.0, 2.0]])
        out = schroeder_integral(e)
        assert np.array_equal(out, [[2.0, 2.0], [1.0, 2.0]])

    def test_non_increasing_for_nonnegative_input(self):
        rng = np.random.default_rng(1)
        e = rng.random(50)
        out = schroeder_integral(e)
        assert np.all(np.diff(out) <= 0)


class TestDecayRegression:
    @pytest.mark.parametrize("rt", [0.5, 1.0, 2.0])
    def test_recovers_ideal_exponential(self, rt):
        est = rt60_from_decay(exponential_curve(rt))
        assert est.bands[0] == pytest.approx(rt, rel=1e-9)
        assert est.r_squared[0] > 0.999999

    def test_broadband_is_band_mean(self):
        est = rt60_from_decay(exponential_curve(1.0))
        assert est.broadband == pytest.approx(np.mean(est.bands))

    def test_traced_cube_matches_eyring(self, cube_scene):
        cfg = TraceConfig(n_rays=200, n_bounces=60, rng_seed=0)
        est = rt60_from_decay(trace_energy_decay(cube_scene, CENTER, cfg))
        ref = rt60_from_mfp(mfp_analytic(125.0, 150.0), 0.2)
        for band_rt in est.bands:
            assert abs(band_rt - ref) / ref < 0.10
        assert min(est.r_squared) > 0.999

    def test_shallow_decay_rejected(self):
        # Only falls ~4 dB over the whole curve.
        e = np.array([1.0, 0.8, 0.6, 0.5, 0.4])
        curve = EnergyDecayCurve(1e-3, e[:, None])
        with pytest.raises(InsufficientDecayError, match="insufficient"):
            rt60_from_decay(curve)

    def test_empty_band_rejected(self):
        curve = EnergyDecayCurve(1e-3, np.zeros((4, 1)))
        with pytest.raises(InsufficientDecayError, match="empty"):
            rt60_from_decay(curve)

    def test_rising_curve_rejected(self):
        # Physically impossible input (negative bin) makes the Schroeder
        # integral rise inside the fit window; the guard must catch it
        # instead of reporting a negative reverberation time.
        e = np.array([1.0, -0.004, 0.012, 1e-9])
        curve = EnergyDecayCurve(1e-3, e[:, None])
        with pytest.raises(InsufficientDecayError, match="not decreasing"):
            rt60_from_decay(curve)

    def test_trailing_zero_bins_ignored(self):
        base = exponential_curve(0.5)
        padded = np.vstack([base.energies, np.zeros((200, 1))])
        est = rt60_from_decay(
            EnergyDecayCurve(base.bin_width_s, padded))
        assert est.bands[0] == pytest.approx(0.5, rel=1e-9)


class TestImpulseResponseEdc:
    def test_one_sample_per_bin(self):
        curve = edc_from_impulse_response(
            np.array([1.0, 0.5, 0.25]), 1000, bin_width_s=1e-3)
        assert curve.energies.shape == (3, 1)
        assert np.array_equal(curve.energies[:, 0], [1.0, 0.25, 0.0625])
        assert curve.bin_width_s == pytest.approx(1e-3)

    def test_partial_final_bin_zero_padded(self):
        curve = edc_from_impulse_response(
            np.array([1.0, 1.0, 1.0]), 1000, bin_width_s=2e-3)
        assert np.array_equal(curve.energies[:, 0], [2.0, 1.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            edc_from_impulse_response(np.zeros((2, 2)), 1000)
        with pytest.raises(InputError):
            edc_from_impulse_response(np.array([]), 1000)


def test_decay_csv_shape():
    text = decay_csv_text(exponential_curve(0.5, duration=0.01))
    lines = text.strip().split("\n")
    assert lines[0] == "time_s,band0_db"
    assert len(lines) == 11
    t0, db0 = lines[1].split(",")
    assert float(t0) == pytest.approx(5e-4)
    assert float(db0) == 0.0
    assert float(lines[-1].split(",")[1]) < float(lines[1].split(",")[1])
