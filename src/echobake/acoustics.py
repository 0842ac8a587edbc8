"""Mean free path and reverberation-time estimators.

Three RT60 routes live here. The statistical one (`rt60_sabine`) needs
volume, area, and absorption. The traced one (`rt60_from_mfp`) replaces
4V/S with a Monte Carlo mean free path so it works on scenes whose volume
is unknown or ill-defined. The empirical one (`rt60_from_decay`) fits a
line to the backward-integrated energy decay in dB and converts the slope
to the time of a 60 dB drop.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InsufficientDecayError
from .tracer import EnergyDecayCurve, PathTraceResult

SABINE_COEFF = 0.1611
MFP_RT60_COEFF = SABINE_COEFF / 4.0

# Decay-regression window, dB below the curve's start.
FIT_DB_HIGH = -5.0
FIT_DB_LOW = -35.0


def mfp_analytic(volume: float, area: float) -> float:
    """Mean free path of a convex-ish enclosure, 4 * volume / area."""
    if volume <= 0.0 or area <= 0.0:
        raise InputError("volume and area must be positive")
    return 4.0 * volume / area


def mfp_from_trace(result: PathTraceResult) -> float:
    """Mean free path: the average length of every completed segment.

    Escaped rays contribute the segments they did complete; the estimator
    divides by the segment count, not by rays * bounces, so open scenes
    stay unbiased.
    """
    segs = result.flat_segments()
    return float(segs.sum()) / segs.size


def rt60_sabine(volume: float, area: float, absorption: float) -> float:
    """Sabine reverberation time 0.1611 * V / (S * a)."""
    if volume <= 0.0 or area <= 0.0:
        raise InputError("volume and area must be positive")
    if not 0.0 < absorption < 1.0:
        raise InputError(
            "absorption must lie strictly between 0 and 1 for a finite RT60"
        )
    return SABINE_COEFF * volume / (area * absorption)


def rt60_from_mfp(mean_free_path: float, absorption: float) -> float:
    """RT60 from a traced mean free path, 0.040275 * mfp / -ln(1 - a).

    Substituting mfp = 4V/S recovers an Eyring-style formula; at small
    absorption it approaches `rt60_sabine` of the same enclosure.
    """
    if mean_free_path <= 0.0:
        raise InputError("mean_free_path must be positive")
    if not 0.0 < absorption < 1.0:
        raise InputError(
            "absorption must lie strictly between 0 and 1 for a finite RT60"
        )
    return MFP_RT60_COEFF * mean_free_path / -math.log1p(-absorption)


@dataclass(frozen=True)
class Rt60Estimate:
    """Per-band RT60 in seconds and the r^2 of each band's decay fit."""

    bands: tuple[float, ...]
    r_squared: tuple[float, ...]

    @property
    def broadband(self) -> float:
        return sum(self.bands) / len(self.bands)


def schroeder_integral(energies: np.ndarray) -> np.ndarray:
    """Backward cumulative sum: remaining energy from each bin onward."""
    e = np.asarray(energies, dtype=np.float64)
    return np.cumsum(e[::-1], axis=0)[::-1]


def _fit_band(times: np.ndarray, edc: np.ndarray) -> tuple[float, float]:
    """Fit level(t) over the -5..-35 dB window; returns (rt60, r_squared)."""
    nz = np.nonzero(edc > 0.0)[0]
    if nz.size == 0:
        raise InsufficientDecayError("energy decay curve is empty")
    edc = edc[: nz[-1] + 1]
    t = times[: nz[-1] + 1]
    db = 10.0 * np.log10(edc / edc[0])
    window = (db <= FIT_DB_HIGH) & (db >= FIT_DB_LOW)
    if float(db[-1]) > FIT_DB_LOW or np.count_nonzero(window) < 2:
        raise InsufficientDecayError(
            "insufficient decay range for RT60 regression; "
            "increase bounce count or trace duration"
        )
    tw, dw = t[window], db[window]
    slope, intercept = np.polyfit(tw, dw, 1)
    if slope >= 0.0:
        raise InsufficientDecayError("energy decay curve is not decreasing")
    pred = slope * tw + intercept
    ss_res = float(np.sum((dw - pred) ** 2))
    ss_tot = float(np.sum((dw - dw.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -60.0 / float(slope), r_squared


def rt60_from_decay(curve: EnergyDecayCurve) -> Rt60Estimate:
    """Regress each band of a traced decay histogram.

    The histogram is backward-integrated (Schroeder) so bin noise smooths
    out, converted to dB relative to the integral's start, and fitted by
    least squares between -5 and -35 dB. RT60 is the time a 60 dB drop
    would take at the fitted slope.

    Raises
    ------
    InsufficientDecayError
        If a band never decays past -35 dB or has no usable window.
    """
    times = curve.times()
    rts: list[float] = []
    rsq: list[float] = []
    for k in range(curve.n_bands):
        edc = schroeder_integral(curve.energies[:, k])
        rt, r2 = _fit_band(times, edc)
        rts.append(rt)
        rsq.append(r2)
    return Rt60Estimate(tuple(rts), tuple(rsq))


def decay_csv_text(curve: EnergyDecayCurve) -> str:
    """CSV dump of the backward-integrated decay in dB per band."""
    buf = io.StringIO()
    headers = ["time_s"] + [f"band{k}_db" for k in range(curve.n_bands)]
    buf.write(",".join(headers) + "\n")
    edc = schroeder_integral(curve.energies)
    tops = edc[0].copy()
    tops[tops == 0.0] = 1.0
    times = curve.times()
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(edc / tops, 1e-300))
    for i in range(curve.n_bins):
        row = [f"{times[i]:.6f}"] + [f"{db[i, k]:.3f}" for k in range(curve.n_bands)]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
