"""Measures that only the tests use: the listening test's detection line
for early reflections, and an energy decay curve binned from a rendered
impulse response."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from echobake.errors import InputError
from echobake.perception import DEFAULT_JND, JndConstants
from echobake.tracer import EnergyDecayCurve

# Fitted range of the detection curve; outside it the line still
# evaluates but results are flagged as extrapolated.
DETECTION_FIT_RANGE_M = (2.0, 2.17)


@dataclass(frozen=True)
class DetectionProbability:
    probability: float
    extrapolated: bool


def detection_probability_er(mu: float,
                             constants: JndConstants = DEFAULT_JND) -> DetectionProbability:
    """Probability a listener notices an early-reflection change at `mu`.

    Clamped to [0, 1]; flagged extrapolated outside the fitted 2.0-2.17 m
    range, where the line is a reporting convenience rather than a fit.
    """
    raw = constants.slope_per_m * mu + constants.intercept
    lo, hi = DETECTION_FIT_RANGE_M
    return DetectionProbability(min(1.0, max(0.0, raw)), not lo <= mu <= hi)


def edc_from_impulse_response(samples: np.ndarray, sample_rate: int,
                              bin_width_s: float = 1e-3) -> EnergyDecayCurve:
    """Bin the squared impulse response into an energy histogram.

    Useful for checking a rendered reverb tail against the RT60 that
    parameterized it, through the exact same regression path as traces.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InputError("impulse response must be a non-empty 1-D array")
    power = x * x
    samples_per_bin = max(1, int(round(bin_width_s * sample_rate)))
    n_bins = (x.size + samples_per_bin - 1) // samples_per_bin
    padded = np.zeros(n_bins * samples_per_bin, dtype=np.float64)
    padded[: x.size] = power
    hist = padded.reshape(n_bins, samples_per_bin).sum(axis=1)
    width = samples_per_bin / sample_rate
    return EnergyDecayCurve(width, hist[:, None], (0.0, sample_rate / 2.0))
