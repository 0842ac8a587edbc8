"""Measures that only the tests use: the listening test's detection line
for early reflections, and an energy decay curve binned from a rendered
impulse response."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from echobake.errors import InputError
from echobake.perception import JND_ER_ABS_M, MU_REF_M
from echobake.tracer import EnergyDecayCurve

# The listening test's detection line for early reflections,
# `slope * mu + intercept`, fitted around the 2 m reference room.
DETECTION_SLOPE_PER_M = 3.89
DETECTION_INTERCEPT = -7.5

# Fitted range of the detection curve; outside it the line still
# evaluates but results are flagged as extrapolated.
DETECTION_FIT_RANGE_M = (2.0, 2.17)


def check_detection_line(slope_per_m: float = DETECTION_SLOPE_PER_M,
                         intercept: float = DETECTION_INTERCEPT,
                         jnd_er_abs_m: float = JND_ER_ABS_M) -> float:
    """The early-reflection threshold the line's 50% point implies.

    Raises InputError unless that point lies within 5 mm of 0.06 m above
    the reference room, and of the package's `JND_ER_ABS_M`.
    """
    fifty = (0.5 - intercept) / slope_per_m - MU_REF_M
    if not 0.055 <= fifty <= 0.065:
        raise InputError(
            "inconsistent constants: the 50% detection point implies an "
            f"early-reflection threshold of {fifty:.4f} m"
        )
    if abs(jnd_er_abs_m - fifty) > 0.005:
        raise InputError(
            f"jnd_er_abs_m {jnd_er_abs_m} disagrees with the "
            f"detection line's 50% point {fifty:.4f}"
        )
    return fifty


# Every test that imports these measures first ties the line to the
# package's threshold.
check_detection_line()


@dataclass(frozen=True)
class DetectionProbability:
    probability: float
    extrapolated: bool


def detection_probability_er(mu: float) -> DetectionProbability:
    """Probability a listener notices an early-reflection change at `mu`.

    Clamped to [0, 1]; flagged extrapolated outside the fitted 2.0-2.17 m
    range, where the line is a reporting convenience rather than a fit.
    """
    raw = DETECTION_SLOPE_PER_M * mu + DETECTION_INTERCEPT
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
    return EnergyDecayCurve(width, hist[:, None])
