"""Geometric-acoustics precomputation: trace once, reverberate cheaply.

The package bakes a listener path into a small set of perceptually
uniform clusters, each carrying one simulated RT60, then parameterizes a
Schroeder reverberator from the baked values at playback time.
"""

__version__ = "0.1.0"

from .errors import (AcousticDomainError, EchobakeError, InputError,
                     InsufficientDecayError, MaterialError, MeshParseError,
                     NoCollisionsError, ValidationFailure, WatertightError)
from .scene import (DEFAULT_BAND_EDGES, BandLayout, Hit, Material, Scene,
                    analytic_volume_and_area, load_scene)
from .tracer import (EnergyDecayCurve, PathTraceResult, TraceConfig,
                     trace_energy_decay, trace_segments)
from .acoustics import (MFP_RT60_COEFF, SABINE_COEFF, MfpEstimate,
                        Rt60Estimate, edc_from_impulse_response,
                        mfp_analytic, mfp_from_trace, rt60_from_decay,
                        rt60_from_mfp, rt60_sabine, schroeder_integral)
from .perception import (DEFAULT_JND, Cluster, ClusterMap, JndConstants,
                         PathSample, cluster_path, detection_probability_er,
                         jnd_er, jnd_lr)
from .audio_io import AudioBuffer, wav_read, wav_write
from .reverb import (ReverbParams, comb_feedback_gain, coprime_comb_delays,
                     params_from_rt60, render_path, render_reverb)
from .pipeline import (BakeConfig, BakeFile, BakeStats, LookupResult, bake,
                       corridor_fixture, direct_sound_gain, lookup,
                       run_corridor_validation, run_mfp_validation)

__all__ = [
    "__version__",
    "AcousticDomainError", "EchobakeError", "InputError",
    "InsufficientDecayError", "MaterialError", "MeshParseError",
    "NoCollisionsError", "ValidationFailure", "WatertightError",
    "DEFAULT_BAND_EDGES", "BandLayout", "Hit", "Material", "Scene",
    "analytic_volume_and_area", "load_scene",
    "EnergyDecayCurve", "PathTraceResult", "TraceConfig",
    "trace_energy_decay", "trace_segments",
    "MFP_RT60_COEFF", "SABINE_COEFF", "MfpEstimate", "Rt60Estimate",
    "edc_from_impulse_response", "mfp_analytic", "mfp_from_trace",
    "rt60_from_decay", "rt60_from_mfp", "rt60_sabine", "schroeder_integral",
    "DEFAULT_JND", "Cluster", "ClusterMap", "JndConstants", "PathSample",
    "cluster_path", "detection_probability_er", "jnd_er", "jnd_lr",
    "AudioBuffer", "wav_read", "wav_write",
    "ReverbParams", "comb_feedback_gain", "coprime_comb_delays",
    "params_from_rt60", "render_path", "render_reverb",
    "BakeConfig", "BakeFile", "BakeStats", "LookupResult", "bake",
    "corridor_fixture", "direct_sound_gain", "lookup",
    "run_corridor_validation", "run_mfp_validation",
]
