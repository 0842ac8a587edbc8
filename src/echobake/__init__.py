"""Geometric-acoustics precomputation: trace once, reverberate cheaply.

The package bakes a listener path into a small set of perceptually
uniform clusters, each carrying one simulated RT60, then parameterizes a
Schroeder reverberator from the baked values at playback time.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
