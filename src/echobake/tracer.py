"""Monte Carlo specular ray tracing.

Rays are emitted uniformly over the sphere from per-ray random streams
keyed by (seed, ray index), so results never depend on execution order or
batching. `trace_segments` records free-path segment lengths for the mean
free path estimator, for any number of sources in one ray set;
`trace_energy_decay` follows the same geometry from one source while
attenuating a per-band energy payload at every surface hit and depositing
it into a time histogram, which later feeds the decay-regression RT60.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NoCollisionsError, is_int
from .scene import Scene

# After a hit the next leg starts this far along the facing normal, on the
# side the ray came from. The reflected ray moves away from the struck
# plane, so that triangle and its coplanar neighbours lie at negative `t`
# and every leg can be traced with t_min = 0: a second wall just ahead, as
# at a room corner, is still found. The push is far below any segment
# length of interest, so path-length bias is negligible.
NORMAL_OFFSET = 1e-6

# A ray is dropped once every band has decayed below this energy.
ENERGY_FLOOR = 1e-12

_BOUNDS_PAD = 1.0
SPEED_OF_SOUND = 343.0  # m/s, air at about 20 C
BIN_WIDTH_S = 1e-3  # energy decay histogram resolution


@dataclass(frozen=True)
class TraceConfig:
    """Ray count, bounce depth and seed for one trace."""

    n_rays: int = 500
    n_bounces: int = 20
    rng_seed: int = 0

    def __post_init__(self) -> None:
        counts = (self.n_rays, self.n_bounces)
        if not all(is_int(v) and v >= 1 for v in counts):
            raise InputError(f"n_rays and n_bounces must be integers >= 1, got {counts}")
        if not (is_int(self.rng_seed) and self.rng_seed >= 0):
            raise InputError(f"the seed must be an integer >= 0, got {self.rng_seed!r}")


@dataclass(frozen=True)
class PathTraceResult:
    """Free-path segments of one source's rays.

    `lengths[i, j]` is the length of ray i's j-th segment (the emission
    leg counts as segment 0); entries at or past `bounces_completed[i]`
    are zero padding. A ray with fewer completed bounces than configured
    escaped the scene on its next leg, but its completed segments still
    count.
    """

    source: tuple[float, float, float]
    config: TraceConfig
    lengths: np.ndarray
    bounces_completed: np.ndarray

    @property
    def n_segments(self) -> int:
        return int(self.bounces_completed.sum())

    @property
    def escaped(self) -> np.ndarray:
        return self.bounces_completed < self.config.n_bounces

    def flat_segments(self) -> np.ndarray:
        """All completed segment lengths, ray-major order."""
        mask = np.arange(self.config.n_bounces)[None, :] < self.bounces_completed[:, None]
        return self.lengths[mask]


@dataclass(frozen=True)
class EnergyDecayCurve:
    """Per-band energy arrival histogram.

    `energies` has shape (n_bins, n_bands) in linear power units with the
    source normalized to total emitted energy 1 per band. The histogram
    spans twice the last deposit time so the decay tail is fully visible.
    """

    bin_width_s: float
    energies: np.ndarray
    band_edges_hz: tuple[float, ...]

    @property
    def n_bins(self) -> int:
        return self.energies.shape[0]

    @property
    def n_bands(self) -> int:
        return self.energies.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_bins * self.bin_width_s

    def times(self) -> np.ndarray:
        """Bin centre times in seconds."""
        return (np.arange(self.n_bins) + 0.5) * self.bin_width_s


@functools.lru_cache(maxsize=8)
def sphere_directions(seed: int, n: int) -> np.ndarray:
    """Uniform unit directions, one independent stream per ray.

    Ray i draws from a generator keyed by (seed, i), so any subset of rays
    traced in any order sees exactly the directions it would in a full
    serial run.
    """
    out = np.empty((n, 3), dtype=np.float64)
    for i in range(n):
        u = np.random.default_rng((seed, i)).random(2)
        z = 1.0 - 2.0 * u[0]
        r = math.sqrt(max(0.0, 1.0 - z * z))
        phi = 2.0 * math.pi * u[1]
        out[i] = (r * math.cos(phi), r * math.sin(phi), z)
    out.setflags(write=False)
    return out


def _check_source(scene: Scene, source: np.ndarray, prefix: str = "") -> None:
    src = tuple(float(v) for v in source)
    if not np.all(np.isfinite(source)):
        raise InputError(f"{prefix}source {src} is not finite")
    lo, hi = scene.bounds
    if np.any(source < lo - _BOUNDS_PAD) or np.any(source > hi + _BOUNDS_PAD):
        raise InputError(
            f"{prefix}source {src} lies outside the scene bounds "
            f"(low {tuple(float(v) for v in lo)}, "
            f"high {tuple(float(v) for v in hi)})"
        )


def _bounce(scene: Scene, origins, dirs):
    """One bounce for a batch of rays.

    Returns (t, hit mask, triangle ids, new origins, new directions); the
    last three carry entries only for rays that hit something, or None
    when nothing did. New directions are the incoming ones mirrored about
    the struck triangle's plane.
    """
    t, idx = scene.batch_closest_hit(origins, dirs, 0.0)
    hit = idx >= 0
    if not np.any(hit):
        return t, hit, None, None, None
    ids = idx[hit]
    ti = t[hit][:, None]
    d = dirs[hit]
    normals = scene._unit_normals[ids]
    dot = d[:, 0] * normals[:, 0] + d[:, 1] * normals[:, 1] + d[:, 2] * normals[:, 2]
    facing = np.where(dot > 0.0, -1.0, 1.0)[:, None] * normals
    fdot = d[:, 0] * facing[:, 0] + d[:, 1] * facing[:, 1] + d[:, 2] * facing[:, 2]
    reflected = d - 2.0 * fdot[:, None] * facing
    points = origins[hit] + ti * d + NORMAL_OFFSET * facing
    return t, hit, ids, points, reflected


def trace_segments(scene: Scene, sources, config: TraceConfig,
                   first_index: int = 0) -> list[PathTraceResult]:
    """Trace specular free paths from every source as one ray set.

    Parameters
    ----------
    scene : Scene
    sources : (n, 3) array of positions strictly inside the scene (a 1 m
        pad is allowed so planar test scenes remain usable).
    config : TraceConfig; each source gets its own `n_rays` rays.
    first_index : the point index errors give `sources[0]`.

    Returns one result per source, in order, each exactly that of a
    one-source trace. Memory grows with n * n_rays * n_bounces.

    Raises
    ------
    InputError
        ``point i: ...`` for a source that is not finite or lies outside
        the scene.
    NoCollisionsError
        ``point i: ...`` for a source none of whose rays hit a surface; its
        mean free path is undefined.
    """
    srcs = np.asarray(sources, dtype=np.float64)
    if srcs.ndim != 2 or srcs.shape[1] != 3:
        raise InputError(f"sources must be an (n, 3) array, got shape {srcs.shape}")
    for i, src in enumerate(srcs, first_index):
        _check_source(scene, src, f"point {i}: ")
    k, n, b = srcs.shape[0], config.n_rays, config.n_bounces
    dirs = np.tile(sphere_directions(config.rng_seed, n), (k, 1))
    origins = np.repeat(srcs, n, axis=0)
    lengths = np.zeros((k * n, b), dtype=np.float64)
    completed = np.zeros(k * n, dtype=np.int64)
    alive = np.arange(k * n)
    for j in range(b):
        t, hit, _, points, reflected = _bounce(scene, origins, dirs)
        if points is None:
            break
        alive = alive[hit]
        lengths[alive, j] = t[hit]
        completed[alive] = j + 1
        origins, dirs = points, reflected
    lengths = lengths.reshape(k, n, b)
    completed = completed.reshape(k, n)
    results = []
    for i, src in enumerate(srcs):
        if not completed[i].any():
            raise NoCollisionsError(f"point {first_index + i}: no collisions; "
                                    "mean-free path undefined")
        results.append(PathTraceResult(tuple(float(v) for v in src), config,
                                       lengths[i], completed[i]))
    return results


def trace_energy_decay(scene: Scene, source, config: TraceConfig) -> EnergyDecayCurve:
    """Trace per-band energy and histogram its arrival times.

    Every ray starts with energy 1/n_rays in each band. A hit first
    attenuates the payload by (1 - absorption) of the struck material,
    then the attenuated energy is deposited at the cumulative path time.
    Rays terminate once all bands fall below 1e-12 or the bounce budget is
    exhausted.
    """
    src = np.asarray(source, dtype=np.float64)
    _check_source(scene, src)
    n, b = config.n_rays, config.n_bounces
    n_bands = scene.bands.n_bands
    dirs = np.array(sphere_directions(config.rng_seed, n))
    origins = np.tile(src, (n, 1))
    energy = np.full((n, n_bands), 1.0 / n, dtype=np.float64)
    elapsed = np.zeros(n, dtype=np.float64)
    alpha_by_tri = scene._alpha[scene._material_ids]

    dep_times: list[np.ndarray] = []
    dep_energy: list[np.ndarray] = []
    for _ in range(b):
        t, hit, ids, points, reflected = _bounce(scene, origins, dirs)
        if points is None:
            break
        elapsed = elapsed[hit] + t[hit] / SPEED_OF_SOUND
        energy = energy[hit] * (1.0 - alpha_by_tri[ids])
        dep_times.append(elapsed.copy())
        dep_energy.append(energy.copy())

        carry = np.any(energy >= ENERGY_FLOOR, axis=1)
        origins, dirs = points[carry], reflected[carry]
        energy = energy[carry]
        elapsed = elapsed[carry]
        if origins.shape[0] == 0:
            break
    if not dep_times:
        raise NoCollisionsError("no collisions; energy decay undefined")

    times = np.concatenate(dep_times)
    deposits = np.concatenate(dep_energy)
    duration = 2.0 * float(times.max())
    n_bins = max(1, int(math.ceil(duration / BIN_WIDTH_S)))
    bins = np.minimum((times / BIN_WIDTH_S).astype(np.int64), n_bins - 1)
    hist = np.zeros((n_bins, n_bands), dtype=np.float64)
    np.add.at(hist, bins, deposits)
    return EnergyDecayCurve(BIN_WIDTH_S, hist, scene.bands.edges_hz)


def segments_csv_text(result: PathTraceResult) -> str:
    """Debug dump: one row per completed segment."""
    lines = ["ray_index,bounce_index,length_m"]
    for i in range(result.config.n_rays):
        for j in range(int(result.bounces_completed[i])):
            lines.append(f"{i},{j},{float(result.lengths[i, j])!r}")
    return "\n".join(lines) + "\n"
