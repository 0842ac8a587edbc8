"""Monte Carlo specular ray tracing.

Rays are emitted uniformly over the sphere from per-ray random streams
keyed by (seed, ray index), so results never depend on execution order or
batching. `trace_segments` records free-path segment lengths for the mean
free path estimator, for any number of sources, in ray sets that each hold
one isolated part's sources (`Scene.batch_closest_hit` then tests only that
part), traced on one thread per CPU the process may use;
`trace_energy_decay` follows the same geometry from one source while
attenuating a per-band energy payload at every surface hit and depositing
it into a time histogram, which later feeds the decay-regression RT60.
Once a ray's energy falls `ROULETTE_DB` below its start it plays Russian
roulette, so the long tail far below the RT60 fit window is sampled by a
few reweighted rays instead of traced by all of them. Its draws hash
(seed, ray index, bounce), so they too are independent of batching.

Both bounce loops keep rays as component rows and do each bounce's
bookkeeping once: they compact only on a bounce that loses a ray, reflect
only rays that carry on, and bin the decay with `np.bincount`. The results
equal those of a loop that compacts and reflects every bounce
(`tests/reference_tracer.py`) bit for bit.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
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

# A decay ray whose largest band falls this far below its start energy plays
# Russian roulette after each deposit (see `trace_energy_decay`). 40 dB is
# past the -35 dB end of the RT60 fit window; 30 dB with a fixed survival
# probability of 0.5 put closed-box RT60s up to 2.9% off their model.
ROULETTE_DB = 40.0

_MASK64 = (1 << 64) - 1

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
    ray_bounces: int = 0  # rays passed to the kernel, summed over bounces

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


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser of each uint64 in `x` (wrapping arithmetic;
    on arrays, numpy wraps without a warning)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def roulette_uniforms(seed: int, ray_ids, bounce: int) -> np.ndarray:
    """Uniforms in [0, 1), one per ray, from a hash of (seed, ray, bounce).

    Each value depends only on its own ray index, so any subset or order of
    rays draws exactly the values it would among all of them.
    """
    ids = np.asarray(ray_ids, dtype=np.uint64).reshape(-1)
    h = _splitmix64(np.full(ids.shape, seed & _MASK64, dtype=np.uint64))
    h = _splitmix64(h ^ ids)
    h = _splitmix64(h ^ np.uint64(bounce))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


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


def _next_leg(leg: np.ndarray, t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Next (2, 3, m) origin and direction rows of the rays in `leg`.

    Ray i struck, after `t[i]`, a plane of unit normal `n[:, i]` (either
    sign). It leaves along d - (2 (d . n)) n, `NORMAL_OFFSET` off the plane
    on its own side: with the facing normal f = +-n, that is d - 2 (d . f) f
    bit for bit, since sign flips are exact.
    """
    o, d = leg
    dn = d[0] * n[0] + d[1] * n[1] + d[2] * n[2]
    off = np.where(dn > 0.0, -NORMAL_OFFSET, NORMAL_OFFSET)
    out = np.empty_like(leg)
    np.add(o + t * d, off * n, out=out[0])
    np.subtract(d, (2.0 * dn) * n, out=out[1])
    return out


def _keep(mask: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each of `arrays` cut to the rays, along its last axis, where `mask` is set."""
    keep = np.flatnonzero(mask)
    return tuple(a.take(keep, axis=-1) for a in arrays)


def _cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one (taskset and cpusets narrow it), else the count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def trace_segments(scene: Scene, sources, config: TraceConfig,
                   first_index: int = 0) -> list[PathTraceResult]:
    """Trace specular free paths from every source, in ray sets traced
    concurrently.

    Parameters
    ----------
    scene : Scene
    sources : (n, 3) array of positions strictly inside the scene (a 1 m
        pad is allowed so planar test scenes remain usable).
    config : TraceConfig; each source gets its own `n_rays` rays.
    first_index : the point index errors give `sources[0]`.

    Returns one result per source, in order, each exactly that of a
    one-source trace. So the sources of each isolated part of the scene
    form their own ray sets (see `Scene.batch_closest_hit`), cut into
    contiguous slices so that there are about as many sets as CPUs the
    process may run on, and the sets are traced on that many threads: the
    kernel's numpy calls release the interpreter lock. With one CPU or one
    set, everything runs on the calling thread. Memory grows with
    n * n_rays * n_bounces, plus one kernel scratch buffer (about 2.8 MB)
    per thread.

    Raises
    ------
    InputError
        ``point i: ...`` for a source that is not finite or lies outside
        the scene.
    NoCollisionsError
        ``point i: ...`` for the first source none of whose rays hit a
        surface; its mean free path is undefined.
    """
    srcs = np.asarray(sources, dtype=np.float64)
    if srcs.ndim != 2 or srcs.shape[1] != 3:
        raise InputError(f"sources must be an (n, 3) array, got shape {srcs.shape}")
    for i, src in enumerate(srcs, first_index):
        _check_source(scene, src, f"point {i}: ")
    by_part: dict[int, list[int]] = {}
    for i, src in enumerate(srcs):
        by_part.setdefault(scene._part_of(src, src), []).append(i)
    cpus = _cpus()
    size = max(1, math.ceil(len(srcs) / cpus))
    sets = [rows[a:a + size] for rows in by_part.values()
            for a in range(0, len(rows), size)]
    # Filled here, so that no two threads both miss the cache and compute it.
    sphere_directions(config.rng_seed, config.n_rays)

    def trace(rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
        return _trace_paths(scene, srcs[rows], config)

    workers = min(cpus, len(sets))
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            paths = list(pool.map(trace, sets))
    else:
        paths = list(map(trace, sets))
    traced = {}
    for rows, set_paths in zip(sets, paths):
        traced.update(zip(rows, zip(*set_paths)))
    results = []
    for i, src in enumerate(srcs):
        lengths, completed = traced[i]
        if not completed.any():
            raise NoCollisionsError(f"point {first_index + i}: no collisions; "
                                    "mean-free path undefined")
        results.append(PathTraceResult(tuple(float(v) for v in src), config,
                                       lengths, completed))
    return results


def _trace_paths(scene: Scene, srcs: np.ndarray,
                 config: TraceConfig) -> tuple[np.ndarray, np.ndarray]:
    """(k, n, b) segment lengths and (k, n) bounces completed of the k
    sources' rays, traced as one ray set."""
    k, n, b = srcs.shape[0], config.n_rays, config.n_bounces
    # np.array of a tuple is C order: each component is a contiguous row.
    leg = np.array((np.repeat(srcs, n, axis=0).T,
                    np.tile(sphere_directions(config.rng_seed, n), (k, 1)).T))
    lengths = np.zeros((b, k * n), dtype=np.float64)  # bounce-major
    alive = slice(None)  # plain row writes until a ray is lost
    for j in range(b):
        if j:
            leg = _next_leg(leg, t, scene._normal_rows.take(idx, axis=1))
        t, idx = scene.batch_closest_hit(leg[0].T, leg[1].T, 0.0)
        if not (hit := idx >= 0).all():
            if not hit.any():
                break
            alive, leg, t, idx = _keep(hit, np.arange(k * n)[alive], leg, t, idx)
        lengths[j, alive] = t
    # A hit has t > 0, so a ray's completed segments are its nonzero lengths.
    return (lengths.reshape(b, k, n).transpose(1, 2, 0),
            np.count_nonzero(lengths, axis=0).reshape(k, n))


def trace_energy_decay(scene: Scene, source, config: TraceConfig) -> EnergyDecayCurve:
    """Trace per-band energy and histogram its arrival times.

    Every ray starts with energy 1/n_rays in each band. A hit first
    attenuates the payload by (1 - absorption) of the struck material,
    then the attenuated energy is deposited at the cumulative path time.

    After the deposit, a ray whose largest band has fallen `ROULETTE_DB`
    below its start, to `peak` under ``cut = 10**(-ROULETTE_DB / 10) /
    n_rays``, survives with probability ``p = peak / cut`` and has its
    whole payload divided by p, which lifts its peak back to `cut`. The
    expected deposit of every later bounce is unchanged, so the curve stays
    unbiased. Each draw is `roulette_uniforms(seed, ray index, bounce)`, so
    a ray's fate does not depend on which other rays are still alive. Rays
    also stop once every band is below `ENERGY_FLOOR`, when they escape, or
    when the bounce budget is exhausted.
    """
    src = np.asarray(source, dtype=np.float64)
    _check_source(scene, src)
    n, b = config.n_rays, config.n_bounces
    leg = np.array((np.tile(src, (n, 1)).T, sphere_directions(config.rng_seed, n).T))
    energy = np.full((scene.bands.n_bands, n), 1.0 / n, dtype=np.float64)
    elapsed = np.zeros(n, dtype=np.float64)
    ray = np.arange(n)
    kept_by_tri = (1.0 - scene._alpha[scene._material_ids]).T.copy()
    cut = 10.0 ** (-ROULETTE_DB / 10.0) / n

    dep_times, dep_energy, ray_bounces = [], [], 0
    for j in range(b):
        if j:
            leg = _next_leg(leg, t, scene._normal_rows.take(idx, axis=1))
        ray_bounces += leg.shape[2]
        t, idx = scene.batch_closest_hit(leg[0].T, leg[1].T, 0.0)
        if not (hit := idx >= 0).all():
            leg, t, idx, energy, elapsed, ray = _keep(hit, leg, t, idx, energy, elapsed, ray)
        elapsed = elapsed + t / SPEED_OF_SOUND
        energy = energy * kept_by_tri.take(idx, axis=1)
        dep_times.append(elapsed)
        dep_energy.append(energy)

        peak = energy.max(axis=0)
        carry = peak >= ENERGY_FLOOR
        low = np.flatnonzero(carry & (peak < cut))
        if low.size:
            p = peak[low] / cut
            won = roulette_uniforms(config.rng_seed, ray[low], j) < p
            carry[low] = won
            energy = energy.copy()  # the deposit keeps its values
            energy[:, low[won]] /= p[won]
        if not carry.all():
            leg, t, idx, energy, elapsed, ray = _keep(carry, leg, t, idx, energy, elapsed, ray)
        if not ray.size:
            break
    times = np.concatenate(dep_times)
    if not times.size:
        raise NoCollisionsError("no collisions; energy decay undefined")
    deposits = np.concatenate(dep_energy, axis=1)
    duration = 2.0 * float(times.max())
    n_bins = max(1, int(math.ceil(duration / BIN_WIDTH_S)))
    bins = np.minimum((times / BIN_WIDTH_S).astype(np.int64), n_bins - 1)
    hist = np.stack([np.bincount(bins, band, n_bins) for band in deposits], axis=1)
    return EnergyDecayCurve(BIN_WIDTH_S, hist, scene.bands.edges_hz, ray_bounces)


def segments_csv_text(result: PathTraceResult) -> str:
    """Debug dump: one row per completed segment."""
    lines = ["ray_index,bounce_index,length_m"]
    for i in range(result.config.n_rays):
        for j in range(int(result.bounces_completed[i])):
            lines.append(f"{i},{j},{float(result.lengths[i, j])!r}")
    return "\n".join(lines) + "\n"
