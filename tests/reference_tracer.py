"""Reference bounce loops for `echobake.tracer`.

The plain form of the tracer's loops, with no bookkeeping saved: every
bounce compacts the ray set after the kernel and again after the roulette,
reflects every ray that hit (including those the roulette then drops) with
the facing normal, and the decay histogram is built with `np.add.at`.
Tests require the tracer's loops to give the same arrays bit for bit.
"""

import math

import numpy as np

from echobake.tracer import (BIN_WIDTH_S, ENERGY_FLOOR, NORMAL_OFFSET,
                             ROULETTE_DB, SPEED_OF_SOUND, roulette_uniforms,
                             sphere_directions)


def facing_bounce(scene, origins, dirs):
    """One bounce: (t, hit mask, triangle ids, new origins, new directions),
    the last three for hit rays only, or None when nothing hit. The new
    direction is mirrored with the facing normal f: d - 2 (d . f) f."""
    t, idx = scene.batch_closest_hit(origins, dirs, 0.0)
    hit = idx >= 0
    if not np.any(hit):
        return t, hit, None, None, None
    ids = idx[hit]
    points, reflected = facing_leg(origins[hit], dirs[hit], t[hit],
                                   scene._normal_rows[:, ids].T)
    return t, hit, ids, points, reflected


def facing_leg(origins, dirs, t, normals):
    """Next origins and directions by the facing-normal form."""
    d = dirs
    dot = d[:, 0] * normals[:, 0] + d[:, 1] * normals[:, 1] + d[:, 2] * normals[:, 2]
    facing = np.where(dot > 0.0, -1.0, 1.0)[:, None] * normals
    fdot = d[:, 0] * facing[:, 0] + d[:, 1] * facing[:, 1] + d[:, 2] * facing[:, 2]
    reflected = d - 2.0 * fdot[:, None] * facing
    points = origins + t[:, None] * d + NORMAL_OFFSET * facing
    return points, reflected


def reference_segments(scene, sources, config):
    """(lengths, bounces completed) of `trace_segments`, shaped (k * n, b)
    and (k * n,)."""
    srcs = np.asarray(sources, dtype=np.float64)
    k, n, b = srcs.shape[0], config.n_rays, config.n_bounces
    dirs = np.tile(sphere_directions(config.rng_seed, n), (k, 1))
    origins = np.repeat(srcs, n, axis=0)
    lengths = np.zeros((k * n, b), dtype=np.float64)
    completed = np.zeros(k * n, dtype=np.int64)
    alive = np.arange(k * n)
    for j in range(b):
        t, hit, _, points, reflected = facing_bounce(scene, origins, dirs)
        if points is None:
            break
        alive = alive[hit]
        lengths[alive, j] = t[hit]
        completed[alive] = j + 1
        origins, dirs = points, reflected
    return lengths, completed


def reference_decay(scene, source, config):
    """(energies, ray bounces) of `trace_energy_decay`."""
    src = np.asarray(source, dtype=np.float64)
    n, b = config.n_rays, config.n_bounces
    n_bands = scene.bands.n_bands
    dirs = np.array(sphere_directions(config.rng_seed, n))
    origins = np.tile(src, (n, 1))
    energy = np.full((n, n_bands), 1.0 / n, dtype=np.float64)
    elapsed = np.zeros(n, dtype=np.float64)
    ray = np.arange(n)
    alpha_by_tri = scene._alpha[scene._material_ids]
    cut = 10.0 ** (-ROULETTE_DB / 10.0) / n

    dep_times, dep_energy = [], []
    ray_bounces = 0
    for j in range(b):
        ray_bounces += origins.shape[0]
        t, hit, ids, points, reflected = facing_bounce(scene, origins, dirs)
        if points is None:
            break
        ray = ray[hit]
        elapsed = elapsed[hit] + t[hit] / SPEED_OF_SOUND
        energy = energy[hit] * (1.0 - alpha_by_tri[ids])
        dep_times.append(elapsed)
        dep_energy.append(energy)

        peak = energy.max(axis=1)
        carry = peak >= ENERGY_FLOOR
        low = np.flatnonzero(carry & (peak < cut))
        if low.size:
            p = peak[low] / cut
            won = roulette_uniforms(config.rng_seed, ray[low], j) < p
            carry[low] = won
            energy = energy.copy()
            energy[low[won]] /= p[won, None]
        origins, dirs = points[carry], reflected[carry]
        energy = energy[carry]
        elapsed = elapsed[carry]
        ray = ray[carry]
        if origins.shape[0] == 0:
            break

    times = np.concatenate(dep_times)
    deposits = np.concatenate(dep_energy)
    duration = 2.0 * float(times.max())
    n_bins = max(1, int(math.ceil(duration / BIN_WIDTH_S)))
    bins = np.minimum((times / BIN_WIDTH_S).astype(np.int64), n_bins - 1)
    hist = np.zeros((n_bins, n_bands), dtype=np.float64)
    np.add.at(hist, bins, deposits)
    return hist, ray_bounces
