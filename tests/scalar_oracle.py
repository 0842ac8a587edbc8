"""Scalar Moller-Trumbore reference for the batched ray/triangle kernel.

Plain Python floats, one ray at a time, every triangle in index order with
no acceleration structure, in the textbook order of operations: edge
cross products, the determinant, then u, v and t scaled by its
reciprocal. It shares only the `DET_EPS` and `BARY_EPS` cutoffs with
`echobake.raycast.batch_closest_hit`, which evaluates the same tests from
Plucker scalar triple products as a matrix product, so the two round
differently. A strict `<` keeps the lower index on equal distances, like
the kernel's argmin.

Tests require the kernel to pick the same triangle for every ray and to
report a `t` within `T_TOLERANCE_M` of this reference. The tolerance is
fixed from the dtype, not fitted to the kernel: a few ulps of the room
sizes in the tests (double epsilon is 2.2e-16), and a factor of 10^6 below
`tracer.NORMAL_OFFSET`, the smallest length the tracer relies on.
"""

import numpy as np

from echobake.raycast import BARY_EPS, DET_EPS

T_TOLERANCE_M = 1e-12


def scalar_closest_hit(v0, e1, e2, origins, directions, t_min):
    """Closest hit of each ray; returns (t, index) arrays like the kernel."""
    tris = [tuple(row) for row in np.hstack([v0, e1, e2]).tolist()]
    n = len(origins)
    t_out = np.full(n, np.inf)
    idx_out = np.full(n, -1, dtype=np.int64)
    lo = -BARY_EPS
    hi = 1.0 + BARY_EPS
    rays = zip(np.asarray(origins).tolist(), np.asarray(directions).tolist())
    for r, ((ox, oy, oz), (dx, dy, dz)) in enumerate(rays):
        best_t = np.inf
        best_i = -1
        for i, (ax, ay, az, e1x, e1y, e1z, e2x, e2y, e2z) in enumerate(tris):
            pvx = dy * e2z - dz * e2y
            pvy = dz * e2x - dx * e2z
            pvz = dx * e2y - dy * e2x
            det = e1x * pvx + e1y * pvy + e1z * pvz
            if -DET_EPS < det < DET_EPS:
                continue
            inv = 1.0 / det
            tvx = ox - ax
            tvy = oy - ay
            tvz = oz - az
            u = (tvx * pvx + tvy * pvy + tvz * pvz) * inv
            if u < lo or u > hi:
                continue
            qvx = tvy * e1z - tvz * e1y
            qvy = tvz * e1x - tvx * e1z
            qvz = tvx * e1y - tvy * e1x
            v = (dx * qvx + dy * qvy + dz * qvz) * inv
            if v < lo or u + v > hi:
                continue
            t = (e2x * qvx + e2y * qvy + e2z * qvz) * inv
            if t_min < t < best_t:
                best_t = t
                best_i = i
        if best_i >= 0:
            t_out[r] = best_t
            idx_out[r] = best_i
    return t_out, idx_out


def scene_closest_hit(scene, origins, directions, t_min):
    """:func:`scalar_closest_hit` over a scene's triangles."""
    return scalar_closest_hit(scene._v0, scene._e1, scene._e2, origins,
                              directions, t_min)


def mismatches(t, idx, t_ref, idx_ref):
    """Rays where the kernel's triangle differs from the reference's, or
    its `t` is further than `T_TOLERANCE_M` away (a miss is inf in both)."""
    close = np.isclose(t, t_ref, rtol=0.0, atol=T_TOLERANCE_M)
    return int(np.count_nonzero((idx != idx_ref) | ~close))
