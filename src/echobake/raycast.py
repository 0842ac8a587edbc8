"""The ray/triangle intersection kernel.

`batch_closest_hit` evaluates a ray set against every triangle with numpy
using the Moller-Trumbore test. It is the only intersection code in the
package; the tracer reaches it through `Scene.batch_closest_hit`. The
test suite checks it against a scalar reference kernel on randomized
rays, requiring the same triangle and a bitwise-equal `t`.
"""

from __future__ import annotations

import numpy as np

# Determinant cutoff below which a ray is treated as parallel to the
# triangle plane, and the slack applied to barycentric bounds so closed
# meshes do not leak rays along shared edges.
DET_EPS = 1e-12
BARY_EPS = 1e-9


def batch_closest_hit(
    origins: np.ndarray,
    directions: np.ndarray,
    v0: np.ndarray,
    e1: np.ndarray,
    e2: np.ndarray,
    t_min: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Closest hit of N rays against all M triangles.

    Parameters
    ----------
    origins, directions : (N, 3) float64 arrays.
    v0, e1, e2 : (M, 3) float64 arrays; e1 = v1 - v0, e2 = v2 - v0.
    t_min : hits require t strictly greater than this.

    Returns
    -------
    t : (N,) float64, inf where nothing was hit.
    index : (N,) int64 triangle index, -1 where nothing was hit. Equal
        distances resolve to the lower triangle index.
    """
    ox = origins[:, 0:1]
    oy = origins[:, 1:2]
    oz = origins[:, 2:3]
    dx = directions[:, 0:1]
    dy = directions[:, 1:2]
    dz = directions[:, 2:3]
    ax = v0[:, 0]
    ay = v0[:, 1]
    az = v0[:, 2]
    e1x = e1[:, 0]
    e1y = e1[:, 1]
    e1z = e1[:, 2]
    e2x = e2[:, 0]
    e2y = e2[:, 1]
    e2z = e2[:, 2]

    pvx = dy * e2z - dz * e2y
    pvy = dz * e2x - dx * e2z
    pvz = dx * e2y - dy * e2x
    det = e1x * pvx + e1y * pvy + e1z * pvz
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / det
        tvx = ox - ax
        tvy = oy - ay
        tvz = oz - az
        u = (tvx * pvx + tvy * pvy + tvz * pvz) * inv
        qvx = tvy * e1z - tvz * e1y
        qvy = tvz * e1x - tvx * e1z
        qvz = tvx * e1y - tvy * e1x
        v = (dx * qvx + dy * qvy + dz * qvz) * inv
        t = (e2x * qvx + e2y * qvy + e2z * qvz) * inv
        valid = (
            ((det <= -DET_EPS) | (det >= DET_EPS))
            & (u >= -BARY_EPS)
            & (u <= 1.0 + BARY_EPS)
            & (v >= -BARY_EPS)
            & (u + v <= 1.0 + BARY_EPS)
            & (t > t_min)
        )
    t_masked = np.where(valid, t, np.inf)
    idx = np.argmin(t_masked, axis=1)
    rows = np.arange(t_masked.shape[0])
    best_t = t_masked[rows, idx]
    hit = np.isfinite(best_t)
    return best_t, np.where(hit, idx, -1)
