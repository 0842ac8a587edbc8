"""The ray/triangle intersection kernel.

`batch_closest_hit` evaluates a ray set against every triangle as one
matrix product per chunk of rays. The Moller-Trumbore quantities are
rewritten with Plucker scalar triple products, so each is linear in the
ray row ``[o x d, d, o, 1]``:

* ``det   = d . (e2 x e1)``
* ``u_num = (o x d) . e2 - d . (e2 x v0)``
* ``v_num = -(o x d) . e1 - d . (v0 x e1)``
* ``t_num = o . n - v0 . n``, with ``n = e1 x e2``

`plucker_coefficients` builds the per-triangle coefficients once per
scene; `Scene.batch_closest_hit` is how the tracer reaches the kernel,
which is the only intersection code in the package; it passes only one
isolated part's columns of the coefficients when every ray starts in that
part. The test suite checks the kernel against an independent scalar
Moller-Trumbore reference on randomized rays, requiring the same triangle
and a `t` within 1e-12 m.

A chunk holds at most `MAX_PAIRS` ray-triangle pairs, and every chunk
works in one scratch buffer per thread, so the kernel never allocates a
rays x triangles array: its memory beyond the per-ray inputs and outputs
is a constant.
"""

from __future__ import annotations

import threading

import numpy as np

# Determinant cutoff below which a ray is treated as parallel to the
# triangle plane, and the slack applied to barycentric bounds so closed
# meshes do not leak rays along shared edges.
DET_EPS = 1e-12
BARY_EPS = 1e-9

# Ray-triangle pairs evaluated per chunk; a chunk always holds at least one
# ray, so a mesh with more triangles than this gets one ray per chunk.
MAX_PAIRS = 65_536

_scratch = threading.local()


def plucker_coefficients(v0: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """(4, 10, M) coefficients of det, u_num, v_num and t_num.

    Row k of block j multiplies entry k of the ray row ``[o x d, d, o, 1]``,
    so ``rows @ coeffs`` gives all four quantities for every pair. `v0`,
    `e1` and `e2` are (M, 3) float64 arrays; e1 = v1 - v0, e2 = v2 - v0.
    """
    normal = np.cross(e1, e2)
    coeffs = np.zeros((4, 10, v0.shape[0]), dtype=np.float64)
    coeffs[0, 3:6] = np.cross(e2, e1).T
    coeffs[1, 0:3] = e2.T
    coeffs[1, 3:6] = -np.cross(e2, v0).T
    coeffs[2, 0:3] = -e1.T
    coeffs[2, 3:6] = -np.cross(v0, e1).T
    coeffs[3, 6:9] = normal.T
    coeffs[3, 9] = -np.einsum("ij,ij->i", v0, normal)
    return coeffs


def _buffers(pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's scratch: room for five float and two bool values per
    pair, grown only when one ray's row is larger than `MAX_PAIRS`."""
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None or buffers[1].size < 2 * pairs:
        size = max(pairs, MAX_PAIRS)
        buffers = (np.empty(5 * size, dtype=np.float64),
                   np.empty(2 * size, dtype=bool))
        _scratch.buffers = buffers
    return buffers


def batch_closest_hit(
    origins: np.ndarray,
    directions: np.ndarray,
    coeffs: np.ndarray,
    t_min: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Closest hit of N rays against all M triangles.

    Parameters
    ----------
    origins, directions : (N, 3) float64 arrays.
    coeffs : (4, 10, M) array from :func:`plucker_coefficients`.
    t_min : hits require t strictly greater than this.

    Returns
    -------
    t : (N,) float64, inf where nothing was hit.
    index : (N,) int64 triangle index, -1 where nothing was hit. Equal
        distances resolve to the lower triangle index.

    Every ray's result depends only on that ray: it is the same bit for bit
    whatever else is in the batch and however the batch is chunked. Each
    pair's quantities are also the same bits on any column subset of coeffs.
    """
    n = origins.shape[0]
    m = coeffs.shape[2]
    rows = np.empty((n, 10), dtype=np.float64)
    # o x d by components: the same products and differences as np.cross,
    # so the same bits, without np.cross's per-call overhead, which small
    # late-bounce ray sets pay on every call.
    (ox, oy, oz), (dx, dy, dz) = origins.T, directions.T
    rows[:, 0] = oy * dz - oz * dy
    rows[:, 1] = oz * dx - ox * dz
    rows[:, 2] = ox * dy - oy * dx
    rows[:, 3:6] = directions
    rows[:, 6:9] = origins
    rows[:, 9] = 1.0
    t_out = np.empty(n, dtype=np.float64)
    idx_out = np.empty(n, dtype=np.int64)
    step = max(1, MAX_PAIRS // m)
    floats, flags = _buffers(min(step, n) * m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a in range(0, n, step):
            b = min(a + step, n)
            size = (b - a) * m
            q = floats[:4 * size].reshape(4, b - a, m)
            scaled = q[1:]
            det, u, v, t = q
            inv = floats[4 * size:5 * size].reshape(b - a, m)
            valid = flags[:size].reshape(b - a, m)
            test = flags[size:2 * size].reshape(b - a, m)

            np.matmul(rows[a:b], coeffs, out=q)
            np.greater_equal(det, DET_EPS, out=valid)
            np.less_equal(det, -DET_EPS, out=test)
            valid |= test
            np.divide(1.0, det, out=inv)
            np.multiply(scaled, inv, out=scaled)
            np.greater_equal(u, -BARY_EPS, out=test)
            valid &= test
            np.less_equal(u, 1.0 + BARY_EPS, out=test)
            valid &= test
            np.greater_equal(v, -BARY_EPS, out=test)
            valid &= test
            np.add(u, v, out=inv)
            np.less_equal(inv, 1.0 + BARY_EPS, out=test)
            valid &= test
            np.greater(t, t_min, out=test)
            valid &= test
            np.logical_not(valid, out=valid)
            np.copyto(t, np.inf, where=valid)

            best = np.argmin(t, axis=1)
            best_t = t[np.arange(b - a), best]
            t_out[a:b] = best_t
            idx_out[a:b] = np.where(np.isfinite(best_t), best, -1)
    return t_out, idx_out
