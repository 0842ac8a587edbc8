import numpy as np
import pytest

from echobake.raycast import batch_closest_hit
from echobake.scene import load_scene
from echobake.shapes import cube_obj, default_materials_json

from conftest import random_rays
from scalar_oracle import scalar_closest_hit, scene_closest_hit


def _triangle_arrays(tris):
    v0 = np.array([t[0] for t in tris], dtype=np.float64)
    v1 = np.array([t[1] for t in tris], dtype=np.float64)
    v2 = np.array([t[2] for t in tris], dtype=np.float64)
    return v0, v1 - v0, v2 - v0


def test_single_triangle_hit_distance():
    v0, e1, e2 = _triangle_arrays([
        (((-1.0, -1.0, 2.0)), ((1.0, -1.0, 2.0)), ((0.0, 1.0, 2.0))),
    ])
    t, idx = batch_closest_hit(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]),
                               v0, e1, e2, 0.0)
    assert idx[0] == 0
    assert t[0] == pytest.approx(2.0, abs=1e-12)


def test_backface_hit_allowed():
    # Two-sided: the same triangle hit from behind still counts.
    v0, e1, e2 = _triangle_arrays([
        (((-1.0, -1.0, -2.0)), ((1.0, -1.0, -2.0)), ((0.0, 1.0, -2.0))),
    ])
    t, idx = batch_closest_hit(np.zeros((1, 3)), np.array([[0.0, 0.0, -1.0]]),
                               v0, e1, e2, 0.0)
    assert idx[0] == 0 and t[0] == pytest.approx(2.0, abs=1e-12)


def test_parallel_ray_misses():
    v0, e1, e2 = _triangle_arrays([
        (((0.0, 0.0, 1.0)), ((1.0, 0.0, 1.0)), ((0.0, 1.0, 1.0))),
    ])
    _, idx = batch_closest_hit(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]),
                               v0, e1, e2, 0.0)
    assert idx[0] == -1


def test_t_min_excludes_near_hits():
    v0, e1, e2 = _triangle_arrays([
        (((-1.0, -1.0, 1.0)), ((1.0, -1.0, 1.0)), ((0.0, 1.0, 1.0))),
        (((-1.0, -1.0, 3.0)), ((1.0, -1.0, 3.0)), ((0.0, 1.0, 3.0))),
    ])
    _, idx = batch_closest_hit(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]),
                               v0, e1, e2, 2.0)
    assert idx[0] == 1


def test_tie_breaks_toward_lower_index():
    # Two coplanar triangles sharing the hit point: argmin picks the
    # first index, and the scalar oracle must agree.
    tris = [
        (((-1.0, -1.0, 2.0)), ((1.0, -1.0, 2.0)), ((0.0, 1.0, 2.0))),
        (((-1.0, 1.0, 2.0)), ((1.0, 1.0, 2.0)), ((0.0, -1.0, 2.0))),
    ]
    v0, e1, e2 = _triangle_arrays(tris)
    origin = np.zeros((1, 3))
    direction = np.array([[0.0, 0.0, 1.0]])
    t, idx = batch_closest_hit(origin, direction, v0, e1, e2, 0.0)
    assert idx[0] == 0
    t_ref, idx_ref = scalar_closest_hit(v0, e1, e2, origin, direction, 0.0)
    assert idx_ref[0] == 0
    assert t_ref[0] == t[0]


@pytest.mark.parametrize("scene_name", ["cube", "pillar", "corridor"])
def test_bvh_matches_brute_force(scene_name, cube_scene, pillar_scene,
                                 corridor_scene):
    scene = {"cube": cube_scene, "pillar": pillar_scene,
             "corridor": corridor_scene}[scene_name]
    origins, dirs = random_rays(scene, 2000, seed=42)
    t, idx = scene.batch_closest_hit(origins, dirs, 1e-4)
    t_ref, idx_ref = scene_closest_hit(scene, origins, dirs, 1e-4)
    assert np.array_equal(idx, idx_ref)
    assert np.array_equal(t, t_ref)


def test_bvh_matches_brute_on_edge_aimed_rays(cube_scene):
    # Rays aimed exactly along face diagonals hit shared triangle edges;
    # the tie-break and epsilon handling must agree with the oracle.
    origin = np.array([2.5, 2.5, 2.5])
    for target in [(5.0, 5.0, 2.5), (0.0, 0.0, 2.5), (5.0, 2.5, 5.0),
                   (2.5, 0.0, 0.0), (5.0, 5.0, 5.0), (0.0, 5.0, 0.0)]:
        d = np.asarray(target) - origin
        d = d / np.linalg.norm(d)
        hit = cube_scene.intersect(origin, d)
        t_ref, idx_ref = scene_closest_hit(cube_scene, origin[None], d[None],
                                           0.0)
        assert hit is not None
        assert hit.t == t_ref[0] and hit.triangle_index == idx_ref[0]


def test_degenerate_direction_misses_everything():
    scene = load_scene(cube_obj(2.0), default_materials_json())
    t, idx = scene.batch_closest_hit(np.array([[1.0, 1.0, 1.0]]),
                                     np.zeros((1, 3)), 0.0)
    assert idx[0] == -1
