import sys
import threading
import tracemalloc

import numpy as np
import pytest

from echobake import raycast
from echobake.raycast import MAX_PAIRS, plucker_coefficients
from echobake.scene import load_scene
from echobake.shapes import cube_obj, default_materials_json

from conftest import TWO_HALLS_OBJ, random_rays
from scalar_oracle import mismatches, scalar_closest_hit, scene_closest_hit


def _triangle_arrays(tris):
    v0 = np.array([t[0] for t in tris], dtype=np.float64)
    v1 = np.array([t[1] for t in tris], dtype=np.float64)
    v2 = np.array([t[2] for t in tris], dtype=np.float64)
    return v0, v1 - v0, v2 - v0


def batch_closest_hit(origins, directions, v0, e1, e2, t_min):
    return raycast.batch_closest_hit(origins, directions,
                                     plucker_coefficients(v0, e1, e2), t_min)


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
    assert mismatches(t, idx, t_ref, idx_ref) == 0


@pytest.mark.parametrize("u, v, hit", [
    (0.5, -0.9e-9, True),
    (0.5, -1.1e-9, False),
    (-0.9e-9, 0.5, True),
    (-1.1e-9, 0.5, False),
    (0.5, 0.5 + 0.9e-9, True),
    (0.5, 0.5 + 1.1e-9, False),
    # u above 1 + BARY_EPS while u + v stays inside: only the u bound
    # rejects it.
    (1.0 + 1.5e-9, -0.9e-9, False),
])
def test_barycentric_bounds(u, v, hit):
    # v0 at the origin with unit edges along x and y, so a ray down the z
    # axis through (u, v) hits at barycentric coordinates (u, v).
    v0, e1, e2 = _triangle_arrays([
        (((0.0, 0.0, 1.0)), ((1.0, 0.0, 1.0)), ((0.0, 1.0, 1.0))),
    ])
    origin = np.array([[u, v, 0.0]])
    direction = np.array([[0.0, 0.0, 1.0]])
    t, idx = batch_closest_hit(origin, direction, v0, e1, e2, 0.0)
    assert idx[0] == (0 if hit else -1)
    t_ref, idx_ref = scalar_closest_hit(v0, e1, e2, origin, direction, 0.0)
    assert mismatches(t, idx, t_ref, idx_ref) == 0


@pytest.mark.parametrize("scene_name", ["cube", "pillar", "corridor"])
def test_bvh_matches_brute_force(scene_name, cube_scene, pillar_scene,
                                 corridor_scene):
    scene = {"cube": cube_scene, "pillar": pillar_scene,
             "corridor": corridor_scene}[scene_name]
    origins, dirs = random_rays(scene, 2000, seed=42)
    t, idx = scene.batch_closest_hit(origins, dirs, 1e-4)
    t_ref, idx_ref = scene_closest_hit(scene, origins, dirs, 1e-4)
    assert np.array_equal(idx, idx_ref)
    assert mismatches(t, idx, t_ref, idx_ref) == 0


def test_bvh_matches_brute_on_edge_aimed_rays(cube_scene):
    # Rays aimed exactly along face diagonals hit shared triangle edges;
    # the tie-break and epsilon handling must agree with the oracle.
    origin = np.array([2.5, 2.5, 2.5])
    for target in [(5.0, 5.0, 2.5), (0.0, 0.0, 2.5), (5.0, 2.5, 5.0),
                   (2.5, 0.0, 0.0), (5.0, 5.0, 5.0), (0.0, 5.0, 0.0)]:
        d = np.asarray(target) - origin
        d = d / np.linalg.norm(d)
        t, idx = cube_scene.batch_closest_hit(origin[None], d[None], 0.0)
        t_ref, idx_ref = scene_closest_hit(cube_scene, origin[None], d[None],
                                           0.0)
        assert idx[0] >= 0
        assert t[0] == t_ref[0] and idx[0] == idx_ref[0]


def test_degenerate_direction_misses_everything():
    scene = load_scene(cube_obj(2.0), default_materials_json())
    t, idx = scene.batch_closest_hit(np.array([[1.0, 1.0, 1.0]]),
                                     np.zeros((1, 3)), 0.0)
    assert idx[0] == -1


def _assert_same_bits(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_result_independent_of_batch(corridor_scene):
    # A ray's t and index must not depend on the other rays in its call.
    origins, dirs = random_rays(corridor_scene, 3000, seed=7)
    t, idx = corridor_scene.batch_closest_hit(origins, dirs, 1e-4)
    assert np.count_nonzero(idx >= 0) > 2000
    subsets = [slice(0, 1), slice(1234, 1235), slice(0, 2), slice(17, 400),
               slice(2999, 3000), np.random.default_rng(3).permutation(3000)[:777]]
    for rows in subsets:
        got = corridor_scene.batch_closest_hit(origins[rows], dirs[rows], 1e-4)
        _assert_same_bits(got, (t[rows], idx[rows]))


def test_result_independent_of_chunking(corridor_scene):
    # One call well above MAX_PAIRS crosses chunk boundaries, and it must
    # give what calls that each fit in a single chunk give.
    n = 3 * MAX_PAIRS // corridor_scene.n_triangles + 5
    origins, dirs = random_rays(corridor_scene, n, seed=11)
    t, idx = corridor_scene.batch_closest_hit(origins, dirs, 1e-4)
    step = 500
    assert step * corridor_scene.n_triangles <= MAX_PAIRS
    for a in range(0, n, step):
        got = corridor_scene.batch_closest_hit(origins[a:a + step],
                                               dirs[a:a + step], 1e-4)
        _assert_same_bits(got, (t[a:a + step], idx[a:a + step]))


@pytest.mark.parametrize("mesh", ["corridor", "two_halls"])
def test_column_subsets_give_the_same_bits(mesh, corridor_scene, uniform_materials):
    # The kernel on any subset of the triangles' coefficient columns gives
    # every ray whose hit is in the subset the same t bits, and the same
    # triangle once local indices are mapped back. Every call spans more
    # than two chunks.
    scene = (corridor_scene if mesh == "corridor"
             else load_scene(TWO_HALLS_OBJ, uniform_materials))
    m = scene.n_triangles
    rng = np.random.default_rng(31)
    subsets = [np.arange(m // 2), np.arange(m // 3, m), np.arange(0, m, 3),
               np.sort(rng.choice(m, m // 2, replace=False))]
    subsets += [members for *_, members, _ in scene._parts]
    n = 2 * MAX_PAIRS // (m // 3) + 5
    origins, dirs = random_rays(scene, n, seed=32)
    t, idx = raycast.batch_closest_hit(origins, dirs, scene._coeffs, 1e-4)
    for members in subsets:
        assert n * members.size > 2 * MAX_PAIRS
        sub_t, sub_idx = raycast.batch_closest_hit(
            origins, dirs, scene._coeffs[:, :, members], 1e-4)
        inside = np.isin(idx, members)
        assert inside.sum() > 1000
        assert sub_t[inside].tobytes() == t[inside].tobytes()
        assert np.array_equal(members[sub_idx[inside]], idx[inside])


def test_more_triangles_than_max_pairs():
    # A mesh wider than one chunk still runs one ray per chunk.
    v0, e1, e2 = _triangle_arrays([
        (((-1.0, -1.0, 2.0)), ((1.0, -1.0, 2.0)), ((0.0, 1.0, 2.0))),
    ])
    reps = MAX_PAIRS + 3
    offset = np.zeros((reps, 3))
    offset[:, 2] = np.arange(reps, 0, -1, dtype=np.float64)
    t, idx = batch_closest_hit(np.zeros((2, 3)), np.array([[0.0, 0.0, 1.0]] * 2),
                               v0 + offset, np.repeat(e1, reps, axis=0),
                               np.repeat(e2, reps, axis=0), 0.0)
    assert idx.tolist() == [reps - 1, reps - 1]
    assert t.tolist() == [3.0, 3.0]


def test_concurrent_calls_match_serial(corridor_scene):
    # Each thread works in its own scratch buffer. More threads than cores
    # and a short switch interval make the calls interleave.
    rays = [random_rays(corridor_scene, 2000, seed=s) for s in (21, 22, 23, 24)]
    want = [corridor_scene.batch_closest_hit(o, d, 1e-4) for o, d in rays]
    got = [[] for _ in rays]
    start = threading.Barrier(len(rays))

    def work(k):
        start.wait(timeout=30)
        for _ in range(10):
            got[k].append(corridor_scene.batch_closest_hit(*rays[k], 1e-4))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(rays))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for k in range(len(rays)):
        assert len(got[k]) == 10
        for result in got[k]:
            _assert_same_bits(result, want[k])


def test_cold_call_memory_bounded_by_max_pairs(corridor_scene):
    # In a fresh thread the scratch buffer is allocated during the call; it
    # holds MAX_PAIRS pairs, so it is smaller than one float per pair.
    n = 20_000
    assert n * corridor_scene.n_triangles > 10 * MAX_PAIRS
    origins, dirs = random_rays(corridor_scene, n, seed=6)
    tracemalloc.start()
    try:
        th = threading.Thread(target=corridor_scene.batch_closest_hit,
                              args=(origins, dirs, 1e-4))
        th.start()
        th.join(timeout=60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not th.is_alive()
    assert peak < n * corridor_scene.n_triangles * np.dtype(np.float64).itemsize


def test_memory_below_one_rays_by_triangles_array(corridor_scene):
    origins, dirs = random_rays(corridor_scene, 2000, seed=5)
    assert corridor_scene.n_triangles == 44
    corridor_scene.batch_closest_hit(origins, dirs, 1e-4)
    tracemalloc.start()
    try:
        corridor_scene.batch_closest_hit(origins, dirs, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 44 * np.dtype(np.float64).itemsize
