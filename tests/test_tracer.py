import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from echobake.acoustics import mfp_from_trace
from echobake.errors import InputError, NoCollisionsError
from echobake.pipeline import BakeConfig, bake, corridor_fixture
from echobake.scene import load_scene
from echobake.shapes import cube_obj, default_materials_json
from echobake.tracer import (PathTraceResult, TraceConfig, _bounce,
                             segments_csv_text, sphere_directions,
                             trace_energy_decay, trace_segments)

CENTER = (2.5, 2.5, 2.5)

# One free-floating triangle in the z=0 plane. Any source on that plane
# with x > 1 can never hit it: the barycentric u coordinate comes out as
# the source's x regardless of ray direction, and in-plane rays have a
# singular determinant.
LONE_TRIANGLE_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"


def unit_vectors():
    return st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(
        np.asarray).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
        lambda v: v / np.linalg.norm(v))


class TestSphereDirections:
    def test_unit_norm(self):
        d = sphere_directions(0, 500)
        assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() < 1e-12

    def test_covers_all_octants(self):
        d = sphere_directions(0, 2000)
        octant = (d[:, 0] > 0) * 4 + (d[:, 1] > 0) * 2 + (d[:, 2] > 0)
        counts = np.bincount(octant, minlength=8)
        # 2000 uniform points: each octant expects 250, sd ~15.
        assert counts.min() > 150

    def test_component_means_near_zero(self):
        d = sphere_directions(0, 2000)
        assert np.abs(d.mean(axis=0)).max() < 0.05

    def test_subset_independent_of_count(self):
        # Ray i's direction depends only on (seed, i), not on how many
        # rays the caller asked for. This is what makes reduced-ray dev
        # runs a strict prefix of production runs.
        few = sphere_directions(3, 50)
        many = sphere_directions(3, 400)
        assert np.array_equal(few, many[:50])

    def test_seed_changes_directions(self):
        assert not np.array_equal(sphere_directions(0, 64),
                                  sphere_directions(1, 64))

    def test_cache_returns_readonly(self):
        d = sphere_directions(0, 8)
        with pytest.raises(ValueError):
            d[0, 0] = 9.0


def bounce_direction(d, n):
    """Direction `_bounce` gives a ray `d` that strikes a plane with unit
    normal `n` (either sign) at the origin, from one unit away."""
    helper = (np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9
              else np.array([0.0, 1.0, 0.0]))
    u = np.cross(n, helper)
    u /= np.linalg.norm(u)
    w = np.cross(n, u)
    verts = [10.0 * u, -5.0 * u + 9.0 * w, -5.0 * u - 9.0 * w]
    obj = "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in
                  (v.tolist() for v in verts)) + "f 1 2 3\n"
    scene = load_scene(obj, default_materials_json())
    _, hit, _, _, reflected = _bounce(scene, -d[None, :], d[None, :])
    assert hit[0]
    return reflected[0]


def oblique_pairs():
    return st.tuples(unit_vectors(), unit_vectors()).filter(
        lambda dn: abs(float(np.dot(*dn))) > 1e-3)


class TestReflect:
    def test_hand_case(self):
        d = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        out = bounce_direction(d, np.array([0.0, 1.0, 0.0]))
        assert out == pytest.approx(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))

    def test_normal_incidence_reverses(self):
        n = np.array([0.0, 0.0, 1.0])
        assert np.array_equal(bounce_direction(-n, n), n)

    @given(oblique_pairs())
    def test_preserves_length(self, dn):
        d, n = dn
        assert np.linalg.norm(bounce_direction(d, n)) == pytest.approx(
            1.0, abs=1e-9)

    @given(oblique_pairs())
    def test_involution(self, dn):
        # Mirroring is linear, so the reversed outgoing ray comes back
        # along the reversed incoming one.
        d, n = dn
        back = -bounce_direction(-bounce_direction(d, n), n)
        assert back == pytest.approx(d, abs=1e-9)

    @given(oblique_pairs())
    def test_tangential_component_kept(self, dn):
        d, n = dn
        out = bounce_direction(d, n)
        assert float(np.dot(out, n)) == pytest.approx(-float(np.dot(d, n)),
                                                      abs=1e-9)
        assert out - np.dot(out, n) * n == pytest.approx(
            d - np.dot(d, n) * n, abs=1e-9)


class TestTraceSegments:
    def test_first_segment_matches_box_oracle(self, cube_scene):
        cfg = TraceConfig(n_rays=200, n_bounces=1, rng_seed=0)
        [res] = trace_segments(cube_scene, [CENTER], cfg)
        dirs = sphere_directions(0, 200)
        with np.errstate(divide="ignore"):
            expected = (2.5 / np.abs(dirs)).min(axis=1)
        assert res.lengths[:, 0] == pytest.approx(expected, abs=1e-9)

    def test_closed_room_completes_all_bounces(self, cube_scene):
        cfg = TraceConfig(n_rays=100, n_bounces=20, rng_seed=0)
        [res] = trace_segments(cube_scene, [CENTER], cfg)
        assert np.all(res.bounces_completed == 20)
        assert not res.escaped.any()
        assert res.n_segments == 100 * 20
        assert res.flat_segments().shape == (2000,)
        assert (res.flat_segments() > 0).all()

    def test_repeat_run_is_bitwise_identical(self, cube_scene):
        cfg = TraceConfig(n_rays=50, n_bounces=10, rng_seed=7)
        [a] = trace_segments(cube_scene, [CENTER], cfg)
        [b] = trace_segments(cube_scene, [CENTER], cfg)
        assert np.array_equal(a.lengths, b.lengths)
        assert np.array_equal(a.bounces_completed, b.bounces_completed)

    def test_rays_stay_inside_closed_corridor(self):
        # At these path points a ray reflects within 0.1 mm of a second
        # wall; that wall must still be found, or the ray leaves the room.
        scene, points = corridor_fixture()
        cfg = BakeConfig().er_trace_config()
        chosen = (1, 32, 44, 45, 47)
        for i, res in zip(chosen, trace_segments(scene, points[list(chosen)], cfg)):
            assert not res.escaped.any(), f"point {i}"

    def test_open_scene_rays_escape(self):
        scene = load_scene(LONE_TRIANGLE_OBJ, default_materials_json())
        cfg = TraceConfig(n_rays=200, n_bounces=5, rng_seed=0)
        [res] = trace_segments(scene, [(0.25, 0.25, 0.5)], cfg)
        # Downward rays hit the triangle once; the mirrored ray leaves
        # the scene, so nothing ever completes a second bounce.
        assert res.escaped.all()
        assert res.bounces_completed.max() == 1
        assert 0 < res.n_segments < 200

    def test_no_collisions_raises(self):
        scene = load_scene(LONE_TRIANGLE_OBJ, default_materials_json())
        cfg = TraceConfig(n_rays=100, n_bounces=3, rng_seed=0)
        with pytest.raises(NoCollisionsError, match="^point 0: no collisions"):
            trace_segments(scene, [(1.5, 1.5, 0.0)], cfg)

    def test_source_far_outside_bounds_rejected(self, cube_scene):
        with pytest.raises(InputError, match="outside"):
            trace_segments(cube_scene, [(99.0, 2.5, 2.5)],
                           TraceConfig(n_rays=10, n_bounces=2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_source_rejected(self, cube_scene, bad):
        with pytest.raises(InputError, match="not finite"):
            trace_segments(cube_scene, [(2.5, 2.5, bad)],
                           TraceConfig(n_rays=10, n_bounces=2))
        with pytest.raises(InputError, match="^point 1: .*not finite"):
            bake(cube_scene, [[2.5, 2.5, 2.5], [2.5, 2.5, bad]])

    def test_errors_name_the_point(self, cube_scene):
        cfg = TraceConfig(n_rays=10, n_bounces=2)
        with pytest.raises(InputError, match="^point 1: source .* outside"):
            trace_segments(cube_scene, [CENTER, (99.0, 2.5, 2.5)], cfg)
        with pytest.raises(InputError, match="^point 8: source .* not finite"):
            trace_segments(cube_scene, [CENTER, (2.5, math.nan, 2.5)], cfg,
                           first_index=7)
        # The rays of the first point hit the triangle; none of the second's
        # can.
        scene = load_scene(LONE_TRIANGLE_OBJ, default_materials_json())
        with pytest.raises(NoCollisionsError, match="^point 6: no collisions"):
            trace_segments(scene, [(0.25, 0.25, 0.5), (1.5, 1.5, 0.0)],
                           TraceConfig(n_rays=100, n_bounces=3), first_index=5)

    @pytest.mark.parametrize("sources", [CENTER, [[1.0, 2.0]], np.zeros((2, 4))])
    def test_sources_must_be_rows_of_three(self, cube_scene, sources):
        with pytest.raises(InputError, match=r"\(n, 3\) array"):
            trace_segments(cube_scene, sources, TraceConfig(n_rays=10, n_bounces=2))

    def test_config_validation(self):
        with pytest.raises(InputError):
            TraceConfig(n_rays=0, n_bounces=5)
        with pytest.raises(InputError):
            TraceConfig(n_rays=5, n_bounces=0)
        with pytest.raises(InputError):
            TraceConfig(n_rays=5, n_bounces=5, rng_seed=-1)
        with pytest.raises(InputError):
            TraceConfig(n_rays=5.0, n_bounces=5)


class TestBatchedSegments:
    """Many sources in one ray set give each source its one-row trace."""

    def test_each_point_matches_a_one_row_trace(self):
        # 20 corridor points at 200 rays: 4,000 rays against 44 triangles
        # are three kernel chunks. The points span all three rooms and both
        # doorways.
        scene, points = corridor_fixture()
        pts = points[::3]
        cfg = TraceConfig(n_rays=200, n_bounces=10, rng_seed=3)
        batched = trace_segments(scene, pts, cfg)
        assert len(batched) == len(pts)
        for p, res in zip(pts, batched):
            [one] = trace_segments(scene, [p], cfg)
            assert res.source == one.source == tuple(p)
            assert np.array_equal(res.lengths, one.lengths)
            assert np.array_equal(res.bounces_completed, one.bounces_completed)
            assert (mfp_from_trace(res).mean_free_path
                    == mfp_from_trace(one).mean_free_path)

    def test_repeated_source_gets_identical_rays(self, cube_scene):
        cfg = TraceConfig(n_rays=50, n_bounces=5, rng_seed=1)
        a, b = trace_segments(cube_scene, [CENTER, CENTER], cfg)
        assert np.array_equal(a.lengths, b.lengths)


class TestTraceEnergyDecay:
    def test_lossless_room_deposits_one_per_generation(self):
        scene = load_scene(cube_obj(5.0), default_materials_json(0.0))
        cfg = TraceConfig(n_rays=100, n_bounces=20, rng_seed=0)
        curve = trace_energy_decay(scene, CENTER, cfg)
        total = curve.energies.sum(axis=0)
        assert total == pytest.approx(np.full(4, 20.0), rel=1e-12)

    def test_absorbing_room_total_is_geometric_sum(self, cube_scene):
        cfg = TraceConfig(n_rays=100, n_bounces=20, rng_seed=0)
        curve = trace_energy_decay(cube_scene, CENTER, cfg)
        expected = sum(0.8 ** k for k in range(1, 21))
        assert curve.energies.sum(axis=0) == pytest.approx(
            np.full(4, expected), rel=1e-12)

    def test_energy_floor_terminates_rays_early(self):
        # At 99 percent absorption each ray is at 1e-2k of its initial
        # 1e-2 after k bounces, crossing the 1e-12 floor after bounce 6
        # (energy 1e-14). The bounce budget of 300 is never reached.
        scene = load_scene(cube_obj(5.0), default_materials_json(0.99))
        cfg = TraceConfig(n_rays=100, n_bounces=300, rng_seed=0)
        curve = trace_energy_decay(scene, CENTER, cfg)
        expected = sum(0.01 ** k for k in range(1, 7))
        assert curve.energies.sum(axis=0) == pytest.approx(
            np.full(4, expected), rel=1e-12)
        # 300 completed bounces would take seconds of path time.
        assert curve.duration_s < 0.5

    def test_curve_geometry(self, cube_scene):
        cfg = TraceConfig(n_rays=50, n_bounces=10, rng_seed=0)
        curve = trace_energy_decay(cube_scene, CENTER, cfg)
        assert curve.bin_width_s == 1e-3
        assert curve.n_bands == 4
        assert curve.energies.shape == (curve.n_bins, 4)
        assert curve.duration_s == pytest.approx(curve.n_bins * 1e-3)
        t = curve.times()
        assert t[0] == pytest.approx(5e-4)
        assert np.all(np.diff(t) > 0)
        # The histogram spans twice the last arrival, so the far half
        # must be empty apart from the final clamped bin.
        half = curve.n_bins // 2 + 1
        assert curve.energies[half:].sum() == 0.0

    def test_band_dependent_absorption(self):
        materials = '{"materials": {"default": [0.1, 0.2, 0.4, 0.2]}}'
        scene = load_scene(cube_obj(5.0), materials)
        cfg = TraceConfig(n_rays=64, n_bounces=15, rng_seed=0)
        curve = trace_energy_decay(scene, CENTER, cfg)
        totals = curve.energies.sum(axis=0)
        assert totals[0] > totals[1] > totals[2]
        assert totals[1] == pytest.approx(totals[3], rel=1e-12)


def test_segments_csv_round_trip(cube_scene):
    cfg = TraceConfig(n_rays=3, n_bounces=2, rng_seed=0)
    [res] = trace_segments(cube_scene, [CENTER], cfg)
    text = segments_csv_text(res)
    lines = text.strip().split("\n")
    assert lines[0] == "ray_index,bounce_index,length_m"
    assert len(lines) == 1 + res.n_segments
    ray, bounce, length = lines[1].split(",")
    assert (int(ray), int(bounce)) == (0, 0)
    assert float(length) == res.lengths[0, 0]
