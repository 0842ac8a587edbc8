import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from echobake import raycast
from echobake.acoustics import mfp_from_trace
from echobake.errors import InputError, NoCollisionsError
from echobake.pipeline import (BakeConfig, _mean_free_paths, bake,
                               corridor_fixture)
from echobake.scene import load_scene
from echobake.shapes import cube_obj, default_materials_json
import echobake.tracer as tracer
from echobake.tracer import (ROULETTE_DB, TraceConfig, _next_leg,
                             roulette_uniforms, segments_csv_text,
                             sphere_directions, trace_energy_decay,
                             trace_segments)

from conftest import (HALL_POINTS, OPEN_BESIDE_CLOSED_OBJ, TWO_HALLS_OBJ,
                      open_cube_obj)
from reference_tracer import facing_leg, reference_decay, reference_segments

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
    """Direction the tracer gives a ray `d` that strikes a plane with unit
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
    leg = np.stack((-d[:, None], d[:, None]))
    t, idx = scene.batch_closest_hit(leg[0].T, leg[1].T, 0.0)
    assert idx[0] >= 0
    return _next_leg(leg, t, scene._normal_rows.take(idx, axis=1))[1, :, 0]


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


def legs_and_normals():
    """(origins, directions, t, normals) rows for `_next_leg`: oblique rays,
    rays with d . n == 0 exactly, and normals of either sign."""
    coords = st.floats(-10.0, 10.0, allow_subnormal=False)
    oblique = st.tuples(unit_vectors(), unit_vectors())
    # d . n = (-b) a + a b + c 0, which is exactly zero.
    grazing = st.tuples(coords, coords, coords).filter(
        lambda abc: abc[0] ** 2 + abc[1] ** 2 > 1e-6).map(
        lambda abc: (np.array([-abc[1], abc[0], abc[2]]),
                     np.array([abc[0], abc[1], 0.0])))
    axis = st.sampled_from([(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])),
                            (np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))])
    ray = st.tuples(st.one_of(oblique, grazing, axis), st.booleans(),
                    st.tuples(coords, coords, coords), st.floats(0.0, 50.0))
    return st.lists(ray, min_size=1, max_size=8).map(lambda rays: (
        np.array([o for _, _, o, _ in rays], dtype=np.float64),
        np.array([dn[0] for dn, _, _, _ in rays]),
        np.array([t for _, _, _, t in rays]),
        np.array([-dn[1] if flip else dn[1] for dn, flip, _, _ in rays])))


class TestNextLeg:
    @given(legs_and_normals())
    def test_equals_facing_form_bit_for_bit(self, case):
        o, d, t, n = case
        leg = _next_leg(np.stack((o.T, d.T)), t, n.T.copy())
        points, reflected = facing_leg(o, d, t, n)
        assert leg[0].T.tobytes() == points.tobytes()
        assert leg[1].T.tobytes() == reflected.tobytes()

    def test_grazing_ray_keeps_its_direction(self):
        o = np.zeros((2, 3))
        d = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        n = np.array([[0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]])
        leg = _next_leg(np.stack((o.T, d.T)), np.ones(2), n.T.copy())
        assert np.array_equal(leg[1].T, d)
        # d . n = 0 counts as arriving from the side n points to.
        assert np.array_equal(leg[0].T, d + 1e-6 * n)


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
            assert mfp_from_trace(res) == mfp_from_trace(one)

    def test_repeated_source_gets_identical_rays(self, cube_scene):
        cfg = TraceConfig(n_rays=50, n_bounces=5, rng_seed=1)
        a, b = trace_segments(cube_scene, [CENTER, CENTER], cfg)
        assert np.array_equal(a.lengths, b.lengths)


class TestConcurrentRaySets:
    """`trace_segments` traces its ray sets on one thread per CPU."""

    # Four points in the large hall and three in the small one.
    POINTS = HALL_POINTS + ((10.0, 2.0, 4.0),)

    @pytest.mark.parametrize("cpus, n_sets", [(1, 2), (2, 2), (3, 3)])
    def test_each_source_gets_its_one_source_trace(self, cpus, n_sets,
                                                   monkeypatch):
        scene = load_scene(TWO_HALLS_OBJ, default_materials_json(0.2))
        cfg = TraceConfig(120, 15, 5)
        alone = [trace_segments(scene, [p], cfg)[0] for p in self.POINTS]
        sets = []
        paths = tracer._trace_paths

        def recorded(scene, srcs, config):
            sets.append({scene._part_of(s, s) for s in srcs})
            return paths(scene, srcs, config)

        monkeypatch.setattr(tracer, "_trace_paths", recorded)
        monkeypatch.setattr(tracer, "_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # many more thread switches than usual
        try:
            results = trace_segments(scene, self.POINTS, cfg)
        finally:
            sys.setswitchinterval(interval)
        # Every set holds the points of exactly one hall.
        assert len(sets) == n_sets and all(len(parts) == 1 for parts in sets)
        for res, one in zip(results, alone, strict=True):
            assert res.source == one.source
            assert np.array_equal(res.lengths, one.lengths)
            assert np.array_equal(res.bounces_completed, one.bounces_completed)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_errors_name_the_first_point_across_sets(self, cpus, monkeypatch):
        # Points 1 and 3 see no surface, and are traced in different sets.
        monkeypatch.setattr(tracer, "_cpus", lambda: cpus)
        scene = load_scene(LONE_TRIANGLE_OBJ, default_materials_json())
        hit, miss = (0.25, 0.25, 0.5), (1.5, 1.5, 0.0)
        cfg = TraceConfig(n_rays=100, n_bounces=3)
        with pytest.raises(NoCollisionsError, match="^point 1: no collisions"):
            trace_segments(scene, [hit, miss, hit, (1.2, 1.8, 0.0), hit, hit], cfg)

        # An error raised on a worker thread reaches the caller.
        def failing(scene, srcs, config):
            raise RuntimeError("worker failed")

        monkeypatch.setattr(tracer, "_trace_paths", failing)
        with pytest.raises(RuntimeError, match="worker failed"):
            trace_segments(scene, [hit] * 6, cfg)

    def test_one_cpu_starts_no_thread(self, cube_scene, monkeypatch):
        pools = []

        def spy(workers):
            pools.append(workers)
            return ThreadPoolExecutor(workers)

        monkeypatch.setattr(tracer, "ThreadPoolExecutor", spy)
        cfg = TraceConfig(n_rays=20, n_bounces=3)
        monkeypatch.setattr(tracer, "_cpus", lambda: 1)
        trace_segments(cube_scene, [CENTER] * 4, cfg)
        monkeypatch.setattr(tracer, "_cpus", lambda: 4)
        trace_segments(cube_scene, [CENTER], cfg)  # one set
        assert pools == []
        trace_segments(cube_scene, [CENTER] * 3, cfg)
        assert pools == [3]

    def test_no_thread_outlives_the_call(self, cube_scene, monkeypatch):
        monkeypatch.setattr(tracer, "_cpus", lambda: 3)
        before = threading.enumerate()
        trace_segments(cube_scene, [CENTER] * 6, TraceConfig(n_rays=20, n_bounces=3))
        assert threading.enumerate() == before


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
        # 1e-2 after k bounces. Bounce 3 takes it below the roulette cut
        # (40 dB down, 1e-6), after which it survives each bounce with
        # p = 0.01, so the bounce budget of 300 is never reached.
        scene = load_scene(cube_obj(5.0), default_materials_json(0.99))
        curve = trace_energy_decay(scene, CENTER, TraceConfig(100, 300, 0))
        # 300 completed bounces would take seconds of path time.
        assert curve.n_bins * tracer.BIN_WIDTH_S < 0.5
        assert curve.ray_bounces < 100 * 10
        # No draw can touch the deposits up to bounce 3: they are exact.
        first = trace_energy_decay(scene, CENTER, TraceConfig(100, 3, 0))
        assert first.ray_bounces == 300
        assert first.energies.sum(axis=0) == pytest.approx(
            np.full(4, sum(0.01 ** k for k in range(1, 4))), rel=1e-12)
        # The roulette's tail is worth about 1e-6 of the total.
        assert curve.energies.sum(axis=0) == pytest.approx(
            np.full(4, sum(0.01 ** k for k in range(1, 301))), rel=1e-5)

    def test_curve_geometry(self, cube_scene):
        cfg = TraceConfig(n_rays=50, n_bounces=10, rng_seed=0)
        curve = trace_energy_decay(cube_scene, CENTER, cfg)
        assert curve.bin_width_s == 1e-3
        assert curve.n_bands == 4
        assert curve.energies.shape == (curve.n_bins, 4)
        t = curve.times()
        assert t[0] == pytest.approx(5e-4)
        assert t[-1] == pytest.approx(curve.n_bins * tracer.BIN_WIDTH_S - 5e-4)
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


def one_ray_totals(scene, source, config, i):
    """Per-band energy that ray i alone deposits, traced on its own by the
    documented rule: attenuate, deposit, then roulette below the cut."""
    n = config.n_rays
    cut = 10.0 ** (-ROULETTE_DB / 10.0) / n
    alpha = scene._alpha[scene._material_ids]
    leg = np.stack((np.array([source], dtype=np.float64).T,
                    sphere_directions(config.rng_seed, n)[i:i + 1].T))
    energy = np.full((1, scene.bands.n_bands), 1.0 / n)
    total = np.zeros(scene.bands.n_bands)
    for j in range(config.n_bounces):
        t, idx = scene.batch_closest_hit(leg[0].T, leg[1].T, 0.0)
        if idx[0] < 0:
            break
        leg = _next_leg(leg, t, scene._normal_rows.take(idx, axis=1))
        energy = energy * (1.0 - alpha[idx])
        total += energy[0]
        peak = energy.max()
        if peak < cut:
            p = peak / cut
            if not roulette_uniforms(config.rng_seed, [i], j)[0] < p:
                break
            energy = energy / p
    return total


class TestRussianRoulette:
    def test_draws_depend_only_on_ray_index(self):
        ids = np.arange(1000)
        u = roulette_uniforms(7, ids, 12)
        perm = np.random.default_rng(0).permutation(1000)
        assert np.array_equal(roulette_uniforms(7, ids[perm], 12), u[perm])
        assert np.array_equal(roulette_uniforms(7, ids[3::7], 12), u[3::7])
        assert np.array_equal(roulette_uniforms(7, [41], 12), u[41:42])
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.05
        assert not np.array_equal(roulette_uniforms(8, ids, 12), u)
        assert not np.array_equal(roulette_uniforms(7, ids, 13), u)

    def test_draws_for_large_seeds_and_indices(self):
        # uint64 wrap-around must not warn, and seeds past 64 bits work.
        u = roulette_uniforms(2 ** 70 + 3, np.array([2 ** 63 + 1, 0]), 299)
        assert u.shape == (2,) and np.all((u >= 0.0) & (u < 1.0))

    def test_each_ray_depends_only_on_its_own_index(self):
        # Rays leave through the open face and others lose the roulette, so
        # the survivors' positions in the ray set shift every bounce. Each
        # ray must still draw by its own index, as if traced alone.
        scene = load_scene(open_cube_obj(), default_materials_json(0.5))
        cfg = TraceConfig(n_rays=60, n_bounces=40, rng_seed=5)
        curve = trace_energy_decay(scene, CENTER, cfg)
        assert curve.ray_bounces < 60 * 40
        expected = sum(one_ray_totals(scene, CENTER, cfg, i) for i in range(60))
        assert curve.energies.sum(axis=0) == pytest.approx(expected, rel=1e-12)

    def test_unbiased_over_seeds(self):
        # At alpha = 0.5 rays cross the cut (1e-4 of their start) at bounce
        # 14 and play roulette from then on. The total each seed deposits
        # is random, but its mean is the geometric sum.
        scene = load_scene(cube_obj(5.0), default_materials_json(0.5))
        totals = []
        for seed in range(30):
            curve = trace_energy_decay(scene, CENTER, TraceConfig(50, 60, seed))
            assert curve.ray_bounces < 50 * 60
            totals.append(curve.energies.sum(axis=0)[0])
        expected = sum(0.5 ** k for k in range(1, 61))
        sigma = np.std(totals, ddof=1) / math.sqrt(len(totals))
        assert sigma > 0.0
        assert abs(np.mean(totals) - expected) <= 4.0 * sigma

    def test_repeat_run_is_bitwise_identical(self, cube_scene):
        cfg = TraceConfig(n_rays=80, n_bounces=200, rng_seed=4)
        a = trace_energy_decay(cube_scene, CENTER, cfg)
        b = trace_energy_decay(cube_scene, CENTER, cfg)
        assert a.ray_bounces == b.ray_bounces < 80 * 200
        assert np.array_equal(a.energies, b.energies)


@pytest.fixture(scope="module")
def corridor_lr_sources():
    """The corridor scene and its default bake's one LR source per cluster."""
    scene, points = corridor_fixture()
    bakefile, _ = bake(scene, points)
    return scene, [c.lr_position for c in bakefile.cluster_map.clusters]


class TestBounceBookkeeping:
    """The tracer's loops give the arrays of the plain loops in
    `reference_tracer`, which compact and reflect on every bounce."""

    @pytest.mark.parametrize("alpha, cfg, lossless", [
        (0.2, TraceConfig(100, 20, 0), True),  # no ray ends before the cap
        (0.02, TraceConfig(100, 300, 2), True),  # 0.98**300 stays above the cut
        (0.2, TraceConfig(100, 300, 3), False),  # roulette from bounce 42 on
    ])
    def test_closed_cube_decay(self, alpha, cfg, lossless):
        scene = load_scene(cube_obj(5.0), default_materials_json(alpha))
        curve = trace_energy_decay(scene, CENTER, cfg)
        energies, ray_bounces = reference_decay(scene, CENTER, cfg)
        assert np.array_equal(curve.energies, energies)
        assert curve.ray_bounces == ray_bounces
        assert (ray_bounces == cfg.n_rays * cfg.n_bounces) == lossless

    def test_open_cube_decay(self, monkeypatch):
        # Rays leave through the open face on every early bounce, and from
        # bounce 14 on the roulette drops some too: bounces 14 to 16 lose
        # rays both ways, so both compactions run on one bounce.
        scene = load_scene(open_cube_obj(), default_materials_json(0.5))
        cfg = TraceConfig(200, 60, 5)
        calls, cuts = [0], []
        kernel, keep = scene.batch_closest_hit, tracer._keep

        def counted_kernel(*args):
            calls[0] += 1
            return kernel(*args)

        def logged_keep(mask, *arrays):
            cuts.append(calls[0])
            return keep(mask, *arrays)

        monkeypatch.setattr(scene, "batch_closest_hit", counted_kernel)
        monkeypatch.setattr(tracer, "_keep", logged_keep)
        curve = trace_energy_decay(scene, CENTER, cfg)
        monkeypatch.undo()
        assert any(cuts.count(c) == 2 for c in cuts)
        energies, ray_bounces = reference_decay(scene, CENTER, cfg)
        assert np.array_equal(curve.energies, energies)
        assert curve.ray_bounces == ray_bounces

    def test_corridor_cluster_sources(self, corridor_lr_sources):
        scene, sources = corridor_lr_sources
        assert len(sources) == 8
        cfg = BakeConfig().lr_trace_config()
        for src in sources:
            curve = trace_energy_decay(scene, src, cfg)
            energies, ray_bounces = reference_decay(scene, src, cfg)
            assert np.array_equal(curve.energies, energies), src
            assert curve.ray_bounces == ray_bounces, src

    def test_open_cube_segments(self):
        scene = load_scene(open_cube_obj(), default_materials_json(0.5))
        cfg = TraceConfig(150, 12, 4)
        sources = [CENTER, (1.0, 4.0, 2.0)]
        results = trace_segments(scene, sources, cfg)
        lengths, completed = reference_segments(scene, sources, cfg)
        # Rays are lost on the first leg, on later ones, and not at all.
        assert {0, 5, cfg.n_bounces} <= set(completed.tolist())
        assert np.array_equal(np.concatenate([r.lengths for r in results]), lengths)
        assert np.array_equal(
            np.concatenate([r.bounces_completed for r in results]), completed)

    @pytest.mark.parametrize("mesh, sources", [
        (TWO_HALLS_OBJ, HALL_POINTS[:2]),
        (OPEN_BESIDE_CLOSED_OBJ, [CENTER, (9.0, 2.5, 2.5)]),
    ])
    def test_separate_boxes_decay(self, mesh, sources, monkeypatch):
        # Each source's rays start in one isolated part. In the open box the
        # escaping rays hit the closed box from outside, so later bounces
        # start in both parts.
        scene = load_scene(mesh, default_materials_json(0.2))
        cfg = TraceConfig(100, 300, 6)
        first_of_second = scene._parts[1][2][0]
        both_hit = []
        kernel = scene.batch_closest_hit

        def logged_kernel(*args):
            t, idx = kernel(*args)
            both_hit.append(np.unique(idx[idx >= 0] >= first_of_second).size == 2)
            return t, idx

        monkeypatch.setattr(scene, "batch_closest_hit", logged_kernel)
        for src in sources:
            curve = trace_energy_decay(scene, src, cfg)
            energies, ray_bounces = reference_decay(scene, src, cfg)
            assert np.array_equal(curve.energies, energies), src
            assert curve.ray_bounces == ray_bounces, src
        assert any(both_hit) == (mesh == OPEN_BESIDE_CLOSED_OBJ)

    @pytest.mark.parametrize("mesh, sources", [
        (TWO_HALLS_OBJ, HALL_POINTS),
        (OPEN_BESIDE_CLOSED_OBJ, [CENTER, (9.0, 2.5, 2.5), (1.0, 4.0, 2.0)]),
    ])
    def test_separate_boxes_segments(self, mesh, sources):
        scene = load_scene(mesh, default_materials_json(0.2))
        cfg = TraceConfig(150, 12, 4)
        results = trace_segments(scene, sources, cfg)
        lengths, completed = reference_segments(scene, sources, cfg)
        assert np.array_equal(np.concatenate([r.lengths for r in results]), lengths)
        assert np.array_equal(
            np.concatenate([r.bounces_completed for r in results]), completed)

    @pytest.mark.parametrize("points, error", [
        (HALL_POINTS, None),  # alternating between the halls
        (HALL_POINTS[:2] + ((13.0, 7.0, 4.6),) + HALL_POINTS[2:],
         "point 2: "),  # in the gap between the halls, above the small one
    ])
    def test_points_across_halls(self, points, error, monkeypatch):
        # Per-point mean free paths and errors equal those of one ray set
        # traced against the whole mesh, as before parts were split.
        scene = load_scene(TWO_HALLS_OBJ, default_materials_json(0.2))
        config = BakeConfig(er_rays=300)
        pts = np.array(points)

        def outcome():
            try:
                return _mean_free_paths(scene, pts, config)
            except InputError as exc:
                return str(exc)

        got = outcome()
        monkeypatch.setattr(scene, "_part_of", lambda low, high: -1)
        monkeypatch.setattr(scene, "batch_closest_hit", lambda o, d, t: (
            raycast.batch_closest_hit(o, d, scene._coeffs, t)))
        assert got == outcome()
        if error is None:
            assert len(got) == len(points)
        else:
            assert got.startswith(error) and "escaped" in got

    def test_bincount_adds_like_add_at(self):
        # Deposits of very different sizes in repeated, unsorted bins:
        # floating-point sums depend on their order, and both functions add
        # in index order from 0.0.
        rng = np.random.default_rng(12)
        bins = rng.integers(0, 40, 5000)
        deposits = rng.random((5000, 4)) * 10.0 ** rng.integers(-12, 0, (5000, 1))
        expected = np.zeros((40, 4))
        np.add.at(expected, bins, deposits)
        got = np.stack([np.bincount(bins, band, 40) for band in deposits.T], axis=1)
        assert got.tobytes() == expected.tobytes()
        shuffled = np.zeros((40, 4))
        order = rng.permutation(5000)
        np.add.at(shuffled, bins[order], deposits[order])
        assert not np.array_equal(shuffled, expected)


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
