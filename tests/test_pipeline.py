import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from echobake import pipeline, tracer
from echobake.acoustics import mfp_from_trace
from echobake.audio_io import AudioBuffer
from echobake.errors import InputError, ValidationFailure
from echobake.perception import Cluster, ClusterMap, PathSample
from echobake.pipeline import (BakeConfig, BakeFile, BakeStats, bake,
                               corridor_fixture, lookup, parse_path_csv,
                               run_mfp_validation)
from echobake.reverb import render_path
from echobake.scene import load_scene
from echobake.shapes import default_materials_json
from echobake.tracer import trace_segments

from conftest import apply_edits, open_cube_obj, text_edits
from corridor_geometry import corridor_obj, corridor_path, path_csv_text

FAST = BakeConfig(er_rays=60, er_bounces=10, lr_rays=80, lr_bounces=60)
NAN, INF = float("nan"), float("inf")


def _parent(doc, path):
    """The container that holds the value at key path `path`, and its key."""
    *parents, key = path
    for k in parents:
        doc = doc[k]
    return doc, key


def short_line(n=40):
    """Path points packed into 0.2 m at the cube's middle."""
    xs = np.linspace(2.3, 2.5, n)
    return np.column_stack([xs, np.full(n, 2.5), np.full(n, 2.5)])


@pytest.fixture(scope="module")
def cube_bake(cube_scene):
    return bake(cube_scene, short_line(), FAST)


class TestBakeConfig:
    def test_trace_configs_carry_fields(self):
        cfg = BakeConfig(seed=9, er_rays=11, er_bounces=3, lr_rays=22,
                         lr_bounces=7)
        er, lr = cfg.er_trace_config(), cfg.lr_trace_config()
        assert (er.n_rays, er.n_bounces, er.rng_seed) == (11, 3, 9)
        assert (lr.n_rays, lr.n_bounces, lr.rng_seed) == (22, 7, 9)

    def test_validation(self):
        with pytest.raises(InputError):
            BakeConfig(threads=0)

    @pytest.mark.parametrize("field, value, message", [
        ("er_rays", -5, "n_rays and n_bounces"),
        ("er_bounces", 0, "n_rays and n_bounces"),
        ("lr_rays", 2.5, "n_rays and n_bounces"),
        ("lr_bounces", True, "n_rays and n_bounces"),
        ("seed", -1, "seed"),
        ("seed", "0", "seed"),
        ("jnd_mode", "bogus", "jnd_mode"),
        ("threads", 1.0, "threads"),
    ])
    def test_each_field_checked(self, field, value, message):
        with pytest.raises(InputError, match=message):
            BakeConfig(**{field: value})


class TestBake:
    def test_tight_path_shares_one_lr_trace(self, cube_scene, monkeypatch):
        sources = []
        curves = []
        real = pipeline.trace_energy_decay

        def counted(scene, source, *args):
            sources.append(tuple(source))
            curves.append(real(scene, source, *args))
            return curves[-1]

        monkeypatch.setattr(pipeline, "trace_energy_decay", counted)
        bakefile, stats = bake(cube_scene, short_line(), FAST)
        assert stats.n_points == 40
        assert stats.n_clusters == 1
        assert stats.lr_calls_saved == 39
        assert bakefile.cluster_map.n_clusters == 1
        assert sources == [tuple(short_line()[0])]
        # At alpha = 0.2 rays reach the roulette cut at bounce 42 of 60.
        assert stats.lr_ray_bounces == curves[0].ray_bounces
        assert 80 * 42 < stats.lr_ray_bounces < 80 * 60
        assert b"ray_bounces" not in bakefile.canonical_bytes()

    def test_point_outside_the_room_refused_before_lr(self, cube_scene,
                                                      monkeypatch):
        # 0.5 m outside the 5 m cube: rays that strike the cube's outer
        # face are mirrored away from it, so every low-order ray escapes.
        def no_lr(*args):
            raise AssertionError("a high-order trace ran")

        monkeypatch.setattr(pipeline, "trace_energy_decay", no_lr)
        pts = short_line(3)
        pts[2] = (5.5, 2.5, 2.5)
        with pytest.raises(InputError, match=r"^point 2: 60 of 60 low-order "
                                             r"rays escaped the scene"):
            bake(cube_scene, pts, FAST)

    def test_escape_bound_is_a_strict_fraction(self, monkeypatch):
        # A cube with one face open: some rays escape, some do not. The
        # point passes at exactly the bound and fails one ray above it.
        scene = load_scene(open_cube_obj(), default_materials_json(0.2))
        pts = short_line(1)
        [res] = trace_segments(scene, pts, FAST.er_trace_config())
        escaped = int(res.escaped.sum())
        assert 0 < escaped < FAST.er_rays
        monkeypatch.setattr(pipeline, "MAX_ESCAPE_FRACTION",
                            escaped / FAST.er_rays)
        assert pipeline._mean_free_paths(scene, pts, FAST) == [
            mfp_from_trace(res)]
        monkeypatch.setattr(pipeline, "MAX_ESCAPE_FRACTION",
                            (escaped - 1) / FAST.er_rays)
        with pytest.raises(InputError, match=f"^point 0: {escaped} of 60 "):
            pipeline._mean_free_paths(scene, pts, FAST)

    def test_clusters_carry_rt60_and_source(self, cube_bake):
        bakefile, _ = cube_bake
        c = bakefile.cluster_map.clusters[0]
        assert c.rt60_bands is not None and len(c.rt60_bands) == 4
        assert all(rt > 0 for rt in c.rt60_bands)
        assert min(c.r_squared) > 0.99
        # The high-order trace runs from the cluster's first member.
        assert c.lr_position == tuple(short_line()[0])

    def test_sample_mus_are_positive_and_smooth(self, cube_bake):
        bakefile, _ = cube_bake
        mus = np.array([s.mu for s in bakefile.samples])
        assert (mus > 0).all()
        assert mus.max() - mus.min() < 0.01 * mus.mean()

    def test_thread_count_does_not_change_output(self, cube_scene,
                                                 monkeypatch):
        a, _ = bake(cube_scene, short_line(), FAST)
        b, _ = bake(cube_scene, short_line(),
                    dataclasses.replace(FAST, threads=4))
        assert a.canonical_bytes() == b.canonical_bytes()
        # The ER ray sets traced on one, two and three threads.
        for cpus in (1, 2, 3):
            monkeypatch.setattr(tracer, "_cpus", lambda: cpus)
            c, _ = bake(cube_scene, short_line(), FAST)
            assert a.canonical_bytes() == c.canonical_bytes(), cpus

    def test_repeat_bake_identical_but_for_timestamp(self, cube_scene,
                                                     cube_bake):
        again, _ = bake(cube_scene, short_line(), FAST)
        assert again.canonical_bytes() == cube_bake[0].canonical_bytes()

    def test_bad_point_error_names_the_point(self, cube_scene):
        pts = np.array([[2.5, 2.5, 2.5], [99.0, 2.5, 2.5]])
        with pytest.raises(InputError, match="point 1"):
            bake(cube_scene, pts, FAST)

    def test_bad_positions_shape(self, cube_scene):
        with pytest.raises(InputError, match="positions"):
            bake(cube_scene, np.zeros((0, 3)), FAST)
        with pytest.raises(InputError, match="positions"):
            bake(cube_scene, np.zeros((4, 2)), FAST)

    def test_fingerprint_and_version_recorded(self, cube_scene, cube_bake):
        from echobake import __version__
        bakefile, _ = cube_bake
        assert bakefile.scene_fingerprint == cube_scene.fingerprint
        assert bakefile.tool_version == __version__
        assert bakefile.created_utc.endswith("Z")


class TestEarlyReflectionGroups:
    """The ER stage traces the path in ray sets of `ER_GROUP_RAYS` rays."""

    CONFIG = BakeConfig(er_rays=100, er_bounces=20)

    def test_group_boundaries_keep_each_mu(self, monkeypatch):
        scene, points = corridor_fixture()
        pts = points[::3]
        config = self.CONFIG
        groups = []
        real = pipeline.trace_segments

        def recorded(scene, sources, *args, **kwargs):
            groups.append(len(sources))
            return real(scene, sources, *args, **kwargs)

        monkeypatch.setattr(pipeline, "trace_segments", recorded)
        monkeypatch.setattr(pipeline, "ER_GROUP_RAYS", 7 * 100 + 99)
        mus = pipeline._mean_free_paths(scene, pts, config)
        assert groups == [7, 7, 6]
        cfg = config.er_trace_config()
        assert mus == [mfp_from_trace(real(scene, [p], cfg)[0]) for p in pts]

    def test_errors_name_the_point_past_the_first_group(self, cube_scene,
                                                        monkeypatch):
        monkeypatch.setattr(pipeline, "ER_GROUP_RAYS", 60 * 4)
        pts = short_line(12)
        pts[9, 0] = 99.0
        with pytest.raises(InputError, match="^point 9: source .* outside"):
            bake(cube_scene, pts, FAST)

    def test_memory_does_not_grow_with_the_path(self, monkeypatch):
        # One group holds 15 corridor points; the whole path is 4 groups.
        # Each group is reduced to its mean free paths before the next is
        # traced, so the longer path may only add a little bookkeeping:
        # less than half of one group's segment array.
        scene, points = corridor_fixture()
        monkeypatch.setattr(pipeline, "ER_GROUP_RAYS", 15 * 100)

        def peak(pts):
            pipeline._mean_free_paths(scene, pts[:1], self.CONFIG)  # warm caches
            tracemalloc.start()
            try:
                pipeline._mean_free_paths(scene, pts, self.CONFIG)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_group = peak(points[:15])
        segment_array_bytes = 15 * 100 * 20 * 8
        assert peak(points) < one_group + segment_array_bytes // 2


class TestBakeFileSerialization:
    def test_round_trip(self, cube_bake):
        bakefile, _ = cube_bake
        back = BakeFile.from_json(bakefile.to_json_bytes())
        assert back.canonical_bytes() == bakefile.canonical_bytes()
        assert back.created_utc == bakefile.created_utc
        assert back.samples == bakefile.samples

    def test_canonical_bytes_exclude_timestamp_only(self, cube_bake):
        bakefile, _ = cube_bake
        with_ts = json.loads(bakefile.to_json_bytes())
        without = json.loads(bakefile.canonical_bytes())
        with_ts.pop("created_utc")
        assert with_ts == without

    def test_threads_never_serialized(self, cube_bake):
        doc = json.loads(cube_bake[0].to_json_bytes())
        assert "threads" not in doc["config"]

    def test_not_json(self):
        with pytest.raises(InputError, match="not valid JSON"):
            BakeFile.from_json(b"definitely not json")

    def test_wrong_schema(self, cube_bake):
        doc = json.loads(cube_bake[0].to_json_bytes())
        doc["schema_version"] = 99
        with pytest.raises(InputError, match="unsupported bake schema"):
            BakeFile.from_json(json.dumps(doc))

    def test_schema_1_refused(self, cube_bake):
        doc = json.loads(cube_bake[0].to_json_bytes())
        doc["schema_version"] = 1
        doc["config"]["lr_source"] = "first"
        with pytest.raises(InputError, match="unsupported bake schema 1"):
            BakeFile.from_json(json.dumps(doc))

    def test_schema_2_refused(self, cube_bake):
        doc = json.loads(cube_bake[0].to_json_bytes())
        doc["schema_version"] = 2
        doc["jnd_mode"] = doc["config"]["jnd_mode"]
        doc["cluster_reference"] = doc["config"]["cluster_reference"] = "first"
        doc["config"]["speed_of_sound"] = 343.0
        for s in doc["samples"]:
            s["mu_source"] = "er_trace"
        with pytest.raises(InputError, match="unsupported bake schema 2"):
            BakeFile.from_json(json.dumps(doc))

    def test_each_fact_stored_once(self, cube_bake):
        doc = json.loads(cube_bake[0].to_json_bytes())
        assert set(doc) == {"schema_version", "tool_version",
                            "scene_fingerprint", "band_edges_hz", "config",
                            "samples", "clusters", "created_utc"}
        assert set(doc["config"]) == {"seed", "er_rays", "er_bounces",
                                      "lr_rays", "lr_bounces", "jnd_mode"}
        assert set(doc["samples"][0]) == {"index", "position", "mu"}

    @pytest.mark.parametrize("field, value, message", [
        ("rt60_bands", [float("nan"), -1.0], "expected 4"),
        ("rt60_bands", [1.0, 1.0, 1.0, 1.0, 1.0], "expected 4"),
        ("r_squared", [0.99, 0.99], "expected 4"),
        ("rt60_bands", [1.0, float("nan"), 1.0, 1.0], "finite and positive"),
        ("rt60_bands", [1.0, 1.0, float("inf"), 1.0], "finite and positive"),
        ("rt60_bands", [1.0, 1.0, 1.0, -1.0], "finite and positive"),
        ("rt60_bands", [0.0, 1.0, 1.0, 1.0], "finite and positive"),
        ("rt60_bands", [1.0, "1.0", 1.0, 1.0], "finite and positive"),
        ("r_squared", [NAN] * 4, "every r_squared must be finite"),
        ("mu_ref", NAN, "mu_ref, mu_mean and jnd_threshold_m"),
        ("mu_mean", -1.0, "mu_ref, mu_mean and jnd_threshold_m"),
        ("jnd_threshold_m", "0.02", "mu_ref, mu_mean and jnd_threshold_m"),
        ("lr_position", [2.3, 2.5], "lr_position must be 3 finite"),
        ("lr_position", [INF, 2.5, 2.5], "lr_position must be 3 finite"),
        ("start", "0", "clusters must partition"),
        ("stop", 40.0, "clusters must partition"),
    ])
    def test_bad_cluster_row_rejected(self, cube_bake, field, value,
                                      message):
        doc = json.loads(cube_bake[0].to_json_bytes())
        doc["clusters"][0][field] = value
        with pytest.raises(InputError, match=f"cluster 0: .*{message}"):
            BakeFile.from_json(json.dumps(doc))

    def test_missing_field(self, cube_bake):
        doc = json.loads(cube_bake[0].to_json_bytes())
        del doc["samples"]
        with pytest.raises(InputError, match="^bake file is missing field 'samples'"):
            BakeFile.from_json(json.dumps(doc))

    @pytest.mark.parametrize("path, value, message", [
        (("samples", 3, "position"), [1.0, 2.0], "sample 3: position"),
        (("samples", 3, "position"), [None, 2.5, 2.5], "sample 3: position"),
        (("samples", 3, "position"), ["2.4", 2.5, 2.5], "sample 3: position"),
        (("samples", 3, "position"), [NAN, 2.5, 2.5], "sample 3: position"),
        (("samples", 3, "position"), None, "sample 3 has a value of the wrong type"),
        (("samples", 3, "mu"), NAN, "sample 3: mu must be finite and positive"),
        (("samples", 3, "mu"), "2.0", "sample 3: mu must be finite and positive"),
        (("samples", 3, "mu"), 0.0, "sample 3: mu must be finite and positive"),
        (("samples", 3, "index"), "3", "sample 3: index must be 3"),
        (("samples", 3, "index"), 4, "sample 3: index must be 3"),
        (("samples", 3), {"index": 3, "position": [2.4, 2.5, 2.5]},
         "sample 3 is missing field 'mu'"),
        (("clusters", 0, "rt60_bands"), None, "cluster 0 has a value of the wrong type"),
        (("config", "er_rays"), -5, "n_rays and n_bounces"),
        (("config", "seed"), -1, "seed"),
        (("config", "jnd_mode"), "bogus", "jnd_mode"),
        (("config", "lr_bounces"), None, "n_rays and n_bounces"),
        (("band_edges_hz",), [0.0, 3408.0, 775.0, 176.0, 22050.0],
         "band edges must be finite and strictly increasing"),
        (("band_edges_hz",), [0.0, 176.0, 775.0, 3408.0, NAN],
         "band edges must be finite and strictly increasing"),
        (("scene_fingerprint",), "abc", "64 hex digits"),
        (("scene_fingerprint",), "G" * 64, "64 hex digits"),
        (("tool_version",), 1, "tool_version"),
        (("clusters",), 5, "^bake file has a value of the wrong type"),
    ])
    def test_bad_field_rejected(self, cube_bake, path, value, message):
        doc = json.loads(cube_bake[0].to_json_bytes())
        node, key = _parent(doc, path)
        node[key] = value
        with pytest.raises(InputError, match=message):
            BakeFile.from_json(json.dumps(doc))

    def test_unbaked_cluster_rejected_at_construction(self):
        samples = (PathSample(0, (0.0, 0.0, 0.0), 2.0),)
        cmap = ClusterMap((Cluster(0, 1, 2.0, 2.0, 0.02),), 1)
        with pytest.raises(InputError, match="missing its RT60"):
            BakeFile("f" * 64, (0.0, 22050.0), BakeConfig(), samples, cmap)


def _leaf_paths(node, prefix=()):
    """Key paths to every scalar in a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


_DELETE = object()
_MUTATIONS = [_DELETE, None, NAN, INF, -INF, 1e308, -1e308, -1, 0, True,
              "x", [], [1.0], {}]


class TestBakeFileFuzz:
    """A malformed bake file is refused with InputError, or it loads and
    then looks up and renders without any other exception."""

    @pytest.fixture(scope="class")
    def small_bake(self, cube_scene):
        data = bake(cube_scene, short_line(4), FAST)[0].to_json_bytes()
        return data, list(_leaf_paths(json.loads(data)))

    @settings(max_examples=300, deadline=None)
    @given(leaf=st.integers(min_value=0), mutation=st.sampled_from(_MUTATIONS))
    def test_one_leaf_mutated(self, small_bake, leaf, mutation):
        data, paths = small_bake
        doc = json.loads(data)
        node, key = _parent(doc, paths[leaf % len(paths)])
        if mutation is _DELETE:
            del node[key]
        else:
            node[key] = mutation
        try:
            bakefile = BakeFile.from_json(json.dumps(doc))
        except InputError:
            return
        bakefile.canonical_bytes()
        found = lookup(bakefile, index=0)
        try:
            lookup(bakefile, position=(2.4, 2.5, 2.5))
        except InputError:
            pass
        dry = AudioBuffer(44100, np.full(441, 0.1))
        try:
            render_path(dry, bakefile.cluster_map, [(0.0, found.cluster_id)])
        except InputError:
            pass


    @pytest.mark.parametrize("data", ["[" * 100_000, '{"schema": ' + "1" * 5000 + "}",
                                      b'{"schema": "\xff"}'])
    def test_json_past_the_decoder_limits(self, data):
        # Nesting past the decoder's recursion depth, an integer past
        # Python's digit limit, and bytes that are not UTF-8 raised
        # RecursionError, ValueError and UnicodeDecodeError.
        with pytest.raises(InputError, match="not valid JSON"):
            BakeFile.from_json(data)

class TestBakeStats:
    def test_saved_calls(self):
        stats = BakeStats(60, 8, 1.0, 10.0, 0)
        assert stats.lr_calls_saved == 52

    def test_rejects_more_clusters_than_points(self):
        with pytest.raises(InputError):
            BakeStats(5, 6, 1.0, 1.0, 0)


class TestLookup:
    def test_by_index(self, cube_bake):
        res = lookup(cube_bake[0], index=3)
        assert res.cluster_id == 0
        assert res.sample_index == 3
        assert res.distance_m == 0.0
        assert res.rt60.broadband > 0

    def test_by_position_snaps_to_nearest(self, cube_bake):
        res = lookup(cube_bake[0], position=(2.31, 2.52, 2.5))
        assert res.cluster_id == 0
        assert res.distance_m == pytest.approx(
            np.hypot(2.31 - short_line()[res.sample_index][0], 0.02),
            abs=1e-9)

    def test_far_position_refused(self, cube_bake):
        with pytest.raises(InputError, match="coverage"):
            lookup(cube_bake[0], position=(2.5, 2.5, 0.5))

    def test_exactly_one_query_kind(self, cube_bake):
        with pytest.raises(InputError, match="exactly one"):
            lookup(cube_bake[0])
        with pytest.raises(InputError, match="exactly one"):
            lookup(cube_bake[0], index=0, position=(2.5, 2.5, 2.5))

    def test_index_out_of_range(self, cube_bake):
        with pytest.raises(InputError, match="out of range"):
            lookup(cube_bake[0], index=40)
        with pytest.raises(InputError, match="out of range"):
            lookup(cube_bake[0], index=-1)

    def test_numpy_query_values_accepted(self, cube_bake):
        # An index from np.argmin and a row of a path array work like their
        # Python equivalents.
        pts = short_line()
        i = np.argmin(np.abs(pts[:, 0] - 2.3))
        res = lookup(cube_bake[0], index=i)
        assert type(res.sample_index) is int and res.sample_index == int(i)
        assert lookup(cube_bake[0], position=pts[i]).sample_index == i
        near = lookup(cube_bake[0], position=(2.31, 2.52, 2.5))
        for position in [np.array([2.31, 2.52, 2.5]),
                         (np.float32(2.31), np.float64(2.52), np.int64(2))]:
            got = lookup(cube_bake[0], position=position)
            assert got.sample_index == near.sample_index
        assert lookup(cube_bake[0], index=np.int32(3)).sample_index == 3

    @pytest.mark.parametrize("index", [1.5, True, "1", np.float64(1.0),
                                       np.bool_(True), np.array([1])])
    def test_non_integer_index_refused(self, cube_bake, index):
        with pytest.raises(InputError, match="must be an integer"):
            lookup(cube_bake[0], index=index)

    @pytest.mark.parametrize("position", [
        (1, 2), (2.4, 2.5, 2.5, 1.0), "abc", 2.4, [], ("2.4", 2.5, 2.5),
        (True, 2.5, 2.5), np.array([2.4, 2.5]), np.array([[2.4, 2.5, 2.5]]),
        np.array([True, True, True]), (np.bool_(True), 2.5, 2.5),
        np.array([2.4, np.nan, 2.5]),
    ])
    def test_malformed_position_refused(self, cube_bake, position):
        with pytest.raises(InputError, match="3 finite coordinates"):
            lookup(cube_bake[0], position=position)

    @pytest.mark.parametrize("position, max_distance", [
        ((NAN, NAN, NAN), 1.0),
        ((2.4, NAN, 2.5), 1.0),
        ((2.4, 2.5, 2.5), NAN),
        ((1e308, -1e308, 1e308), 1.0),
    ])
    def test_nonfinite_query_refused(self, cube_bake, position, max_distance):
        # A NaN coordinate is refused before any distance is taken. A NaN
        # limit fails `dist <= max_distance`; an overflowing distance is out
        # of coverage, not a RuntimeWarning.
        finite = all(map(math.isfinite, position))
        with pytest.raises(InputError, match="coverage" if finite
                           else "3 finite coordinates"):
            lookup(cube_bake[0], position=position, max_distance=max_distance)


class TestMfpValidationSuite:
    def test_passes_and_reports_four_shapes(self):
        report = run_mfp_validation()
        assert len(report.rows) == 4
        names = [r.name for r in report.rows]
        assert names == ["cube", "rect_prism", "square_pyramid", "pillar_room"]
        for row in report.rows:
            assert row.pct_error <= 100 * pipeline.MFP_TOLERANCE
            assert row.n_segments > 0

    def test_csv_header(self):
        report = run_mfp_validation()
        lines = report.csv_text().strip().split("\n")
        assert lines[0] == "shape,mu_analytic_m,mu_traced_m,pct_error,n_segments"
        assert len(lines) == 5

    def test_impossible_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MFP_TOLERANCE", 1e-9)
        with pytest.raises(ValidationFailure, match="mean free path"):
            run_mfp_validation()


class TestParsePathCsv:
    def test_parses_points(self):
        pts = parse_path_csv("x,y,z\n1,2,3\n4.5,5,6\n", "p.csv")
        assert pts.dtype == np.float64
        assert pts.tolist() == [[1.0, 2.0, 3.0], [4.5, 5.0, 6.0]]

    @pytest.mark.parametrize("text, message", [
        ("", "header 'x,y,z'"),
        ("a,b,c\n1,2,3\n", "header 'x,y,z'"),
        ("x,y,z\n", "no points"),
        ("x,y,z\n1,2,3\n1,2\n", "line 3: every row needs exactly x,y,z"),
        ("x,y,z\n1,2,3,4\n", "line 2: every row needs exactly x,y,z"),
        ("x,y,z\n1,two,3\n", "line 2: could not convert"),
        ("x,y,z\n1,nan,3\n", "line 2: coordinates must be finite"),
    ])
    def test_rejects_malformed(self, text, message):
        with pytest.raises(InputError, match=f"p.csv: .*{message}"):
            parse_path_csv(text, "p.csv")

    @settings(max_examples=400, deadline=None)
    @given(edits=text_edits())
    def test_mutated_csv_raises_only_input_error(self, edits):
        text = apply_edits(pipeline._fixture_text("corridor_path.csv"), edits)
        try:
            pts = parse_path_csv(text, "p.csv")
        except InputError:
            return
        assert pts.ndim == 2 and pts.shape[1] == 3 and pts.shape[0] >= 1
        assert np.isfinite(pts).all()


class TestCorridorFixture:
    def test_committed_files_match_generators(self):
        from echobake.pipeline import _fixture_text
        assert _fixture_text("corridor.obj") == corridor_obj()
        assert _fixture_text("corridor_materials.json") == \
            default_materials_json(0.2)
        assert _fixture_text("corridor_path.csv") == \
            path_csv_text(corridor_path())

    def test_fixture_loads(self):
        scene, points = corridor_fixture()
        assert scene.n_triangles == 44
        assert points.shape == (60, 3)
        assert np.all(points[:, 2] == 1.7)
