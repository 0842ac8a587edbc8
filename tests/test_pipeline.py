import dataclasses
import json

import numpy as np
import pytest

from echobake.errors import InputError, ValidationFailure
from echobake.perception import Cluster, ClusterMap, PathSample
from echobake.pipeline import (BakeConfig, BakeFile, BakeStats, bake,
                               corridor_fixture, direct_sound_gain, lookup,
                               parse_path_csv, run_mfp_validation)
from echobake.shapes import (corridor_obj, corridor_path,
                             default_materials_json, path_csv_text)

FAST = BakeConfig(er_rays=60, er_bounces=10, lr_rays=80, lr_bounces=60)


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
                         lr_bounces=7, speed_of_sound=340.0)
        er, lr = cfg.er_trace_config(), cfg.lr_trace_config()
        assert (er.n_rays, er.n_bounces, er.rng_seed) == (11, 3, 9)
        assert (lr.n_rays, lr.n_bounces, lr.rng_seed) == (22, 7, 9)
        assert er.speed_of_sound == lr.speed_of_sound == 340.0

    def test_validation(self):
        with pytest.raises(InputError):
            BakeConfig(threads=0)


class TestBake:
    def test_tight_path_shares_one_lr_trace(self, cube_bake):
        bakefile, stats = cube_bake
        assert stats.n_points == 40
        assert stats.n_clusters == 1
        assert stats.lr_traces_run == 1
        assert stats.lr_calls_saved == 39
        assert bakefile.cluster_map.n_clusters == 1

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

    def test_thread_count_does_not_change_output(self, cube_scene):
        a, _ = bake(cube_scene, short_line(), FAST)
        b, _ = bake(cube_scene, short_line(),
                    dataclasses.replace(FAST, threads=4))
        assert a.canonical_bytes() == b.canonical_bytes()

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

    @pytest.mark.parametrize("field, value, message", [
        ("rt60_bands", [float("nan"), -1.0], "expected 4"),
        ("rt60_bands", [1.0, 1.0, 1.0, 1.0, 1.0], "expected 4"),
        ("r_squared", [0.99, 0.99], "expected 4"),
        ("rt60_bands", [1.0, float("nan"), 1.0, 1.0], "finite and positive"),
        ("rt60_bands", [1.0, 1.0, float("inf"), 1.0], "finite and positive"),
        ("rt60_bands", [1.0, 1.0, 1.0, -1.0], "finite and positive"),
        ("rt60_bands", [0.0, 1.0, 1.0, 1.0], "finite and positive"),
        ("rt60_bands", [1.0, "1.0", 1.0, 1.0], "finite and positive"),
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
        with pytest.raises(InputError, match="missing fields"):
            BakeFile.from_json(json.dumps(doc))

    def test_unbaked_cluster_rejected_at_construction(self):
        samples = (PathSample(0, (0.0, 0.0, 0.0), 2.0),)
        cmap = ClusterMap((Cluster(0, 1, 2.0, 2.0, 0.02),), 1,
                          "relative", "first")
        with pytest.raises(InputError, match="missing its RT60"):
            BakeFile("f" * 64, (0.0, 22050.0), BakeConfig(), samples, cmap)


class TestBakeStats:
    def test_saved_calls(self):
        stats = BakeStats(60, 8, 1.0, 10.0, 8)
        assert stats.lr_calls_saved == 52

    def test_rejects_more_clusters_than_points(self):
        with pytest.raises(InputError):
            BakeStats(5, 6, 1.0, 1.0, 6)


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


class TestDirectSoundGain:
    def test_clear_line_inverse_distance(self, cube_scene):
        gain = direct_sound_gain(cube_scene, (1.5, 2.5, 2.5), (3.5, 2.5, 2.5))
        assert gain == pytest.approx(0.5, rel=1e-9)

    def test_occluded_by_pillar(self, pillar_scene):
        gain = direct_sound_gain(pillar_scene, (0.5, 2.5, 3.0), (3.5, 2.5, 3.0))
        assert gain == 0.0

    def test_near_field_clamped(self, cube_scene):
        gain = direct_sound_gain(cube_scene, (2.5, 2.5, 2.5), (2.55, 2.5, 2.5))
        assert gain == pytest.approx(10.0)

    def test_coincident_rejected(self, cube_scene):
        with pytest.raises(InputError, match="coincide"):
            direct_sound_gain(cube_scene, (2.5, 2.5, 2.5), (2.5, 2.5, 2.5))


class TestMfpValidationSuite:
    def test_passes_and_reports_four_shapes(self):
        report = run_mfp_validation(n_rays=200, n_bounces=10, tolerance=0.10)
        assert len(report.rows) == 4
        names = [r.name for r in report.rows]
        assert names == ["cube", "rect_prism", "square_pyramid", "pillar_room"]
        for row in report.rows:
            assert row.pct_error < 10.0
            assert row.n_segments > 0

    def test_csv_header(self):
        report = run_mfp_validation(n_rays=100, n_bounces=5, tolerance=0.5)
        lines = report.csv_text().strip().split("\n")
        assert lines[0] == "shape,mu_analytic_m,mu_traced_m,pct_error,n_segments"
        assert len(lines) == 5

    def test_impossible_tolerance_raises(self):
        with pytest.raises(ValidationFailure, match="mean free path"):
            run_mfp_validation(n_rays=100, n_bounces=5, tolerance=1e-9)


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
