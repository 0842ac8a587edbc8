import json

import numpy as np
import pytest

from echobake.audio_io import AudioBuffer, wav_read, wav_write
from echobake.cli import main
from echobake.pipeline import BakeFile
from echobake.shapes import cube_obj, default_materials_json

from corridor_geometry import corridor_obj, path_csv_text

BAKE_SPEED = ["--er-rays", "60", "--er-bounces", "10",
              "--lr-rays", "80", "--lr-bounces", "60"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "cube.obj").write_text(cube_obj(5.0))
    (d / "materials.json").write_text(default_materials_json(0.2))
    xs = np.linspace(2.3, 2.5, 8)
    pts = np.column_stack([xs, np.full(8, 2.5), np.full(8, 2.5)])
    (d / "path.csv").write_text(path_csv_text(pts))
    (d / "corridor.obj").write_text(corridor_obj())
    dry = 0.1 * np.sin(2 * np.pi * 330.0 * np.arange(8820) / 44100.0)
    (d / "dry.wav").write_bytes(wav_write(AudioBuffer(44100, dry)))
    (d / "schedule.csv").write_text("t_start_s,sample_index\n0.0,0\n")
    (d / "schedule_dup.csv").write_text(
        "t_start_s,sample_index\n0.0,0\n0.1,3\n")
    return d


@pytest.fixture(scope="module")
def baked(workdir):
    out = workdir / "bake.json"
    code = main(["bake", "--scene", str(workdir / "cube.obj"),
                 "--materials", str(workdir / "materials.json"),
                 "--path", str(workdir / "path.csv"),
                 "--out", str(out)] + BAKE_SPEED)
    assert code == 0
    return out


class TestBake:
    def test_writes_valid_bake_file(self, baked, capsys):
        bakefile = BakeFile.from_json(baked.read_bytes())
        assert len(bakefile.samples) == 8

    def test_stdout_reports_counts(self, workdir, capsys):
        out = workdir / "bake2.json"
        main(["bake", "--scene", str(workdir / "cube.obj"),
              "--path", str(workdir / "path.csv"),
              "--out", str(out)] + BAKE_SPEED)
        text = capsys.readouterr().out
        assert "baked 8 points into 1 clusters" in text
        assert "7 high-order traces saved" in text

    def test_export_clusters(self, workdir, capsys):
        out = workdir / "bake3.json"
        csv = workdir / "clusters.csv"
        main(["bake", "--scene", str(workdir / "cube.obj"),
              "--path", str(workdir / "path.csv"), "--out", str(out),
              "--export-clusters", str(csv)] + BAKE_SPEED)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "sample_index,x,y,z,mu,cluster_id"
        assert len(lines) == 9

    def test_missing_scene_file(self, workdir, capsys):
        code = main(["bake", "--scene", str(workdir / "nope.obj"),
                     "--path", str(workdir / "path.csv"),
                     "--out", str(workdir / "x.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_path_header(self, workdir, capsys):
        bad = workdir / "bad_path.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        code = main(["bake", "--scene", str(workdir / "cube.obj"),
                     "--path", str(bad), "--out", str(workdir / "x.json")])
        assert code == 2
        assert "header 'x,y,z'" in capsys.readouterr().err

    def test_malformed_obj(self, workdir, capsys):
        bad = workdir / "bad.obj"
        bad.write_text("v 0 0 0\nf 1 2 3 4\n")
        code = main(["bake", "--scene", str(bad),
                     "--path", str(workdir / "path.csv"),
                     "--out", str(workdir / "x.json")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_obj_vertex(self, workdir, capsys):
        bad = workdir / "nan.obj"
        bad.write_text(cube_obj(5.0).replace("v 0.0 0.0 0.0", "v nan 0.0 0.0", 1))
        code = main(["bake", "--scene", str(bad),
                     "--path", str(workdir / "path.csv"),
                     "--out", str(workdir / "x.json")])
        assert code == 2
        assert "finite" in capsys.readouterr().err


class TestLookup:
    def test_by_index(self, baked, capsys):
        assert main(["lookup", "--bake", str(baked), "--index", "3"]) == 0
        out = capsys.readouterr().out
        assert "sample 3" in out and "cluster 0" in out
        assert "rt60 per band" in out

    def test_by_position(self, baked, capsys):
        assert main(["lookup", "--bake", str(baked),
                     "--pos", "2.31,2.5,2.5"]) == 0
        assert "cluster 0" in capsys.readouterr().out

    def test_position_out_of_coverage(self, baked, capsys):
        code = main(["lookup", "--bake", str(baked), "--pos", "0.1,0.1,0.1",
                     "--radius", "0.5"])
        assert code == 2
        assert "coverage" in capsys.readouterr().err

    def test_requires_one_query(self, baked, capsys):
        assert main(["lookup", "--bake", str(baked)]) == 2
        assert main(["lookup", "--bake", str(baked), "--index", "0",
                     "--pos", "2.4,2.5,2.5"]) == 2

    @pytest.mark.parametrize("args", [
        ["--pos", "nan,nan,nan"],
        ["--pos", "2.31,inf,2.5"],
        ["--pos", "2.31,2.5,2.5", "--radius", "nan"],
    ])
    def test_nonfinite_query_refused(self, baked, capsys, args):
        assert main(["lookup", "--bake", str(baked)] + args) == 2
        assert "error:" in capsys.readouterr().err

    def test_schema_2_bake_file(self, workdir, baked, capsys):
        doc = json.loads(baked.read_text())
        doc["schema_version"] = 2
        doc["jnd_mode"] = doc["cluster_reference"] = "relative"
        old = workdir / "schema2.json"
        old.write_text(json.dumps(doc))
        assert main(["lookup", "--bake", str(old), "--index", "0"]) == 2
        assert "unsupported bake schema 2" in capsys.readouterr().err

    def test_schema_1_bake_file(self, workdir, baked, capsys):
        doc = json.loads(baked.read_text())
        doc["schema_version"] = 1
        doc["config"]["lr_source"] = "first"
        old = workdir / "schema1.json"
        old.write_text(json.dumps(doc))
        assert main(["lookup", "--bake", str(old), "--index", "0"]) == 2
        assert "unsupported bake schema 1" in capsys.readouterr().err

    def test_corrupt_bake_file(self, workdir, capsys):
        bad = workdir / "corrupt.json"
        bad.write_text("{]")
        assert main(["lookup", "--bake", str(bad), "--index", "0"]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestRender:
    def test_round_trip(self, workdir, baked, capsys):
        out = workdir / "wet.wav"
        code = main(["render", "--bake", str(baked),
                     "--dry", str(workdir / "dry.wav"),
                     "--schedule", str(workdir / "schedule.csv"),
                     "--out", str(out)])
        assert code == 0
        rendered = wav_read(out.read_bytes())
        assert rendered.sample_rate == 44100
        assert rendered.duration_s > 0.2
        assert "1 reverb segment" in capsys.readouterr().out

    def test_same_cluster_rows_coalesce(self, workdir, baked, capsys):
        # Samples 0 and 3 sit in the same cluster, so the second row
        # must fold away instead of scheduling a redundant switch.
        out = workdir / "wet2.wav"
        code = main(["render", "--bake", str(baked),
                     "--dry", str(workdir / "dry.wav"),
                     "--schedule", str(workdir / "schedule_dup.csv"),
                     "--out", str(out), "--mix", "0.7"])
        assert code == 0
        assert "1 reverb segment" in capsys.readouterr().out

    def test_nonfinite_schedule_time(self, workdir, baked, capsys):
        # Split the one cluster in two, so the NaN row is a real switch
        # and is not folded into the row before it.
        doc = json.loads(baked.read_text())
        first = doc["clusters"][0]
        doc["clusters"] = [dict(first, stop=4), dict(first, start=4)]
        two = workdir / "two_clusters.json"
        two.write_text(json.dumps(doc))
        schedule = workdir / "nan_schedule.csv"
        schedule.write_text("t_start_s,sample_index\n0,0\nnan,5\n")
        code = main(["render", "--bake", str(two),
                     "--dry", str(workdir / "dry.wav"),
                     "--schedule", str(schedule), "--out", str(workdir / "x.wav")])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        ("0,0\nnan,3\n", "finite"),
        ("0,0\n5,3\n0.1,2\n", "increasing"),
    ])
    def test_folded_rows_still_checked(self, workdir, baked, capsys, rows,
                                       message):
        # Every sample is in the bake's one cluster, so these rows would
        # fold away; their times must be checked all the same.
        schedule = workdir / "folded_schedule.csv"
        schedule.write_text("t_start_s,sample_index\n" + rows)
        code = main(["render", "--bake", str(baked),
                     "--dry", str(workdir / "dry.wav"),
                     "--schedule", str(schedule), "--out", str(workdir / "x.wav")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_truncated_wav(self, workdir, baked, capsys):
        cut = workdir / "cut.wav"
        cut.write_bytes((workdir / "dry.wav").read_bytes()[:-1])
        code = main(["render", "--bake", str(baked), "--dry", str(cut),
                     "--schedule", str(workdir / "schedule.csv"),
                     "--out", str(workdir / "x.wav")])
        assert code == 2
        assert "17639 bytes" in capsys.readouterr().err

    def test_bad_schedule_row_names_line(self, workdir, baked, capsys):
        bad = workdir / "bad_row.csv"
        bad.write_text("t_start_s,sample_index\n0.0,0\n0.1,x\n")
        code = main(["render", "--bake", str(baked),
                     "--dry", str(workdir / "dry.wav"),
                     "--schedule", str(bad), "--out", str(workdir / "x.wav")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_bad_schedule_header(self, workdir, baked, capsys):
        bad = workdir / "bad_schedule.csv"
        bad.write_text("time,cluster\n0.0,0\n")
        code = main(["render", "--bake", str(baked),
                     "--dry", str(workdir / "dry.wav"),
                     "--schedule", str(bad), "--out", str(workdir / "x.wav")])
        assert code == 2
        assert "t_start_s,sample_index" in capsys.readouterr().err


class TestMfp:
    def test_cube_with_analytic_comparison(self, workdir, capsys):
        code = main(["mfp", "--scene", str(workdir / "cube.obj"),
                     "--source", "2.5,2.5,2.5", "--rays", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "traced mean free path" in out
        assert "analytic 4V/S: 3.3333 m" in out

    def test_open_scene_skips_analytic(self, workdir, capsys):
        code = main(["mfp", "--scene", str(workdir / "corridor.obj"),
                     "--source", "2.5,2.5,1.7", "--rays", "100"])
        assert code == 0
        assert "not watertight" in capsys.readouterr().out

    def test_dump_segments(self, workdir, capsys):
        dump = workdir / "segments.csv"
        main(["mfp", "--scene", str(workdir / "cube.obj"),
              "--source", "2.5,2.5,2.5", "--rays", "20", "--bounces", "5",
              "--dump-segments", str(dump)])
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "ray_index,bounce_index,length_m"
        assert len(lines) == 101

    def test_bad_source(self, workdir, capsys):
        code = main(["mfp", "--scene", str(workdir / "cube.obj"),
                     "--source", "2.5,2.5"])
        assert code == 2
        assert "x,y,z" in capsys.readouterr().err

    def test_nonfinite_source(self, workdir, capsys):
        code = main(["mfp", "--scene", str(workdir / "cube.obj"),
                     "--source", "nan,1,1"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("table, named", [
        ('{"materials": {"default": ["x", 0.1, 0.1, 0.1]}}', "'default'"),
        ('{"band_edges_hz": 5, "materials": {"default": [0.1]}}', "band_edges_hz"),
    ])
    def test_malformed_materials(self, workdir, capsys, table, named):
        mats = workdir / "bad_materials.json"
        mats.write_text(table)
        code = main(["mfp", "--scene", str(workdir / "cube.obj"),
                     "--materials", str(mats), "--source", "2.5,2.5,2.5"])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_negative_seed(self, workdir, capsys):
        code = main(["mfp", "--scene", str(workdir / "cube.obj"),
                     "--source", "2.5,2.5,2.5", "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err


class TestRt60:
    def test_sabine(self, workdir, capsys):
        code = main(["rt60", "--scene", str(workdir / "cube.obj"),
                     "--source", "2.5,2.5,2.5", "--mode", "sabine"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sabine" in out
        assert "broadband: 0.671 s" in out

    def test_eyring(self, workdir, capsys):
        code = main(["rt60", "--scene", str(workdir / "cube.obj"),
                     "--source", "2.5,2.5,2.5", "--mode", "eyring",
                     "--rays", "200", "--bounces", "20"])
        assert code == 0
        assert "eyring (traced mu" in capsys.readouterr().out

    def test_decay_with_edc_export(self, workdir, capsys):
        edc = workdir / "edc.csv"
        code = main(["rt60", "--scene", str(workdir / "cube.obj"),
                     "--source", "2.5,2.5,2.5", "--rays", "100",
                     "--bounces", "60", "--csv-edc", str(edc)])
        assert code == 0
        assert "decay regression" in capsys.readouterr().out
        assert edc.read_text().startswith("time_s,band0_db")

    def test_open_scene_sabine_fails_acoustically(self, workdir, capsys):
        code = main(["rt60", "--scene", str(workdir / "corridor.obj"),
                     "--source", "2.5,2.5,1.7", "--mode", "sabine"])
        assert code == 3
        assert "not closed" in capsys.readouterr().err

    def test_insufficient_decay_exit_code(self, workdir, capsys):
        code = main(["rt60", "--scene", str(workdir / "cube.obj"),
                     "--source", "2.5,2.5,2.5", "--rays", "50",
                     "--bounces", "5"])
        assert code == 3
        assert "insufficient decay" in capsys.readouterr().err


class TestValidate:
    def test_table1(self, workdir, capsys):
        csv = workdir / "table1.csv"
        code = main(["validate", "--suite", "table1", "--csv", str(csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "all shapes within tolerance" in out
        assert csv.read_text().count("\n") == 5

    def test_corridor_quick(self, workdir, capsys):
        code = main(["validate", "--suite", "corridor", "--threads", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "high-order traces: " in out


def test_version_flag(capsys):
    from echobake import __version__
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
