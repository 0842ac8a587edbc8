"""The benchmark harness's hold on the package, checked on one traced round.

`bench/child.py` wraps the pipeline's calls by their names in
`echobake.pipeline`'s module globals, and `bench/run.py` indexes the spans
those wrappers record. Only a traced run does this, so a pipeline that
stops calling `trace_segments`, `trace_energy_decay`, `mfp_from_trace`,
`rt60_from_decay` or `cluster_path` through those names, that stops calling
`BakeFile.to_json_bytes`, or that runs the kernel outside a trace, still
passes every untraced run but makes the traced one exit 1. This test runs
one traced round of the halls workload through the harness's own child
runner and layer readers.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from echobake.pipeline import BakeConfig, BakeFile
from echobake.scene import Scene, load_scene
from echobake.shapes import cube_obj, default_materials_json

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def halls_round(tmp_path_factory):
    """One round of halls seed 1: an untraced bake, a traced bake and a
    traced render of the untraced bake."""
    work = tmp_path_factory.mktemp("bench")
    inputs = workloads.prepare("halls", 1, ROOT, work)
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps(inputs.manifest()))
    plain = run._child(["bake", str(manifest), "1", "0"], work / "r0-bake1.json")
    traced = run._child(["bake", str(manifest), "1", "1"], work / "r0-bake1t.json")
    render = run._child(["render", str(manifest),
                         str(work / "r0-bake1.bake.json"), "1"],
                        work / "r0-render0.json")
    return work, {"bake1": plain, "bake2": plain, "bake1t": traced,
                  "rendert": render}


def _spans(child: dict) -> list[dict]:
    return json.loads(Path(child["spans"]).read_text())


def test_layer_readers_accept_the_spans(halls_round):
    work, rnd = halls_round
    bake = run._bake_layers(rnd["bake1t"], _spans(rnd["bake1t"]))
    render = run._render_layers(rnd["rendert"], _spans(rnd["rendert"]))
    n_clusters = BakeFile.from_json(
        (work / "r0-bake1.bake.json").read_text()).cluster_map.n_clusters
    assert bake["perception.clusters"][0] == n_clusters
    assert rnd["bake1t"]["lr_traces_counted"] == n_clusters
    assert rnd["bake1"]["lr_traces_counted"] == n_clusters
    assert bake["raycast.calls"][0] > 0
    assert render["reverb.out_samples"][0] > 0


def test_every_declared_layer_metric_is_reported(halls_round):
    _, rnd = halls_round
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    reported = run.per_layer([rnd])
    assert {m["name"] for m in declared} <= set(reported)


def test_tracing_leaves_the_bake_bytes_alone(halls_round):
    _, rnd = halls_round
    assert (rnd["bake1t"]["canonical_sha256"]
            == rnd["bake1"]["canonical_sha256"])


def test_children_import_the_checkout(halls_round):
    _, rnd = halls_round
    for child in rnd.values():
        assert child["echobake_file"].startswith(str(ROOT / "src"))


def test_calls_the_harness_makes_outside_the_pipeline():
    # bench/child.py builds its config with `threads` and times the kernel
    # through the class attribute, with its arguments by position.
    assert BakeConfig(seed=1, threads=2).threads == 2
    scene = load_scene(cube_obj(2.0), default_materials_json())
    o = np.full((3, 3), 1.0)
    d = np.eye(3)
    t, tri = Scene.batch_closest_hit(scene, o, d, 0.0)
    assert np.array_equal(t, np.ones(3))
    assert (tri >= 0).all()
