"""End-to-end acceptance checks, one test per shipping criterion.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line
per criterion. These are intentionally heavier than the unit tests:
they use production trace sizes and real scenes throughout.
"""

import time

import numpy as np
import pytest

from conftest import baked_map, random_rays
from measures import (DETECTION_INTERCEPT, DETECTION_SLOPE_PER_M,
                      detection_probability_er, edc_from_impulse_response)
from scalar_oracle import mismatches, scene_closest_hit

from echobake import pipeline, tracer
from echobake.acoustics import (mfp_analytic, rt60_from_decay, rt60_from_mfp,
                                rt60_sabine)
from echobake.audio_io import AudioBuffer
from echobake.perception import JND_ER_ABS_M, MU_REF_M, jnd_lr
from echobake.pipeline import (BakeConfig, _aperture_distance, bake,
                               corridor_fixture, run_corridor_validation,
                               run_mfp_validation)
from echobake.reverb import render_path
from echobake.scene import load_scene
from echobake.shapes import cube_obj, default_materials_json
from echobake.tracer import EnergyDecayCurve, TraceConfig, trace_energy_decay


@pytest.fixture(scope="module")
def corridor_run():
    t0 = time.perf_counter()
    report = run_corridor_validation(BakeConfig(threads=2), full=True)
    return report, time.perf_counter() - t0


def test_criterion_1_mean_free_path_accuracy(monkeypatch):
    # The suite runs the paper's trace, 500 rays of 20 bounces per shape,
    # against a 5% bound.
    configs, traced = [], pipeline.trace_segments

    def spy(scene, sources, config):
        configs.append(config)
        return traced(scene, sources, config)

    monkeypatch.setattr(pipeline, "trace_segments", spy)
    assert pipeline.MFP_TOLERANCE == 0.05
    report = run_mfp_validation(seed=0)
    assert configs == [TraceConfig(500, 20, 0)] * 4
    errors = {r.name: r.pct_error for r in report.rows}
    assert set(errors) == {"cube", "rect_prism", "square_pyramid",
                           "pillar_room"}
    assert all(e <= 5.0 for e in errors.values()), errors
    for name in ("cube", "rect_prism", "square_pyramid"):
        assert errors[name] <= 3.5, errors
    assert report.total_s < 10.0


def test_criterion_2_metric_constants():
    # The late-reverb threshold at the 2 m reference room: the exact
    # value of the defining arithmetic, indistinguishable from 0.02 m.
    assert jnd_lr(2.0) == 0.06 - 0.04
    assert abs(jnd_lr(2.0) - 0.02) < 1e-15

    p = detection_probability_er(2.06)
    assert 0.50 <= p.probability <= 0.52
    assert not p.extrapolated

    fifty = (0.5 - DETECTION_INTERCEPT) / DETECTION_SLOPE_PER_M - MU_REF_M
    assert 0.055 <= fifty <= 0.065
    assert abs(JND_ER_ABS_M - fifty) <= 0.005


def test_criterion_3_corridor_clustering(corridor_run):
    report, elapsed = corridor_run
    assert len(report.dominant) == 3
    assert report.coverage >= 0.80
    assert report.max_mu_deviation <= 0.015
    assert report.max_rt60_deviation is not None
    assert report.max_rt60_deviation <= 0.05
    assert elapsed < 120.0


def test_criterion_4_aperture_sensitivity(corridor_run):
    report, _ = corridor_run
    bakefile = report.bakefile
    near = [s.index for s in bakefile.samples
            if _aperture_distance(np.asarray(s.position)) <= 0.5]
    assert near, "no samples near an aperture; the check would be vacuous"
    for i in near:
        assert bakefile.cluster_map.cluster_of(i) not in report.dominant


def test_criterion_5_rt60_estimator_cross_check():
    for alpha in (0.1, 0.2, 0.4):
        scene = load_scene(cube_obj(5.0), default_materials_json(alpha))
        curve = trace_energy_decay(scene, (2.5, 2.5, 2.5),
                                   TraceConfig(500, 300, 0))
        traced = rt60_from_decay(curve).broadband
        eyring = rt60_from_mfp(mfp_analytic(125.0, 150.0), alpha)
        sabine = rt60_sabine(125.0, 150.0, alpha)
        assert abs(traced - eyring) / eyring <= 0.15, (alpha, traced, eyring)
        assert abs(traced - sabine) / sabine <= 0.20, (alpha, traced, sabine)

    for rt in (0.5, 1.0, 2.0):
        w = 1e-3
        t = (np.arange(int(3.0 * rt / w)) + 0.5) * w
        e = np.power(10.0, -6.0 * t / rt)
        est = rt60_from_decay(
            EnergyDecayCurve(w, e[:, None], (0.0, 22050.0)))
        assert abs(est.bands[0] - rt) / rt <= 0.02
        assert est.r_squared[0] > 0.999


def test_criterion_6_filter_round_trip():
    fs = 44100
    dry = np.zeros(1000)
    dry[0] = 1.0
    for rt in (0.5, 1.0, 2.0):
        out = render_path(AudioBuffer(fs, dry), baked_map([rt]), [(0.0, 0)])
        est = rt60_from_decay(edc_from_impulse_response(out.samples, fs))
        assert abs(est.bands[0] - rt) / rt <= 0.10, (rt, est.bands[0])


def test_criterion_7_precomputation_economy(corridor_run, monkeypatch):
    report, _ = corridor_run
    stats = report.stats
    assert stats.n_points == 60
    assert stats.n_clusters <= 12
    assert stats.lr_calls_saved == 60 - stats.n_clusters
    assert stats.t_lr_ms > stats.t_er_ms

    # Count the high-order traces a bake runs, where the pipeline calls
    # them: one per cluster, from the cluster's first point.
    sources = []
    real = pipeline.trace_energy_decay

    def counted(scene, source, *args):
        sources.append(tuple(source))
        return real(scene, source, *args)

    monkeypatch.setattr(pipeline, "trace_energy_decay", counted)
    scene, pts = corridor_fixture()
    bakefile, _ = bake(scene, pts, BakeConfig(threads=2))
    clusters = bakefile.cluster_map.clusters
    assert sources == [tuple(pts[c.start]) for c in clusters]
    assert bakefile.canonical_bytes() == report.bakefile.canonical_bytes()


def test_criterion_8_deterministic_bakes(corridor_run, monkeypatch):
    # The ER ray sets are traced on as many threads as the process has
    # CPUs: here one, three and two, against the module fixture's bake on
    # every CPU this process may use.
    report, _ = corridor_run
    scene, pts = corridor_fixture()
    monkeypatch.setattr(tracer, "_cpus", lambda: 1)
    single, _ = bake(scene, pts, BakeConfig(threads=1))
    monkeypatch.setattr(tracer, "_cpus", lambda: 3)
    triple, _ = bake(scene, pts, BakeConfig(threads=3))
    assert single.canonical_bytes() == triple.canonical_bytes()
    monkeypatch.setattr(tracer, "_cpus", lambda: 2)
    double, _ = bake(scene, pts)
    assert single.canonical_bytes() == double.canonical_bytes()
    # The module fixture baked the same inputs with threads=2.
    assert single.canonical_bytes() == report.bakefile.canonical_bytes()


def test_criterion_9_kernel_oracle_equivalence(cube_scene, pyramid_scene,
                                              pillar_scene, corridor_scene):
    # The batched kernel against the scalar reference that loops over every
    # triangle: same triangle, and t within T_TOLERANCE_M, for every ray.
    n = 100_000
    chunk = 5_000
    for scene in (cube_scene, pyramid_scene, pillar_scene, corridor_scene):
        origins, dirs = random_rays(scene, n, seed=2024)

        t = np.empty(n)
        idx = np.empty(n, dtype=np.int64)
        for c0 in range(0, n, chunk):
            c1 = c0 + chunk
            t[c0:c1], idx[c0:c1] = scene.batch_closest_hit(
                origins[c0:c1], dirs[c0:c1], 1e-4)

        t_ref, idx_ref = scene_closest_hit(scene, origins, dirs, 1e-4)
        assert mismatches(t, idx, t_ref, idx_ref) == 0, \
            f"{scene.n_triangles}-triangle scene"
