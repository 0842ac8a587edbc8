"""One timed bake or render, run as the first of its kind in a fresh process.

    python3 bench/child.py bake MANIFEST THREADS TRACE OUT_JSON
    python3 bench/child.py render MANIFEST BAKE_JSON TRACE OUT_JSON

Calls the package's public functions in the order `echobake bake` and
`echobake render` do. The timed operation runs once, right after the set-up
it needs; set-up is then repeated, after the operation so it cannot warm it,
to give a set-up time that repeats. With TRACE=1 the calls go through span
wrappers and the spans are written next to OUT_JSON.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import threading
import time
import warnings
import wave
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import echobake  # noqa: E402
from echobake import audio_io, pipeline, reverb, scene as scene_mod, tracer  # noqa: E402

SETUP_REPEATS = 15
KERNEL_REPEATS = 30
SPHERE_REPEATS = 5


def _rusage():
    return resource.getrusage(resource.RUSAGE_SELF)


def _read_path_csv(text: str) -> np.ndarray:
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != "x,y,z":
        raise ValueError("path CSV must start with header x,y,z")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]],
                    dtype=np.float64)


def _read_schedule_csv(text: str) -> list[tuple[float, int]]:
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != "t_start_s,sample_index":
        raise ValueError("schedule CSV must start with t_start_s,sample_index")
    rows = [ln.split(",") for ln in lines[1:]]
    return [(float(t), int(i)) for t, i in rows]


class _LrCounter:
    """Counts high-order traces where the pipeline calls them."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.count = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.count += 1
        return self.fn(*args, **kwargs)


def _instrument_bake(rec) -> None:
    w = rec.wrap
    scene_mod.parse_mesh = w("scene", "parse_mesh", scene_mod.parse_mesh)
    scene_mod.load_scene = w("scene", "load_scene", scene_mod.load_scene)
    pipeline.trace_segments = w("tracer", "trace_segments",
                                pipeline.trace_segments)
    pipeline.trace_energy_decay = w("tracer", "trace_energy_decay",
                                    pipeline.trace_energy_decay)
    pipeline.mfp_from_trace = w("acoustics", "mfp_from_trace",
                                pipeline.mfp_from_trace)
    pipeline.rt60_from_decay = w("acoustics", "rt60_from_decay",
                                 pipeline.rt60_from_decay)
    pipeline.cluster_path = w("perception", "cluster_path",
                              pipeline.cluster_path)
    pipeline.bake = w("pipeline", "bake", pipeline.bake)


def _instrument_scene(rec, scene) -> None:
    n_tri = scene.n_triangles

    def counts(args, result):
        rays = int(args[0].shape[0])
        return {"rays": rays, "tests": rays * n_tri,
                "misses": int(np.count_nonzero(result[1] < 0))}

    scene.batch_closest_hit = rec.wrap("raycast", "batch_closest_hit",
                                       scene.batch_closest_hit, counts)


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def run_bake(manifest: dict, threads: int, rec, bake_out: Path) -> dict:
    if rec is not None:
        _instrument_bake(rec)
    counter = _LrCounter(pipeline.trace_energy_decay)
    pipeline.trace_energy_decay = counter
    config = pipeline.BakeConfig(seed=manifest["bake_seed"], threads=threads)

    def setup():
        mesh = Path(manifest["mesh"]).read_text()
        mats = Path(manifest["materials"]).read_text()
        scene = scene_mod.load_scene(mesh, mats)
        return scene, _read_path_csv(Path(manifest["path_csv"]).read_text())

    t0 = time.perf_counter()
    scene, points = setup()
    setup_times = [time.perf_counter() - t0]
    if rec is not None:
        _instrument_scene(rec, scene)
    to_json = pipeline.BakeFile.to_json_bytes
    if rec is not None:
        to_json = rec.wrap("pipeline", "to_json_bytes", to_json)

    r0 = _rusage()
    t0 = time.perf_counter()
    bakefile, stats = pipeline.bake(scene, points, config)
    data = to_json(bakefile)
    bake_s = time.perf_counter() - t0
    r1 = _rusage()
    maxrss_mb = r1.ru_maxrss / 1024.0
    bake_out.write_bytes(data)

    if rec is not None:
        rec.phase = "repeat"
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setup()
        setup_times.append(time.perf_counter() - t0)

    out = {"bake_s": bake_s, "setup_s": setup_times, "maxrss_mb": maxrss_mb,
           "minor_faults": r1.ru_minflt - r0.ru_minflt,
           "sys_s": r1.ru_stime - r0.ru_stime,
           "lr_traces_counted": counter.count,
           "canonical_sha256": hashlib.sha256(
               bakefile.canonical_bytes()).hexdigest()}
    if rec is not None:
        # The workload's own first-bounce batch: every ray from the first
        # path point, in the directions the tracer draws for this seed.
        origins = np.tile(points[0], (config.er_rays, 1))
        dirs = np.array(tracer.sphere_directions(config.seed, config.er_rays))
        kernel = scene_mod.Scene.batch_closest_hit
        per_call = _median_time(lambda: kernel(scene, origins, dirs, 0.0),
                                KERNEL_REPEATS)
        out["kernel_ns_per_test"] = per_call * 1e9 / (
            config.er_rays * scene.n_triangles)
        uncached = tracer.sphere_directions.__wrapped__
        out["sphere_directions_ms"] = 1e3 * _median_time(
            lambda: uncached(config.seed, config.er_rays), SPHERE_REPEATS)
    return out


def _decode_wav_independently(data: bytes) -> np.ndarray:
    with wave.open(io.BytesIO(data), "rb") as r:
        frames = r.readframes(r.getnframes())
    return np.frombuffer(frames, dtype="<i2").astype(np.int64)


def run_render(manifest: dict, bake_json: Path, rec, out_json: Path) -> dict:
    from_json = pipeline.BakeFile.from_json
    wav_read, wav_write = audio_io.wav_read, audio_io.wav_write
    lookup, render_path = pipeline.lookup, reverb.render_path
    if rec is not None:
        from_json = rec.wrap("pipeline", "from_json", from_json)
        wav_read = rec.wrap("audio_io", "wav_read", wav_read)
        wav_write = rec.wrap("audio_io", "wav_write", wav_write)
        lookup = rec.wrap("pipeline", "lookup", lookup)
        render_path = rec.wrap(
            "reverb", "render_path", render_path,
            lambda args, result: {"out_samples": int(result.samples.size),
                                  "audio_s": args[0].duration_s})

    def setup():
        bakefile = from_json(bake_json.read_text())
        dry = wav_read(Path(manifest["dry_wav"]).read_bytes())
        entries = _read_schedule_csv(Path(manifest["schedule_csv"]).read_text())
        return bakefile, dry, entries

    t0 = time.perf_counter()
    bakefile, dry, entries = setup()
    setup_times = [time.perf_counter() - t0]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        schedule: list[tuple[float, int]] = []
        for t, sample_index in entries:
            cid = lookup(bakefile, index=sample_index).cluster_id
            if not schedule or schedule[-1][1] != cid:
                schedule.append((t, cid))
        out = render_path(dry, bakefile.cluster_map, schedule,
                          wet_dry_mix=manifest["mix"])
        wav = wav_write(out)
        render_s = time.perf_counter() - t0
    maxrss_mb = _rusage().ru_maxrss / 1024.0
    out_json.with_suffix(".wet.wav").write_bytes(wav)

    # Material for the parent's reference checks, saved untimed: the float
    # output up to just past the first cluster switch, and the tail after
    # the dry signal ends.
    fs = dry.sample_rate
    n_dry = dry.samples.size
    switch = int(round(schedule[1][0] * fs)) if len(schedule) > 1 else 0
    n_prefix = min(n_dry, switch + int(round(reverb.FADE_S * fs)) + fs // 20)
    np.save(out_json.with_suffix(".prefix.npy"), out.samples[:n_prefix])
    np.save(out_json.with_suffix(".tail.npy"), out.samples[n_dry:])
    ints = np.round(out.samples * 32767.0).astype(np.int64)
    wav_exact = bool(np.array_equal(_decode_wav_independently(wav), ints)
                     and np.array_equal(audio_io.wav_read(wav).samples,
                                         ints / 32767.0))

    if rec is not None:
        rec.phase = "repeat"
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setup()
        setup_times.append(time.perf_counter() - t0)

    return {"render_xrt": dry.duration_s / render_s,
            "setup_s": setup_times, "maxrss_mb": maxrss_mb,
            "schedule": schedule,
            "peak": out.peak(), "warnings": [str(w.message) for w in caught],
            "wav_round_trip_exact": wav_exact,
            "roundtrip_canonical_sha256": hashlib.sha256(
                bakefile.canonical_bytes()).hexdigest()}


def main(argv: list[str]) -> int:
    op = argv[0]
    manifest = json.loads(Path(argv[1]).read_text())
    if op == "bake":
        threads, trace, out_json = int(argv[2]), argv[3] == "1", Path(argv[4])
    else:
        bake_json, trace, out_json = Path(argv[2]), argv[3] == "1", Path(argv[4])
    rec = None
    if trace:
        from spans import Recorder
        rec = Recorder()
    if op == "bake":
        result = run_bake(manifest, threads, rec,
                          out_json.with_suffix(".bake.json"))
    else:
        result = run_render(manifest, bake_json, rec, out_json)
    result["echobake_file"] = echobake.__file__
    if rec is not None:
        spans_path = out_json.with_suffix(".spans.json")
        rec.dump(spans_path)
        result["spans"] = str(spans_path)
    out_json.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
