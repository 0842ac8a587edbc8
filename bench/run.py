"""Cold-process bake and render benchmark for echobake.

    python3 bench/run.py --workload corridor|halls --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. The run makes the workload's inputs from the seed, then
repeats whole rounds until S seconds have passed. A round is four fresh
processes: a bake at threads=1, a bake at threads=2, and two renders of the
threads=1 bake. With --trace 1 a round also runs a traced bake and a traced
render, which give the per-layer metrics. After the rounds, the outputs are
checked against references the benchmark computes itself. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 60
# A render is cheap next to a bake and its time varies more, so each round
# renders twice.
RENDERS_PER_ROUND = 2


def _child(args: list[str], out_json: Path) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), *args, str(out_json)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:1])} failed:\n{proc.stderr}")
    return json.loads(out_json.read_text())


def _round(k: int, manifest: Path, work: Path, trace: bool) -> dict:
    """One round of fresh processes, keyed by role."""
    bake_json = work / f"r{k}-bake1.bake.json"
    jobs = {"bake1": ["bake", str(manifest), "1", "0"],
            "bake2": ["bake", str(manifest), "2", "0"]}
    for j in range(RENDERS_PER_ROUND):
        jobs[f"render{j}"] = ["render", str(manifest), str(bake_json), "0"]
    if trace:
        jobs["bake1t"] = ["bake", str(manifest), "1", "1"]
        jobs["rendert"] = ["render", str(manifest), str(bake_json), "1"]
    return {name: _child(args, work / f"r{k}-{name}.json")
            for name, args in jobs.items()}


def _renders(r: dict) -> list[dict]:
    return [r[f"render{j}"] for j in range(RENDERS_PER_ROUND)]


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(rounds: list[dict]) -> dict:
    bake_setup = [t for r in rounds for b in ("bake1", "bake2")
                  for t in r[b]["setup_s"]]
    render_setup = [t for r in rounds for c in _renders(r)
                    for t in c["setup_s"]]
    return {
        "setup_s": (_median(bake_setup) + _median(render_setup), "s"),
        "bake_s": (_median(r["bake1"]["bake_s"] for r in rounds), "s"),
        "render_xrt": (_median(c["render_xrt"] for r in rounds
                               for c in _renders(r)), "x_realtime"),
        "peak_rss_mb": (_median(max(c["maxrss_mb"] for c in r.values())
                                for r in rounds), "MB"),
    }


def _bake_layers(child: dict, spans: list[dict]) -> dict:
    from spans import self_ms_by_layer
    by_id = {s["id"]: s for s in spans}
    op = [s for s in spans if s["phase"] == "op"]

    def named(name, within=op):
        return [s for s in within if s["name"] == name]

    def ms(s):
        return (s["end"] - s["start"]) / 1e6

    bake = named("bake")[0]
    cluster = named("cluster_path")[0]
    loads = named("load_scene", spans)
    parses = {s["parent"]: s for s in named("parse_mesh", spans)}
    rays = named("batch_closest_hit")
    er = named("trace_segments")
    lr = named("trace_energy_decay")

    def bounces(kind):
        return sum(s["rays"] for s in rays
                   if by_id[s["parent"]]["name"] == kind)

    out = {
        "scene.parse_ms": (_median(ms(parses[s["id"]]) for s in loads), "ms"),
        "scene.build_ms": (_median(ms(s) - ms(parses[s["id"]])
                                   for s in loads), "ms"),
        "raycast.ns_per_test": (child["kernel_ns_per_test"], "ns"),
        "raycast.calls": (len(rays), "count"),
        "raycast.tests": (sum(s["tests"] for s in rays), "count"),
        "raycast.misses": (sum(s["misses"] for s in rays), "count"),
        "tracer.er_ms_per_point": (sum(map(ms, er)) / len(er), "ms"),
        "tracer.lr_ms_per_cluster": (sum(map(ms, lr)) / len(lr), "ms"),
        "tracer.er_ray_bounces": (bounces("trace_segments"), "count"),
        "tracer.lr_ray_bounces": (bounces("trace_energy_decay"), "count"),
        "tracer.sphere_directions_ms": (child["sphere_directions_ms"], "ms"),
        "acoustics.mfp_ms": (_median(map(ms, named("mfp_from_trace"))), "ms"),
        "acoustics.rt60_fit_ms": (_median(map(ms, named("rt60_from_decay"))),
                                  "ms"),
        "perception.cluster_ms": (ms(cluster), "ms"),
        "perception.clusters": (len(lr), "count"),
        "pipeline.er_stage_s": ((cluster["start"] - bake["start"]) / 1e9, "s"),
        "pipeline.lr_stage_s": ((bake["end"] - cluster["end"]) / 1e9, "s"),
        "pipeline.to_json_ms": (ms(named("to_json_bytes")[0]), "ms"),
    }
    for layer, v in self_ms_by_layer(spans).items():
        out[f"{layer}.self_ms"] = (v, "ms")
    return out


def _render_layers(child: dict, spans: list[dict]) -> dict:
    from spans import self_ms_by_layer

    def durs(name, phase=None):
        return [(s["end"] - s["start"]) / 1e6 for s in spans
                if s["name"] == name and phase in (None, s["phase"])]

    render = next(s for s in spans if s["name"] == "render_path")
    out = {
        "pipeline.from_json_ms": (_median(durs("from_json")), "ms"),
        "pipeline.lookup_us": (1e3 * statistics.fmean(durs("lookup", "op")),
                               "us"),
        "reverb.ms_per_audio_s": ((render["end"] - render["start"]) / 1e6
                                  / render["audio_s"], "ms/s"),
        "reverb.out_samples": (render["out_samples"], "count"),
        "audio_io.wav_read_ms": (_median(durs("wav_read")), "ms"),
        "audio_io.wav_write_ms": (_median(durs("wav_write", "op")), "ms"),
    }
    for layer, v in self_ms_by_layer(spans).items():
        out[f"{layer}.self_ms"] = (v, "ms")
    return out


def per_layer(rounds: list[dict]) -> dict:
    """Medians over rounds of each layer metric from the traced processes."""
    per_round = []
    for r in rounds:
        bake, render = r["bake1t"], r["rendert"]
        b = _bake_layers(bake, json.loads(Path(bake["spans"]).read_text()))
        rd = _render_layers(render,
                            json.loads(Path(render["spans"]).read_text()))
        merged = {**b, **rd}
        for key in set(b) & set(rd):   # self time of a layer in both
            merged[key] = (b[key][0] + rd[key][0], "ms")
        merged["pipeline.minor_faults"] = (r["bake1"]["minor_faults"], "count")
        merged["pipeline.sys_s"] = (r["bake1"]["sys_s"], "s")
        merged["pipeline.threads2_s"] = (r["bake2"]["bake_s"], "s")
        merged["trace.overhead_s"] = (bake["bake_s"] - r["bake1"]["bake_s"],
                                      "s")
        per_round.append(merged)
    return {k: (_median(m[k][0] for m in per_round), per_round[0][k][1])
            for k in sorted(per_round[0])}


def check(inputs, rounds: list[dict], work: Path, trace: bool) -> list[str]:
    import numpy as np
    import checks

    bad = []
    first = rounds[0]["bake1"]
    for k, r in enumerate(rounds):
        for b in ("bake1", "bake2") + (("bake1t",) if trace else ()):
            if r[b]["canonical_sha256"] != first["canonical_sha256"]:
                bad.append(f"round {k} {b}: canonical_bytes() differ from "
                           "round 0 threads=1")
        for name, child in r.items():
            if not child["echobake_file"].startswith(str(ROOT / "src")):
                bad.append(f"{name} imported {child['echobake_file']}")
    doc = checks.load_bake(work / "r0-bake1.bake.json")
    bad += checks.clustering(doc, inputs, [r[b]["lr_traces_counted"]
                                           for r in rounds
                                           for b in ("bake1", "bake2")])
    if inputs.workload == "halls":
        bad += checks.halls(doc, inputs)
    stem = work / f"r{len(rounds) - 1}-render0"
    bad += checks.render(doc, inputs, rounds[-1]["render0"],
                         np.load(stem.with_suffix(".prefix.npy")),
                         np.load(stem.with_suffix(".tail.npy")),
                         first["canonical_sha256"])
    return bad


def machine() -> dict:
    import os
    import numpy as np
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        ref = head.removeprefix("ref: ")
        sha = (ROOT / ".git" / ref).read_text().strip() if ref != head \
            else head
    except OSError:
        sha = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": sha,
            "machine": platform.machine()}


def main(argv=None) -> int:
    from workloads import WORKLOADS, prepare

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "echobake" / "__init__.py").is_file():
        print(f"error: no echobake source under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = prepare(args.workload, args.seed, ROOT, work)
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps(inputs.manifest()))

    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        rounds.append(_round(len(rounds), manifest, work, bool(args.trace)))
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds:
            break

    bad = check(inputs, rounds, work, bool(args.trace))
    metrics = (per_layer(rounds) if args.trace
               else end_to_end(rounds))
    report = {"workload": args.workload, "seed": args.seed,
              "rounds": len(rounds), "measured_s": elapsed,
              "machine": machine(), "failures": bad,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (work / "result.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report["machine"]))
    for line in bad:
        print(f"CHECK FAILED: {line}")
    for k, (v, u) in metrics.items():
        print(f"{k:32s} {v:14.6g} {u}")
    print(json.dumps({"correct": not bad,
                      "attempted": sum(map(len, rounds)),
                      "failed": 0,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
