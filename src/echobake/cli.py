"""Command-line interface.

Subcommands cover the full workflow: `bake` a path against a scene,
`lookup` baked clusters, `render` audio through the baked reverb,
`mfp` and `rt60` for one-off measurements, and `validate` for the two
built-in verification suites. Exit codes: 0 success, 2 invalid input,
3 acoustically undefined result or failed validation.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from . import __version__
from .acoustics import (mfp_analytic, mfp_from_trace, decay_csv_text,
                        rt60_from_decay, rt60_from_mfp, rt60_sabine)
from .audio_io import wav_read, wav_write
from .errors import AcousticDomainError, EchobakeError, InputError, is_point
from .perception import cluster_csv_text
from .pipeline import (BakeConfig, BakeFile, bake, lookup, parse_path_csv,
                       run_corridor_validation, run_mfp_validation)
from .reverb import fold_schedule, render_path
from .scene import Scene, WatertightError, analytic_volume_and_area, load_scene
from .shapes import default_materials_json
from .tracer import TraceConfig, segments_csv_text, trace_energy_decay, trace_segments


def _read(path: str) -> str:
    try:
        return pathlib.Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_scene_args(args) -> Scene:
    mesh = _read(args.scene)
    materials = _read(args.materials) if args.materials else default_materials_json()
    return load_scene(mesh, materials)


def _parse_point(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"expected x,y,z - got {text!r}")
    try:
        point = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"bad coordinate in {text!r}: {exc}") from exc
    if not is_point(point):
        raise InputError(f"coordinates must be finite, got {text!r}")
    return point


def _read_schedule_csv(path: str) -> list[tuple[float, int]]:
    lines = _read(path).strip().splitlines()
    if not lines or lines[0].strip() != "t_start_s,sample_index":
        raise InputError(
            f"{path}: schedule CSV must start with header 't_start_s,sample_index'"
        )
    out = []
    for line_no, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2:
            raise InputError(
                f"{path}: line {line_no}: every row needs t_start_s,sample_index")
        try:
            out.append((float(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InputError(f"{path}: line {line_no}: {exc}") from exc
    if not out:
        raise InputError(f"{path}: schedule has no rows")
    return out


def _cmd_bake(args) -> int:
    scene = _load_scene_args(args)
    pts = parse_path_csv(_read(args.path), args.path)
    config = BakeConfig(seed=args.seed, er_rays=args.er_rays,
                        er_bounces=args.er_bounces, lr_rays=args.lr_rays,
                        lr_bounces=args.lr_bounces, jnd_mode=args.jnd_mode)
    bakefile, stats = bake(scene, pts, config)
    pathlib.Path(args.out).write_bytes(bakefile.to_json_bytes())
    print(f"baked {stats.n_points} points into {stats.n_clusters} clusters "
          f"({stats.lr_calls_saved} high-order traces saved)")
    print(f"mean trace time: low-order {stats.t_er_ms:.1f} ms/point, "
          f"high-order {stats.t_lr_ms:.1f} ms/cluster")
    print(f"high-order ray-bounces traced: {stats.lr_ray_bounces}")
    print(f"wrote {args.out}")
    if args.export_clusters:
        text = cluster_csv_text(list(bakefile.samples), bakefile.cluster_map)
        pathlib.Path(args.export_clusters).write_text(text)
        print(f"wrote {args.export_clusters}")
    return 0


def _cmd_lookup(args) -> int:
    bakefile = BakeFile.from_json(_read(args.bake))
    pos = None if args.pos is None else _parse_point(args.pos)
    res = lookup(bakefile, index=args.index, position=pos,
                 max_distance=args.radius)
    bands = " ".join(f"{b:.3f}" for b in res.rt60.bands)
    print(f"sample {res.sample_index} (distance {res.distance_m:.3f} m) "
          f"-> cluster {res.cluster_id}")
    print(f"rt60 per band: {bands} s (broadband {res.rt60.broadband:.3f} s)")
    return 0


def _cmd_render(args) -> int:
    bakefile = BakeFile.from_json(_read(args.bake))
    try:
        dry = wav_read(pathlib.Path(args.dry).read_bytes())
    except OSError as exc:
        raise InputError(f"cannot read {args.dry}: {exc}") from exc
    schedule = [(t, lookup(bakefile, index=sample_index).cluster_id)
                for t, sample_index in _read_schedule_csv(args.schedule)]
    out = render_path(dry, bakefile.cluster_map, schedule,
                      wet_dry_mix=args.mix)
    pathlib.Path(args.out).write_bytes(wav_write(out))
    segments = len(fold_schedule(schedule))
    print(f"rendered {out.duration_s:.2f} s ({segments} reverb "
          f"segment{'s' if segments != 1 else ''}) to {args.out}")
    return 0


def _cmd_mfp(args) -> int:
    scene = _load_scene_args(args)
    [result] = trace_segments(scene, [_parse_point(args.source)],
                              TraceConfig(args.rays, args.bounces, args.seed))
    mu = mfp_from_trace(result)
    print(f"traced mean free path: {mu:.4f} m ({result.n_segments} segments, "
          f"{int(result.escaped.sum())} rays escaped)")
    try:
        volume, area = analytic_volume_and_area(scene)
    except WatertightError:
        print("scene is not watertight; no analytic value to compare")
    else:
        mu_an = mfp_analytic(volume, area)
        print(f"analytic 4V/S: {mu_an:.4f} m "
              f"(error {100 * abs(mu - mu_an) / mu_an:.2f}%)")
    if args.dump_segments:
        pathlib.Path(args.dump_segments).write_text(segments_csv_text(result))
        print(f"wrote {args.dump_segments}")
    return 0


def _cmd_rt60(args) -> int:
    scene = _load_scene_args(args)
    alphas = scene.mean_absorption()
    if args.mode == "sabine":
        volume, area = analytic_volume_and_area(scene)
        bands = [rt60_sabine(volume, area, float(a)) for a in alphas]
        label = "sabine"
    elif args.mode == "eyring":
        [result] = trace_segments(
            scene, [_parse_point(args.source)],
            TraceConfig(args.rays, args.bounces, args.seed))
        mu = mfp_from_trace(result)
        bands = [rt60_from_mfp(mu, float(a)) for a in alphas]
        label = f"eyring (traced mu {mu:.3f} m)"
    else:
        curve = trace_energy_decay(
            scene, _parse_point(args.source),
            TraceConfig(args.rays, args.bounces, args.seed))
        est = rt60_from_decay(curve)
        bands = list(est.bands)
        label = "decay regression, r^2 " + " ".join(
            f"{r:.4f}" for r in est.r_squared)
        if args.csv_edc:
            pathlib.Path(args.csv_edc).write_text(decay_csv_text(curve))
            print(f"wrote {args.csv_edc}")
    joined = " ".join(f"{b:.3f}" for b in bands)
    print(f"rt60 per band ({label}): {joined} s")
    print(f"broadband: {sum(bands) / len(bands):.3f} s")
    return 0


def _cmd_validate(args) -> int:
    if args.suite == "table1":
        report = run_mfp_validation(seed=args.seed)
        print(f"{'shape':16s} {'mu_an':>8s} {'mu_er':>8s} {'error':>7s}")
        for r in report.rows:
            print(f"{r.name:16s} {r.mu_analytic:8.4f} {r.mu_traced:8.4f} "
                  f"{r.pct_error:6.2f}%")
        print(f"all shapes within tolerance ({report.total_s:.2f} s)")
        if args.csv:
            pathlib.Path(args.csv).write_text(report.csv_text())
            print(f"wrote {args.csv}")
    else:
        config = BakeConfig(seed=args.seed)
        report = run_corridor_validation(config, full=args.full)
        for line in report.checks:
            print(line)
        stats = report.stats
        print(f"high-order traces: {stats.n_clusters} for "
              f"{stats.n_points} points ({stats.lr_calls_saved} saved)")
        if args.csv:
            text = cluster_csv_text(list(report.bakefile.samples),
                                    report.bakefile.cluster_map)
            pathlib.Path(args.csv).write_text(text)
            print(f"wrote {args.csv}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echobake",
        description="bake, inspect, and render clustered late reverberation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scene(p, source_required=True):
        p.add_argument("--scene", required=True, help="OBJ mesh file")
        p.add_argument("--materials",
                       help="JSON material table (default: uniform 0.2)")
        if source_required:
            p.add_argument("--source", required=True, help="x,y,z in metres")

    def add_trace(p, rays=500, bounces=20):
        p.add_argument("--rays", type=int, default=rays)
        p.add_argument("--bounces", type=int, default=bounces)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bake", help="precompute clustered RT60 along a path")
    add_scene(p, source_required=False)
    p.add_argument("--path", required=True, help="CSV with header x,y,z")
    p.add_argument("--out", required=True, help="output bake JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jnd-mode", choices=("relative", "absolute"),
                   default="relative")
    p.add_argument("--er-rays", type=int, default=500)
    p.add_argument("--er-bounces", type=int, default=20)
    p.add_argument("--lr-rays", type=int, default=500)
    p.add_argument("--lr-bounces", type=int, default=300)
    p.add_argument("--export-clusters", help="also write per-sample CSV")
    p.set_defaults(fn=_cmd_bake)

    p = sub.add_parser("lookup", help="query a bake file")
    p.add_argument("--bake", required=True)
    p.add_argument("--index", type=int)
    p.add_argument("--pos", help="x,y,z in metres")
    p.add_argument("--radius", type=float, default=1.0,
                   help="coverage limit for position lookups")
    p.set_defaults(fn=_cmd_lookup)

    p = sub.add_parser("render", help="reverberate audio along a schedule")
    p.add_argument("--bake", required=True)
    p.add_argument("--dry", required=True, help="input WAV (16-bit mono)")
    p.add_argument("--schedule", required=True,
                   help="CSV with header t_start_s,sample_index")
    p.add_argument("--out", required=True, help="output WAV")
    p.add_argument("--mix", type=float, default=1.0,
                   help="wet/dry mix in [0,1]")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("mfp", help="trace the mean free path at a point")
    add_scene(p)
    add_trace(p)
    p.add_argument("--dump-segments", help="write per-segment CSV")
    p.set_defaults(fn=_cmd_mfp)

    p = sub.add_parser("rt60", help="estimate reverberation time")
    add_scene(p)
    p.add_argument("--mode", choices=("sabine", "eyring", "decay"),
                   default="decay")
    add_trace(p, bounces=300)
    p.add_argument("--csv-edc", help="write the decay curve as CSV")
    p.set_defaults(fn=_cmd_rt60)

    p = sub.add_parser("validate", help="run a verification suite")
    p.add_argument("--suite", choices=("table1", "corridor"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true",
                   help="corridor: also verify pointwise RT60")
    p.add_argument("--csv", help="write the report as CSV")
    p.set_defaults(fn=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AcousticDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EchobakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
