"""Bake, lookup, and validation orchestration.

The bake walks a listener path: a cheap low-order trace per point yields
the mean free path profile, perceptual clustering collapses the path into
a handful of regions, and only one expensive high-order decay simulation
runs per region. The result is persisted as a versioned JSON document so
lookups and rendering never re-trace anything.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import __version__
from .acoustics import Rt60Estimate, mfp_analytic, mfp_from_trace, rt60_from_decay
from .errors import EchobakeError, InputError, ValidationFailure
from .perception import (DEFAULT_JND, Cluster, ClusterMap, JndConstants,
                         PathSample, cluster_path)
from .scene import Scene, analytic_volume_and_area, load_scene
from .shapes import corridor_aperture_planes, validation_shapes
from .tracer import TraceConfig, trace_energy_decay, trace_segments

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class BakeConfig:
    """Trace sizes and clustering choices for one bake.

    `threads` only controls execution; it is deliberately absent from the
    persisted file because it cannot change any output value.
    """

    seed: int = 0
    er_rays: int = 500
    er_bounces: int = 20
    lr_rays: int = 500
    lr_bounces: int = 300
    jnd_mode: str = "relative"
    cluster_reference: str = "first"
    speed_of_sound: float = 343.0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise InputError("threads must be at least 1")

    def er_trace_config(self) -> TraceConfig:
        return TraceConfig(self.er_rays, self.er_bounces, self.seed,
                           self.speed_of_sound)

    def lr_trace_config(self) -> TraceConfig:
        return TraceConfig(self.lr_rays, self.lr_bounces, self.seed,
                           self.speed_of_sound)


@dataclass(frozen=True)
class BakeStats:
    """Execution metrics; never serialized, wall-clock times vary."""

    n_points: int
    n_clusters: int
    t_er_ms: float
    t_lr_ms: float
    lr_traces_run: int

    @property
    def lr_calls_saved(self) -> int:
        return self.n_points - self.n_clusters

    def __post_init__(self) -> None:
        if self.n_clusters < 1 or self.lr_calls_saved < 0:
            raise InputError("invalid bake stats")


@dataclass(frozen=True)
class BakeFile:
    """Persisted bake: samples, clusters with RT60, and provenance."""

    scene_fingerprint: str
    band_edges_hz: tuple[float, ...]
    config: BakeConfig
    samples: tuple[PathSample, ...]
    cluster_map: ClusterMap
    tool_version: str = __version__
    created_utc: str = ""

    def __post_init__(self) -> None:
        if self.cluster_map.n_clusters > len(self.samples):
            raise InputError("more clusters than samples")
        n_bands = len(self.band_edges_hz) - 1
        for i, c in enumerate(self.cluster_map.clusters):
            if c.rt60_bands is None or c.r_squared is None:
                raise InputError(f"cluster {i} is missing its RT60 estimate")
            if len(c.rt60_bands) != n_bands or len(c.r_squared) != n_bands:
                raise InputError(
                    f"cluster {i}: expected {n_bands} rt60_bands and r_squared "
                    f"values, got {len(c.rt60_bands)} and {len(c.r_squared)}"
                )
            if not all(isinstance(rt, (int, float)) and math.isfinite(rt)
                       and rt > 0.0 for rt in c.rt60_bands):
                raise InputError(
                    f"cluster {i}: every RT60 must be finite and positive, "
                    f"got {list(c.rt60_bands)}"
                )

    def _payload(self, with_timestamp: bool) -> dict:
        cfg = dataclasses.asdict(self.config)
        del cfg["threads"]
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "scene_fingerprint": self.scene_fingerprint,
            "band_edges_hz": list(self.band_edges_hz),
            "config": cfg,
            "jnd_mode": self.cluster_map.mode,
            "cluster_reference": self.cluster_map.reference,
            "samples": [
                {"index": s.index, "position": list(s.position),
                 "mu": s.mu, "mu_source": s.mu_source}
                for s in self.samples
            ],
            "clusters": [
                {"start": c.start, "stop": c.stop, "mu_ref": c.mu_ref,
                 "mu_mean": c.mu_mean, "jnd_threshold_m": c.jnd_threshold_m,
                 "rt60_bands": list(c.rt60_bands),
                 "r_squared": list(c.r_squared),
                 "lr_position": list(c.lr_position)}
                for c in self.cluster_map.clusters
            ],
        }
        if with_timestamp:
            doc["created_utc"] = self.created_utc
        return doc

    def to_json_bytes(self) -> bytes:
        return json.dumps(self._payload(True), sort_keys=True,
                          indent=2).encode() + b"\n"

    def canonical_bytes(self) -> bytes:
        """Serialization with the timestamp excluded, for equality checks."""
        return json.dumps(self._payload(False), sort_keys=True,
                          indent=2).encode() + b"\n"

    def rt60_of_cluster(self, cluster_id: int) -> Rt60Estimate:
        c = self.cluster_map.clusters[cluster_id]
        return Rt60Estimate(tuple(c.rt60_bands), "decay_regression",
                            tuple(c.r_squared))

    @classmethod
    def from_json(cls, data: bytes | str) -> "BakeFile":
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise InputError(f"bake file is not valid JSON: {exc}") from exc
        try:
            if doc["schema_version"] != SCHEMA_VERSION:
                raise InputError(
                    f"unsupported bake schema {doc['schema_version']}"
                )
            config = BakeConfig(**doc["config"])
            samples = tuple(
                PathSample(s["index"], tuple(s["position"]), s["mu"],
                           s["mu_source"])
                for s in doc["samples"]
            )
            clusters = tuple(
                Cluster(c["start"], c["stop"], c["mu_ref"], c["mu_mean"],
                        c["jnd_threshold_m"], tuple(c["rt60_bands"]),
                        tuple(c["r_squared"]), tuple(c["lr_position"]))
                for c in doc["clusters"]
            )
            cmap = ClusterMap(clusters, len(samples), doc["jnd_mode"],
                              doc["cluster_reference"])
            return cls(doc["scene_fingerprint"],
                       tuple(doc["band_edges_hz"]), config, samples, cmap,
                       doc["tool_version"], doc.get("created_utc", ""))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bake file is missing fields: {exc}") from exc


def _prefixed(exc: EchobakeError, prefix: str) -> EchobakeError:
    return exc.__class__(f"{prefix}: {exc}")


class _Counter:
    """Thread-safe call counter used to audit LR trace economy."""

    def __init__(self) -> None:
        import threading
        self._lock = threading.Lock()
        self.count = 0

    def bump(self) -> None:
        with self._lock:
            self.count += 1


def bake(scene: Scene, positions, config: BakeConfig = BakeConfig(),
         constants: JndConstants = DEFAULT_JND) -> tuple[BakeFile, BakeStats]:
    """Precompute clustered late-reverb data along a listener path.

    Every point gets one low-order trace; every cluster gets exactly one
    high-order trace (asserted by an instrumented counter). All points
    share one trace configuration, so neighbouring points see identical
    ray directions and their mean free paths differ only through
    geometry, not sampling noise.
    """
    pts = np.asarray(positions, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise InputError("positions must be a non-empty (n, 3) array")
    n = pts.shape[0]
    er_cfg = config.er_trace_config()
    lr_cfg = config.lr_trace_config()

    def er_worker(i: int) -> tuple[float, float]:
        t0 = time.perf_counter()
        try:
            mu = mfp_from_trace(trace_segments(scene, pts[i], er_cfg)).mean_free_path
        except EchobakeError as exc:
            raise _prefixed(exc, f"point {i}") from exc
        return mu, (time.perf_counter() - t0) * 1000.0

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        er_results = list(pool.map(er_worker, range(n)))
    mus = [r[0] for r in er_results]
    t_er_ms = sum(r[1] for r in er_results) / n

    samples = tuple(
        PathSample(i, (float(pts[i, 0]), float(pts[i, 1]), float(pts[i, 2])),
                   mus[i])
        for i in range(n)
    )
    cmap = cluster_path(samples, constants, mode=config.jnd_mode,
                        reference=config.cluster_reference)

    counter = _Counter()

    def lr_worker(ci: int) -> tuple[Cluster, float]:
        c = cmap.clusters[ci]
        src = pts[c.start]
        t0 = time.perf_counter()
        counter.bump()
        try:
            est = rt60_from_decay(trace_energy_decay(scene, src, lr_cfg))
        except EchobakeError as exc:
            raise _prefixed(
                exc, f"cluster {ci} (source point {c.start})") from exc
        enriched = dataclasses.replace(
            c, rt60_bands=tuple(est.bands), r_squared=tuple(est.r_squared),
            lr_position=(float(src[0]), float(src[1]), float(src[2])))
        return enriched, (time.perf_counter() - t0) * 1000.0

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        lr_results = list(pool.map(lr_worker, range(cmap.n_clusters)))
    if counter.count != cmap.n_clusters:
        raise EchobakeError(
            f"ran {counter.count} high-order traces for "
            f"{cmap.n_clusters} clusters"
        )
    t_lr_ms = sum(r[1] for r in lr_results) / cmap.n_clusters
    enriched_map = ClusterMap(tuple(r[0] for r in lr_results), n,
                              cmap.mode, cmap.reference)

    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    bakefile = BakeFile(scene.fingerprint, scene.bands.edges_hz, config,
                        samples, enriched_map, __version__, stamp)
    stats = BakeStats(n, cmap.n_clusters, t_er_ms, t_lr_ms, counter.count)
    return bakefile, stats


@dataclass(frozen=True)
class LookupResult:
    cluster_id: int
    rt60: Rt60Estimate
    sample_index: int
    distance_m: float


def lookup(bakefile: BakeFile, index: int | None = None,
           position=None, max_distance: float = 1.0) -> LookupResult:
    """Find the cluster owning a baked sample, by index or by proximity.

    Position lookups snap to the nearest baked sample and report the
    distance; beyond `max_distance` the query is outside the baked
    coverage and refused.
    """
    if (index is None) == (position is None):
        raise InputError("provide exactly one of index or position")
    if index is not None:
        if not 0 <= index < len(bakefile.samples):
            raise InputError(
                f"sample index {index} out of range 0..{len(bakefile.samples) - 1}"
            )
        si, dist = index, 0.0
    else:
        p = np.asarray(position, dtype=np.float64)
        coords = np.array([s.position for s in bakefile.samples])
        d = np.sqrt(((coords - p) ** 2).sum(axis=1))
        si = int(np.argmin(d))
        dist = float(d[si])
        if dist > max_distance:
            raise InputError(
                f"position is {dist:.2f} m from the nearest baked sample, "
                f"beyond the {max_distance:.2f} m coverage limit"
            )
    cid = bakefile.cluster_map.cluster_of(si)
    return LookupResult(cid, bakefile.rt60_of_cluster(cid), si, dist)


def direct_sound_gain(scene: Scene, source, listener) -> float:
    """Inverse-distance gain, zero when a surface blocks the segment.

    The distance is floored at 0.1 m so near-coincident points cannot
    produce unbounded gain.
    """
    s = np.asarray(source, dtype=np.float64)
    p = np.asarray(listener, dtype=np.float64)
    delta = p - s
    dist = float(np.sqrt((delta * delta).sum()))
    if dist < 1e-9:
        raise InputError("source and listener coincide")
    hit = scene.intersect(s, delta / dist)
    if hit is not None and hit.t < dist - 1e-6:
        return 0.0
    return 1.0 / max(dist, 0.1)


# Validation suites ---------------------------------------------------------


@dataclass(frozen=True)
class MfpRow:
    name: str
    mu_analytic: float
    mu_traced: float
    pct_error: float
    n_segments: int
    elapsed_ms: float


@dataclass(frozen=True)
class MfpReport:
    rows: tuple[MfpRow, ...]
    total_s: float

    def csv_text(self) -> str:
        lines = ["shape,mu_analytic_m,mu_traced_m,pct_error,n_segments"]
        for r in self.rows:
            lines.append(f"{r.name},{r.mu_analytic!r},{r.mu_traced!r},"
                         f"{r.pct_error:.4f},{r.n_segments}")
        return "\n".join(lines) + "\n"


def run_mfp_validation(n_rays: int = 500, n_bounces: int = 20,
                       seed: int = 0, tolerance: float = 0.05) -> MfpReport:
    """Trace the four analytic shapes and compare against 4V/S.

    Raises ValidationFailure if any shape's traced mean free path misses
    the analytic value by more than `tolerance`.
    """
    from .shapes import default_materials_json
    mats = default_materials_json()
    rows: list[MfpRow] = []
    failures: list[str] = []
    t_start = time.perf_counter()
    for fixture in validation_shapes():
        scene = load_scene(fixture.mesh_text, mats)
        volume, area = analytic_volume_and_area(scene)
        mu_an = mfp_analytic(volume, area)
        t0 = time.perf_counter()
        est = mfp_from_trace(trace_segments(
            scene, fixture.source, TraceConfig(n_rays, n_bounces, seed)))
        elapsed = (time.perf_counter() - t0) * 1000.0
        err = est.relative_error(mu_an)
        rows.append(MfpRow(fixture.name, mu_an, est.mean_free_path,
                           100.0 * err, est.n_segments, elapsed))
        if err > tolerance:
            failures.append(f"{fixture.name}: {100 * err:.2f}%")
    report = MfpReport(tuple(rows), time.perf_counter() - t_start)
    if failures:
        raise ValidationFailure(
            "mean free path error beyond "
            f"{100 * tolerance:.1f}%: {', '.join(failures)}"
        )
    return report


def _fixture_text(name: str) -> str:
    return resources.files("echobake.fixtures").joinpath(name).read_text()


def parse_path_csv(text: str, source: str) -> np.ndarray:
    """Parse a listener path: header ``x,y,z``, then one point per row.

    Returns an (n, 3) float64 array with n >= 1. `source` names the input
    in errors. Raises InputError naming the offending line.
    """
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != "x,y,z":
        raise InputError(f"{source}: path CSV must start with header 'x,y,z'")
    if len(lines) == 1:
        raise InputError(f"{source}: path CSV has no points")
    pts = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 3:
            raise InputError(
                f"{source}: line {line_no}: every row needs exactly x,y,z")
        try:
            point = [float(v) for v in fields]
        except ValueError as exc:
            raise InputError(f"{source}: line {line_no}: {exc}") from exc
        if not all(math.isfinite(v) for v in point):
            raise InputError(
                f"{source}: line {line_no}: coordinates must be finite")
        pts.append(point)
    return np.array(pts, dtype=np.float64)


def corridor_fixture() -> tuple[Scene, np.ndarray]:
    """The in-repo three-room corridor scene and its 60-point path."""
    scene = load_scene(_fixture_text("corridor.obj"),
                       _fixture_text("corridor_materials.json"))
    return scene, parse_path_csv(_fixture_text("corridor_path.csv"),
                                 "corridor_path.csv")


def _aperture_distance(point: np.ndarray) -> float:
    best = float("inf")
    for x, (y0, y1), (z0, z1) in corridor_aperture_planes():
        dx = point[0] - x
        dy = max(y0 - point[1], 0.0, point[1] - y1)
        dz = max(z0 - point[2], 0.0, point[2] - z1)
        best = min(best, float(np.sqrt(dx * dx + dy * dy + dz * dz)))
    return best


@dataclass(frozen=True)
class CorridorReport:
    bakefile: BakeFile
    stats: BakeStats
    dominant: tuple[int, ...]
    coverage: float
    max_mu_deviation: float
    max_rt60_deviation: float | None
    checks: tuple[str, ...]


def run_corridor_validation(config: BakeConfig = BakeConfig(),
                            full: bool = False,
                            max_clusters: int = 12,
                            min_coverage: float = 0.8,
                            mu_flatness: float = 0.015,
                            rt60_tolerance: float = 0.05,
                            aperture_radius: float = 0.5) -> CorridorReport:
    """Bake the corridor fixture and check the clustering properties.

    Verifies that three dominant clusters cover most of the path, that
    the mean free path is flat inside each, and that samples close to a
    doorway never land in a dominant cluster. With `full`, additionally
    traces every dominant-cluster member at high order and compares the
    pointwise RT60 against the cluster value.

    Raises ValidationFailure listing every violated check.
    """
    scene, pts = corridor_fixture()
    bakefile, stats = bake(scene, pts, config)
    cmap = bakefile.cluster_map
    failures: list[str] = []
    checks: list[str] = []

    if cmap.n_clusters > max_clusters:
        failures.append(f"{cmap.n_clusters} clusters exceed {max_clusters}")
    checks.append(f"clusters: {cmap.n_clusters} (limit {max_clusters})")

    dominant = cmap.dominant(3)
    covered = sum(cmap.clusters[i].size for i in dominant)
    coverage = covered / len(bakefile.samples)
    if coverage < min_coverage:
        failures.append(f"dominant coverage {coverage:.1%} below "
                        f"{min_coverage:.0%}")
    checks.append(f"dominant coverage: {coverage:.1%} "
                  f"(minimum {min_coverage:.0%})")

    max_dev = 0.0
    for ci in dominant:
        c = cmap.clusters[ci]
        for s in bakefile.samples[c.start:c.stop]:
            max_dev = max(max_dev, abs(s.mu - c.mu_mean) / c.mu_mean)
    if max_dev > mu_flatness:
        failures.append(f"in-cluster mu deviation {max_dev:.2%} above "
                        f"{mu_flatness:.1%}")
    checks.append(f"in-cluster mu deviation: {max_dev:.2%} "
                  f"(limit {mu_flatness:.1%})")

    near = [s.index for s in bakefile.samples
            if _aperture_distance(np.array(s.position)) <= aperture_radius]
    merged = [i for i in near if cmap.cluster_of(i) in dominant]
    if merged:
        failures.append(f"samples {merged} within {aperture_radius} m of a "
                        "doorway were merged into a dominant cluster")
    checks.append(f"doorway samples kept out of dominant clusters: "
                  f"{len(near)} checked")

    max_rt_dev: float | None = None
    if full:
        lr_cfg = config.lr_trace_config()
        max_rt_dev = 0.0
        for ci in dominant:
            c = cmap.clusters[ci]
            cluster_rt = np.array(c.rt60_bands)
            for i in range(c.start, c.stop):
                est = rt60_from_decay(
                    trace_energy_decay(scene, pts[i], lr_cfg))
                dev = float(np.max(np.abs(np.array(est.bands) - cluster_rt)
                                   / cluster_rt))
                max_rt_dev = max(max_rt_dev, dev)
        if max_rt_dev > rt60_tolerance:
            failures.append(f"pointwise RT60 deviation {max_rt_dev:.2%} "
                            f"above {rt60_tolerance:.0%}")
        checks.append(f"pointwise RT60 deviation: {max_rt_dev:.2%} "
                      f"(limit {rt60_tolerance:.0%})")

    if failures:
        raise ValidationFailure("; ".join(failures))
    return CorridorReport(bakefile, stats, dominant, coverage, max_dev,
                          max_rt_dev, tuple(checks))
