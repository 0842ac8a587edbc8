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
import re
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import __version__
from .acoustics import Rt60Estimate, mfp_analytic, mfp_from_trace, rt60_from_decay
from .errors import (EchobakeError, InputError, ValidationFailure,
                     is_finite_real, is_int, is_point)
from .perception import Cluster, ClusterMap, PathSample, cluster_path
from .scene import BandLayout, Scene, analytic_volume_and_area, load_scene
from .shapes import (corridor_aperture_planes, default_materials_json,
                     validation_shapes)
from .tracer import (PathTraceResult, TraceConfig, trace_energy_decay,
                     trace_segments)

SCHEMA_VERSION = 3

# Persisted `config` keys, in constructor order.
_CONFIG_KEYS = ("seed", "er_rays", "er_bounces", "lr_rays", "lr_bounces", "jnd_mode")

MAX_CLUSTERS = 12
MIN_COVERAGE = 0.8
MU_FLATNESS = 0.015
RT60_TOLERANCE = 0.05
# Largest relative error of a traced mean free path against 4V/S that the
# table-1 suite accepts.
MFP_TOLERANCE = 0.05
APERTURE_RADIUS_M = 0.5

# A point more than this fraction of whose low-order rays leave the scene is
# refused: it lies outside any closed room, or in one too open to reverberate.
MAX_ESCAPE_FRACTION = 0.5

# Path points are traced together in ER groups of at most this many rays
# (the bundled corridor's 60 points at 500 rays fit in one), so the ER
# stage's memory is set by this bound, not by the path's length or the
# number of threads that trace a group's ray sets.
ER_GROUP_RAYS = 2 ** 15


@dataclass(frozen=True)
class BakeConfig:
    """Trace sizes and clustering choices for one bake.

    `threads` is validated but changes nothing: the low-order traces run
    on one thread per CPU the process may use (see `trace_segments`), and
    the rest of the bake on the calling thread. It is kept because the
    benchmark harness builds ``BakeConfig(seed=..., threads=...)``, and it
    is absent from the persisted file.
    """

    seed: int = 0
    er_rays: int = 500
    er_bounces: int = 20
    lr_rays: int = 500
    lr_bounces: int = 300
    jnd_mode: str = "relative"
    threads: int = 1

    def __post_init__(self) -> None:
        self.er_trace_config()
        self.lr_trace_config()
        if self.jnd_mode not in ("relative", "absolute"):
            raise InputError(f"unknown jnd_mode {self.jnd_mode!r}")
        if not (is_int(self.threads) and self.threads >= 1):
            raise InputError("threads must be an integer of at least 1")

    def er_trace_config(self) -> TraceConfig:
        return TraceConfig(self.er_rays, self.er_bounces, self.seed)

    def lr_trace_config(self) -> TraceConfig:
        return TraceConfig(self.lr_rays, self.lr_bounces, self.seed)


@dataclass(frozen=True)
class BakeStats:
    """Execution metrics; never serialized, wall-clock times vary."""

    n_points: int
    n_clusters: int
    t_er_ms: float
    t_lr_ms: float
    lr_ray_bounces: int

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
        fp = self.scene_fingerprint
        if not (isinstance(fp, str) and re.fullmatch("[0-9a-f]{64}", fp)):
            raise InputError(f"scene fingerprint must be 64 hex digits, got {fp!r}")
        if not isinstance(self.tool_version, str) or not isinstance(self.created_utc, str):
            raise InputError("tool_version and created_utc must be strings")
        n_bands = BandLayout(self.band_edges_hz).n_bands
        for i, s in enumerate(self.samples):
            if s.index != i:
                raise InputError(f"sample {i}: index must be {i}, got {s.index!r}")
        if self.cluster_map.n_samples != len(self.samples):
            raise InputError("the cluster map and the samples differ in length")
        for i, c in enumerate(self.cluster_map.clusters):
            if c.rt60_bands is None or c.r_squared is None:
                raise InputError(f"cluster {i} is missing its RT60 estimate")
            if len(c.rt60_bands) != n_bands or len(c.r_squared) != n_bands:
                raise InputError(
                    f"cluster {i}: expected {n_bands} rt60_bands and r_squared "
                    f"values, got {len(c.rt60_bands)} and {len(c.r_squared)}")
            if not all(is_finite_real(rt) and rt > 0.0 for rt in c.rt60_bands):
                raise InputError(f"cluster {i}: every RT60 must be finite and "
                                 f"positive, got {list(c.rt60_bands)}")
            if not all(is_finite_real(r) for r in c.r_squared):
                raise InputError(f"cluster {i}: every r_squared must be finite, "
                                 f"got {list(c.r_squared)}")
            mus = (c.mu_ref, c.mu_mean, c.jnd_threshold_m)
            if not all(is_finite_real(v) and v > 0.0 for v in mus):
                raise InputError(f"cluster {i}: mu_ref, mu_mean and jnd_threshold_m "
                                 f"must be finite and positive, got {mus}")
            if not is_point(c.lr_position):
                raise InputError(f"cluster {i}: lr_position must be 3 finite "
                                 f"coordinates, got {c.lr_position!r}")

    def _payload(self, with_timestamp: bool) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "scene_fingerprint": self.scene_fingerprint,
            "band_edges_hz": list(self.band_edges_hz),
            "config": {k: getattr(self.config, k) for k in _CONFIG_KEYS},
            "samples": [
                {"index": s.index, "position": list(s.position), "mu": s.mu}
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
        return Rt60Estimate(tuple(c.rt60_bands), tuple(c.r_squared))

    @classmethod
    def from_json(cls, data: bytes | str) -> "BakeFile":
        try:
            doc = json.loads(data)
        except (ValueError, RecursionError) as exc:
            # ValueError also covers undecodable bytes and integers past
            # Python's digit limit; RecursionError, nesting too deep.
            raise InputError(f"bake file is not valid JSON: {exc}") from exc
        # Constructors check the values; left are missing keys and wrong containers.
        part = "bake file"
        try:
            if doc["schema_version"] != SCHEMA_VERSION:
                raise InputError(f"unsupported bake schema {doc['schema_version']}")
            config = BakeConfig(*(doc["config"][k] for k in _CONFIG_KEYS))
            sample_rows, cluster_rows = list(doc["samples"]), list(doc["clusters"])
            samples = []
            for i, s in enumerate(sample_rows):
                part = f"bake file sample {i}"
                samples.append(PathSample(s["index"], tuple(s["position"]), s["mu"]))
            clusters = []
            for i, c in enumerate(cluster_rows):
                part = f"bake file cluster {i}"
                clusters.append(Cluster(
                    c["start"], c["stop"], c["mu_ref"], c["mu_mean"], c["jnd_threshold_m"],
                    tuple(c["rt60_bands"]), tuple(c["r_squared"]), tuple(c["lr_position"])))
            part = "bake file"
            return cls(doc["scene_fingerprint"], tuple(doc["band_edges_hz"]), config,
                       tuple(samples), ClusterMap(tuple(clusters), len(samples)),
                       doc["tool_version"], doc.get("created_utc", ""))
        except KeyError as exc:
            raise InputError(f"{part} is missing field {exc}") from exc
        except TypeError as exc:
            raise InputError(f"{part} has a value of the wrong type: {exc}") from exc


def _prefixed(exc: EchobakeError, prefix: str) -> EchobakeError:
    return exc.__class__(f"{prefix}: {exc}")


def _mean_free_path(result: PathTraceResult, index: int) -> float:
    """One point's low-order mean free path; raises InputError naming the
    point if more than `MAX_ESCAPE_FRACTION` of its rays escaped."""
    n_rays = result.config.n_rays
    escaped = int(result.escaped.sum())
    if escaped > MAX_ESCAPE_FRACTION * n_rays:
        raise InputError(
            f"point {index}: {escaped} of {n_rays} low-order rays escaped the "
            f"scene (more than {MAX_ESCAPE_FRACTION:.0%}); is the point "
            "inside a closed room?")
    return mfp_from_trace(result)


def _mean_free_paths(scene: Scene, pts: np.ndarray,
                     config: BakeConfig) -> list[float]:
    """Each point's low-order mean free path, from groups of at most
    `ER_GROUP_RAYS` rays, each reduced to its points' values before the
    next is traced."""
    er_cfg = config.er_trace_config()
    step = max(1, ER_GROUP_RAYS // er_cfg.n_rays)
    mus: list[float] = []
    for a in range(0, pts.shape[0], step):
        mus += [_mean_free_path(r, i)
                for i, r in enumerate(trace_segments(scene, pts[a:a + step],
                                                     er_cfg, first_index=a), a)]
    return mus


def bake(scene: Scene, positions,
         config: BakeConfig = BakeConfig()) -> tuple[BakeFile, BakeStats]:
    """Precompute clustered late-reverb data along a listener path.

    Every point gets one low-order trace, all of them in one
    `trace_segments` call per `ER_GROUP_RAYS` rays, whose ray sets run on
    one thread per CPU; then every cluster gets exactly one high-order
    trace, in turn. All points share one trace configuration, so
    neighbouring points see identical ray directions and their mean free
    paths differ only through geometry, not sampling noise.
    """
    pts = np.asarray(positions, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise InputError("positions must be a non-empty (n, 3) array")
    n = pts.shape[0]

    t0 = time.perf_counter()
    mus = _mean_free_paths(scene, pts, config)
    t_er_ms = (time.perf_counter() - t0) * 1000.0 / n

    samples = tuple(
        PathSample(i, (float(pts[i, 0]), float(pts[i, 1]), float(pts[i, 2])),
                   mus[i])
        for i in range(n)
    )
    cmap = cluster_path(samples, mode=config.jnd_mode)

    lr_cfg = config.lr_trace_config()
    clusters = []
    lr_ray_bounces = 0
    t0 = time.perf_counter()
    for ci, c in enumerate(cmap.clusters):
        src = pts[c.start]
        try:
            curve = trace_energy_decay(scene, src, lr_cfg)
            est = rt60_from_decay(curve)
        except EchobakeError as exc:
            raise _prefixed(
                exc, f"cluster {ci} (source point {c.start})") from exc
        lr_ray_bounces += curve.ray_bounces
        clusters.append(dataclasses.replace(
            c, rt60_bands=tuple(est.bands), r_squared=tuple(est.r_squared),
            lr_position=(float(src[0]), float(src[1]), float(src[2]))))
    t_lr_ms = (time.perf_counter() - t0) * 1000.0 / cmap.n_clusters

    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    bakefile = BakeFile(scene.fingerprint, scene.bands.edges_hz, config,
                        samples, ClusterMap(tuple(clusters), n), __version__,
                        stamp)
    return bakefile, BakeStats(n, cmap.n_clusters, t_er_ms, t_lr_ms,
                               lr_ray_bounces)


@dataclass(frozen=True)
class LookupResult:
    cluster_id: int
    rt60: Rt60Estimate
    sample_index: int
    distance_m: float


def _plain(x):
    """`x` with numpy arrays and scalars, including the items of a tuple or
    list, turned into Python lists and numbers."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    if isinstance(x, (tuple, list)):
        return [v.tolist() if isinstance(v, np.generic) else v for v in x]
    return x


def lookup(bakefile: BakeFile, index: int | None = None,
           position=None, max_distance: float = 1.0) -> LookupResult:
    """Find the cluster owning a baked sample, by index or by proximity.

    `index` must be an integer (a Python or numpy int, not a bool) and
    `position` 3 finite coordinates (a tuple, list or numpy array).
    Position lookups snap to the nearest baked sample and report the
    distance; unless it is at most `max_distance` (a NaN never is), the
    query is outside the baked coverage and refused.
    """
    if (index is None) == (position is None):
        raise InputError("provide exactly one of index or position")
    if index is not None:
        index = _plain(index)
        if not is_int(index):
            raise InputError(f"sample index must be an integer, got {index!r}")
        if not 0 <= index < len(bakefile.samples):
            raise InputError(
                f"sample index {index} out of range 0..{len(bakefile.samples) - 1}"
            )
        si, dist = index, 0.0
    else:
        position = _plain(position)
        if not is_point(position):
            raise InputError(f"position must be 3 finite coordinates, got {position!r}")
        p = np.asarray(position, dtype=np.float64)
        coords = np.array([s.position for s in bakefile.samples])
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.sqrt(((coords - p) ** 2).sum(axis=1))
        si = int(np.argmin(d))
        dist = float(d[si])
        if not dist <= max_distance:
            raise InputError(
                f"position is {dist:.2f} m from the nearest baked sample, "
                f"beyond the {max_distance:.2f} m coverage limit"
            )
    cid = bakefile.cluster_map.cluster_of(si)
    return LookupResult(cid, bakefile.rt60_of_cluster(cid), si, dist)


# Validation suites ---------------------------------------------------------


@dataclass(frozen=True)
class MfpRow:
    name: str
    mu_analytic: float
    mu_traced: float
    pct_error: float
    n_segments: int


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


def run_mfp_validation(seed: int = 0) -> MfpReport:
    """Trace the four analytic shapes and compare against 4V/S.

    Each shape gets the paper's trace, `TraceConfig`'s default 500 rays of
    20 bounces. Raises ValidationFailure if any shape's traced mean free
    path misses the analytic value by more than `MFP_TOLERANCE`.
    """
    mats = default_materials_json()
    rows: list[MfpRow] = []
    failures: list[str] = []
    t_start = time.perf_counter()
    for fixture in validation_shapes():
        scene = load_scene(fixture.mesh_text, mats)
        volume, area = analytic_volume_and_area(scene)
        mu_an = mfp_analytic(volume, area)
        [result] = trace_segments(scene, [fixture.source],
                                  TraceConfig(rng_seed=seed))
        mu = mfp_from_trace(result)
        err = abs(mu - mu_an) / mu_an
        rows.append(MfpRow(fixture.name, mu_an, mu, 100.0 * err,
                           result.n_segments))
        if err > MFP_TOLERANCE:
            failures.append(f"{fixture.name}: {100 * err:.2f}%")
    report = MfpReport(tuple(rows), time.perf_counter() - t_start)
    if failures:
        raise ValidationFailure(
            "mean free path error beyond "
            f"{100 * MFP_TOLERANCE:.1f}%: {', '.join(failures)}"
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
                            full: bool = False) -> CorridorReport:
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

    if cmap.n_clusters > MAX_CLUSTERS:
        failures.append(f"{cmap.n_clusters} clusters exceed {MAX_CLUSTERS}")
    checks.append(f"clusters: {cmap.n_clusters} (limit {MAX_CLUSTERS})")

    dominant = cmap.dominant(3)
    covered = sum(cmap.clusters[i].size for i in dominant)
    coverage = covered / len(bakefile.samples)
    if coverage < MIN_COVERAGE:
        failures.append(f"dominant coverage {coverage:.1%} below "
                        f"{MIN_COVERAGE:.0%}")
    checks.append(f"dominant coverage: {coverage:.1%} "
                  f"(minimum {MIN_COVERAGE:.0%})")

    max_dev = 0.0
    for ci in dominant:
        c = cmap.clusters[ci]
        for s in bakefile.samples[c.start:c.stop]:
            max_dev = max(max_dev, abs(s.mu - c.mu_mean) / c.mu_mean)
    if max_dev > MU_FLATNESS:
        failures.append(f"in-cluster mu deviation {max_dev:.2%} above "
                        f"{MU_FLATNESS:.1%}")
    checks.append(f"in-cluster mu deviation: {max_dev:.2%} "
                  f"(limit {MU_FLATNESS:.1%})")

    near = [s.index for s in bakefile.samples
            if _aperture_distance(np.array(s.position)) <= APERTURE_RADIUS_M]
    merged = [i for i in near if cmap.cluster_of(i) in dominant]
    if merged:
        failures.append(f"samples {merged} within {APERTURE_RADIUS_M} m of a "
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
        if max_rt_dev > RT60_TOLERANCE:
            failures.append(f"pointwise RT60 deviation {max_rt_dev:.2%} "
                            f"above {RT60_TOLERANCE:.0%}")
        checks.append(f"pointwise RT60 deviation: {max_rt_dev:.2%} "
                      f"(limit {RT60_TOLERANCE:.0%})")

    if failures:
        raise ValidationFailure("; ".join(failures))
    return CorridorReport(bakefile, stats, dominant, coverage, max_dev,
                          max_rt_dev, tuple(checks))
