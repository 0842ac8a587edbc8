"""Workload inputs, made from the seed before anything is timed.

Each workload writes the files `echobake bake` and `echobake render` read:
an OBJ mesh, a material table, a path CSV, a dry 16-bit WAV and a schedule
CSV. Everything here uses the standard library and numpy only; nothing is
taken from the package under test except the bundled corridor fixture files,
which are the corridor workload's input by definition.
"""

from __future__ import annotations

import json
import random
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 48000
WET_DRY_MIX = 0.7
DRY_RMS = 0.05
# Share of the dry signal over which the schedule walks the path; the rest
# stays on the last sample so the comb gains are steady when the tail starts.
SCHEDULE_SPAN = 0.75


@dataclass(frozen=True)
class Room:
    """Axis-aligned box; 4V/S is the reference mean free path."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    @property
    def dims(self) -> tuple[float, float, float]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def mean_free_path(self) -> float:
        x, y, z = self.dims
        return 4.0 * x * y * z / (2.0 * (x * y + x * z + y * z))

    def contains(self, p) -> bool:
        return all(l <= v <= h for l, v, h in zip(self.lo, p, self.hi))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("corridor", "halls")
RENDER_S = 60.0   # long enough that the render's memory dominates the peak

# The corridor fixture's rooms, from its published layout (volumes 135, 256
# and 125 m^3). The doorways are left out: they do not change 4V/S of a room.
CORRIDOR_ROOMS = (
    Room((0.0, 0.0, 0.0), (6.0, 4.5, 5.0)),
    Room((6.0, 0.0, 0.0), (14.0, 8.0, 4.0)),
    Room((14.0, 0.0, 0.0), (19.0, 5.0, 5.0)),
)
CORRIDOR_BAKE_SEED = 0  # the fixture's documented bake: 8 clusters

# Halls: nominal box sizes, scaled by a seeded factor in [0.95, 1.05] per
# axis. Their 4V/S differ by ~30%, far beyond the 1% join threshold, and
# points stay in the middle half of each hall, where the traced mean free
# path varies by well under 1%; so each hall is exactly one cluster.
HALL_SIZES = ((12.0, 8.0, 5.0), (8.0, 6.0, 4.0))
HALL_GAP_M = 2.0
HALL_GRID = (2, 2, 2)        # quads per axis: 48 triangles per hall
POINTS_PER_HALL = 6
# Per-band absorption ranges. The lowest band stays below 0.068, so every
# LR ray runs the full 300 bounces before all bands reach the 1e-12 floor:
# LR work is the same on every seed.
HALL_ALPHA_RANGES = ((0.05, 0.065), (0.08, 0.11), (0.12, 0.16), (0.18, 0.22))


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    bake_seed: int
    mesh: Path
    materials: Path
    path_csv: Path
    dry_wav: Path
    schedule_csv: Path
    rooms: tuple[Room, ...]
    alphas: tuple[tuple[float, ...], ...]   # per room; empty for the corridor

    def manifest(self) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "bake_seed": self.bake_seed, "mesh": str(self.mesh),
                "materials": str(self.materials),
                "path_csv": str(self.path_csv), "dry_wav": str(self.dry_wav),
                "schedule_csv": str(self.schedule_csv),
                "mix": WET_DRY_MIX}


def _box_faces(lo, hi, grid, vertex):
    """Triangles of a closed box whose faces are split into grid quads.

    Faces sharing an edge use the same subdivision along it, so the
    vertices meet exactly with no T-junctions, and every face is wound to
    face outward, so the mesh is closed and consistently oriented.
    """
    axes = [np.linspace(lo[k], hi[k], grid[k] + 1).tolist() for k in range(3)]
    faces = []
    for k in range(3):
        a, b = [i for i in range(3) if i != k]
        # Quads run a -> b; that faces +k for k = 0, 2 and -k for k = 1.
        along = 1 if k != 1 else -1
        for c, outward in ((lo[k], -1), (hi[k], 1)):
            for i in range(grid[a]):
                for j in range(grid[b]):
                    def corner(ia, jb):
                        p = [0.0, 0.0, 0.0]
                        p[k], p[a], p[b] = c, axes[a][ia], axes[b][jb]
                        return vertex(tuple(p))
                    q = (corner(i, j), corner(i + 1, j),
                         corner(i + 1, j + 1), corner(i, j + 1))
                    if along != outward:
                        q = q[::-1]
                    faces.append((q[0], q[1], q[2]))
                    faces.append((q[0], q[2], q[3]))
    return faces


def _halls(seed: int, out: Path):
    rng = random.Random(seed)
    vertices: dict[tuple[float, float, float], int] = {}

    def vertex(p):
        return vertices.setdefault(p, len(vertices))

    rooms, alphas, points, blocks = [], [], [], []
    x0 = 0.0
    for h, size in enumerate(HALL_SIZES):
        dims = [round(s * rng.uniform(0.95, 1.05), 3) for s in size]
        room = Room((x0, 0.0, 0.0), (x0 + dims[0], dims[1], dims[2]))
        alpha = tuple(round(rng.uniform(lo, hi), 4)
                      for lo, hi in HALL_ALPHA_RANGES)
        blocks.append((f"hall{h}", _box_faces(room.lo, room.hi, HALL_GRID,
                                              vertex)))
        for _ in range(POINTS_PER_HALL):
            points.append((x0 + dims[0] * rng.uniform(0.25, 0.75),
                           dims[1] * rng.uniform(0.25, 0.75),
                           dims[2] * rng.uniform(0.3, 0.5)))
        rooms.append(room)
        alphas.append(alpha)
        x0 = room.hi[0] + HALL_GAP_M
    lines = [f"# {len(rooms)} closed halls, seed {seed}"]
    lines += [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices]
    for name, faces in blocks:
        lines.append(f"usemtl {name}")
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    mesh = out / "halls.obj"
    mesh.write_text("\n".join(lines) + "\n")
    mats = out / "halls_materials.json"
    mats.write_text(json.dumps(
        {"materials": {f"hall{h}": list(a) for h, a in enumerate(alphas)}}))
    path = out / "halls_path.csv"
    path.write_text("x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n"
                                        for x, y, z in points))
    return mesh, mats, path, tuple(rooms), tuple(alphas), len(points)


def _count_rows(csv_path: Path) -> int:
    return len(csv_path.read_text().strip().splitlines()) - 1


def _write_dry(path: Path, seed: int, seconds: float) -> None:
    n = int(round(seconds * SAMPLE_RATE))
    x = np.random.default_rng(seed).normal(0.0, DRY_RMS, n)
    ints = np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(ints.tobytes())


def _write_schedule(path: Path, seed: int, seconds: float,
                    n_points: int) -> None:
    """Visit every path sample in order, with seeded dwell times."""
    rng = random.Random(seed)
    dwell = [rng.uniform(0.5, 1.5) for _ in range(n_points - 1)]
    scale = SCHEDULE_SPAN * seconds / sum(dwell)
    t, rows = 0.0, []
    for i in range(n_points):
        rows.append(f"{round(t, 4)!r},{i}")
        if i < n_points - 1:
            t += dwell[i] * scale
    path.write_text("t_start_s,sample_index\n" + "\n".join(rows) + "\n")


def prepare(name: str, seed: int, root: Path, out: Path) -> Inputs:
    """Write the workload's input files under `out` and describe them."""
    out.mkdir(parents=True, exist_ok=True)
    if name == "corridor":
        fixtures = root / "src" / "echobake" / "fixtures"
        mesh = fixtures / "corridor.obj"
        mats = fixtures / "corridor_materials.json"
        path = fixtures / "corridor_path.csv"
        rooms, alphas = CORRIDOR_ROOMS, ()
        n_points, bake_seed = _count_rows(path), CORRIDOR_BAKE_SEED
    else:
        mesh, mats, path, rooms, alphas, n_points = _halls(seed, out)
        bake_seed = seed
    dry = out / "dry.wav"
    _write_dry(dry, seed, RENDER_S)
    schedule = out / "schedule.csv"
    _write_schedule(schedule, seed, RENDER_S, n_points)
    return Inputs(name, seed, bake_seed, mesh, mats, path, dry, schedule,
                  rooms, alphas)
