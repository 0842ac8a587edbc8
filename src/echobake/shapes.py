"""Procedural test scenes.

Everything here emits mesh text in the same OBJ subset `load_scene`
parses, so generated scenes and scenes loaded from disk go through one
code path. The closed shapes (box, pyramid, pillar room) are wound
consistently outward and pass the watertightness check. The bundled
corridor is a checked-in file; only its doorway planes are kept here, for
the corridor validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .scene import BandLayout


def default_materials_json(alpha: float = 0.2) -> str:
    """Table of one uniform material, ``default``, over the default bands."""
    return json.dumps({"materials": {"default": [alpha] * BandLayout().n_bands}})


class _MeshWriter:
    """Accumulates quads/triangles and emits OBJ text with deduplicated
    vertices. Dedup is exact (same arithmetic produces the same floats),
    which is what makes the closed generators watertight by construction."""

    def __init__(self) -> None:
        self._vertices: list[tuple[float, float, float]] = []
        self._index: dict[tuple[float, float, float], int] = {}
        self._faces: list[tuple[int, int, int]] = []

    def _vertex(self, p: tuple[float, float, float]) -> int:
        key = (float(p[0]), float(p[1]), float(p[2]))
        found = self._index.get(key)
        if found is None:
            found = len(self._vertices)
            self._vertices.append(key)
            self._index[key] = found
        return found

    def triangle(self, a, b, c) -> None:
        self._faces.append((self._vertex(a), self._vertex(b), self._vertex(c)))

    def quad(self, a, b, c, d) -> None:
        """Quad a-b-c-d wound counter-clockwise as seen from its outside."""
        self.triangle(a, b, c)
        self.triangle(a, c, d)

    def obj_text(self, comment: str = "") -> str:
        lines = []
        if comment:
            lines.append(f"# {comment}")
        lines.append("usemtl default")
        for x, y, z in self._vertices:
            lines.append(f"v {x!r} {y!r} {z!r}")
        for a, b, c in self._faces:
            lines.append(f"f {a + 1} {b + 1} {c + 1}")
        return "\n".join(lines) + "\n"


def _add_box(w: _MeshWriter, lo, hi) -> None:
    """Closed axis-aligned box with outward-facing quads."""
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    w.quad((x0, y0, z0), (x0, y1, z0), (x1, y1, z0), (x1, y0, z0))  # floor, -z
    w.quad((x0, y0, z1), (x1, y0, z1), (x1, y1, z1), (x0, y1, z1))  # ceiling, +z
    w.quad((x0, y0, z0), (x1, y0, z0), (x1, y0, z1), (x0, y0, z1))  # -y
    w.quad((x0, y1, z0), (x0, y1, z1), (x1, y1, z1), (x1, y1, z0))  # +y
    w.quad((x0, y0, z0), (x0, y0, z1), (x0, y1, z1), (x0, y1, z0))  # -x
    w.quad((x1, y0, z0), (x1, y1, z0), (x1, y1, z1), (x1, y0, z1))  # +x


def box_obj(lx: float, ly: float, lz: float, origin=(0.0, 0.0, 0.0)) -> str:
    w = _MeshWriter()
    x0, y0, z0 = origin
    _add_box(w, (x0, y0, z0), (x0 + lx, y0 + ly, z0 + lz))
    return w.obj_text(f"box {lx} x {ly} x {lz}")


def cube_obj(edge: float, origin=(0.0, 0.0, 0.0)) -> str:
    return box_obj(edge, edge, edge, origin)


def square_pyramid_obj(base: float, height: float) -> str:
    """Square pyramid, base centred on the origin in the z=0 plane."""
    s = base / 2.0
    apex = (0.0, 0.0, height)
    c = [(-s, -s, 0.0), (s, -s, 0.0), (s, s, 0.0), (-s, s, 0.0)]
    w = _MeshWriter()
    w.quad(c[0], c[3], c[2], c[1])  # base, -z
    for i in range(4):
        w.triangle(c[i], c[(i + 1) % 4], apex)
    return w.obj_text(f"square pyramid base {base} height {height}")


# --- pillar room -----------------------------------------------------------

_PILLAR_ROOM_SIZE = (5.0, 12.0, 6.0)  # x, y extents and height
_PILLAR_CELLS = [(px, py) for px in (1, 3) for py in (2, 4, 7, 9)]


def pillar_room_obj() -> str:
    """5 x 12 floor, 6 m high, with eight 1 x 1 m full-height pillars.

    Built on a unit grid with the pillar footprints cut out of floor and
    ceiling, so the mesh is exactly watertight with no coincident faces.
    """
    lx, ly, lz = _PILLAR_ROOM_SIZE
    nx, ny = int(lx), int(ly)
    pillars = set(_PILLAR_CELLS)
    w = _MeshWriter()
    for cx in range(nx):
        for cy in range(ny):
            if (cx, cy) in pillars:
                continue
            x0, y0, x1, y1 = float(cx), float(cy), float(cx + 1), float(cy + 1)
            w.quad((x0, y0, 0.0), (x0, y1, 0.0), (x1, y1, 0.0), (x1, y0, 0.0))
            w.quad((x0, y0, lz), (x1, y0, lz), (x1, y1, lz), (x0, y1, lz))
    for cy in range(ny):
        y0, y1 = float(cy), float(cy + 1)
        w.quad((0.0, y0, 0.0), (0.0, y0, lz), (0.0, y1, lz), (0.0, y1, 0.0))
        w.quad((lx, y0, 0.0), (lx, y1, 0.0), (lx, y1, lz), (lx, y0, lz))
    for cx in range(nx):
        x0, x1 = float(cx), float(cx + 1)
        w.quad((x0, 0.0, 0.0), (x1, 0.0, 0.0), (x1, 0.0, lz), (x0, 0.0, lz))
        w.quad((x0, ly, 0.0), (x0, ly, lz), (x1, ly, lz), (x1, ly, 0.0))
    for px, py in sorted(pillars):
        # Pillar sides face away from the surrounding air, into the pillar.
        x0, y0, x1, y1 = float(px), float(py), float(px + 1), float(py + 1)
        w.quad((x0, y0, 0.0), (x0, y1, 0.0), (x0, y1, lz), (x0, y0, lz))
        w.quad((x1, y0, 0.0), (x1, y0, lz), (x1, y1, lz), (x1, y1, 0.0))
        w.quad((x0, y0, 0.0), (x0, y0, lz), (x1, y0, lz), (x1, y0, 0.0))
        w.quad((x0, y1, 0.0), (x1, y1, 0.0), (x1, y1, lz), (x0, y1, lz))
    return w.obj_text("room with eight full-height pillars")


def pillar_room_analytic() -> tuple[float, float]:
    """Closed-form volume and surface area of the pillar room."""
    lx, ly, lz = _PILLAR_ROOM_SIZE
    n = len(_PILLAR_CELLS)
    volume = lx * ly * lz - n * 1.0 * 1.0 * lz
    area = (
        2.0 * (lx * ly - n * 1.0)          # floor + ceiling minus holes
        + 2.0 * (lx * lz + ly * lz)        # outer walls
        + n * 4.0 * lz                     # pillar sides
    )
    return volume, area


# --- validation shape suite -------------------------------------------------


@dataclass(frozen=True)
class ShapeFixture:
    name: str
    mesh_text: str
    source: tuple[float, float, float]
    volume: float
    area: float


def validation_shapes() -> list[ShapeFixture]:
    """The four reference shapes used by the mean-free-path validation."""
    pyr_slant = math.sqrt(3.0**2 + 1.4**2)
    pv, pa = pillar_room_analytic()
    return [
        ShapeFixture("cube", cube_obj(5.0), (2.5, 2.5, 2.5), 125.0, 150.0),
        ShapeFixture("rect_prism", box_obj(2.0, 3.0, 4.0), (1.0, 1.5, 2.0), 24.0, 52.0),
        ShapeFixture(
            "square_pyramid",
            square_pyramid_obj(2.8, 3.0),
            (0.0, 0.0, 0.75),
            7.84,
            7.84 + 4.0 * (2.8 * pyr_slant / 2.0),
        ),
        ShapeFixture("pillar_room", pillar_room_obj(), (2.5, 6.0, 3.0), pv, pa),
    ]


# --- three-room corridor ----------------------------------------------------


def corridor_aperture_planes() -> list[tuple[float, tuple[float, float], tuple[float, float]]]:
    """(x, y range, z range) of each doorway of the bundled corridor fixture
    (`fixtures/corridor.obj`), in the walls between its three rooms, for
    distance-to-aperture tests."""
    return [(6.0, (1.75, 2.75), (0.0, 2.0)), (14.0, (2.0, 3.0), (0.0, 2.0))]
