"""Scene loading and geometric queries.

A scene is an immutable triangle soup with per-triangle materials, loaded
from a small OBJ subset plus a JSON material table. Its one geometry query,
`Scene.batch_closest_hit`, runs the kernel in :mod:`echobake.raycast` on
Plucker coefficients that the scene builds once from its triangles.
`analytic_volume_and_area` gives the closed forms the mean-free-path
estimator is validated against and is the only operation that requires a
watertight mesh.

Supported mesh text, line by line:

* ``v x y z`` vertex position in metres, each coordinate within
  ``MAX_COORDINATE_M`` of the origin
* ``f i j k`` triangular face, 1-based vertex indices (``i/..`` forms are
  accepted and only the position index is used)
* ``usemtl name`` material for subsequent faces
* ``#`` comments; ``o``/``g``/``s``/``mtllib``/``vn``/``vt`` are ignored

Anything else is a parse error carrying its line number.

Material table (JSON)::

    {
      "band_edges_hz": [0, 176, 775, 3408, 22050],   // optional
      "materials": {"walls": [0.10, 0.12, 0.20, 0.30]}
    }

Faces that appear before any ``usemtl`` use the material named
``default``, which must then exist in the table. Band edges and
coefficients must be lists of finite numbers (not booleans); anything else
raises :class:`MaterialError` naming the key or the material.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (InputError, MaterialError, MeshParseError,
                     WatertightError, is_finite_real)
from .raycast import batch_closest_hit, plucker_coefficients

DEFAULT_BAND_EDGES = (0.0, 176.0, 775.0, 3408.0, 22050.0)

_IGNORED_KEYWORDS = {"o", "g", "s", "mtllib", "vn", "vt"}
_MIN_TRIANGLE_AREA = 1e-12
# No room is 1,000 km across. The bound keeps every product of coordinates
# that the scene and the tracer form (up to third powers) far inside the
# float64 range; near 1e154 m a triangle's cross product overflows.
MAX_COORDINATE_M = 1e6


@dataclass(frozen=True)
class BandLayout:
    """Frequency band edges in Hz defining the absorption bands."""

    edges_hz: tuple[float, ...] = DEFAULT_BAND_EDGES

    def __post_init__(self) -> None:
        edges = tuple(self.edges_hz)
        if len(edges) < 2:
            raise InputError("band layout needs at least two edges")
        finite = all(is_finite_real(e) for e in edges)
        if not finite or any(b <= a for a, b in zip(edges, edges[1:])):
            raise InputError(f"band edges must be finite and strictly increasing, got {edges}")
        object.__setattr__(self, "edges_hz", tuple(float(e) for e in edges))

    @property
    def n_bands(self) -> int:
        return len(self.edges_hz) - 1


@dataclass(frozen=True)
class Material:
    """Named surface material with one absorption coefficient per band."""

    name: str
    absorption: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.absorption, (list, tuple)):
            raise MaterialError(f"material {self.name!r}: coefficients must be a list")
        for a in self.absorption:
            if not is_finite_real(a):
                raise MaterialError(
                    f"material {self.name!r}: absorption {a!r} is not a finite number"
                )
        coeffs = tuple(float(a) for a in self.absorption)
        for a in coeffs:
            if not 0.0 <= a < 1.0:
                raise MaterialError(
                    f"material {self.name!r}: absorption {a} outside [0, 1); "
                    "a coefficient of exactly 1 would absorb everything on first contact"
                )
        object.__setattr__(self, "absorption", coeffs)


def parse_materials(text: str) -> tuple[BandLayout, list[Material]]:
    """Parse the JSON material table. Returns (band layout, materials)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers past Python's digit limit, and
        # RecursionError arrays nested past the decoder's depth.
        raise MaterialError(f"material table is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "materials" not in doc:
        raise MaterialError('material table must be an object with a "materials" key')
    edges = doc.get("band_edges_hz", list(DEFAULT_BAND_EDGES))
    if not isinstance(edges, list):
        raise MaterialError(f'"band_edges_hz" must be a list of numbers, got {edges!r}')
    try:
        layout = BandLayout(tuple(edges))
    except InputError as exc:
        raise MaterialError(f'"band_edges_hz": {exc}') from None
    raw = doc["materials"]
    if not isinstance(raw, dict) or not raw:
        raise MaterialError('"materials" must be a non-empty name -> coefficients mapping')
    materials = [Material(name, coeffs) for name, coeffs in raw.items()]
    for m in materials:
        if len(m.absorption) != layout.n_bands:
            raise MaterialError(
                f"material {m.name!r}: expected {layout.n_bands} coefficients, "
                f"got {len(m.absorption)}"
            )
    return layout, materials


def _parse_face_index(token: str, n_vertices: int, line_no: int) -> int:
    head = token.split("/", 1)[0]
    try:
        idx = int(head)
    except ValueError:
        raise MeshParseError(f"line {line_no}: bad face index {token!r}") from None
    if idx < 1 or idx > n_vertices:
        raise MeshParseError(
            f"line {line_no}: face index {idx} out of range (mesh has {n_vertices} vertices)"
        )
    return idx - 1


def parse_mesh(text: str) -> tuple[np.ndarray, list[tuple[int, int, int]], list[str]]:
    """Parse mesh text into vertices, faces, and per-face material names."""
    vertices: list[tuple[float, float, float]] = []
    faces: list[tuple[int, int, int]] = []
    face_materials: list[str] = []
    current = "default"
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        fields = rest.split()
        if keyword == "v":
            if len(fields) != 3:
                raise MeshParseError(f"line {line_no}: vertex needs exactly 3 coordinates")
            try:
                vertex = (float(fields[0]), float(fields[1]), float(fields[2]))
            except ValueError:
                raise MeshParseError(f"line {line_no}: bad vertex coordinate") from None
            if not all(abs(c) <= MAX_COORDINATE_M for c in vertex):
                raise MeshParseError(
                    f"line {line_no}: vertex coordinates must be finite and "
                    f"within {MAX_COORDINATE_M:g} m of the origin")
            vertices.append(vertex)
        elif keyword == "f":
            if len(fields) != 3:
                raise MeshParseError(
                    f"line {line_no}: only triangular faces are supported ({len(fields)} indices)"
                )
            idx = tuple(_parse_face_index(tok, len(vertices), line_no) for tok in fields)
            faces.append(idx)
            face_materials.append(current)
        elif keyword == "usemtl":
            if not fields:
                raise MeshParseError(f"line {line_no}: usemtl needs a material name")
            current = fields[0]
        elif keyword in _IGNORED_KEYWORDS:
            continue
        else:
            raise MeshParseError(f"line {line_no}: unsupported directive {keyword!r}")
    if not faces:
        raise MeshParseError("mesh has no faces")
    return np.asarray(vertices, dtype=np.float64), faces, face_materials


class Scene:
    """Immutable triangle mesh with materials and bounds.

    Build scenes via :func:`load_scene`; the constructor is internal.
    """

    def __init__(
        self,
        vertices: np.ndarray,
        faces: list[tuple[int, int, int]],
        material_ids: np.ndarray,
        materials: list[Material],
        bands: BandLayout,
        fingerprint: str = "",
    ) -> None:
        self._faces = list(faces)
        self.materials = tuple(materials)
        self.bands = bands
        self.fingerprint = fingerprint

        tri = vertices[np.asarray(faces, dtype=np.intp)]
        self._v0 = np.ascontiguousarray(tri[:, 0, :])
        self._e1 = np.ascontiguousarray(tri[:, 1, :] - tri[:, 0, :])
        self._e2 = np.ascontiguousarray(tri[:, 2, :] - tri[:, 0, :])
        cross = np.cross(self._e1, self._e2)
        norms = np.linalg.norm(cross, axis=1)
        areas = 0.5 * norms
        bad = np.flatnonzero(areas <= _MIN_TRIANGLE_AREA)
        if bad.size:
            raise MeshParseError(
                f"face {int(bad[0])} is degenerate (area {areas[bad[0]]:.3e} m^2)"
            )
        self._areas = areas
        self._normal_rows = (cross / norms[:, None]).T.copy()  # (3, M) unit normals
        self._coeffs = plucker_coefficients(self._v0, self._e1, self._e2)
        self._material_ids = material_ids.astype(np.intp)
        self._alpha = np.asarray([m.absorption for m in materials], dtype=np.float64)
        self.bounds = (tri.reshape(-1, 3).min(axis=0), tri.reshape(-1, 3).max(axis=0))

    @property
    def n_triangles(self) -> int:
        return self._v0.shape[0]

    def surface_area(self) -> float:
        return float(self._areas.sum())

    def mean_absorption(self) -> np.ndarray:
        """Area-weighted mean absorption per band."""
        weights = self._areas / self._areas.sum()
        return weights @ self._alpha[self._material_ids]

    def batch_closest_hit(
        self, origins: np.ndarray, directions: np.ndarray, t_min: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized closest-hit used by the tracer; returns (t, triangle
        index or -1) per ray. See :func:`echobake.raycast.batch_closest_hit`."""
        return batch_closest_hit(origins, directions, self._coeffs, t_min)


def load_scene(mesh_text: str, materials_text: str) -> Scene:
    """Build a :class:`Scene` from mesh text and a material table.

    Parameters
    ----------
    mesh_text : str
        Geometry in the OBJ subset documented at module level.
    materials_text : str
        JSON material table; every material name used by the mesh must
        resolve, and coefficient counts must match the band layout.

    Raises
    ------
    MeshParseError, MaterialError
        With a line number or the offending name.
    """
    vertices, faces, face_materials = parse_mesh(mesh_text)
    bands, materials = parse_materials(materials_text)
    ids = {m.name: i for i, m in enumerate(materials)}
    material_ids = np.empty(len(faces), dtype=np.intp)
    for i, name in enumerate(face_materials):
        if name not in ids:
            raise MaterialError(f"face {i} uses unknown material {name!r}")
        material_ids[i] = ids[name]
    digest = hashlib.sha256()
    digest.update(mesh_text.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(materials_text.encode("utf-8"))
    return Scene(vertices, faces, material_ids, materials, bands, digest.hexdigest())


def analytic_volume_and_area(scene: Scene) -> tuple[float, float]:
    """Exact enclosed volume and total surface area of a closed mesh.

    The volume is the magnitude of the signed tetrahedron sum, so it is
    positive for consistently inward- or outward-oriented meshes. Requires
    the mesh to be closed and consistently oriented: every directed edge
    must appear exactly once with each orientation. Raises
    :class:`WatertightError` listing boundary edges otherwise. Only this
    operation needs watertightness; tracing works on any mesh.
    """
    directed: Counter[tuple[int, int]] = Counter()
    for a, b, c in scene._faces:
        directed[(a, b)] += 1
        directed[(b, c)] += 1
        directed[(c, a)] += 1
    bad = sorted(
        edge for edge, count in directed.items()
        if count != 1 or directed.get((edge[1], edge[0]), 0) != 1
    )
    if bad:
        shown = ", ".join(f"{a}->{b}" for a, b in bad[:8])
        more = f" (+{len(bad) - 8} more)" if len(bad) > 8 else ""
        raise WatertightError(
            f"mesh is not closed/consistently oriented; offending edges: {shown}{more}"
        )
    v0, e1, e2 = scene._v0, scene._e1, scene._e2
    cross = np.cross(e1, e2)
    signed = float(np.sum(v0[:, 0] * cross[:, 0] + v0[:, 1] * cross[:, 1] + v0[:, 2] * cross[:, 2]))
    volume = abs(signed) / 6.0
    return volume, scene.surface_area()
