"""Generators of the bundled corridor fixture files.

The bake reads the checked-in `corridor.obj` and `corridor_path.csv`; these
functions re-derive both from the room layout so a test can check that the
files still match it. The doorways come from
`echobake.shapes.corridor_aperture_planes`, the one copy the package keeps.
"""

import numpy as np

from echobake.shapes import _MeshWriter, corridor_aperture_planes

# Rooms along +x, as (x, y, z) ranges. Volumes 135 / 256 / 125 m^3.
ROOMS = (
    ((0.0, 6.0), (0.0, 4.5), (0.0, 5.0)),
    ((6.0, 14.0), (0.0, 8.0), (0.0, 4.0)),
    ((14.0, 19.0), (0.0, 5.0), (0.0, 5.0)),
)

_WAYPOINTS = [
    # Serpentine through room 1, out through door 1 (y = 2.25), a loop of
    # room 2, out through door 2 (y = 2.5), and a sweep of room 3.
    (1.4, 1.4), (4.6, 1.4), (4.6, 3.1), (1.6, 3.1), (1.6, 2.25),
    (5.0, 2.25), (7.0, 2.25),
    (7.6, 1.4), (12.6, 1.4), (12.6, 4.2), (7.4, 4.2), (7.4, 6.6), (12.4, 6.6),
    (12.8, 2.5), (15.0, 2.5),
    (15.6, 1.4), (17.6, 1.4), (17.6, 3.6), (15.6, 3.6),
]
_EAR_HEIGHT = 1.7


def _add_x_wall(w, x, strips):
    for (y0, y1), (z0, z1) in strips:
        w.quad((x, y0, z0), (x, y1, z0), (x, y1, z1), (x, y0, z1))


def _dividing_wall_strips(cross_a, cross_b, door):
    """Rectangles covering (cross_a union cross_b) minus the door.

    Crosses are ((y0, y1), (z0, z1)) with y0 = z0 = 0 and ya <= yb assumed,
    which holds for this fixture's layout.
    """
    (ya0, ya1), (_, za1) = cross_a
    (yb0, yb1), (_, zb1) = cross_b
    (dy0, dy1), (_, dz1) = door
    strips = [
        ((ya0, dy0), (0.0, za1)),
        ((dy0, dy1), (dz1, za1)),
        ((dy1, ya1), (0.0, za1)),
    ]
    if yb1 > ya1:
        strips.append(((ya1, yb1), (0.0, zb1)))
    return strips


def corridor_obj():
    """Three connected rooms with floor-level doorway apertures.

    The dividing walls are zero-thickness membranes shared by the rooms on
    either side; tracing treats triangles as two-sided so this is
    acoustically sound, but the mesh is intentionally not watertight in
    the oriented-manifold sense.
    """
    w = _MeshWriter()
    r1, r2, r3 = ROOMS
    for (xa, xb), (ya, yb), (_, zc) in ROOMS:
        w.quad((xa, ya, 0.0), (xa, yb, 0.0), (xb, yb, 0.0), (xb, ya, 0.0))
        w.quad((xa, ya, zc), (xb, ya, zc), (xb, yb, zc), (xa, yb, zc))
        w.quad((xa, ya, 0.0), (xb, ya, 0.0), (xb, ya, zc), (xa, ya, zc))
        w.quad((xa, yb, 0.0), (xa, yb, zc), (xb, yb, zc), (xb, yb, 0.0))

    (x1, *door1), (x2, *door2) = corridor_aperture_planes()
    _add_x_wall(w, r1[0][0], [(r1[1], r1[2])])  # far wall of room 1
    _add_x_wall(w, r3[0][1], [(r3[1], r3[2])])  # far wall of room 3
    _add_x_wall(w, x1, _dividing_wall_strips(r1[1:], r2[1:], door1))
    _add_x_wall(w, x2, _dividing_wall_strips(r3[1:], r2[1:], door2))
    return w.obj_text("three-room corridor, volumes 135 / 256 / 125 m^3")


def corridor_room_analytics():
    """Per-room (volume, area) treating each room as isolated."""
    out = []
    for (x0, x1), (y0, y1), (z0, z1) in ROOMS:
        lx, ly, lz = x1 - x0, y1 - y0, z1 - z0
        out.append((lx * ly * lz, 2.0 * (lx * ly + lx * lz + ly * lz)))
    return out


def corridor_path(n_points=60):
    """Listener positions along the corridor walk, evenly spaced by arc
    length. Returns an (n_points, 3) array."""
    pts = np.asarray(_WAYPOINTS, dtype=np.float64)
    deltas = np.diff(pts, axis=0)
    seg_len = np.hypot(deltas[:, 0], deltas[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    targets = np.linspace(0.0, cum[-1], n_points)
    xy = np.empty((n_points, 2))
    for k, s in enumerate(targets):
        i = min(np.searchsorted(cum, s, side="right") - 1, len(seg_len) - 1)
        frac = (s - cum[i]) / seg_len[i]
        xy[k] = pts[i] + frac * deltas[i]
    return np.column_stack([xy, np.full(n_points, _EAR_HEIGHT)])


def path_csv_text(points):
    lines = ["x,y,z"]
    for x, y, z in np.asarray(points, dtype=np.float64):
        lines.append(f"{float(x)!r},{float(y)!r},{float(z)!r}")
    return "\n".join(lines) + "\n"
