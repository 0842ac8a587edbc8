import numpy as np
import pytest
from hypothesis import strategies as st

from echobake.perception import Cluster, ClusterMap
from echobake.scene import load_scene
from echobake.shapes import (box_obj, cube_obj, default_materials_json,
                             pillar_room_obj, square_pyramid_obj)

from corridor_geometry import corridor_obj, corridor_path


@pytest.fixture(scope="session")
def uniform_materials():
    return default_materials_json(0.2)


@pytest.fixture(scope="session")
def cube_scene(uniform_materials):
    return load_scene(cube_obj(5.0), uniform_materials)


@pytest.fixture(scope="session")
def pyramid_scene(uniform_materials):
    return load_scene(square_pyramid_obj(2.8, 3.0), uniform_materials)


@pytest.fixture(scope="session")
def pillar_scene(uniform_materials):
    return load_scene(pillar_room_obj(), uniform_materials)


@pytest.fixture(scope="session")
def corridor_scene(uniform_materials):
    return load_scene(corridor_obj(), uniform_materials)


@pytest.fixture(scope="session")
def corridor_points():
    return corridor_path()


def open_cube_obj():
    """The 5 m cube with its last face (two triangles) removed."""
    lines = cube_obj(5.0).strip().splitlines()
    return "\n".join(lines[:-2]) + "\n"


def joined_obj(*texts):
    """One mesh of several OBJ texts, each keeping its own vertices: face
    indices are offset past the vertices before them, so no index is shared
    even where coordinates coincide."""
    lines, offset = [], 0
    for text in texts:
        for line in text.strip().splitlines():
            if line.startswith("f "):
                line = "f " + " ".join(str(int(i) + offset) for i in line.split()[1:])
            lines.append(line)
        offset += sum(line.startswith("v ") for line in text.splitlines())
    return "\n".join(lines) + "\n"


# Two closed halls 2 m apart along x, and the 5 m cube open on its +x face
# (its last two triangles) beside a closed box that its escaping rays reach.
TWO_HALLS_OBJ = joined_obj(box_obj(12.0, 8.0, 5.0),
                           box_obj(8.0, 6.0, 4.0, origin=(14.0, 0.0, 0.0)))
HALL_POINTS = ((3.0, 4.0, 2.0), (17.0, 2.0, 1.5), (9.0, 6.0, 3.5),
               (20.0, 4.5, 2.5), (6.0, 1.5, 1.0), (15.5, 3.0, 3.0))
OPEN_BESIDE_CLOSED_OBJ = joined_obj(open_cube_obj(),
                                    box_obj(4.0, 5.0, 5.0, origin=(7.0, 0.0, 0.0)))


def baked_map(rt60s):
    """Single-sample-per-cluster map with baked band RT60s."""
    clusters = tuple(
        Cluster(i, i + 1, 2.0, 2.0, 0.02, rt60_bands=(rt,) * 4,
                r_squared=(1.0,) * 4, lr_position=(0.0, 0.0, 0.0))
        for i, rt in enumerate(rt60s))
    return ClusterMap(clusters, len(rt60s))


def random_rays(scene, n, seed):
    """Origins inside the scene bounds, unit directions, as float64."""
    rng = np.random.default_rng(seed)
    lo, hi = scene.bounds
    origins = lo + rng.random((n, 3)) * (hi - lo)
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return origins, dirs


# What a text mutation may insert: the parsers' separators and keywords,
# numbers at and past float64's limits (1e155 squared overflows), a digit
# run past Python's int-string limit, JSON punctuation, and any character.
_PIECES = ["", ",", " ", "\n", "\t", "#", "/", ".", "-", "e", "0", "9", "nan",
           "inf", "-inf", "1e308", "-1e200", "1e155", "5e-324", "9" * 5000,
           "v ", "f ", "usemtl ", "[", "]", "{", "}", '"', ":", "null", "true",
           "\u0661", "\x00"]


def text_edits(binary=False):
    """Up to four edits (position, inserted piece, characters removed), of
    str, or of bytes, which may also leave invalid UTF-8."""
    if binary:
        piece = st.sampled_from([p.encode() for p in _PIECES]) | st.binary(max_size=3)
    else:
        piece = st.sampled_from(_PIECES) | st.text(max_size=3)
    return st.lists(st.tuples(st.integers(0, 1 << 20), piece,
                              st.integers(0, 8)), min_size=1, max_size=4)


def apply_edits(data, edits):
    """Apply text_edits to a str or bytes; positions wrap."""
    for pos, piece, removed in edits:
        i = pos % (len(data) + 1)
        data = data[:i] + piece + data[i + removed:]
    return data
