import numpy as np
import pytest

from echobake.perception import Cluster, ClusterMap
from echobake.scene import load_scene
from echobake.shapes import (cube_obj, default_materials_json,
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
