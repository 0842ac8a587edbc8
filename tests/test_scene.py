import math

import numpy as np
import pytest
from hypothesis import given, settings

from echobake.errors import (AcousticDomainError, InputError, MaterialError,
                             MeshParseError, WatertightError)
from echobake.pipeline import _fixture_text
from echobake.scene import (DEFAULT_BAND_EDGES, MAX_COORDINATE_M, BandLayout,
                            Material, analytic_volume_and_area, load_scene,
                            parse_materials, parse_mesh)
from echobake.shapes import (box_obj, cube_obj, default_materials_json,
                             pillar_room_analytic, pillar_room_obj,
                             square_pyramid_obj, validation_shapes)

from conftest import apply_edits, text_edits
from corridor_geometry import corridor_room_analytics

MATS = default_materials_json(0.2)


def test_parse_minimal_obj():
    vertices, faces, names = parse_mesh(
        "# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    assert vertices.shape == (3, 3)
    assert faces == [(0, 1, 2)]
    assert names == ["default"]


def test_parse_usemtl_and_slash_indices():
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nusemtl brick\nf 1/1 2/2 3/3\n"
    _, faces, names = parse_mesh(text)
    assert faces == [(0, 1, 2)]
    assert names == ["brick"]


def test_parse_rejects_negative_indices():
    # Only plain 1-based indices are in the supported subset.
    with pytest.raises(MeshParseError, match="out of range"):
        parse_mesh("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")


def test_parse_rejects_quads():
    with pytest.raises(MeshParseError, match="line 5"):
        parse_mesh("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")


def test_parse_rejects_unknown_directive():
    with pytest.raises(MeshParseError, match="line 1"):
        parse_mesh("curve 1 2 3\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_vertex(bad):
    lines = cube_obj(5.0).splitlines()
    line_no = next(i for i, line in enumerate(lines, 1) if line.startswith("v "))
    lines[line_no - 1] = f"v {bad} 0.0 0.0"
    with pytest.raises(MeshParseError, match=f"line {line_no}: .*finite"):
        parse_mesh("\n".join(lines))


@pytest.mark.parametrize("bad", ["1e200", "-1e155", "1000000.5"])
def test_parse_rejects_vertex_past_coordinate_bound(bad):
    # Coordinates near 1e154 m overflowed the cross product in Scene.
    lines = cube_obj(5.0).splitlines()
    line_no = next(i for i, line in enumerate(lines, 1) if line.startswith("v "))
    lines[line_no - 1] = f"v 0.0 {bad} 0.0"
    with pytest.raises(MeshParseError, match=f"line {line_no}: .*within 1e\\+06 m"):
        parse_mesh("\n".join(lines))
    lines[line_no - 1] = f"v 0.0 {-MAX_COORDINATE_M} 0.0"
    assert parse_mesh("\n".join(lines))[0][0, 1] == -MAX_COORDINATE_M


def test_parse_rejects_out_of_range_index():
    with pytest.raises(MeshParseError):
        parse_mesh("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")


def test_unknown_material_name_is_an_error():
    mesh = "v 0 0 0\nv 1 0 0\nv 0 1 0\nusemtl marble\nf 1 2 3\n"
    with pytest.raises(MaterialError, match="marble"):
        load_scene(mesh, MATS)


def test_material_alpha_range():
    with pytest.raises(MaterialError):
        Material("m", (0.2, 0.2, 0.2, 1.0))
    with pytest.raises(MaterialError):
        Material("m", (-0.1, 0.2, 0.2, 0.2))
    m = Material("m", (0.0, 0.5, 0.99, 0.2))
    assert m.absorption[2] == 0.99


@pytest.mark.parametrize("table, named", [
    ('{"materials": {"brick": ["x", 0.1, 0.1, 0.1]}}', "'brick'"),
    ('{"materials": {"brick": [0.1, true, 0.1, 0.1]}}', "'brick'"),
    ('{"materials": {"brick": [0.1, 0.1, null, 0.1]}}', "'brick'"),
    ('{"materials": {"brick": [0.1, 0.1, 0.1, NaN]}}', "'brick'"),
    ('{"materials": {"brick": [0.1, 0.1, 0.1, -Infinity]}}', "'brick'"),
    ('{"materials": {"brick": [0.1, 0.1, 0.1, [0.1]]}}', "'brick'"),
    ('{"materials": {"brick": 0.1}}', "'brick'"),
    ('{"band_edges_hz": 5, "materials": {"brick": [0.1]}}', "band_edges_hz"),
    ('{"band_edges_hz": "0,100", "materials": {"brick": [0.1]}}', "band_edges_hz"),
    ('{"band_edges_hz": [0, "x"], "materials": {"brick": [0.1]}}', "band_edges_hz"),
])
def test_malformed_material_table(table, named):
    with pytest.raises(MaterialError, match=named):
        parse_materials(table)


def test_band_layout_must_increase():
    with pytest.raises(InputError):
        BandLayout((0.0, 100.0, 100.0, 200.0, 22050.0))
    assert BandLayout(DEFAULT_BAND_EDGES).n_bands == 4


@pytest.mark.parametrize("edges", [
    (0.0, 200.0, 100.0, 22050.0),
    (0.0, float("nan"), 22050.0),
    (0.0, 100.0, float("inf")),
    (0.0, "100", 22050.0),
    (0.0, True, 22050.0),
    (0.0, None, 22050.0),
])
def test_band_layout_rejects_malformed_edges(edges):
    with pytest.raises(InputError, match="finite and strictly increasing"):
        BandLayout(edges)


def test_degenerate_face_rejected():
    mesh = "v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n"
    with pytest.raises(InputError, match="degenerate"):
        load_scene(mesh, MATS)


def test_cube_volume_and_area(cube_scene):
    volume, area = analytic_volume_and_area(cube_scene)
    assert volume == pytest.approx(125.0, abs=1e-9)
    assert area == pytest.approx(150.0, abs=1e-9)
    assert cube_scene.n_triangles == 12


def test_box_volume_and_area():
    scene = load_scene(box_obj(2.0, 3.0, 4.0), MATS)
    volume, area = analytic_volume_and_area(scene)
    assert volume == pytest.approx(24.0, abs=1e-9)
    assert area == pytest.approx(52.0, abs=1e-9)


def test_pyramid_volume_and_area(pyramid_scene):
    volume, area = analytic_volume_and_area(pyramid_scene)
    # Base 2.8 on a side, height 3: V = b^2 h / 3, lateral faces have
    # slant height sqrt(h^2 + (b/2)^2).
    assert volume == pytest.approx(2.8 * 2.8 * 3.0 / 3.0, rel=1e-12)
    slant = math.sqrt(3.0 ** 2 + 1.4 ** 2)
    expected_area = 2.8 * 2.8 + 4.0 * (0.5 * 2.8 * slant)
    assert area == pytest.approx(expected_area, rel=1e-12)


def test_pillar_room_volume_and_area(pillar_scene):
    volume, area = analytic_volume_and_area(pillar_scene)
    expected_volume, expected_area = pillar_room_analytic()
    assert volume == pytest.approx(expected_volume, abs=1e-9)
    assert area == pytest.approx(expected_area, abs=1e-9)


def test_corridor_mesh_shape(corridor_scene):
    # The dividing walls are membranes with air on both sides, so the
    # closed-mesh volume is undefined by construction; room volumes are
    # fixture metadata instead.
    assert corridor_scene.n_triangles == 44
    with pytest.raises(WatertightError):
        analytic_volume_and_area(corridor_scene)


def test_corridor_room_volumes_match_advertised():
    volumes = [v for v, _ in corridor_room_analytics()]
    assert volumes == [135.0, 256.0, 125.0]


def test_open_mesh_rejected():
    mesh = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    scene = load_scene(mesh, MATS)
    with pytest.raises(WatertightError):
        analytic_volume_and_area(scene)


def test_validation_shapes_are_all_watertight():
    for fixture in validation_shapes():
        scene = load_scene(fixture.mesh_text, MATS)
        volume, area = analytic_volume_and_area(scene)
        assert volume == pytest.approx(fixture.volume, rel=1e-12), fixture.name
        assert area == pytest.approx(fixture.area, rel=1e-12), fixture.name


def test_mean_absorption_uniform(cube_scene):
    assert np.allclose(cube_scene.mean_absorption(), 0.2)


def test_mean_absorption_area_weighted():
    mesh = (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "v 0 0 1\nv 2 0 1\nv 0 2 1\n"
        "usemtl soft\nf 1 2 3\n"
        "usemtl hard\nf 4 5 6\n"
    )
    mats = ('{"materials": {"soft": [0.8, 0.8, 0.8, 0.8], '
            '"hard": [0.1, 0.1, 0.1, 0.1]}}')
    scene = load_scene(mesh, mats)
    # Areas 0.5 and 2.0: weighted mean = (0.5*0.8 + 2.0*0.1) / 2.5.
    assert np.allclose(scene.mean_absorption(), 0.24)


def test_fingerprint_tracks_content():
    a = load_scene(cube_obj(5.0), MATS)
    b = load_scene(cube_obj(5.0), MATS)
    c = load_scene(cube_obj(4.0), MATS)
    d = load_scene(cube_obj(5.0), default_materials_json(0.3))
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint
    assert a.fingerprint != d.fingerprint


def _closest_hit(scene, origin, direction, t_min=0.0):
    t, idx = scene.batch_closest_hit(np.array([origin], dtype=np.float64),
                                     np.array([direction], dtype=np.float64),
                                     t_min)
    return float(t[0]), int(idx[0])


def test_intersect_cube_center(cube_scene):
    t, idx = _closest_hit(cube_scene, (2.5, 2.5, 2.5), (1.0, 0.0, 0.0))
    assert idx >= 0
    assert t == pytest.approx(2.5, abs=1e-12)


def test_intersect_miss(cube_scene):
    _, idx = _closest_hit(cube_scene, (2.5, 2.5, 2.5), (1.0, 0.0, 0.0),
                          t_min=10.0)
    assert idx == -1


def test_pillar_room_blocks_sight_lines(pillar_scene):
    # A ray aimed through a pillar's cell must stop at the pillar wall.
    t, idx = _closest_hit(pillar_scene, (0.5, 2.5, 3.0), (1.0, 0.0, 0.0))
    assert idx >= 0
    assert t == pytest.approx(0.5, abs=1e-9)


FUZZ_MATERIALS = ('{"band_edges_hz": [0, 176, 775, 3408, 22050], "materials": '
                  '{"default": [0.2, 0.2, 0.2, 0.2], "glass": [0.05, 0.04, 0.03, 0.02]}}')


class TestLoadFuzz:
    """A mutated mesh or material table either loads into a Scene or
    raises InputError or AcousticDomainError; nothing else may escape,
    including a numpy warning, which the suite turns into an error."""

    @settings(max_examples=400, deadline=None)
    @given(edits=text_edits())
    def test_mutated_mesh(self, edits):
        try:
            load_scene(apply_edits(_fixture_text("corridor.obj"), edits),
                       FUZZ_MATERIALS)
        except (InputError, AcousticDomainError):
            pass

    @settings(max_examples=400, deadline=None)
    @given(edits=text_edits())
    def test_mutated_materials(self, edits):
        try:
            load_scene(cube_obj(5.0), apply_edits(FUZZ_MATERIALS, edits))
        except (InputError, AcousticDomainError):
            pass

    @pytest.mark.parametrize("text", ["[" * 100_000,
                                      '{"materials": {"default": [' + "1" * 5000 + "]}}"])
    def test_json_past_the_decoder_limits(self, text):
        # Nesting past the decoder's recursion depth, and an integer past
        # Python's digit limit, raised RecursionError and ValueError.
        with pytest.raises(MaterialError, match="not valid JSON"):
            parse_materials(text)
