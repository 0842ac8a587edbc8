import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from echobake import raycast
from echobake.errors import (AcousticDomainError, InputError, MaterialError,
                             MeshParseError, WatertightError)
from echobake.pipeline import _fixture_text
from echobake.scene import (DEFAULT_BAND_EDGES, MAX_COORDINATE_M, BandLayout,
                            Material, analytic_volume_and_area, load_scene,
                            parse_materials, parse_mesh)
from echobake.shapes import (box_obj, cube_obj, default_materials_json,
                             pillar_room_analytic, pillar_room_obj,
                             square_pyramid_obj, validation_shapes)

from conftest import (OPEN_BESIDE_CLOSED_OBJ, TWO_HALLS_OBJ, apply_edits,
                      joined_obj, text_edits)
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


def test_default_material_table_has_one_coefficient_per_default_band():
    layout, [material] = parse_materials(default_materials_json(0.3))
    assert layout.edges_hz == DEFAULT_BAND_EDGES
    assert material.absorption == (0.3,) * (len(DEFAULT_BAND_EDGES) - 1)


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


def _faces_reversed(text):
    lines = text.strip().splitlines()
    faces = [line for line in lines if line.startswith("f ")]
    return "\n".join([line for line in lines if not line.startswith("f ")] + faces[::-1])


# Meshes of separate boxes, and the triangles of each isolated part: two
# halls, also with the faces of one listed from its +x end; a box inside a
# box (the outer one's extent covers the inner one's); an open box beside a
# closed one; two cubes 1e-5 m apart, closer than the 2.3e-5 m pad; and two
# cubes sharing the plane x = 5 but no vertex.
PART_CASES = {
    "two_halls": (TWO_HALLS_OBJ, [range(0, 12), range(12, 24)]),
    "faces_out_of_order": (joined_obj(_faces_reversed(cube_obj(5.0)), cube_obj(
        3.0, origin=(6.0, 0.0, 0.0))), [range(0, 12), range(12, 24)]),
    "nested": (joined_obj(cube_obj(10.0), cube_obj(2.0, origin=(4.0, 4.0, 4.0))), []),
    "open_beside_closed": (OPEN_BESIDE_CLOSED_OBJ, [range(0, 10), range(10, 22)]),
    "padded_boxes_touch": (joined_obj(cube_obj(5.0), cube_obj(5.0, origin=(5.00001, 0.0, 0.0))), []),
    "coordinates_coincide": (joined_obj(cube_obj(5.0), cube_obj(5.0, origin=(5.0, 0.0, 0.0))), []),
}


@pytest.fixture(scope="module", params=sorted(PART_CASES))
def part_case(request):
    text, parts = PART_CASES[request.param]
    return load_scene(text, MATS), parts


def test_isolated_parts(part_case):
    scene, parts = part_case
    assert [m.tolist() for *_, m, _ in scene._parts] == [list(r) for r in parts]
    for low, high, members, coeffs in scene._parts:
        corners = scene._corners[members].reshape(-1, 3)
        assert np.all(corners > low) and np.all(corners < high)
        assert np.array_equal(coeffs, scene._coeffs[:, :, members])


@pytest.mark.parametrize("text", [cube_obj(5.0), pillar_room_obj()])
def test_one_piece_has_no_isolated_part(text):
    assert load_scene(text, MATS)._parts == []


def test_corridor_has_no_isolated_part(corridor_scene):
    assert corridor_scene._parts == []


def _assert_whole_mesh_bits(scene, origins, dirs, t_min):
    got = scene.batch_closest_hit(origins, dirs, t_min)
    want = raycast.batch_closest_hit(origins, dirs, scene._coeffs, t_min)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def _part_boxes(scene):
    """Each part's padded box, then the scene's bounds grown by 2 m."""
    lo, hi = scene.bounds
    return [(np.array(low), np.array(high)) for low, high, *_ in scene._parts] + [
        (lo - 2.0, hi + 2.0)]


@settings(max_examples=60, deadline=None)
@given(box=st.integers(0, 2), t_min=st.sampled_from([0.0, 1e-4]),
       rays=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3,
                               *[st.floats(-1.0, 1.0)] * 3), min_size=1, max_size=30))
def test_parts_give_whole_mesh_bits(part_case, box, t_min, rays):
    # Rays from within one part's box (restricted), or anywhere near the
    # scene (mostly the whole mesh). Zero directions miss everything.
    scene, _ = part_case
    boxes = _part_boxes(scene)
    low, high = boxes[min(box, len(boxes) - 1)]
    rays = np.array(rays)
    _assert_whole_mesh_bits(scene, low + rays[:, :3] * (high - low), rays[:, 3:], t_min)


def test_straddling_and_outside_origins_give_whole_mesh_bits(part_case):
    scene, _ = part_case
    rng = np.random.default_rng(8)
    dirs = rng.standard_normal((400, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # Alternate rows from every box, including the one around the scene.
    groups = [low + rng.random((400, 3)) * (high - low) for low, high in _part_boxes(scene)]
    straddling = np.stack(groups, axis=1).reshape(-1, 3)[:400]
    between = np.array([[13.0, 3.0, 2.0], [6.0, 2.5, 2.5], [5.000005, 2.5, 2.5]])
    for origins in (straddling, np.repeat(between, 50, axis=0), groups[-1]):
        for t_min in (0.0, 1e-4):
            _assert_whole_mesh_bits(scene, origins, dirs[:origins.shape[0]], t_min)


def test_part_calls_and_their_fallback(monkeypatch):
    # One hall's rays in a closed hall take one call on that hall's
    # coefficients, and a mesh with no isolated part one call on all of
    # them. Rays leaving the open box through its open face miss it, and a
    # second call on the whole mesh finds the closed box beside it.
    halls, cube = load_scene(TWO_HALLS_OBJ, MATS), load_scene(cube_obj(5.0), MATS)
    open_closed = load_scene(OPEN_BESIDE_CLOSED_OBJ, MATS)
    calls = []

    def kernel(origins, dirs, coeffs, t_min):
        calls.append((origins.shape[0], coeffs))
        return raycast.batch_closest_hit(origins, dirs, coeffs, t_min)

    monkeypatch.setattr("echobake.scene.batch_closest_hit", kernel)
    halls.batch_closest_hit(np.full((3, 3), 2.0) + [14.0, 0.0, 0.0], np.eye(3), 0.0)
    cube.batch_closest_hit(np.full((3, 3), 2.0), np.eye(3), 0.0)
    t, idx = open_closed.batch_closest_hit(np.full((2, 3), 2.5), np.array(
        [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), 0.0)
    assert len(calls) == 4
    assert [(n, c is coeffs) for (n, c), coeffs in zip(calls, [
        halls._parts[1][3], cube._coeffs, open_closed._parts[0][3],
        open_closed._coeffs])] == [(3, True), (3, True), (2, True), (1, True)]
    assert t.tolist() == [4.5, 2.5] and idx[0] >= 10 and 0 <= idx[1] < 10


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
