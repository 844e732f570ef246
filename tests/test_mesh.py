import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucfem.geometry import Geometry
from ucfem.mesh import (
    Region,
    build_disk_mesh,
    element_diameters,
    mesh_from_arrays,
    read_mesh,
    refine_uniform,
    signed_areas,
    validate,
    write_mesh,
)


class TestBaseMesh:
    def test_level0_counts(self, base_mesh):
        # one center vertex plus three rings of 8
        assert base_mesh.n_vertices == 25
        assert base_mesh.n_triangles == 40

    def test_level0_tags(self, base_mesh):
        counts = np.bincount(base_mesh.region_tag, minlength=3)
        assert counts[Region.OMEGA_DATA] == 8
        assert counts[Region.TARGET_ANNULUS] == 16
        assert counts[Region.OUTER_ANNULUS] == 16

    def test_level1_counts(self, geometry):
        # quadrisection: V' = V + E with E = (3*40 + 8)/2 = 64
        mesh = build_disk_mesh(geometry, sectors=8, level=1)
        assert mesh.n_triangles == 160
        assert mesh.n_vertices == 89

    def test_positive_areas_and_orientation(self, base_mesh):
        assert signed_areas(base_mesh).min() > 0

    def test_rejects_bad_sectors(self, geometry):
        with pytest.raises(ValueError):
            build_disk_mesh(geometry, sectors=7)
        with pytest.raises(ValueError):
            build_disk_mesh(geometry, sectors=4)

    def test_rejects_3d_geometry(self):
        with pytest.raises(ValueError):
            build_disk_mesh(Geometry(0.25, 0.5, 1.0, dim=3), sectors=8)


class TestRefinement:
    def test_quadruples_triangles_and_doubles_boundary(self, geometry, base_mesh):
        mesh = base_mesh
        for _ in range(3):
            child = refine_uniform(mesh, geometry)
            assert child.n_triangles == 4 * mesh.n_triangles
            assert child.boundary_vertices.size == 2 * mesh.boundary_vertices.size
            mesh = child

    def test_interface_midpoints_projected(self, geometry, base_mesh):
        child = refine_uniform(base_mesh, geometry)
        for circle, radius in ((1, 0.25), (2, 0.5), (3, 1.0)):
            ring = child.vertices[child.vertex_circle == circle]
            assert np.abs(np.linalg.norm(ring, axis=1) - radius).max() < 1e-14

    def test_parent_vertices_preserved(self, geometry, base_mesh):
        child = refine_uniform(base_mesh, geometry)
        assert np.array_equal(child.vertices[: base_mesh.n_vertices], base_mesh.vertices)
        # nodal values of a linear function agree at shared vertices by construction
        f = lambda v: v[:, 0]
        assert np.array_equal(
            f(child.vertices[: base_mesh.n_vertices]), f(base_mesh.vertices)
        )

    def test_tags_inherited(self, geometry, base_mesh):
        child = refine_uniform(base_mesh, geometry)
        assert np.array_equal(child.region_tag, np.repeat(base_mesh.region_tag, 4))

    def test_h_roughly_halves(self, geometry, base_mesh):
        mesh = base_mesh
        for _ in range(3):
            child = refine_uniform(mesh, geometry)
            ratio = child.h / mesh.h
            assert 0.45 <= ratio <= 0.55  # exact halving up to <= 10% projection distortion
            mesh = child

    def test_rotation_turns_vertices_and_triangles(self, geometry):
        # build_disk_mesh records the turn by 2 pi / 8; refinement carries it
        # to the edge midpoints without looking at coordinates
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        turn = np.array([[c, -s], [s, c]])
        mesh = build_disk_mesh(geometry, sectors=8, level=0)
        for level in range(4):
            rot = mesh.rotation
            assert np.array_equal(np.sort(rot), np.arange(mesh.n_vertices))
            assert np.abs(mesh.vertices[rot] - mesh.vertices @ turn.T).max() < 1e-14
            turned = {tuple(sorted(t)) for t in rot[mesh.triangles].tolist()}
            assert turned == {tuple(sorted(t)) for t in mesh.triangles.tolist()}
            assert np.array_equal(mesh.vertex_circle[rot], mesh.vertex_circle)
            mesh = refine_uniform(mesh, geometry)

    def test_projection_free_mesh_halves_exactly(self, unit_triangle_mesh):
        geo = Geometry(0.25, 0.5, 1.0)
        child = refine_uniform(unit_triangle_mesh, geo)
        assert child.h == unit_triangle_mesh.h / 2


class TestMetrics:
    def test_unit_right_triangle_h(self, unit_triangle_mesh):
        assert abs(unit_triangle_mesh.h - math.sqrt(2)) < 1e-15

    def test_equilateral_shape_ratio(self):
        mesh = mesh_from_arrays(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]),
            np.array([[0, 1, 2]]),
            np.array([0]),
        )
        assert abs(validate(mesh).shape_ratio - math.sqrt(3)) < 1e-12

    def test_shape_ratio_stable_across_family(self, geometry, base_mesh):
        base_ratio = validate(base_mesh).shape_ratio
        mesh = base_mesh
        for _ in range(6):
            mesh = refine_uniform(mesh, geometry)
            ratio = validate(mesh).shape_ratio
            assert ratio <= 2 * base_ratio
            assert ratio >= base_ratio / 2


class TestAreas:
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_domain_area_converges(self, geometry, level):
        mesh = build_disk_mesh(geometry, sectors=8, level=level)
        area = signed_areas(mesh).sum()
        target = math.pi * geometry.r3**2
        assert abs(area - target) / target < 4 * (mesh.h / geometry.r3) ** 2

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_data_region_area_converges(self, geometry, level):
        mesh = build_disk_mesh(geometry, sectors=8, level=level)
        omega = signed_areas(mesh)[mesh.region_tag == Region.OMEGA_DATA].sum()
        target = math.pi * geometry.r1**2
        assert abs(omega - target) / target < 4 * (mesh.h / geometry.r3) ** 2


class TestValidate:
    def test_generated_meshes_clean(self, geometry):
        for level in (0, 1, 2):
            mesh = build_disk_mesh(geometry, sectors=8, level=level)
            assert validate(mesh).ok

    def test_orientation_violation_reported(self, base_mesh):
        tris = base_mesh.triangles.copy()
        tris[5] = tris[5][::-1]
        bad = mesh_from_arrays(base_mesh.vertices, tris, base_mesh.region_tag)
        report = validate(bad)
        assert any("triangle 5" in v and "area" in v for v in report.violations)

    def test_duplicate_triangle_breaks_conformity(self, base_mesh):
        tris = np.vstack([base_mesh.triangles, base_mesh.triangles[0:1]])
        tags = np.concatenate([base_mesh.region_tag, base_mesh.region_tag[0:1]])
        bad = mesh_from_arrays(base_mesh.vertices, tris, tags)
        report = validate(bad)
        assert any("shared by 3" in v for v in report.violations)

    def test_bad_tag_reported(self, base_mesh):
        tags = base_mesh.region_tag.copy()
        tags[0] = 7
        bad = mesh_from_arrays(base_mesh.vertices, base_mesh.triangles, tags)
        assert any("invalid region tag" in v for v in validate(bad).violations)


def _assert_adjacency_matches_brute_force(mesh):
    # every (triangle, local slot) occurrence of each edge, in construction order
    occurrences = {}
    for t, (a, b, c) in enumerate(mesh.triangles.tolist()):
        for slot, (p, q) in enumerate(((a, b), (b, c), (c, a))):
            occurrences.setdefault((min(p, q), max(p, q)), []).append((t, slot))
    keys = sorted(occurrences)
    tri_edges = np.full(mesh.triangles.shape, -1)
    for e, key in enumerate(keys):
        for t, slot in occurrences[key]:
            tri_edges[t, slot] = e
    hits = [occurrences[key] for key in keys]
    assert mesh.edges.tolist() == [list(key) for key in keys]
    assert mesh.edge_counts.tolist() == [len(h) for h in hits]
    assert mesh.tri_edges.tolist() == tri_edges.tolist()
    assert mesh.edge_tris.tolist() == [[h[0][0], h[1][0] if len(h) > 1 else -1] for h in hits]


class TestAdjacency:
    def test_disk_level2_matches_brute_force(self, mesh_l2):
        _assert_adjacency_matches_brute_force(mesh_l2)

    def test_edge_of_three_triangles_matches_brute_force(self, base_mesh):
        tris = np.vstack([base_mesh.triangles, base_mesh.triangles[0:1]])
        tags = np.concatenate([base_mesh.region_tag, base_mesh.region_tag[0:1]])
        mesh = mesh_from_arrays(base_mesh.vertices, tris, tags)
        assert mesh.edge_counts.max() == 3
        _assert_adjacency_matches_brute_force(mesh)

    def test_vertex_index_out_of_range_rejected(self, unit_triangle_mesh):
        with pytest.raises(ValueError, match="vertex index"):
            mesh_from_arrays(unit_triangle_mesh.vertices, [[0, 1, 3]], [0])


class TestMeshFile:
    def test_round_trip(self, geometry, tmp_path):
        mesh = build_disk_mesh(geometry, sectors=8, level=1)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        back = read_mesh(path, geometry=geometry)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.region_tag, mesh.region_tag)
        assert np.array_equal(back.vertex_circle, mesh.vertex_circle)
        # the file stores no symmetry; the recovered circles refine as before
        assert mesh.rotation is not None and back.rotation is None
        finer, back_finer = refine_uniform(mesh, geometry), refine_uniform(back, geometry)
        assert np.array_equal(back_finer.vertices, finer.vertices)
        assert back_finer.rotation is None

    def test_header_format(self, base_mesh, tmp_path):
        path = tmp_path / "mesh.txt"
        write_mesh(base_mesh, path)
        first = path.read_text().splitlines()[0]
        assert first == "mesh v1 25 40"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a mesh\n")
        with pytest.raises(ValueError):
            read_mesh(path)


def test_element_diameters_matches_h(base_mesh):
    assert abs(element_diameters(base_mesh).max() - base_mesh.h) < 1e-15


@given(
    r1=st.floats(min_value=0.05, max_value=1.0),
    gap2=st.floats(min_value=1.5, max_value=3.0),
    gap3=st.floats(min_value=1.5, max_value=3.0),
    sectors=st.sampled_from([8, 10, 14]),
    level=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_generated_family_always_valid(r1, gap2, gap3, sectors, level):
    # annulus widths comfortably above the projection displacement
    geo = Geometry(r1, r1 * gap2, r1 * gap2 * gap3)
    mesh = build_disk_mesh(geo, sectors=sectors, level=level)
    report = validate(mesh)
    assert report.ok, report.violations
    assert mesh.n_triangles == 5 * sectors * 4**level
    area = signed_areas(mesh).sum()
    target = math.pi * geo.r3**2
    assert abs(area - target) / target < 4 * (mesh.h / geo.r3) ** 2


def test_thin_annulus_projection_rejected():
    # the outer annulus (2.0 -> 2.5) is thinner than the sectors=6
    # projection step, so refinement must refuse instead of inverting
    geo = Geometry(1.0, 2.0, 2.5)
    with pytest.raises(ValueError, match="sectors"):
        build_disk_mesh(geo, sectors=6, level=1)
    # the remedy works
    assert validate(build_disk_mesh(geo, sectors=12, level=1)).ok
