import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jittered_disk_mesh
from ucfem.geometry import Geometry
from ucfem.mesh import (
    Region,
    build_disk_mesh,
    element_diameters,
    mesh_from_arrays,
    refine_uniform,
    validate,
    write_mesh,
)

MESH_ARRAYS = (
    "vertices",
    "triangles",
    "region_tag",
    "vertex_circle",
    "edges",
    "tri_edges",
    "edge_tris",
    "edge_counts",
    "boundary_edges",
    "boundary_vertices",
)
#: the index arrays of every mesh, all int32
INDEX_ARRAYS = (
    "triangles",
    "region_tag",
    "edges",
    "tri_edges",
    "edge_tris",
    "edge_counts",
    "boundary_edges",
    "boundary_vertices",
)


def _sorted_rows(triangles):
    """The triangles as vertex sets, in lexicographic order."""
    t = np.sort(triangles, axis=1)
    return t[np.lexsort(t.T[::-1])]


def _assert_same_mesh(got, want):
    for name in MESH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert (got.h, got.level) == (want.h, want.level)


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
        assert base_mesh.signed_areas.min() > 0

    def test_rejects_bad_sectors(self, geometry):
        with pytest.raises(ValueError):
            build_disk_mesh(geometry, sectors=7)
        with pytest.raises(ValueError):
            build_disk_mesh(geometry, sectors=4)

    def test_rejects_3d_geometry(self):
        with pytest.raises(ValueError):
            build_disk_mesh(Geometry(0.25, 0.5, 1.0, dim=3), sectors=8)


class TestRefinement:
    def test_refined_topology_matches_mesh_from_arrays(self, geometry, unit_triangle_mesh):
        # the child's topology is written by construction: sorting its edge
        # occurrences afresh must give every array, its dtype and h bit for bit
        parents = [unit_triangle_mesh, jittered_disk_mesh(geometry, 1, seed=7, amplitude=0.8)]
        for sectors in (8, 16):
            parents.append(build_disk_mesh(geometry, sectors, 0))
        while parents:
            parent = parents.pop()
            child = refine_uniform(parent, geometry)
            want = mesh_from_arrays(
                child.vertices, child.triangles, child.region_tag, child.level, child.vertex_circle
            )
            _assert_same_mesh(child, want)
            # disk meshes to level 5, the rotation-free jittered mesh twice
            if child.level < (6 if child.rotation is not None else 3):
                parents.append(child)

    def test_level7_refinement_matches_mesh_from_arrays(self, geometry):
        # the midpoint-edge keys lo * (nv + ne) + hi of a level-5 or finer
        # parent and the keys lo * nv + hi of this child pass 2^31: int32
        # keys would give both sides a wrong topology
        child = refine_uniform(build_disk_mesh(geometry, 8, 6), geometry)
        assert child.n_vertices**2 > np.iinfo(np.int32).max
        want = mesh_from_arrays(
            child.vertices, child.triangles, child.region_tag, child.level, child.vertex_circle
        )
        _assert_same_mesh(child, want)

    def test_index_arrays_are_int32(self, geometry, unit_triangle_mesh):
        built = build_disk_mesh(geometry, 8, 0)
        for mesh in (built, refine_uniform(built, geometry), unit_triangle_mesh):
            for name in INDEX_ARRAYS:
                assert getattr(mesh, name).dtype == np.int32, name
            assert mesh.vertices.dtype == np.float64 and mesh.vertex_circle.dtype == np.int8
            if mesh.rotation is not None:
                assert mesh.rotation.dtype == mesh.rotation_with_midpoints.dtype == np.int32

    def test_array_fields_are_read_only(self, geometry, base_mesh, mesh_l2, unit_triangle_mesh):
        # a refined mesh's rotation is its parent's read-only
        # rotation_with_midpoints; the base mesh's is its own
        meshes = (base_mesh, mesh_l2, refine_uniform(mesh_l2, geometry), unit_triangle_mesh)
        for mesh in meshes:
            arrays = {f.name: getattr(mesh, f.name) for f in dataclasses.fields(mesh)}
            arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
            recorded = {"rotation"} if mesh.rotation is not None else set()
            assert set(arrays) == set(MESH_ARRAYS) | recorded
            for name, a in arrays.items():
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = a.flat[0]
        assert base_mesh.rotation is not None and unit_triangle_mesh.rotation is None

    def test_tag_outside_int32_rejected(self, unit_triangle_mesh):
        v = unit_triangle_mesh.vertices
        for tag in (2**31, -(2**31) - 1):
            with pytest.raises(ValueError, match="int32"):
                mesh_from_arrays(v, [[0, 1, 2]], [tag])
        assert mesh_from_arrays(v, [[0, 1, 2]], [2**31 - 1]).region_tag[0] == 2**31 - 1

    def test_refinement_rejects_an_edge_of_three_triangles(self, geometry, base_mesh):
        tris = np.vstack([base_mesh.triangles, base_mesh.triangles[0:1]])
        tags = np.concatenate([base_mesh.region_tag, base_mesh.region_tag[0:1]])
        with pytest.raises(ValueError, match="at most two triangles"):
            refine_uniform(mesh_from_arrays(base_mesh.vertices, tris, tags), geometry)

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
        # to the edge midpoints without looking at coordinates.  Level 7 is
        # the first whose rotation comes from edge keys past 2^31 (level 6's)
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        turn = np.array([[c, -s], [s, c]])
        mesh = build_disk_mesh(geometry, sectors=8, level=0)
        for level in range(8):
            rot = mesh.rotation
            assert np.array_equal(np.sort(rot), np.arange(mesh.n_vertices))
            assert np.abs(mesh.vertices[rot] - mesh.vertices @ turn.T).max() < 1e-14
            assert np.array_equal(_sorted_rows(rot[mesh.triangles]), _sorted_rows(mesh.triangles))
            assert np.array_equal(mesh.vertex_circle[rot], mesh.vertex_circle)
            if level < 7:
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
    def test_signed_areas_are_cached_and_read_only(self, mesh_l2):
        areas = mesh_l2.signed_areas
        assert areas is mesh_l2.signed_areas and not areas.flags.writeable
        v = mesh_l2.vertices[mesh_l2.triangles]
        a, b = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        assert areas.tobytes() == (0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])).tobytes()

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_domain_area_converges(self, geometry, level):
        mesh = build_disk_mesh(geometry, sectors=8, level=level)
        area = mesh.signed_areas.sum()
        target = math.pi * geometry.r3**2
        assert abs(area - target) / target < 4 * (mesh.h / geometry.r3) ** 2

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_data_region_area_converges(self, geometry, level):
        mesh = build_disk_mesh(geometry, sectors=8, level=level)
        omega = mesh.signed_areas[mesh.region_tag == Region.OMEGA_DATA].sum()
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
    def test_header_format(self, mesh_l2, tmp_path):
        path = tmp_path / "mesh.txt"
        write_mesh(mesh_l2, path)
        header, *lines = path.read_text().splitlines()
        assert header == f"mesh v1 {mesh_l2.n_vertices} {mesh_l2.n_triangles}"
        v_lines, t_lines = lines[: mesh_l2.n_vertices], lines[mesh_l2.n_vertices :]
        assert len(t_lines) == mesh_l2.n_triangles
        v = [line.split() for line in v_lines]
        t = [line.split() for line in t_lines]
        assert {row[0] for row in v} == {"v"} and {len(row) for row in v} == {3}
        assert {row[0] for row in t} == {"t"} and {len(row) for row in t} == {5}
        # repr floats read back exactly
        assert np.array_equal([[float(x), float(y)] for _, x, y in v], mesh_l2.vertices)
        assert np.array_equal([[int(i) for i in row[1:4]] for row in t], mesh_l2.triangles)
        assert np.array_equal([int(row[4]) for row in t], mesh_l2.region_tag)


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
    area = mesh.signed_areas.sum()
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
