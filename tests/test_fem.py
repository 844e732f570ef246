import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csr_bytes, interior_edges, jittered_disk_mesh, traced_peak, tri_rule_collapsed
from ucfem import quadrature
from ucfem.fem import (
    ASSEMBLY_RULE,
    assemble_cell_laplacian,
    assemble_gradient_jump,
    assemble_load_region,
    assemble_region_mass,
    assemble_stabilization,
    assemble_stiffness,
    build_space,
    error_norms,
    interpolate_nodal,
    triple_norm,
)
from ucfem.fields import QuadraticField
from ucfem.harmonic import HarmonicMonomial
from ucfem.mesh import (
    ALL_REGIONS,
    B_REGIONS,
    Region,
    build_disk_mesh,
    element_diameters,
    mesh_from_arrays,
    refine_uniform,
)
from ucfem.solver import solve_poisson, verify_positivity
from ucfem.sparse import compose_saddle


class TestSpaces:
    def test_dof_counts_k1(self, base_mesh):
        assert build_space(base_mesh, 1).n_dofs == 25
        assert build_space(base_mesh, 1).zero_trace().n_dofs == 17  # 25 - 8 boundary vertices

    def test_dof_counts_k2(self, base_mesh):
        assert build_space(base_mesh, 2).n_dofs == 89  # 25 vertices + 64 edges
        assert build_space(base_mesh, 2).zero_trace().n_dofs == 73  # minus 8 vertices + 8 edges

    def test_rejects_bad_order(self, base_mesh):
        with pytest.raises(ValueError):
            build_space(base_mesh, 3)

    def test_k2_space_and_refinement_share_the_midpoint_rotation(self, geometry):
        # the map is computed once per mesh, not by each of its two readers:
        # the k=2 space caches it on the mesh, and the refinement reads it
        mesh = build_disk_mesh(geometry, 8, 2)
        assert "rotation_with_midpoints" not in vars(mesh)
        build_space(mesh, 2)
        turn = vars(mesh)["rotation_with_midpoints"]
        assert refine_uniform(mesh, geometry).rotation is turn
        assert not turn.flags.writeable

    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_trace_is_a_view_of_the_full_space(self, geometry, k):
        mesh = build_disk_mesh(geometry, 8, 2)
        space = build_space(mesh, k)
        space0 = space.zero_trace()
        boundary = mesh.boundary_vertices
        if k == 2:
            boundary = np.concatenate([boundary, mesh.n_vertices + mesh.boundary_edges])
        assert np.array_equal(space0.active, np.setdiff1d(np.arange(space.n_full), boundary))
        assert space0.dirichlet and not space.dirichlet
        assert space0.zero_trace() is space0
        # the A0 and B views index full-dof rows, so V_0h keeps the full
        # space's orbits and turn tables
        for name in ("mesh", "full_map", "det", "orbits", "turn_table", "turned_dofs", "turn_at"):
            assert getattr(space0, name) is getattr(space, name)
        elements = np.arange(0, mesh.n_triangles, 3)
        assert space0.grad_lam(elements).tobytes() == space.grad_lam(elements).tobytes()

        with pytest.raises(ValueError):
            solve_poisson(build_space(mesh, 1), QuadraticField(4.0))

    @pytest.mark.parametrize("k", [1, 2])
    def test_near_marks_the_elements_that_hold_a_representative(self, geometry, k):
        # every form is computed on `near`, derived once per space and shared by V_0h
        for level in range(4):
            mesh = build_disk_mesh(geometry, 8, level)
            space = build_space(mesh, k)
            shift = space.orbits[3]
            oracle = [any(shift[d] == 0 for d in dofs) for dofs in space.full_map]
            assert space.near.dtype == bool
            assert np.array_equal(space.near, oracle)
            assert not space.near.all()
            assert space.zero_trace().near is space.near
            # without a recorded rotation every dof is its own representative
            unturned = mesh_from_arrays(mesh.vertices, mesh.triangles, mesh.region_tag, level, mesh.vertex_circle)
            assert build_space(unturned, k).near.all()

    def test_grad_lam_is_rows_of_the_full_mesh_formula(self, geometry):
        # computed per call for the asked elements, bit for bit the rows of
        # the whole-mesh expression, and C-ordered like those rows
        jittered = jittered_disk_mesh(geometry, 1, seed=3, amplitude=0.8)
        for mesh in (build_disk_mesh(geometry, 8, 2), jittered):
            space = build_space(mesh, 2)
            x, y = (np.take(c, mesh.triangles) for c in mesh.vertices.T)
            ex, ey = x[:, [2, 0, 1]] - x[:, [1, 2, 0]], y[:, [2, 0, 1]] - y[:, [1, 2, 0]]
            full = np.stack([-ey, ex], axis=2) / space.det[:, None, None]
            rng = np.random.default_rng(0)
            for elements in (
                np.arange(mesh.n_triangles),
                rng.permutation(mesh.n_triangles)[: mesh.n_triangles // 3],
                mesh.edge_tris[interior_edges(mesh), 1],
                np.zeros(0, dtype=np.int64),
            ):
                got = space.grad_lam(elements)
                assert got.flags.c_contiguous
                assert got.shape == (elements.size, 3, 2)
                assert got.tobytes() == np.ascontiguousarray(full[elements]).tobytes()


class TestStiffness:
    def test_unit_triangle_local_matrix(self, unit_triangle_mesh):
        space = build_space(unit_triangle_mesh, 1)
        A = assemble_stiffness(space).matrix.toarray()
        expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.allclose(A, expected, atol=1e-14)

    def test_constants_in_kernel(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        A = assemble_stiffness(space).matrix
        ones = np.ones(space.n_dofs)
        assert np.abs(A @ ones).max() < 1e-13

    def test_exact_symmetry(self, mesh_l2):
        # every form is D^T D from the one assembly kernel; all are checked here
        for k in (1, 2):
            space = build_space(mesh_l2, k)
            forms = {
                "stiffness": assemble_stiffness(space),
                "region mass": assemble_region_mass(space, [Region.OMEGA_DATA]),
                "gradient jump": assemble_gradient_jump(space),
                "cell laplacian": assemble_cell_laplacian(space),
                "stabilization": assemble_stabilization(space, mesh_l2.h),
            }
            for name, form in forms.items():
                A = form.matrix
                assert abs(A - A.T).max() == 0.0, (name, k)

    def test_mixed_block_shape(self, base_mesh):
        space = build_space(base_mesh, 1)
        space0 = space.zero_trace()
        B = assemble_stiffness(space0, space).matrix
        assert B.shape == (17, 25)


class TestMass:
    def test_unit_triangle_local_matrix(self, unit_triangle_mesh):
        space = build_space(unit_triangle_mesh, 1)
        M = assemble_region_mass(space, [Region.OMEGA_DATA]).matrix.toarray()
        expected = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
        assert np.allclose(M, expected, atol=1e-15)

    def test_partition_of_unity_by_region(self, mesh_l2):
        space = build_space(mesh_l2, 2)
        ones = np.ones(space.n_dofs)
        areas = mesh_l2.signed_areas
        for region in (Region.OMEGA_DATA, Region.TARGET_ANNULUS, Region.OUTER_ANNULUS):
            M = assemble_region_mass(space, [region]).matrix
            region_area = areas[mesh_l2.region_tag == region].sum()
            assert abs(ones @ (M @ ones) - region_area) < 1e-12

    def test_all_regions_gives_total_area(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        M = assemble_region_mass(space, ALL_REGIONS).matrix
        ones = np.ones(space.n_dofs)
        assert abs(ones @ (M @ ones) - mesh_l2.signed_areas.sum()) < 1e-12

    def test_empty_region_rejected(self, base_mesh):
        space = build_space(base_mesh, 1)
        with pytest.raises(ValueError):
            assemble_region_mass(space, [])

    def test_exact_symmetry(self, mesh_l2):
        space = build_space(mesh_l2, 2)
        M = assemble_region_mass(space, B_REGIONS).matrix
        assert abs(M - M.T).max() == 0.0

    def test_zero_rows_outside_region(self, mesh_l2):
        # dofs with no support in the region have no stored entries
        space = build_space(mesh_l2, 1)
        M = assemble_region_mass(space, [Region.OMEGA_DATA]).matrix
        far = np.nonzero(np.linalg.norm(space.dof_coords, axis=1) > 0.9)[0]
        assert far.size > 0
        rows_nnz = np.diff(M.indptr)
        assert rows_nnz[far].max() == 0

    def test_positive_semidefinite_roles(self, mesh_l2):
        rng = np.random.default_rng(17)
        space = build_space(mesh_l2, 1)
        for form in (
            assemble_stiffness(space).matrix,
            assemble_region_mass(space, ALL_REGIONS).matrix,
        ):
            scale = np.abs(form.data).max()
            for _ in range(10):
                v = rng.uniform(-1, 1, space.n_dofs)
                assert v @ (form @ v) >= -1e-12 * scale * (v @ v)


class TestStabilization:
    def test_affine_reduces_to_tikhonov(self, mesh_l2):
        # jumps and element Laplacians of a globally affine field vanish
        space = build_space(mesh_l2, 1)
        w = interpolate_nodal(space, QuadraticField(1.0, 2.0, -0.5))
        S = assemble_stabilization(space, mesh_l2.h).matrix
        M = assemble_region_mass(space, ALL_REGIONS).matrix
        lhs = w @ (S @ w)
        rhs = mesh_l2.h**2 * (w @ (M @ w))
        assert abs(lhs - rhs) < 1e-11 * max(rhs, 1.0)

    def test_k2_laplacian_part_value(self, mesh_l2):
        space = build_space(mesh_l2, 2)
        f = SimpleNamespace(value=lambda p: np.asarray(p)[:, 0] ** 2)
        c = interpolate_nodal(space, f)
        L = assemble_cell_laplacian(space).matrix
        expected = (element_diameters(mesh_l2) ** 2 * 4.0 * mesh_l2.signed_areas).sum()
        assert abs(c @ (L @ c) - expected) < 1e-10 * expected

    def test_jump_annihilates_global_polynomials(self, mesh_l2):
        # degree <= k fields are C^1 across faces, so the penalty sees nothing
        for k, field in ((1, QuadraticField(0.3, -1.0, 2.0)), (2, HarmonicMonomial(3))):
            space = build_space(mesh_l2, k)
            c = interpolate_nodal(space, field)
            J = assemble_gradient_jump(space).matrix
            assert abs(c @ (J @ c)) < 1e-12

    def test_k1_laplacian_absent(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        assert assemble_cell_laplacian(space).matrix.nnz == 0

    def test_positive_semidefinite(self, mesh_l2):
        rng = np.random.default_rng(3)
        for k in (1, 2):
            space = build_space(mesh_l2, k)
            S = assemble_stabilization(space, mesh_l2.h).matrix
            scale = np.abs(S.data).max()
            for _ in range(10):
                v = rng.uniform(-1, 1, space.n_dofs)
                assert v @ (S @ v) >= -1e-12 * scale * (v @ v)

    def test_rejects_nonpositive_scale(self, base_mesh):
        space = build_space(base_mesh, 1)
        with pytest.raises(ValueError):
            assemble_stabilization(space, 0.0)

    @pytest.mark.parametrize("k, level", [(1, 5), (2, 3)])
    def test_peak_memory_near_the_result(self, geometry, k, level):
        # the stacked operator is freed after the product, and the replicated
        # rows are written into arrays of their final size, one turn at a time
        space = build_space(build_disk_mesh(geometry, 8, level), k)
        S, peak = traced_peak(lambda: assemble_stabilization(space, space.mesh.h).matrix)
        assert peak <= 2.0 * csr_bytes(S)


class TestLoads:
    def test_constant_load_sums_to_region_area(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        load = assemble_load_region(space, QuadraticField(1.0), [Region.OMEGA_DATA])
        omega_area = mesh_l2.signed_areas[mesh_l2.region_tag == Region.OMEGA_DATA].sum()
        assert abs(load.sum() - omega_area) < 1e-13

    def test_unit_load_equals_mass_row_sums(self, base_mesh):
        # (1, phi_i) = sum_j (phi_j, phi_i): the load and mass assemblies agree
        space = build_space(base_mesh, 1)
        M = assemble_region_mass(space, B_REGIONS).matrix
        load = assemble_load_region(space, QuadraticField(1.0), B_REGIONS)
        assert np.allclose(load, np.asarray(M.sum(axis=1)).ravel(), atol=1e-14)

    def test_odd_integrand_cancels(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        x = SimpleNamespace(value=lambda p: np.asarray(p)[:, 0])
        load = assemble_load_region(space, x, ALL_REGIONS)
        assert abs(load.sum()) < 1e-13


class TestInterpolationAndNorms:
    def test_constant_interpolates_to_ones(self, base_mesh):
        space = build_space(base_mesh, 2)
        assert np.array_equal(interpolate_nodal(space, QuadraticField(1.0)), np.ones(89))

    def test_p1_reproduces_affine(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        field = QuadraticField(0.7, -0.2, 1.1)
        c = interpolate_nodal(space, field)
        err = error_norms(space, c, field, ALL_REGIONS)
        assert err.l2 < 1e-12
        assert err.h1_semi < 1e-12

    def test_p2_reproduces_quadratic(self, mesh_l2):
        space = build_space(mesh_l2, 2)
        mono = HarmonicMonomial(3)  # Re z^2, a global quadratic
        c = interpolate_nodal(space, mono)
        err = error_norms(space, c, mono, ALL_REGIONS)
        assert err.l2 < 1e-12
        assert err.h1_semi < 1e-11

    def test_zero_coeffs_against_one_gives_area(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        err = error_norms(space, np.zeros(space.n_dofs), QuadraticField(1.0), ALL_REGIONS)
        assert abs(err.l2**2 - mesh_l2.signed_areas.sum()) < 1e-12

    def test_interpolation_error_second_order(self, geometry, mesh_l2):
        # standard P1 interpolation of a smooth function: L2 error drops ~4x per level
        mono = HarmonicMonomial(4)  # Re z^3
        mesh = mesh_l2
        errors = []
        for _ in range(3):
            space = build_space(mesh, 1)
            c = interpolate_nodal(space, mono)
            errors.append(error_norms(space, c, mono, B_REGIONS).l2)
            mesh = refine_uniform(mesh, geometry)
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.3 < coarse / fine < 4.7

    def test_wrong_length_coefficients_rejected(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        with pytest.raises(ValueError, match=f"expected {space.n_dofs} coefficients"):
            error_norms(space, np.zeros(space.n_dofs + 1), QuadraticField(1.0), ALL_REGIONS)

    def test_region_l2_norm_constant(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        omega_area = mesh_l2.signed_areas[mesh_l2.region_tag == Region.OMEGA_DATA].sum()
        zeros = np.zeros(space.n_dofs)
        got = error_norms(space, zeros, QuadraticField(2.0), [Region.OMEGA_DATA]).l2
        assert abs(got - 2.0 * math.sqrt(omega_area)) < 1e-13


class TestTripleNorm:
    def _saddle(self, mesh):
        space = build_space(mesh, 1)
        space0 = space.zero_trace()
        K = compose_saddle(
            assemble_stabilization(space, mesh.h).matrix,
            assemble_region_mass(space, [Region.OMEGA_DATA]).matrix,
            assemble_stiffness(space0, space).matrix,
            assemble_stiffness(space0).matrix,
        )
        return space, space0, K

    def test_zero_pair(self, mesh_l2):
        space, space0, K = self._saddle(mesh_l2)
        val = triple_norm(np.zeros(space.n_dofs), np.zeros(space0.n_dofs), K)
        assert val == 0.0

    def test_affine_closed_form(self, mesh_l2):
        space, space0, K = self._saddle(mesh_l2)
        u = interpolate_nodal(space, QuadraticField(0.5, 1.0, 0.0))
        Mall = assemble_region_mass(space, ALL_REGIONS).matrix
        expected = math.sqrt(
            mesh_l2.h**2 * (u @ (Mall @ u)) + u @ (K.M_omega @ u)
        )
        got = triple_norm(u, np.zeros(space0.n_dofs), K)
        assert abs(got - expected) < 1e-11 * expected

    def test_homogeneity(self, mesh_l2):
        space, space0, K = self._saddle(mesh_l2)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(space.n_dofs)
        z = rng.standard_normal(space0.n_dofs)
        one = triple_norm(u, z, K)
        ten = triple_norm(10 * u, 10 * z, K)
        assert abs(ten - 10 * one) < 1e-10 * one


class TestAssemblyProperties:
    @given(
        level=st.sampled_from([1, 2]),
        k=st.sampled_from([1, 2]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        amplitude=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_invariants_on_jittered_meshes(self, geometry, level, k, seed, amplitude):
        mesh = jittered_disk_mesh(geometry, level, seed, amplitude)
        assert mesh.signed_areas.min() > 0.0
        space = build_space(mesh, k)

        # exact symmetry of every form built by the shared D^T D kernel
        regions = (Region.OMEGA_DATA, Region.TARGET_ANNULUS, Region.OUTER_ANNULUS)
        masses = [assemble_region_mass(space, [region]).matrix for region in regions]
        jump = assemble_gradient_jump(space).matrix
        stab = assemble_stabilization(space, mesh.h).matrix
        for A in (stab, jump, *masses):
            assert abs(A - A.T).max() == 0.0

        # the region masses partition the all-domain mass
        total = assemble_region_mass(space, ALL_REGIONS).matrix
        assert abs(sum(masses) - total).max() <= 1e-14 * abs(total).max()

        # the jump penalty sees no global polynomial of degree <= k
        c = np.random.default_rng(seed).uniform(-1.0, 1.0, 6)

        def poly(p):
            x, y = np.asarray(p).T
            quad = c[3] * x * x + c[4] * x * y + c[5] * y * y if k == 2 else 0.0
            return c[0] + c[1] * x + c[2] * y + quad

        assert np.abs(jump @ interpolate_nodal(space, SimpleNamespace(value=poly))).max() <= 1e-12

        space0 = space.zero_trace()
        assert verify_positivity(space, space0, trials=3, seed=seed) <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_phys_grads_are_barycentric_derivatives(geometry, k):
    # along a barycentric direction dlam (sum zero) a point moves by
    # dx = sum_i dlam_i v_i, so grad(phi) . dx is the derivative of the basis
    # values in the direction dlam, the same on every element
    mesh = jittered_disk_mesh(geometry, level=1, seed=5, amplitude=0.8)
    space = build_space(mesh, k)
    assert np.array_equal(space.det, 2 * mesh.signed_areas)
    elements = np.arange(mesh.n_triangles)
    bary = ASSEMBLY_RULE.points
    dlam = np.array([0.3, -0.5, 0.2])
    dx = np.einsum("i,eia->ea", dlam, mesh.vertices[mesh.triangles])
    grads = space.phys_grads(elements, bary)  # (nel, nq, ndl, 2)
    got = np.einsum("eqia,ea->eqi", grads, dx)
    step = 1e-5
    central = (
        space.basis_values(bary + step * dlam) - space.basis_values(bary - step * dlam)
    ) / (2 * step)
    assert np.abs(got - central).max() <= 1e-7 * np.abs(central).max()

    # per-element points give what the shared points give
    per_element = np.broadcast_to(bary, (elements.size, *bary.shape))
    assert np.array_equal(space.phys_grads(elements, per_element), grads)


def _lagrange_element(nodes, k):
    """The Lagrange basis on one element from its physical nodes (ndl, 2):
    the callable returns basis values (ndl,), gradients (ndl, 2) and
    Laplacians (ndl,) at a point, from monomials in coordinates centred on
    the element and scaled by its size."""
    centre, size = nodes.mean(axis=0), np.ptp(nodes, axis=0).max()

    def monomials(x):
        s, t = (x - centre) / size
        if k == 1:
            return np.array([1, s, t]), np.array([[0, 0], [1, 0], [0, 1]]), np.zeros(3)
        val = np.array([1, s, t, s * s, s * t, t * t])
        grad = np.array([[0, 0], [1, 0], [0, 1], [2 * s, 0], [t, s], [0, 2 * t]])
        return val, grad, np.array([0, 0, 0, 2, 0, 2])

    coef = np.linalg.inv(np.array([monomials(x)[0] for x in nodes]))  # column i: basis i

    def basis(x):
        val, grad, lap = monomials(x)
        return val @ coef, (grad.T @ coef).T / size, lap @ coef / size**2

    return basis


@pytest.mark.parametrize("k", [1, 2])
def test_forms_match_dense_local_assembly(geometry, k):
    # every form rebuilt with a per-element / per-face loop of dense local
    # Gram matrices, from Lagrange bases fitted to the physical nodes and
    # quadrature rules other than the assembly's own; the disk mesh records
    # its rotation, so its forms are replicated from the sector-0 rows
    jittered = jittered_disk_mesh(geometry, level=1, seed=3, amplitude=0.8)
    for mesh in (jittered, build_disk_mesh(geometry, 8, 1)):
        _check_forms_against_dense_assembly(mesh, k)


def _check_forms_against_dense_assembly(mesh, k):
    space = build_space(mesh, k)
    space0 = space.zero_trace()
    coords = np.vstack([mesh.vertices, mesh.vertices[mesh.edges].mean(axis=1)])
    basis = [_lagrange_element(coords[dofs], k) for dofs in space.full_map]
    n = space.n_full
    stiff, mass, mass_all, cell, jump = (np.zeros((n, n)) for _ in range(5))

    def add(A, dofs, vectors, weights):
        local = np.einsum("q,qi,qj->ij", weights, vectors, vectors)
        np.add.at(A, (dofs[:, None], dofs[None, :]), local)

    rule = tri_rule_collapsed(4)
    omega = set(mesh.region_elements([Region.OMEGA_DATA]))
    diam, areas = element_diameters(mesh), np.abs(mesh.signed_areas)
    for e, dofs in enumerate(space.full_map):
        corners = mesh.vertices[mesh.triangles[e]]
        vals, grads, laps = zip(*(basis[e](lam @ corners) for lam in rule.points))
        w = 2 * areas[e] * rule.weights
        for c in range(2):
            add(stiff, dofs, np.array(grads)[:, :, c], w)
        add(mass_all, dofs, np.array(vals), w)
        if e in omega:
            add(mass, dofs, np.array(vals), w)
        add(cell, dofs, np.array(laps)[:1], np.array([diam[e] ** 2 * areas[e]]))

    t, wt = quadrature.gauss_rule_01(3)
    for f in interior_edges(mesh):
        a, b = mesh.vertices[mesh.edges[f]]
        length = np.linalg.norm(b - a)
        normal = np.array([b[1] - a[1], a[0] - b[0]]) / length
        sides = mesh.edge_tris[f]
        dofs = np.concatenate([space.full_map[e] for e in sides])
        rows = []
        for x in a + t[:, None] * (b - a):
            dn = [basis[e](x)[1] @ normal for e in sides]
            rows.append(np.concatenate([dn[0], -dn[1]]))
        add(jump, dofs, np.array(rows), length**2 * wt)

    tik = 0.37  # a Tikhonov scale other than h, so a wrong power of it shows
    checks = [
        (assemble_stiffness(space), stiff, space, space),
        (assemble_stiffness(space0, space), stiff, space0, space),
        (assemble_region_mass(space, [Region.OMEGA_DATA]), mass, space, space),
        (assemble_gradient_jump(space), jump, space, space),
        (assemble_cell_laplacian(space), cell, space, space),
        (assemble_stabilization(space, tik), jump + cell + tik ** (2 * k) * mass_all, space, space),
    ]
    for form, dense, row, col in checks:
        want = dense[np.ix_(row.active, col.active)]
        got = form.matrix.toarray()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(initial=0.0)


def _all_forms(space, tik):
    space0 = space.zero_trace()
    return {
        "stiffness": assemble_stiffness(space),
        "zero-trace stiffness": assemble_stiffness(space0),
        "mixed stiffness": assemble_stiffness(space0, space),
        "data mass": assemble_region_mass(space, Region.OMEGA_DATA),
        "all-region mass": assemble_region_mass(space, ALL_REGIONS),
        "gradient jump": assemble_gradient_jump(space),
        "cell laplacian": assemble_cell_laplacian(space),
        "stabilization": assemble_stabilization(space, tik),
    }


@pytest.mark.parametrize("k", [1, 2])
def test_forms_are_exactly_rotation_invariant(geometry, k):
    # the forms a solve reads commute with the dof rotation and are
    # symmetric bit for bit, not to rounding
    for level in (1, 2, 3):
        mesh = build_disk_mesh(geometry, 8, level)
        space = build_space(mesh, k)
        rot = mesh.rotation if k == 1 else mesh.rotation_with_midpoints
        assembled = _all_forms(space, mesh.h)
        for name in ("stabilization", "data mass", "all-region mass", "stiffness"):
            A = assembled[name].matrix
            assert (A[rot][:, rot] != A).nnz == 0, (name, level)
            assert (A.T != A).nnz == 0, (name, level)


@pytest.mark.parametrize("k", [1, 2])
def test_forms_refuse_a_rotation_that_does_not_turn_the_mesh(geometry, k):
    # the forms are replicated by the recorded rotation, so vertices it does
    # not carry onto each other would give the forms of another mesh
    mesh = build_disk_mesh(geometry, 8, 2)
    vertices = mesh.vertices.copy()
    vertices[1] += 1e-3  # a vertex on the r1 circle
    space = build_space(replace(mesh, vertices=vertices), k)
    for assemble in (assemble_stiffness, assemble_gradient_jump, assemble_cell_laplacian):
        with pytest.raises(ValueError, match="does not turn"):
            assemble(space)
    with pytest.raises(ValueError, match="does not turn"):
        assemble_region_mass(space, ALL_REGIONS)
    with pytest.raises(ValueError, match="does not turn"):
        assemble_stabilization(space, mesh.h)


@pytest.mark.parametrize("k", [1, 2])
def test_replicated_forms_match_full_assembly(geometry, k):
    # the same mesh without its recorded rotation assembles every row itself
    for level in (1, 2, 3, 4):
        mesh = build_disk_mesh(geometry, 8, level)
        replicated = _all_forms(build_space(mesh, k), 0.37)
        full = _all_forms(build_space(replace(mesh, rotation=None), k), 0.37)
        for name, form in replicated.items():
            got, want = form.matrix, full[name].matrix
            assert got.shape == want.shape
            scale = abs(want).max() if want.nnz else 1.0
            assert abs(got - want).max() <= 1e-13 * scale, (name, level)


@pytest.mark.parametrize("k", [1, 2])
def test_error_norms_match_per_element_loop(geometry, k):
    # error_norms rebuilt element by element from Lagrange bases fitted to the
    # physical nodes and a rule other than ASSEMBLY_RULE; the fields are
    # quadratic, so every integrand has degree <= 4 and both rules are exact
    mesh = jittered_disk_mesh(geometry, level=1, seed=11, amplitude=0.8)
    space = build_space(mesh, k)
    coords = np.vstack([mesh.vertices, mesh.vertices[mesh.edges].mean(axis=1)])
    coeffs = np.random.default_rng(k).uniform(-1.0, 1.0, space.n_dofs)
    with_gradient = QuadraticField(0.3, c=-1.0)
    rule = tri_rule_collapsed(4)
    areas = mesh.signed_areas

    def per_element(field, elements):
        l2sq = h1sq = 0.0
        for e in elements:
            dofs = space.full_map[e]
            basis = _lagrange_element(coords[dofs], k)
            for lam, w in zip(rule.points, rule.weights):
                x = lam @ mesh.vertices[mesh.triangles[e]]
                val, grad, _ = basis(x)
                l2sq += 2 * areas[e] * w * (field.value(x[None])[0] - val @ coeffs[dofs]) ** 2
                diff = field.gradient(x[None])[0] - grad.T @ coeffs[dofs]
                h1sq += 2 * areas[e] * w * (diff @ diff)
        return math.sqrt(l2sq), math.sqrt(h1sq)

    for region in (ALL_REGIONS, B_REGIONS, [Region.OMEGA_DATA]):
        want_l2, want_h1 = per_element(with_gradient, mesh.region_elements(region))
        got = error_norms(space, coeffs, with_gradient, region)
        assert abs(got.l2 - want_l2) <= 1e-13 * want_l2
        assert abs(got.h1_semi - want_h1) <= 1e-13 * want_h1
        no_gradient = error_norms(space, coeffs, SimpleNamespace(value=with_gradient.value), region)
        assert abs(no_gradient.l2 - want_l2) <= 1e-13 * want_l2
        assert math.isnan(no_gradient.h1_semi)

    # the omega error and |u_h| over the mesh of one call over B, as the studies take them
    got = error_norms(space, coeffs, with_gradient, B_REGIONS, inner=[Region.OMEGA_DATA])
    want_l2 = per_element(with_gradient, mesh.region_elements([Region.OMEGA_DATA]))[0]
    assert abs(got.l2_inner - want_l2) <= 1e-13 * want_l2
    want_l2 = per_element(QuadraticField(), mesh.region_elements(ALL_REGIONS))[0]
    assert abs(got.l2_uh - want_l2) <= 1e-13 * want_l2
    assert got.l2_inner == error_norms(space, coeffs, with_gradient, [Region.OMEGA_DATA]).l2
    assert got.l2_uh == error_norms(space, coeffs, QuadraticField(), ALL_REGIONS).l2


@pytest.mark.parametrize("k", [1, 2])
def test_load_matches_scattered_einsum(geometry, k):
    # the load against the weighted einsum contraction scattered with np.add.at
    mesh = jittered_disk_mesh(geometry, level=2, seed=13, amplitude=0.8)
    space = build_space(mesh, k).zero_trace()
    field = HarmonicMonomial(4)
    rule = ASSEMBLY_RULE
    for region in (ALL_REGIONS, [Region.OMEGA_DATA]):
        elements = mesh.region_elements(region)
        v = mesh.vertices[mesh.triangles[elements]]
        pts = np.einsum("qi,eia->eqa", rule.points, v).reshape(-1, 2)
        gv = field.value(pts).reshape(elements.size, -1)
        vals = space.basis_values(rule.points)
        contrib = np.einsum("q,eq,qi->ei", rule.weights, gv, vals) * space.det[elements][:, None]
        want = np.zeros(space.n_full)
        np.add.at(want, space.full_map[elements].ravel(), contrib.ravel())
        want = want[space.active]
        got = assemble_load_region(space, field, region)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
