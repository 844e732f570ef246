import math

import numpy as np
import pytest

from ucfem.fem import (
    assemble_cell_laplacian,
    assemble_gradient_jump,
    assemble_load_region,
    assemble_region_mass,
    assemble_stabilization,
    assemble_stiffness,
    build_space,
    error_norms,
    interpolate_nodal,
    region_l2_norm,
    triple_norm,
)
from ucfem.fields import AffineField, ConstantField, FeField, ZeroField
from ucfem.harmonic import HarmonicMonomial
from ucfem.mesh import ALL_REGIONS, B_REGIONS, Region, element_diameters, refine_uniform, signed_areas


class TestSpaces:
    def test_dof_counts_k1(self, base_mesh):
        assert build_space(base_mesh, 1, False).n_dofs == 25
        assert build_space(base_mesh, 1, True).n_dofs == 17  # 25 - 8 boundary vertices

    def test_dof_counts_k2(self, base_mesh):
        assert build_space(base_mesh, 2, False).n_dofs == 89  # 25 vertices + 64 edges
        assert build_space(base_mesh, 2, True).n_dofs == 73  # minus 8 vertices + 8 edges

    def test_rejects_bad_order(self, base_mesh):
        with pytest.raises(ValueError):
            build_space(base_mesh, 3)

    def test_dof_map_marks_eliminated(self, base_mesh):
        space0 = build_space(base_mesh, 1, True)
        assert (space0.dof_map == -1).sum() > 0
        kept = space0.dof_map[space0.dof_map >= 0]
        assert kept.max() == space0.n_dofs - 1


class TestStiffness:
    def test_unit_triangle_local_matrix(self, unit_triangle_mesh):
        space = build_space(unit_triangle_mesh, 1, False)
        A = assemble_stiffness(space).matrix.toarray()
        expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.allclose(A, expected, atol=1e-14)

    def test_constants_in_kernel(self, mesh_l2):
        space = build_space(mesh_l2, 1, False)
        A = assemble_stiffness(space).matrix
        ones = np.ones(space.n_dofs)
        assert np.abs(A @ ones).max() < 1e-13

    def test_exact_symmetry(self, mesh_l2):
        # every symmetric form shares the stiffness scatter, so all are checked here
        for k in (1, 2):
            space = build_space(mesh_l2, k, False)
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
        space = build_space(base_mesh, 1, False)
        space0 = build_space(base_mesh, 1, True)
        B = assemble_stiffness(space0, space)
        assert B.shape == (17, 25)


class TestMass:
    def test_unit_triangle_local_matrix(self, unit_triangle_mesh):
        space = build_space(unit_triangle_mesh, 1, False)
        M = assemble_region_mass(space, [Region.OMEGA_DATA]).matrix.toarray()
        expected = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
        assert np.allclose(M, expected, atol=1e-15)

    def test_partition_of_unity_by_region(self, mesh_l2):
        space = build_space(mesh_l2, 2, False)
        ones = np.ones(space.n_dofs)
        areas = signed_areas(mesh_l2)
        for region in (Region.OMEGA_DATA, Region.TARGET_ANNULUS, Region.OUTER_ANNULUS):
            M = assemble_region_mass(space, [region]).matrix
            region_area = areas[mesh_l2.region_tag == region].sum()
            assert abs(ones @ (M @ ones) - region_area) < 1e-12

    def test_all_regions_gives_total_area(self, mesh_l2):
        space = build_space(mesh_l2, 1, False)
        M = assemble_region_mass(space, ALL_REGIONS).matrix
        ones = np.ones(space.n_dofs)
        assert abs(ones @ (M @ ones) - signed_areas(mesh_l2).sum()) < 1e-12

    def test_empty_region_rejected(self, base_mesh):
        space = build_space(base_mesh, 1, False)
        with pytest.raises(ValueError):
            assemble_region_mass(space, [])

    def test_exact_symmetry(self, mesh_l2):
        space = build_space(mesh_l2, 2, False)
        M = assemble_region_mass(space, B_REGIONS).matrix
        assert abs(M - M.T).max() == 0.0

    def test_zero_rows_outside_region(self, mesh_l2):
        # dofs with no support in the region have no stored entries
        space = build_space(mesh_l2, 1, False)
        M = assemble_region_mass(space, [Region.OMEGA_DATA]).matrix
        far = np.nonzero(np.linalg.norm(space.dof_coords, axis=1) > 0.9)[0]
        assert far.size > 0
        rows_nnz = np.diff(M.indptr)
        assert rows_nnz[far].max() == 0

    def test_positive_semidefinite_roles(self, mesh_l2):
        rng = np.random.default_rng(17)
        space = build_space(mesh_l2, 1, False)
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
        space = build_space(mesh_l2, 1, False)
        w = interpolate_nodal(space, AffineField(1.0, 2.0, -0.5))
        S = assemble_stabilization(space, mesh_l2.h).matrix
        M = assemble_region_mass(space, ALL_REGIONS).matrix
        lhs = w @ (S @ w)
        rhs = mesh_l2.h**2 * (w @ (M @ w))
        assert abs(lhs - rhs) < 1e-11 * max(rhs, 1.0)

    def test_k2_laplacian_part_value(self, mesh_l2):
        space = build_space(mesh_l2, 2, False)
        f = lambda p: np.asarray(p)[:, 0] ** 2
        c = interpolate_nodal(space, f)
        L = assemble_cell_laplacian(space).matrix
        expected = (element_diameters(mesh_l2) ** 2 * 4.0 * signed_areas(mesh_l2)).sum()
        assert abs(c @ (L @ c) - expected) < 1e-10 * expected

    def test_jump_annihilates_global_polynomials(self, mesh_l2):
        # degree <= k fields are C^1 across faces, so the penalty sees nothing
        for k, field in ((1, AffineField(0.3, -1.0, 2.0)), (2, HarmonicMonomial(3))):
            space = build_space(mesh_l2, k, False)
            c = interpolate_nodal(space, field)
            J = assemble_gradient_jump(space).matrix
            assert abs(c @ (J @ c)) < 1e-12

    def test_k1_laplacian_absent(self, mesh_l2):
        space = build_space(mesh_l2, 1, False)
        assert assemble_cell_laplacian(space).matrix.nnz == 0

    def test_positive_semidefinite(self, mesh_l2):
        rng = np.random.default_rng(3)
        for k in (1, 2):
            space = build_space(mesh_l2, k, False)
            S = assemble_stabilization(space, mesh_l2.h).matrix
            scale = np.abs(S.data).max()
            for _ in range(10):
                v = rng.uniform(-1, 1, space.n_dofs)
                assert v @ (S @ v) >= -1e-12 * scale * (v @ v)

    def test_rejects_nonpositive_scale(self, base_mesh):
        space = build_space(base_mesh, 1, False)
        with pytest.raises(ValueError):
            assemble_stabilization(space, 0.0)


class TestLoads:
    def test_constant_load_sums_to_region_area(self, mesh_l2):
        space = build_space(mesh_l2, 1, False)
        load = assemble_load_region(space, ConstantField(1.0), [Region.OMEGA_DATA])
        omega_area = signed_areas(mesh_l2)[mesh_l2.region_tag == Region.OMEGA_DATA].sum()
        assert abs(load.sum() - omega_area) < 1e-13

    def test_basis_function_load_equals_mass_column(self, base_mesh):
        space = build_space(base_mesh, 1, False)
        M = assemble_region_mass(space, B_REGIONS).matrix.toarray()
        j = 3
        e_j = np.zeros(space.n_dofs)
        e_j[j] = 1.0
        load = assemble_load_region(space, FeField(space, e_j), B_REGIONS)
        assert np.allclose(load, M[:, j], atol=1e-14)

    def test_odd_integrand_cancels(self, mesh_l2):
        space = build_space(mesh_l2, 1, False)
        load = assemble_load_region(space, lambda p: np.asarray(p)[:, 0], ALL_REGIONS)
        assert abs(load.sum()) < 1e-13


class TestInterpolationAndNorms:
    def test_constant_interpolates_to_ones(self, base_mesh):
        space = build_space(base_mesh, 2, False)
        assert np.array_equal(interpolate_nodal(space, ConstantField(1.0)), np.ones(89))

    def test_p1_reproduces_affine(self, mesh_l2):
        space = build_space(mesh_l2, 1, False)
        field = AffineField(0.7, -0.2, 1.1)
        c = interpolate_nodal(space, field)
        err = error_norms(space, c, field, ALL_REGIONS)
        assert err.l2 < 1e-12
        assert err.h1_semi < 1e-12

    def test_p2_reproduces_quadratic(self, mesh_l2):
        space = build_space(mesh_l2, 2, False)
        mono = HarmonicMonomial(3)  # Re z^2, a global quadratic
        c = interpolate_nodal(space, mono)
        err = error_norms(space, c, mono, ALL_REGIONS)
        assert err.l2 < 1e-12
        assert err.h1_semi < 1e-11

    def test_zero_coeffs_against_one_gives_area(self, mesh_l2):
        space = build_space(mesh_l2, 1, False)
        err = error_norms(space, np.zeros(space.n_dofs), ConstantField(1.0), ALL_REGIONS)
        assert abs(err.l2**2 - signed_areas(mesh_l2).sum()) < 1e-12

    def test_interpolation_error_second_order(self, geometry, mesh_l2):
        # standard P1 interpolation of a smooth function: L2 error drops ~4x per level
        mono = HarmonicMonomial(4)  # Re z^3
        mesh = mesh_l2
        errors = []
        for _ in range(3):
            space = build_space(mesh, 1, False)
            c = interpolate_nodal(space, mono)
            errors.append(error_norms(space, c, mono, B_REGIONS).l2)
            mesh = refine_uniform(mesh, geometry)
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.3 < coarse / fine < 4.7

    def test_region_l2_norm_constant(self, mesh_l2):
        space = build_space(mesh_l2, 1, False)
        omega_area = signed_areas(mesh_l2)[mesh_l2.region_tag == Region.OMEGA_DATA].sum()
        got = region_l2_norm(space, ConstantField(2.0), [Region.OMEGA_DATA])
        assert abs(got - 2.0 * math.sqrt(omega_area)) < 1e-13


class TestTripleNorm:
    def _forms(self, mesh):
        space = build_space(mesh, 1, False)
        space0 = build_space(mesh, 1, True)
        S = assemble_stabilization(space, mesh.h)
        M = assemble_region_mass(space, [Region.OMEGA_DATA])
        A0 = assemble_stiffness(space0)
        return space, space0, S, M, A0

    def test_zero_pair(self, mesh_l2):
        space, space0, S, M, A0 = self._forms(mesh_l2)
        val = triple_norm(space, space0, np.zeros(space.n_dofs), np.zeros(space0.n_dofs), S, M, A0)
        assert val == 0.0

    def test_affine_closed_form(self, mesh_l2):
        space, space0, S, M, A0 = self._forms(mesh_l2)
        u = interpolate_nodal(space, AffineField(0.5, 1.0, 0.0))
        Mall = assemble_region_mass(space, ALL_REGIONS).matrix
        expected = math.sqrt(
            mesh_l2.h**2 * (u @ (Mall @ u)) + u @ (M.matrix @ u)
        )
        got = triple_norm(space, space0, u, np.zeros(space0.n_dofs), S, M, A0)
        assert abs(got - expected) < 1e-11 * expected

    def test_homogeneity(self, mesh_l2):
        space, space0, S, M, A0 = self._forms(mesh_l2)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(space.n_dofs)
        z = rng.standard_normal(space0.n_dofs)
        one = triple_norm(space, space0, u, z, S, M, A0)
        ten = triple_norm(space, space0, 10 * u, 10 * z, S, M, A0)
        assert abs(ten - 10 * one) < 1e-10 * one
