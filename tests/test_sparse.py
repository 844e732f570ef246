import numpy as np
import pytest
import scipy.sparse as sp

from ucfem.fem import assemble_region_mass, assemble_stabilization, assemble_stiffness, build_space
from ucfem.mesh import Region
from ucfem.sparse import SolverError, compose_saddle, solve_direct


class TestComposeSaddle:
    def test_scalar_blocks(self):
        K = compose_saddle(
            sp.csr_matrix(np.array([[2.0]])),
            sp.csr_matrix(np.array([[3.0]])),
            sp.csr_matrix(np.array([[5.0]])),
        )
        assert np.array_equal(K.toarray(), np.array([[2.0, 3.0], [3.0, -5.0]]))

    def test_exactly_symmetric(self, mesh_l2):
        space = build_space(mesh_l2, 1, False)
        space0 = build_space(mesh_l2, 1, True)
        S = assemble_stabilization(space, mesh_l2.h).matrix
        M = assemble_region_mass(space, [Region.OMEGA_DATA]).matrix
        B = assemble_stiffness(space0, space).matrix
        A0 = assemble_stiffness(space0).matrix
        K = compose_saddle(S + M, B, A0)
        assert abs(K - K.T).max() == 0.0

    def test_zero_coupling_decouples(self):
        Suw = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
        B = sp.csr_matrix((1, 2))
        A0 = sp.csr_matrix(np.array([[4.0]]))
        K = compose_saddle(Suw, B, A0)
        x = solve_direct(K, np.array([2.0, 3.0, 0.0]))
        assert np.allclose(x[:2], [1.0, 1.0], atol=1e-14)
        assert x[2] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose_saddle(sp.eye(2, format="csr"), sp.eye(3, format="csr"), sp.eye(2, format="csr"))

    def test_positivity_identity_matrix_form(self, mesh_l2):
        # [u; -z]^T K [u; z] == u^T (S + M_w) u + z^T A0 z, the matrix form of
        # testing the saddle form with the sign-flipped dual
        space = build_space(mesh_l2, 1, False)
        space0 = build_space(mesh_l2, 1, True)
        S = assemble_stabilization(space, mesh_l2.h).matrix
        M = assemble_region_mass(space, [Region.OMEGA_DATA]).matrix
        B = assemble_stiffness(space0, space).matrix
        A0 = assemble_stiffness(space0).matrix
        K = compose_saddle(S + M, B, A0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.uniform(-1, 1, space.n_dofs)
            z = rng.uniform(-1, 1, space0.n_dofs)
            lhs = np.concatenate([u, -z]) @ (K @ np.concatenate([u, z]))
            rhs = u @ ((S + M) @ u) + z @ (A0 @ z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestSolveDirect:
    def test_identity_is_exact(self):
        b = np.array([3.0, -1.0, 0.25])
        x = solve_direct(sp.eye(3, format="csr"), b)
        assert np.array_equal(x, b)

    def test_hand_inverted_2x2(self):
        K = sp.csr_matrix(np.array([[2.0, 3.0], [3.0, -5.0]]))
        x = solve_direct(K, np.array([1.0, 0.0]))
        assert np.allclose(x, [5.0 / 19.0, 3.0 / 19.0], atol=1e-15)

    def test_singular_matrix_reported(self):
        K = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError):
            solve_direct(K, np.array([1.0, 0.0]))

    def test_rejects_nonfinite_rhs(self):
        with pytest.raises(ValueError):
            solve_direct(sp.eye(2, format="csr"), np.array([1.0, np.nan]))

    def test_residual_contract_on_spd_system(self, mesh_l2):
        space0 = build_space(mesh_l2, 1, True)
        A0 = assemble_stiffness(space0).matrix
        rng = np.random.default_rng(1)
        b = rng.standard_normal(space0.n_dofs)
        x = solve_direct(A0, b, rel_tol=1e-10)
        scale = np.abs(A0.data).max() * np.linalg.norm(x) + np.linalg.norm(b)
        assert np.linalg.norm(A0 @ x - b) <= 1e-10 * scale

    def test_deterministic(self, mesh_l2):
        space0 = build_space(mesh_l2, 1, True)
        A0 = assemble_stiffness(space0).matrix
        b = np.sin(np.arange(space0.n_dofs) * 0.37)
        x1 = solve_direct(A0, b)
        x2 = solve_direct(A0, b)
        assert np.array_equal(x1, x2)
