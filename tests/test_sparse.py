import itertools
import platform

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ucfem.sparse
from ucfem.fem import assemble_region_mass, assemble_stabilization, assemble_stiffness, build_space
from ucfem.mesh import Region, build_disk_mesh
from ucfem.sparse import (
    LEAF_SIZE,
    SolverError,
    _cut_cover,
    compose_saddle,
    nested_dissection,
    solve_direct,
)


def saddle(space, space0):
    """The saddle matrix [[S + M_omega, B^T], [B, -A0]] with Tikhonov scale h."""
    S = assemble_stabilization(space, space.mesh.h).matrix
    M = assemble_region_mass(space, [Region.OMEGA_DATA]).matrix
    B = assemble_stiffness(space0, space).matrix
    return compose_saddle(S + M, B, assemble_stiffness(space0).matrix)


class TestComposeSaddle:
    def test_scalar_blocks(self):
        K = compose_saddle(
            sp.csr_matrix(np.array([[2.0]])),
            sp.csr_matrix(np.array([[3.0]])),
            sp.csr_matrix(np.array([[5.0]])),
        )
        assert np.array_equal(K.toarray(), np.array([[2.0, 3.0], [3.0, -5.0]]))

    def test_exactly_symmetric(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        K = saddle(space, space.zero_trace())
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
        space = build_space(mesh_l2, 1)
        space0 = space.zero_trace()
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
        space0 = build_space(mesh_l2, 1).zero_trace()
        A0 = assemble_stiffness(space0).matrix
        rng = np.random.default_rng(1)
        b = rng.standard_normal(space0.n_dofs)
        x = solve_direct(A0, b, rel_tol=1e-10)
        scale = np.abs(A0.data).max() * np.linalg.norm(x) + np.linalg.norm(b)
        assert np.linalg.norm(A0 @ x - b) <= 1e-10 * scale

    def test_deterministic(self, mesh_l2):
        space0 = build_space(mesh_l2, 1).zero_trace()
        A0 = assemble_stiffness(space0).matrix
        b = np.sin(np.arange(space0.n_dofs) * 0.37)
        x1 = solve_direct(A0, b)
        x2 = solve_direct(A0, b)
        assert np.array_equal(x1, x2)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
    def test_free_heap_released_before_each_factorization(self, monkeypatch):
        calls = []
        trim = ucfem.sparse._MALLOC_TRIM
        monkeypatch.setattr(ucfem.sparse, "_MALLOC_TRIM", lambda pad: calls.append(pad) or trim(pad))
        solve_direct(sp.eye(3, format="csr"), np.ones(3))
        assert calls == [0]
        # the pivoted retry is a second factorization
        with pytest.warns(RuntimeWarning, match="pivoted COLAMD"):
            solve_direct(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])), np.ones(2))
        assert calls == [0, 0, 0]

    def test_solves_without_malloc_trim(self, monkeypatch):
        monkeypatch.setattr(ucfem.sparse, "_MALLOC_TRIM", None)
        x = solve_direct(sp.csr_matrix(np.array([[2.0, 3.0], [3.0, -5.0]])), np.array([1.0, 0.0]))
        assert np.allclose(x, [5.0 / 19.0, 3.0 / 19.0], atol=1e-15)


class TestFallback:
    def test_not_quasi_definite_solved_by_pivoted_retry(self):
        # a zero diagonal: the unpivoted factorization cannot proceed
        K = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = np.array([2.0, 3.0])
        with pytest.warns(RuntimeWarning, match="pivoted COLAMD"):
            x = solve_direct(K, b)
        assert np.linalg.norm(K @ x - b) <= 1e-10 * (np.linalg.norm(x) + np.linalg.norm(b))
        assert np.array_equal(x, [3.0, 2.0])

    def test_tiny_pivot_contract_miss_falls_back(self):
        # no zero pivot, but the 1e-20 pivot ruins the unpivoted solve even
        # after the refinement step
        K = sp.csr_matrix(np.array([[1e-20, 1.0, 2.0], [1.0, 1.0, 3.0], [2.0, 3.0, 1.0]]))
        b = np.array([1.0, 2.0, 3.0])
        with pytest.warns(RuntimeWarning, match="pivoted COLAMD"):
            x = solve_direct(K, b)
        scale = np.abs(K.data).max() * np.linalg.norm(x) + np.linalg.norm(b)
        assert np.linalg.norm(K @ x - b) <= 1e-10 * scale

    def test_quasi_definite_needs_no_fallback(self, mesh_l2):
        # filterwarnings turns the fallback warning into an error
        space = build_space(mesh_l2, 1)
        space0 = space.zero_trace()
        K = saddle(space, space0)
        rng = np.random.default_rng(2)
        p = rng.permutation(K.shape[0])
        b = rng.standard_normal(K.shape[0])
        x = solve_direct(K[p][:, p], b, rel_tol=1e-10)
        scale = np.abs(K.data).max() * np.linalg.norm(x) + np.linalg.norm(b)
        assert np.linalg.norm(K[p][:, p] @ x - b) <= 1e-10 * scale


class TestNestedDissection:
    @pytest.fixture(scope="class")
    def system(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        space0 = space.zero_trace()
        return np.concatenate([space.dof_coords, space0.dof_coords]), saddle(space, space0)

    def test_is_permutation(self, system):
        coords, K = system
        p = nested_dissection(coords, K)
        assert K.shape[0] > LEAF_SIZE
        assert np.array_equal(np.sort(p), np.arange(K.shape[0]))

    def test_deterministic(self, system):
        coords, K = system
        assert np.array_equal(nested_dissection(coords, K), nested_dissection(coords, K))

    def test_small_graph_kept_in_order(self):
        # a single leaf is numbered in index order
        A = sp.eye(LEAF_SIZE, format="csr")
        coords = np.random.default_rng(0).uniform(size=(LEAF_SIZE, 2))
        assert np.array_equal(nested_dissection(coords, A), np.arange(LEAF_SIZE))

    def test_graph_without_edges_has_no_separators(self):
        # no edge crosses a cut, so every split leaves two halves only
        n = 4 * LEAF_SIZE
        coords = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
        assert np.array_equal(nested_dissection(coords, sp.eye(n, format="csr")), np.arange(n))

    def test_separator_numbered_after_halves(self):
        # a path graph on a line: the one cut edge is covered equally well
        # by either endpoint, and the separator is its half-0 endpoint,
        # numbered after both leaves
        n = 2 * LEAF_SIZE
        A = sp.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr")
        coords = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
        p = nested_dissection(coords, A)
        assert p[-1] == n // 2 - 1
        assert np.array_equal(p[: n // 2 - 1], np.arange(n // 2 - 1))
        assert np.array_equal(p[n // 2 - 1 : -1], np.arange(n // 2, n))

    def test_separator_is_a_minimum_cover_of_the_cut(self):
        # a path on a line whose middle half-1 node also meets the last
        # three half-0 nodes: the cut edges all meet that node, which is
        # the separator alone (the half-0 endpoints would be four)
        n = 2 * LEAF_SIZE
        hub = n // 2
        A = sp.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="lil")
        for i in range(hub - 4, hub - 1):
            A[i, hub] = A[hub, i] = 1.0
        coords = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
        p = nested_dissection(coords, A.tocsr())
        assert p[-1] == hub
        assert np.array_equal(p[:hub], np.arange(hub))
        assert np.array_equal(p[hub:-1], np.arange(hub + 1, n))

    @pytest.mark.parametrize("seed", range(10))
    def test_cut_cover_is_minimum(self, seed):
        # against every subset of the nodes of a small random bipartite graph
        rng = np.random.default_rng(seed)
        e0, e1 = rng.integers(0, 5, 9), 5 + rng.integers(0, 5, 9)
        cover = _cut_cover(e0, e1)
        assert np.all(np.isin(e0, cover) | np.isin(e1, cover))
        nodes = np.unique(np.concatenate([e0, e1]))
        smallest = next(
            size
            for size in range(nodes.size + 1)
            for subset in itertools.combinations(nodes, size)
            if np.all(np.isin(e0, subset) | np.isin(e1, subset))
        )
        assert cover.size == smallest

    def test_k2_fill_near_minimum_degree(self, geometry):
        # at P2 the half-0 endpoints of the cut edges form a band about one
        # element wide (1.30x the fill of SuperLU's minimum degree here);
        # the minimum cover is close to a line of shared nodes
        mesh = build_disk_mesh(geometry, 8, 3)
        space = build_space(mesh, 2)
        space0 = space.zero_trace()
        K = saddle(space, space0)
        p = nested_dissection(np.concatenate([space.dof_coords, space0.dof_coords]), K)
        symmetric = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
        ordered = spla.splu(sp.csc_matrix(K[p][:, p]), permc_spec="NATURAL", **symmetric)
        mmd = spla.splu(sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A", **symmetric)
        assert ordered.nnz <= 1.1 * mmd.nnz

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            nested_dissection(np.zeros((3, 2)), sp.eye(4, format="csr"))

    def test_less_fill_than_colamd(self, geometry):
        mesh = build_disk_mesh(geometry, 8, 4)
        space = build_space(mesh, 1)
        space0 = space.zero_trace()
        K = saddle(space, space0)
        coords = np.concatenate([space.dof_coords, space0.dof_coords])
        p = nested_dissection(coords, K)
        ordered = spla.splu(
            sp.csc_matrix(K[p][:, p]),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        colamd = spla.splu(sp.csc_matrix(K))
        assert ordered.nnz < colamd.nnz
