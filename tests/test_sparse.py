import ctypes
import itertools
import platform
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import nested_dissection_reference as reference
from oracles import composed, csr, csr_bytes, jittered_disk_mesh, modes_args, traced_peak
import ucfem.sparse
from ucfem import solver
from ucfem.fem import assemble_region_mass, assemble_stabilization, assemble_stiffness, build_space
from ucfem.harmonic import HarmonicMonomial
from ucfem.mesh import Region, build_disk_mesh
from ucfem.solver import hminus1_residual, solve_uc
from ucfem.sparse import (
    LEAF_SIZE,
    CyclicModes,
    SolverError,
    _cut_cover,
    compose_saddle,
    nested_dissection,
    solve_direct,
)


def assembled_forms(space, space0):
    """S, M_omega, B and A0 with Tikhonov scale h, as `FormMatrix` views of
    their representatives' rows, as a solve holds them."""
    S = assemble_stabilization(space, space.mesh.h)
    M = assemble_region_mass(space, [Region.OMEGA_DATA])
    return S, M, assemble_stiffness(space0, space), assemble_stiffness(space0)


def saddle(space, space0):
    """The `Saddle` [[S + M_omega, B^T], [B, -A0]] with Tikhonov scale h,
    composed from the materialized CSR forms."""
    return compose_saddle(*(form.matrix for form in assembled_forms(space, space0)))


def representatives(*spaces):
    """The rows `CyclicModes` reads in a solve over the dofs of `spaces`:
    the orbit representatives."""
    orbits, fixed = solver._orbits(spaces)[:2]
    return np.concatenate([orbits[:, 0], fixed])


def edges(A):
    """The graph of A's stored entries as `nested_dissection` takes it."""
    coo = sp.coo_matrix(A)
    return coo.row, coo.col


def all_rows(K):
    return K[np.arange(K.shape[0])]


def kmax(K, *spaces):
    """max|K| as a solve over the dofs of `spaces` reads it,
    `CyclicModes.kmax`: over the rows of their orbit representatives, every
    row without a space."""
    return CyclicModes(*modes_args(K, np.ones(K.shape[0]), *spaces)).kmax


def view_reps(form):
    """The rows of a `FormMatrix` view that are representatives' rows."""
    shift = form.space.orbits[3]
    return np.flatnonzero((shift if form.rows is None else shift[form.rows]) == 0)


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


#: the thread-count getters of numpy's ILP64 OpenBLAS, scipy's, and a system one
OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def test_every_openblas_copy_runs_one_thread():
    # importing ucfem.sparse sets each mapped OpenBLAS pool to one thread
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        pytest.skip("no /proc/self/maps")
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        name = next((name for name in OPENBLAS_GETTERS if hasattr(lib, name)), None)
        if name is not None:
            getter = getattr(lib, name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts[path] = getter()
    if not counts:
        pytest.skip("no OpenBLAS copy in the process")
    assert counts == {path: 1 for path in counts}


class TestComposeSaddle:
    def test_scalar_blocks(self):
        K = compose_saddle(
            sp.csr_matrix(np.array([[1.5]])),
            sp.csr_matrix(np.array([[0.5]])),
            sp.csr_matrix(np.array([[3.0]])),
            sp.csr_matrix(np.array([[5.0]])),
        )
        assert K.shape == (2, 2)
        assert np.array_equal(all_rows(K).toarray(), np.array([[2.0, 3.0], [3.0, -5.0]]))
        assert np.array_equal(K[[1, 0]].toarray(), np.array([[3.0, -5.0], [2.0, 3.0]]))
        assert np.array_equal(K @ np.array([1.0, 2.0]), np.array([8.0, -7.0]))
        assert kmax(K) == 5.0

    def test_exactly_symmetric(self, mesh_l2):
        space = build_space(mesh_l2, 1)
        K = all_rows(saddle(space, space.zero_trace()))
        assert abs(K - K.T).max() == 0.0

    def test_zero_coupling_decouples(self):
        S = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
        B = sp.csr_matrix((1, 2))
        A0 = sp.csr_matrix(np.array([[4.0]]))
        K = compose_saddle(S, sp.csr_matrix((2, 2)), B, A0)
        x = solve_direct(all_rows(K), np.array([2.0, 3.0, 0.0]))
        assert np.allclose(x[:2], [1.0, 1.0], atol=1e-14)
        assert x[2] == 0.0

    def test_csr_blocks_are_kept_as_passed(self, mesh_l2):
        # a CSR block is neither wrapped nor copied, and nbytes counts its arrays
        space = build_space(mesh_l2, 1)
        blocks = [form.matrix for form in assembled_forms(space, space.zero_trace())]
        K = compose_saddle(*blocks)
        assert all(got is block for got, block in zip((K.S, K.M_omega, K.B, K.A0), blocks))
        assert K.nbytes == sum(csr_bytes(block) for block in blocks)

    def test_dimension_mismatch(self):
        eye2, eye3 = sp.eye(2, format="csr"), sp.eye(3, format="csr")
        with pytest.raises(ValueError):
            compose_saddle(eye2, eye2, eye3, eye2)
        with pytest.raises(ValueError):
            compose_saddle(eye2, eye3, eye2, eye2)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mesh_kind", ["rotated", "jittered"])
    def test_blocks_match_the_composed_matrix(self, geometry, k, mesh_kind):
        # rows at the representatives and at arbitrary indices, in the order
        # asked, and max|K| read from the representatives' rows are bitwise
        # those of the sp.bmat reference
        if mesh_kind == "rotated":
            mesh = build_disk_mesh(geometry, 8, 2)
        else:
            mesh = jittered_disk_mesh(geometry, 2, seed=3, amplitude=1.0)
        space = build_space(mesh, k)
        space0 = space.zero_trace()
        K = saddle(space, space0)
        want = composed(K)
        rng = np.random.default_rng(k)
        n = K.shape[0]
        for rows in (
            representatives(space, space0),
            rng.permutation(n)[: n // 3],
            np.array([n - 1, 0, space.n_dofs, space.n_dofs - 1]),
            np.arange(n),
        ):
            assert_same_csr(K[rows], want[rows])
        assert kmax(K, space, space0) == np.abs(want.data).max()
        for _ in range(3):
            x = rng.standard_normal(n)
            assert np.abs(K @ x - want @ x).max() <= 1e-15 * np.abs(want @ x).max()

    def test_max_abs_sums_the_data_mass(self, mesh_l2):
        # with a large data mass max|K| lies in S + M_omega, not in S alone
        space = build_space(mesh_l2, 1)
        K = saddle(space, space.zero_trace())
        heavy = compose_saddle(K.S, 1e3 * K.M_omega, K.B, K.A0)
        heavy_max = kmax(heavy)
        assert heavy_max == np.abs(composed(heavy).data).max() > np.abs(K.S.data).max()
        assert kmax(composed(heavy)) == heavy_max

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_max_abs_over_empty_and_unsummed_rows(self, sign):
        # S has empty first and last rows and its largest |entry| in a row
        # M_omega leaves out
        S = np.zeros((4, 4))
        S[1:3, 1:3] = [[sign * 5.0, 1.0], [1.0, 2.0]]
        M = np.zeros((4, 4))
        M[2, 2] = 2.5
        S, M, B = sp.csr_matrix(S), sp.csr_matrix(M), sp.csr_matrix((1, 4))
        K = compose_saddle(S, M, B, sp.csr_matrix(np.array([[1.0]])))
        assert kmax(K) == np.abs(composed(K).data).max() == 5.0
        empty = compose_saddle(sp.csr_matrix((4, 4)), M, B, sp.csr_matrix((1, 1)))
        assert kmax(empty) == 2.5

    def test_positivity_identity_matrix_form(self, mesh_l2):
        # [u; -z]^T K [u; z] == u^T (S + M_w) u + z^T A0 z, the matrix form of
        # testing the saddle form with the sign-flipped dual
        space = build_space(mesh_l2, 1)
        space0 = space.zero_trace()
        S = assemble_stabilization(space, mesh_l2.h).matrix
        M = assemble_region_mass(space, [Region.OMEGA_DATA]).matrix
        B = assemble_stiffness(space0, space).matrix
        A0 = assemble_stiffness(space0).matrix
        K = compose_saddle(S, M, B, A0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.uniform(-1, 1, space.n_dofs)
            z = rng.uniform(-1, 1, space0.n_dofs)
            lhs = np.concatenate([u, -z]) @ (K @ np.concatenate([u, z]))
            rhs = u @ ((S + M) @ u) + z @ (A0 @ z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestRepRowForms:
    @pytest.fixture(params=[(k, kind) for kind in ("rotated", "arrays") for k in (1, 2)], ids=str)
    def spaces(self, request, geometry):
        # a disk mesh turns its rows m = 8 times; a mesh_from_arrays mesh is m = 1
        k, kind = request.param
        if kind == "rotated":
            mesh = build_disk_mesh(geometry, 8, 2)
        else:
            mesh = jittered_disk_mesh(geometry, 2, seed=5, amplitude=1.0)
        space = build_space(mesh, k)
        return space, space.zero_trace()

    def test_products_match_the_materialized_forms(self, spaces):
        S, M, B, A0 = assembled_forms(*spaces)
        rng = np.random.default_rng(0)
        for form in (S, M, A0, B, B.T):
            x = rng.standard_normal(form.shape[1])
            want = form.matrix @ x
            assert np.abs(form @ x - want).max() <= 1e-14 * np.abs(want).max()

    def test_rows_and_maximum_match_the_materialized_forms(self, spaces):
        # the representatives' rows the mode blocks read, in any order, of
        # the saddle and of each form, and the maxima over them are bitwise
        # max|K| and max|F| of the materialized forms
        K = compose_saddle(*assembled_forms(*spaces))
        want = composed(K)
        reps = representatives(*spaces)
        primal, dual = reps[reps < K.S.shape[0]], reps[reps >= K.S.shape[0]][::-1]
        mixed = np.ravel(np.column_stack([dual[: primal.size], primal[: dual.size]]))
        rng = np.random.default_rng(1)
        for rows in (rng.permutation(reps), rng.choice(reps, reps.size // 3, replace=False), mixed):
            assert_same_csr(K[rows], want[rows])
        assert kmax(K, *spaces) == np.abs(want.data).max()
        for form in (K.S, K.M_omega, K.B, K.A0, K.B.T):
            rows = rng.permutation(view_reps(form))
            assert_same_csr(form[rows], form.matrix[rows])
            assert np.abs(form[rows].data).max() == np.abs(form.matrix.data).max()

    def test_saddle_holds_a_quarter_of_the_materialized_bytes(self, geometry):
        sol = solve_uc(build_disk_mesh(geometry, 8, 4), 1, HarmonicMonomial(3))
        forms = (sol.K.S, sol.K.M_omega, sol.K.B, sol.K.A0)
        assert sol.K.nbytes == sum(csr_bytes(form.G) for form in forms)
        assert sol.K.nbytes <= 0.25 * sum(csr_bytes(form.matrix) for form in forms)


    @pytest.mark.parametrize("k, level", [(1, 5), (2, 3)])
    def test_representatives_rows_peak_near_their_bytes(self, geometry, k, level):
        # the rows `CyclicModes` reads come from stacked block slices and one
        # row gather, with no per-entry triplets of the whole result
        space = build_space(build_disk_mesh(geometry, 8, level), k)
        space0 = space.zero_trace()
        K = compose_saddle(*assembled_forms(space, space0))
        reps = representatives(space, space0)
        rows, peak = traced_peak(lambda: K[reps])
        assert peak <= 3.4 * csr_bytes(rows)

    @pytest.mark.parametrize("k", [1, 2])
    def test_fixed_rows_are_written_last_as_stored(self, geometry, k):
        # a fixed (centre) row is written at every turn; its last write, at
        # s = 0, is its stored row applied to x bit for bit
        space = build_space(build_disk_mesh(geometry, 8, 2), k)
        S, M, B, A0 = assembled_forms(space, space.zero_trace())
        rng = np.random.default_rng(k)
        for form in (S, M, A0, B, B.T):
            dofs = np.arange(space.n_full) if form.rows is None else form.rows
            pos = np.flatnonzero(np.isin(dofs, space.orbits[1]))
            assert pos.size
            x = rng.standard_normal(form.shape[1])
            assert np.array_equal((form @ x)[pos], form[pos] @ x)

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_turn_stores_the_form(self, geometry, k):
        # at m = 1 (a mesh_from_arrays mesh) G holds the form's rows in order:
        # the turn loop's product is the replicated CSR's bit for bit, and
        # `matrix` is G read at the view's dofs, written into new arrays
        space = build_space(jittered_disk_mesh(geometry, 2, seed=5, amplitude=1.0), k)
        assert space.orbits[0].shape[1] == 1
        S, M, B, A0 = assembled_forms(space, space.zero_trace())
        rng = np.random.default_rng(k)
        for form in (S, M, A0, B, B.T):
            mat = form.matrix
            x = rng.standard_normal(form.shape[1])
            assert np.array_equal(form @ x, mat @ x)
            stored = form.G if form.rows is None else form.G[form.rows]
            assert_same_csr(mat, stored if form.cols is None else stored[:, form.cols])
            assert not np.shares_memory(mat.data, form.G.data)

    @pytest.mark.parametrize("k", [1, 2])
    def test_turned_rows_are_refused(self, geometry, k):
        # a disk mesh stores only its representatives' rows; at m = 1 (a
        # mesh_from_arrays mesh) every row is one, served in any order
        space = build_space(build_disk_mesh(geometry, 8, 2), k)
        space0 = space.zero_trace()
        S, M, B, A0 = assembled_forms(space, space0)
        turned = np.flatnonzero(space.orbits[3] != 0)
        turned0 = np.flatnonzero(space.orbits[3][space0.active] != 0)
        for form, rows in ((S, turned), (M, turned), (B.T, turned), (B, turned0), (A0, turned0)):
            with pytest.raises(ValueError):
                form[[0, rows[-1]]]
        with pytest.raises(ValueError):
            compose_saddle(S, M, B, A0)[[0, space.n_dofs + turned0[0]]]
        plain = build_space(jittered_disk_mesh(geometry, 2, seed=5, amplitude=1.0), k)
        rng = np.random.default_rng(k)
        for form in assembled_forms(plain, plain.zero_trace()):
            rows = rng.permutation(form.shape[0])
            assert_same_csr(form[rows], form.matrix[rows])


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

    def test_contract_is_one_in_ten_to_the_ten(self, mesh_l2, monkeypatch):
        # an LU whose solve is off by a fixed vector d: the refinement step
        # adds solve(-K d) = -d + d, so both solves, unpivoted and pivoted,
        # stay at a relative residual of about 1e-8, which a contract looser
        # than 1e-10 would take
        space0 = build_space(mesh_l2, 1).zero_trace()
        A0 = assemble_stiffness(space0).matrix
        b = np.sin(np.arange(space0.n_dofs) * 0.37)
        kmax, x = np.abs(A0.data).max(), spla.spsolve(A0.tocsc(), b)
        d = np.cos(np.arange(b.size))
        d *= 1e-8 * (kmax * np.linalg.norm(x) + np.linalg.norm(b)) / np.linalg.norm(A0 @ d)
        res = ucfem.sparse.achieved_residual(A0, x + d, b, kmax)
        assert res > 1e-10 and res == pytest.approx(1e-8, rel=0.1)
        splu = spla.splu

        class OffLU:
            def __init__(self, *args, **kwargs):
                self.lu = splu(*args, **kwargs)
                self.perm_r = self.lu.perm_r

            def solve(self, rhs):
                return self.lu.solve(rhs) + d

        monkeypatch.setattr(ucfem.sparse.spla, "splu", OffLU)
        with pytest.raises(SolverError, match="required 1.000e-10"):
            solve_direct(A0, b)

    def test_refinement_step_meets_the_contract(self, mesh_l2, monkeypatch):
        # an LU whose first solve misses the contract by about 10 times: the
        # refinement step meets it, with no pivoted fallback, whose warning
        # is an error here
        space0 = build_space(mesh_l2, 1).zero_trace()
        A0 = assemble_stiffness(space0).matrix
        b = np.sin(np.arange(space0.n_dofs) * 0.37)
        kmax, x = np.abs(A0.data).max(), spla.spsolve(A0.tocsc(), b)
        d = np.cos(np.arange(b.size))
        d *= 1e-9 * (kmax * np.linalg.norm(x) + np.linalg.norm(b)) / np.linalg.norm(A0 @ d)
        assert ucfem.sparse.achieved_residual(A0, x + d, b, kmax) == pytest.approx(1e-9, rel=0.1)
        splu, solves = spla.splu, []

        class OffLU:
            def __init__(self, *args, **kwargs):
                self.lu = splu(*args, **kwargs)
                self.perm_r = self.lu.perm_r

            def solve(self, rhs):
                solves.append(rhs)
                return self.lu.solve(rhs) + (d if len(solves) == 1 else 0.0)

        monkeypatch.setattr(ucfem.sparse.spla, "splu", OffLU)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = solve_direct(A0, b)
        assert ucfem.sparse.achieved_residual(A0, x, b, kmax) <= 1e-10

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
        K = all_rows(saddle(space, space0))
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
        return np.concatenate([space.dof_coords, space0.dof_coords]), all_rows(saddle(space, space0))

    def test_is_permutation(self, system):
        coords, K = system
        p = nested_dissection(coords, *edges(K))
        assert K.shape[0] > LEAF_SIZE
        assert np.array_equal(np.sort(p), np.arange(K.shape[0]))

    def test_deterministic(self, system):
        coords, K = system
        assert np.array_equal(nested_dissection(coords, *edges(K)), nested_dissection(coords, *edges(K)))

    def test_edge_order_repeats_and_orientation_change_nothing(self, system):
        # the saddle graph's edges in both orientations, with the diagonal
        # and a third of them once more, shuffled: the permutation of the
        # deduplicated upper triangle
        coords, K = system
        upper = sp.triu(K, k=1, format="coo")
        i, j = edges(K)
        rng = np.random.default_rng(4)
        again = rng.choice(i.size, i.size // 3, replace=False)
        i, j = np.concatenate([i, j[again]]), np.concatenate([j, i[again]])
        shuffle = rng.permutation(i.size)
        want = nested_dissection(coords, upper.row, upper.col)
        assert np.array_equal(nested_dissection(coords, i[shuffle], j[shuffle]), want)

    def test_small_graph_kept_in_order(self):
        # a single leaf is numbered in index order
        A = sp.eye(LEAF_SIZE, format="csr")
        coords = np.random.default_rng(0).uniform(size=(LEAF_SIZE, 2))
        assert np.array_equal(nested_dissection(coords, *edges(A)), np.arange(LEAF_SIZE))

    def test_graph_without_edges_has_no_separators(self):
        # no edge crosses a cut, so every split leaves two halves only
        n = 4 * LEAF_SIZE
        coords = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
        assert np.array_equal(nested_dissection(coords, *edges(sp.eye(n))), np.arange(n))

    def test_separator_numbered_after_halves(self):
        # a path graph on a line: the one cut edge is covered equally well
        # by either endpoint, and the separator is its half-0 endpoint,
        # numbered after both leaves
        n = 2 * LEAF_SIZE
        A = sp.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr")
        coords = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
        p = nested_dissection(coords, *edges(A))
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
        p = nested_dissection(coords, *edges(A))
        assert p[-1] == hub
        assert np.array_equal(p[:hub], np.arange(hub))
        assert np.array_equal(p[hub:-1], np.arange(hub + 1, n))

    def test_cut_along_the_axis_with_the_smaller_cover(self):
        # two rows of LEAF_SIZE points, each row a clique, joined by one
        # rung at x = 0: the median cut across the longer side (x) crosses
        # both cliques, while the cut between the rows crosses the rung
        # alone, whose half-0 end is the separator
        m = LEAF_SIZE
        A = sp.block_diag([np.ones((m, m)), np.ones((m, m))], format="lil")
        A[0, m] = A[m, 0] = 1.0
        coords = np.stack([np.tile(np.arange(m, dtype=float), 2), np.repeat([0.0, 1.0], m)], axis=1)
        assert np.array_equal(nested_dissection(coords, *edges(A)), np.r_[1 : 2 * m, 0])

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
        # element wide; the minimum cover is close to a line of shared
        # nodes, and cutting each part along the axis with the smaller
        # cover, down to leaves of 8, brings the fill from 1.09x to 0.97x
        # that of SuperLU's minimum degree here
        mesh = build_disk_mesh(geometry, 8, 3)
        space = build_space(mesh, 2)
        space0 = space.zero_trace()
        K = all_rows(saddle(space, space0))
        p = nested_dissection(np.concatenate([space.dof_coords, space0.dof_coords]), *edges(K))
        symmetric = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
        ordered = spla.splu(sp.csc_matrix(K[p][:, p]), permc_spec="NATURAL", **symmetric)
        mmd = spla.splu(sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A", **symmetric)
        assert ordered.nnz <= mmd.nnz

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            nested_dissection(np.zeros((3, 2)), *edges(sp.eye(4)))
        with pytest.raises(ValueError):
            nested_dissection(np.zeros((3, 2)), np.arange(3), np.arange(2))

    def test_permutation_is_the_reference_ordering(self, geometry, monkeypatch):
        # the orderings the saddle and A0 solves ask for, a mesh without a
        # rotation, and a graph of coincident point pairs (as the primal and
        # dual twins are) come out bit for bit as the frozen reference's
        graphs = []
        order = ucfem.sparse.nested_dissection

        def recorded(coords, i, j):
            graphs.append((coords, i, j))
            return order(coords, i, j)

        monkeypatch.setattr(ucfem.sparse, "nested_dissection", recorded)
        meshes = [(k, build_disk_mesh(geometry, 8, level)) for k, top in ((1, 4), (2, 3)) for level in range(1, top + 1)]
        meshes.append((1, jittered_disk_mesh(geometry, 3, seed=2, amplitude=1.0)))
        for k, mesh in meshes:
            sol = solve_uc(mesh, k, HarmonicMonomial(3))
            hminus1_residual(sol.dual_space, sol.u, sol.K.A0, sol.K.B)
        assert len(graphs) == 2 * len(meshes)
        side = np.arange(12.0)
        points = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
        twins = sp.kron(sp.diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(144, 144)), np.ones((2, 2)), format="csr")
        graphs.append((np.repeat(points, 2, axis=0), *edges(twins)))
        for coords, i, j in graphs:
            n = coords.shape[0]
            A = sp.csr_matrix((np.ones(i.size), (i, j)), shape=(n, n))
            assert np.array_equal(order(coords, i, j), reference.nested_dissection(coords, A))

    def test_less_fill_than_colamd(self, geometry):
        # 0.66x (0.73x when every part is cut across its longer side)
        mesh = build_disk_mesh(geometry, 8, 4)
        space = build_space(mesh, 1)
        space0 = space.zero_trace()
        K = all_rows(saddle(space, space0))
        coords = np.concatenate([space.dof_coords, space0.dof_coords])
        p = nested_dissection(coords, *edges(K))
        ordered = spla.splu(
            sp.csc_matrix(K[p][:, p]),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        colamd = spla.splu(sp.csc_matrix(K))
        assert ordered.nnz <= 0.70 * colamd.nnz
