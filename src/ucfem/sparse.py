"""The saddle matrix kept as its four blocks, a nested-dissection
ordering, a direct sparse solver with residual checks, and the split of a
rotation-invariant system into its Fourier modes.

Matrices are scipy CSR throughout (sorted indices, summed duplicates),
except the assembled forms and the saddle matrix.  An assembled form is
kept as the rows of its orbit representatives (`FormMatrix`; one turn at
m = 1), applied turn by turn and read at those rows alone; only its
`matrix` replicates it.  The saddle matrix is never formed: `Saddle` keeps
its four blocks, forms or plain CSR, applies them one by one and stacks
slices of them into only the representatives' rows `CyclicModes` reads.
`CyclicModes` turns K x = b, for a K that commutes with a turn of its
unknowns, given their orbit tables, into one block-diagonal system of the
Fourier modes the load excites, which `solve_direct` factors unpivoted in
`nested_dissection` order (pivoted in COLAMD order as a fallback).  Every
step is deterministic for identical inputs.  Importing the module sets each
OpenBLAS copy in the process to one thread (`_limit_openblas_threads`;
README, Solver); a program that wants threaded BLAS for its own dense work
raises the count again after the import.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla


#: relative residual every solve must meet (see `solve_direct`)
REL_TOL = 1e-10


class SolverError(RuntimeError):
    pass


def _load_malloc_trim():
    """The C library's malloc_trim (glibc), or None where it has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None


_MALLOC_TRIM = _load_malloc_trim()

_OPENBLAS_SETTERS = (  # numpy's ILP64 OpenBLAS, scipy's, a system one
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)


def _limit_openblas_threads(threads=1):
    """Set every OpenBLAS copy mapped in the process to `threads` threads
    through the first of `_OPENBLAS_SETTERS` it exports; the number of
    copies set.  Without /proc/self/maps (macOS), without OpenBLAS
    (Accelerate, MKL) or where a library fails to load, none is set."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        libs = [ctypes.CDLL(path) for path in paths]  # the copies already loaded
    except OSError:
        return 0
    found = (next((getattr(lib, name) for name in _OPENBLAS_SETTERS if hasattr(lib, name)), None) for lib in libs)
    setters = [setter for setter in found if setter is not None]
    for setter in setters:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(threads)
    return len(setters)


_limit_openblas_threads()


def _check_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} contains NaN or Inf")


@dataclass(frozen=True, eq=False)
class FormMatrix:
    """An assembled form, the view F[rows][:, cols] of a full matrix F kept
    as G, the rows of its orbit representatives.

    F is symmetric and commutes with the dof rotation of `space` (a
    `fem.FeSpace`; its n_full, orbits, turn_table, turned_dofs and turn_at
    are read; see `fem._gram`): row r of G is row turn_table[r, 0] of F,
    and row u of F is row rep[u] of G with each column c turned shift[u]
    times, to turned_dofs[turn_at[c] + shift[u]] (the cyclic-symmetry
    method, D. L. Thomas, IJNME 14, 1979).  On a mesh without a recorded
    rotation m = 1: one turn, no fixed row, and G holds F's rows in order.
    `rows` and `cols` are the dofs of the view, ascending (the zero-trace
    `active`), None for all of them.

    `F @ x` applies all of G at each turn, from s = m - 1 down to 0,
    without forming F; a fixed row, stored whole, is written at every turn
    and last at s = 0, as its stored row applied to x.  `F[rows]` returns
    view rows that are representatives' rows (shift 0), in the order asked,
    as stored (CSR with sorted indices), and raises ValueError for a turned
    row.  `T` is the transpose, a view of the same G.  Only `matrix`
    replicates: it writes the view as a new CSR on each call, turn by turn
    into arrays of their final size.
    """

    G: sp.csr_matrix
    space: object
    rows: np.ndarray | None = None
    cols: np.ndarray | None = None

    @property
    def shape(self):
        n = self.space.n_full
        return (n if self.rows is None else self.rows.size, n if self.cols is None else self.cols.size)

    @property
    def T(self) -> FormMatrix:
        return replace(self, rows=self.cols, cols=self.rows)

    def __matmul__(self, x):
        x = np.asarray(x)
        G, space = self.G, self.space
        if self.cols is not None:
            full = np.zeros(G.shape[1], dtype=x.dtype)
            full[self.cols] = x
            x = full
        m = space.orbits[0].shape[1]
        # x turned s times is x[turned_dofs[turn_at + s]], and row table[r, s]
        # of F is row r of G applied to it: G, each column c moved to turn_at[c],
        # applied to the slice s.. of x[turned_dofs].  A fixed row is written
        # at every turn, last at s = 0 as G's row applied to x itself
        twice = x[space.turned_dofs]
        moved = sp.csr_matrix((G.data, space.turn_at[G.indices], G.indptr), shape=(G.shape[0], twice.size - m + 1))
        y = np.empty(G.shape[1], dtype=np.result_type(G.dtype, x.dtype))
        for s in reversed(range(m)):
            y[space.turn_table[:, s]] = moved @ twice[s : s + moved.shape[1]]
        return y if self.rows is None else y[self.rows]

    def __getitem__(self, rows):
        full = rows if self.rows is None else self.rows[rows]
        rep, shift = self.space.orbits[2:]
        if shift[full].any():
            raise ValueError("only representatives' rows are stored; a turned row is not")
        full = rep[full]
        return self.G[full] if self.cols is None else self.G[full][:, self.cols]

    @property
    def matrix(self) -> sp.csr_matrix:
        G, space = self.G, self.space
        table = space.turn_table
        # row u is row rep[u] of G with its columns turned shift[u] times: turn s
        # writes every row of G into rows table[:, s], a fixed row last at
        # s = 0 with its own columns, so no temporary is longer than G
        length = np.diff(G.indptr)
        indptr = np.zeros(space.n_full + 1, dtype=np.int32)
        np.cumsum(length[space.orbits[2]], out=indptr[1:])
        indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
        cols = space.turn_at[G.indices]
        # entry e of row r of G is entry e - G.indptr[r] of its rows in F
        offset = np.arange(G.nnz, dtype=np.int32) - np.repeat(G.indptr[:-1], length)
        for s in reversed(range(table.shape[1])):
            dest = np.repeat(indptr[table[:, s]], length)
            dest += offset
            indices[dest] = space.turned_dofs[cols + s]
            data[dest] = G.data
        mat = sp.csr_matrix((data, indices, indptr), shape=(space.n_full, space.n_full))
        mat.sort_indices()
        if self.rows is not None:
            mat = mat[self.rows]
        if self.cols is not None:
            mat = mat[:, self.cols]
        return mat


@dataclass(frozen=True, eq=False)
class Saddle:
    """K = [[S + M_omega, B^T], [B, -A0]] kept as its four blocks, S and
    M_omega (N,N), B (M,N), A0 (M,M), each an assembled `FormMatrix` or a
    plain CSR matrix; neither K nor S + M_omega is formed, and no form is
    replicated.

    `K @ x` is taken block by block, B^T as `B.T`, the transpose view.
    `K[rows]` builds the requested rows of K, bit for bit, as the stacked
    block slices [[S[p] + M_omega[p], B^T[p]], [B[d], -A0[d]]] of the
    primal rows p and the dual rows d asked (S[p] + M_omega[p] summed as
    S + M_omega sums), gathered back in the order asked.  Each row must be
    a representative's in its form blocks, as are the rows `CyclicModes`
    reads.  `nbytes` is the bytes of the blocks' stored arrays: a form's G,
    or the CSR itself.  K is exactly symmetric.
    """

    S: FormMatrix | sp.csr_matrix
    M_omega: FormMatrix | sp.csr_matrix
    B: FormMatrix | sp.csr_matrix
    A0: FormMatrix | sp.csr_matrix

    @property
    def shape(self):
        return (self.S.shape[0] + self.A0.shape[0],) * 2

    @property
    def nbytes(self) -> int:
        stored = (f.G if isinstance(f, FormMatrix) else f for f in (self.S, self.M_omega, self.B, self.A0))
        return sum(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes for A in stored)

    def __matmul__(self, x):
        u, z = x[: self.S.shape[0]], x[self.S.shape[0] :]
        return np.concatenate([self.S @ u + self.M_omega @ u + self.B.T @ z, self.B @ u - self.A0 @ z])

    def __getitem__(self, rows):
        rows = np.asarray(rows)
        n = self.S.shape[0]
        dual = rows >= n
        p, d = rows[~dual], rows[dual] - n
        # one expression, so that the slices and block rows are freed once stacked
        K = sp.vstack(
            [sp.hstack([self.S[p] + self.M_omega[p], self.B.T[p]]), sp.hstack([self.B[d], -self.A0[d]])], format="csr"
        )
        order = np.argsort(dual, kind="stable")  # row j of K is asked row order[j]
        return K[np.argsort(order)]


def compose_saddle(S, M_omega, B, A0) -> Saddle:
    """The primal-dual `Saddle` of the forms S the stabilization, M_omega
    the data-region mass, B the constraint coupling and A0 the dual
    stiffness.  A `FormMatrix` or CSR block is kept as passed, any other
    converted to CSR; only the block shapes are checked."""
    kept = (FormMatrix, sp.csr_matrix)
    S, M_omega, B, A0 = (f if isinstance(f, kept) else sp.csr_matrix(f) for f in (S, M_omega, B, A0))
    n, m = S.shape[0], A0.shape[0]
    if S.shape != (n, n) or M_omega.shape != (n, n) or A0.shape != (m, m) or B.shape != (m, n):
        raise ValueError(
            f"incompatible blocks: S{S.shape}, M_omega{M_omega.shape}, B{B.shape}, A0{A0.shape}"
        )
    return Saddle(S, M_omega, B, A0)


def solve_direct(K, b, rel_tol: float = REL_TOL) -> np.ndarray:
    """LU solve with a residual contract; K and b are real or complex.

    Guarantees ||K x - b||_2 <= rel_tol * (max|K| * ||x||_2 + ||b||_2),
    applying one step of iterative refinement if the first solve misses.
    The contract bounds the backward error only; the forward error is set
    by the conditioning of K.  At k=2 level 5 the `converge` study's error
    columns differ by 6.1e-5 relative between this factorization and the
    pivoted COLAMD one, though both meet the contract.

    K is factored in the order given and without pivoting, so callers pass
    it in a fill-reducing order (`nested_dissection`).  That is sound for
    the systems this package solves: SPD matrices and the symmetric
    quasi-definite saddle matrix [[H, B^T], [B, -C]] with H and C SPD,
    every symmetric permutation of which has an LDL^T factorization
    (Vanderbei, SIAM J. Optim. 5, 1995).  The argument holds word for word
    for the Hermitian quasi-definite [[H, B^H], [B, -C]] with H and C
    Hermitian positive definite (an LDL^H factorization), which covers the
    complex Fourier-mode blocks of `CyclicModes`, and for a block-diagonal
    matrix of such blocks.  Any other matrix may meet a zero
    pivot, give a non-finite solution or miss the contract; then K is
    refactored once with COLAMD ordering and partial pivoting, valid for
    every nonsingular matrix, and a RuntimeWarning says so.  SolverError
    is raised if that fails too.
    """
    K = sp.csc_matrix(K)
    b = np.asarray(b)
    dtype = np.result_type(K.dtype, b.dtype, float)
    K, b = K.astype(dtype, copy=False), b.astype(dtype, copy=False)
    if K.shape[0] != K.shape[1] or b.shape != (K.shape[0],):
        raise ValueError(f"shape mismatch: K{K.shape}, b{b.shape}")
    _check_finite(K.data, "matrix")
    _check_finite(b, "right-hand side")

    try:
        return _lu_solve(K, b, rel_tol, pivoting=False)
    except SolverError as exc:
        reason = exc
    x = _lu_solve(K, b, rel_tol, pivoting=True)
    warnings.warn(
        f"unpivoted factorization failed ({reason}); solved with pivoted COLAMD",
        RuntimeWarning,
        stacklevel=2,
    )
    return x


def _lu_solve(K, b, rel_tol, pivoting):
    """One SuperLU factorization of K (CSC) and a solve refined at most
    once; SolverError when the factorization or the contract fails."""
    # relax and panel_size stay at SuperLU's defaults: no other value gained
    # reliably, and panel_size=40 crashed (SIGSEGV) 5 of 7 k=2 perturb studies
    if pivoting:
        options = {}
    else:
        options = {
            "permc_spec": "NATURAL",
            "diag_pivot_thresh": 0.0,
            "options": {"SymmetricMode": True},
        }
    kmax = float(np.abs(K.data).max(initial=0.0))
    if _MALLOC_TRIM is not None:
        # glibc keeps freed heap pages resident unless they top the heap by
        # more than a threshold that grows to 64 MB.  How many the assembly
        # leaves depends on the heap's layout (17 or 40 MB before the k=1
        # level-5 saddle factor, from run to run, glibc 2.36), and the
        # factor comes on top of them: hand them back first, so that the
        # peak RSS does not depend on the layout.
        _MALLOC_TRIM(0)
    try:
        lu = spla.splu(K, **options)
    except RuntimeError as exc:  # SuperLU signals a zero pivot column this way
        raise SolverError(f"singular matrix: {exc}") from exc
    except SystemError as exc:  # and an exhausted allocation this way
        raise MemoryError(str(exc)) from exc
    if not pivoting:
        # with a zero threshold SuperLU swaps rows only at a zero diagonal
        swapped = np.flatnonzero(lu.perm_r != np.arange(K.shape[0]))
        if swapped.size:
            raise SolverError(f"zero pivot at index {int(swapped[0])}")

    x = lu.solve(b)
    res = achieved_residual(K, x, b, kmax)
    if res > rel_tol:
        x = x + lu.solve(b - K @ x)
        res = achieved_residual(K, x, b, kmax)
    if not np.isfinite(res):
        raise SolverError("non-finite solution")
    if res > rel_tol:
        raise SolverError(
            f"residual tolerance not met: relative residual {res:.3e}, "
            f"required {rel_tol:.3e}"
        )
    return x


def achieved_residual(K, x, b, kmax) -> float:
    """Relative residual ||K x - b||_2 / (kmax ||x||_2 + ||b||_2), the
    solve_direct contract's scaling, kmax = max|K| as the caller read it."""
    scale = kmax * np.linalg.norm(x) + np.linalg.norm(b)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(K @ x - b) / scale)


#: parts of at most this many unknowns are not split further
LEAF_SIZE = 8


def nested_dissection(coords, i, j) -> np.ndarray:
    """Fill-reducing symmetric permutation p of a matrix A with the edges
    (i[t], j[t]): factor A[p][:, p].  Only the edges with i < j are read,
    in any order and repeats allowed, as a symmetric A's entries list them.

    Geometric nested dissection (George, SIAM J. Numer. Anal. 10, 1973),
    coords[u] being the point of unknown u.  Each part larger than
    LEAF_SIZE is halved at its median along x or along y, whichever cut
    has the smaller separator (the longer bounding-box side on a tie): a
    minimum vertex cover of the edges that cross the cut (`_cut_cover`;
    Ashcraft & Liu, SIMAX 19, 1998; the half-0 endpoints alone form a band
    about one element wide at P2), numbered after both halves, which lose
    its unknowns.  Leaves and separators are numbered in coordinate order
    along their last cut (a one-leaf graph keeps its index order).  Each
    depth splits all parts in one pass over the edges and one matching of
    the edges both cuts cross: O(nnz * depth) plus the matchings.  Stable
    sorts and deterministic graph searches make the result depend on the
    edge set alone.
    """
    coords, i, j = np.asarray(coords, dtype=float), np.asarray(i), np.asarray(j)
    n = coords.shape[0]
    if coords.shape != (n, 2) or i.shape != j.shape or i.ndim != 1 or (i.size and max(i.max(), j.max()) >= n):
        raise ValueError(f"shape mismatch: coords{coords.shape}, edges {i.shape} and {j.shape} over {n} unknowns")
    keep = i < j
    ei, ej = i[keep].astype(np.int64), j[keep].astype(np.int64)
    perm = np.empty(n, dtype=np.int64)
    part = np.zeros(n, dtype=np.int64)  # part of each unnumbered unknown, else -1
    half1 = np.zeros(n, dtype=np.uint8)  # bit 0: in half 1 of the cut along x, bit 1: along y
    # the unnumbered unknowns, part after part; per part: size, first position in perm
    verts = np.arange(n)
    size = np.array([n])
    first = np.zeros(1, dtype=np.int64)
    cut = np.full(1, -1)  # per part, the axis of its last cut (-1: not cut yet)
    while verts.size:
        # parts of at most LEAF_SIZE unknowns are numbered in their current order
        leaf = np.repeat(size <= LEAF_SIZE, size)
        perm[(np.arange(verts.size) + np.repeat(first - _starts(size), size))[leaf]] = verts[leaf]
        part[verts[leaf]] = -1
        split = size > LEAF_SIZE
        verts, size, first, cut = verts[~leaf], size[split], first[split], cut[split]
        if not verts.size:
            break
        start = _starts(size)
        label = np.repeat(np.arange(size.size), size)
        part[verts] = label

        # each part in coordinate order along x and along y, halved at the median;
        # a part is in order along its last cut already, where a stable sort
        # would keep it as it is, so only its other axis is sorted
        pts = coords[verts]
        by_axis = []
        for axis in (0, 1):
            order, todo = verts.copy(), np.repeat(cut != axis, size)
            order[todo] = verts[todo][np.lexsort((pts[todo, axis], label[todo]))]
            by_axis.append(order)
        up = np.arange(verts.size) - np.repeat(start, size) >= np.repeat(size // 2, size)
        half1[by_axis[0]] = up
        half1[by_axis[1]] |= up.view(np.uint8) << 1

        inside = (part[ei] >= 0) & (part[ei] == part[ej])
        ei, ej = ei[inside], ej[inside]
        # both cuts' edges in one bipartite graph, the y cut's unknowns shifted by n
        crossed = half1[ei] ^ half1[ej]
        axis, t = np.nonzero(np.stack([crossed & 1, crossed >> 1]).view(bool))
        e0, e1 = ei[t], ej[t]
        flip = (half1[e0] >> axis) & 1
        ends = np.where(flip, e1, e0) + axis * n, np.where(flip, e0, e1) + axis * n
        cover_axis, cover = np.divmod(_cut_cover(*ends), n)
        count = np.bincount(2 * part[cover] + cover_axis, minlength=2 * size.size).reshape(-1, 2)
        extent = np.maximum.reduceat(pts, start) - np.minimum.reduceat(pts, start)
        side = np.where(count[:, 0] == count[:, 1], np.argmax(extent, axis=1), np.argmin(count, axis=1))
        verts = np.where(side[label] == 0, by_axis[0], by_axis[1])
        is_sep = np.zeros(n, dtype=bool)
        is_sep[cover[side[part[cover]] == cover_axis]] = True

        sep = is_sep[verts]
        n0 = np.add.reduceat(~up & ~sep, start)
        n1 = np.add.reduceat(up & ~sep, start)
        rank = np.cumsum(sep) - sep
        rank -= np.repeat(rank[start], size)
        perm[(np.repeat(first + n0 + n1, size) + rank)[sep]] = verts[sep]
        part[verts[sep]] = -1
        verts = verts[~sep]
        size = np.stack([n0, n1], axis=1).ravel()
        first = np.stack([first, first + n0], axis=1).ravel()[size > 0]
        cut = np.repeat(side, 2)[size > 0]
        size = size[size > 0]
    return perm


def _cut_cover(e0, e1):
    """A minimum vertex cover of the cut edges (e0[t], e1[t]), e0 their
    half-0 and e1 their half-1 endpoints (König's theorem).

    One maximum matching of the bipartite graph, then one search along the
    alternating paths from the unmatched half-0 endpoints (half 0 to half 1
    along any cut edge, back along the matching): the cover is the
    unreached half-0 endpoints and the reached half-1 endpoints.  Where
    both sides cover equally well, it is the half-0 side.
    """
    bound = int(max(e0.max(initial=0), e1.max(initial=0))) + 1
    (left, li), (right, ri) = (_ranked(e, bound) for e in (e0, e1))
    nl, nr = left.size, right.size
    match = csgraph.maximum_bipartite_matching(
        sp.csr_matrix((np.ones(li.size), (li, ri)), shape=(nl, nr)), perm_type="column"
    )
    paired, free = np.flatnonzero(match >= 0), np.flatnonzero(match < 0)
    source = nl + nr  # leads to every unmatched half-0 endpoint
    tail = np.concatenate([li, nl + match[paired], np.full(free.size, source)])
    head = np.concatenate([nl + ri, paired, free])
    paths = sp.csr_matrix((np.ones(tail.size), (tail, head)), shape=(source + 1, source + 1))
    reached = np.zeros(source + 1, dtype=bool)
    reached[csgraph.breadth_first_order(paths, source, return_predecessors=False)] = True
    return np.concatenate([left[~reached[:nl]], right[reached[nl:source]]])


def _ranked(ids, bound):
    """np.unique(ids, return_inverse=True) for ids below bound, from a mark
    array and its cumulative sum instead of a sort."""
    mark = np.zeros(bound, dtype=bool)
    mark[ids] = True
    return np.flatnonzero(mark), (np.cumsum(mark) - 1)[ids]


def _starts(size):
    """Index of the first entry of each part in a part-after-part array."""
    return np.cumsum(size) - size


def cyclic_orbits(rotation, coords):
    """The orbits of the unknowns under a rotation of order m.

    rotation[i] is the unknown that a turn by 2 pi / m carries unknown i
    to; coords[i] is its point.  Returns (orbits, fixed, rep, shift):
    orbits (nr, m) holds in row r the representative orbits[r, 0], the
    member of least polar angle in [0, 2 pi), and in column s its s-th
    turn; fixed lists the unknowns the turn keeps.  The representatives
    are orbits[:, 0] then fixed, and unknown u is the shift[u]-th turn of
    representative number rep[u] (shift 0 for a representative, and for
    every fixed unknown).  All four are int32.  rotation None is the
    order-1 case: every unknown is its own orbit and none is fixed.
    """
    n = coords.shape[0]
    if n > np.iinfo(np.int32).max:
        raise ValueError(f"{n} unknowns exceed int32 indices")
    same = None if rotation is None else rotation == np.arange(n, dtype=np.int32)
    if same is None or same.all():
        return orbit_index(np.arange(n, dtype=np.int32)[:, None], np.empty(0, dtype=np.int32))
    moved, fixed = np.flatnonzero(~same).astype(np.int32), np.flatnonzero(same).astype(np.int32)
    m, i = 1, rotation[moved[0]]
    while i != moved[0] and m <= n:
        i, m = rotation[i], m + 1

    # a moved unknown represents its orbit if no turn has a smaller angle
    angle = np.arctan2(coords[:, 1], coords[:, 0])
    np.remainder(angle, 2.0 * np.pi, out=angle)
    own_angle, is_rep, turned = angle[moved], np.ones(moved.size, dtype=bool), moved
    for _ in range(1, m):
        turned = rotation[turned]
        is_rep &= angle[turned] >= own_angle
    del angle, own_angle, turned
    orbits = np.empty((np.count_nonzero(is_rep), m), dtype=np.int32)
    orbits[:, 0] = moved[is_rep]
    del moved, is_rep
    for s in range(1, m):
        orbits[:, s] = rotation[orbits[:, s - 1]]
    seen = np.zeros(n, dtype=bool)  # n members, each unknown among them: each once
    seen[orbits] = seen[fixed] = True
    if orbits.size + fixed.size != n or not seen.all() or np.any(rotation[orbits[:, -1]] != orbits[:, 0]):
        raise ValueError("rotation is not a permutation whose moved cycles share one length")
    return orbit_index(orbits, fixed)


def orbit_index(orbits, fixed):
    """(orbits, fixed, rep, shift) of tables holding each unknown once, rep and shift as in `cyclic_orbits`."""
    n = orbits.size + fixed.size
    rep = np.empty(n, dtype=np.int32)
    shift = np.zeros(n, dtype=np.int32)
    rep[orbits] = np.arange(orbits.shape[0], dtype=np.int32)[:, None]
    shift[orbits] = np.arange(orbits.shape[1], dtype=np.int32)
    rep[fixed] = orbits.shape[0] + np.arange(fixed.size, dtype=np.int32)
    return orbits, fixed, rep, shift


class CyclicModes:
    """K x = b as one block-diagonal system of the Fourier modes of the load.

    `orbits` is the (orbits, fixed, rep, shift) of K's unknowns under a
    turn of order m (`orbit_index`); of coords only the representatives'
    points are read.  A K that commutes with the turn is block diagonal in
    the orbit Fourier basis: column r of E_j holds exp(2 pi i j s / m) /
    sqrt(m) at the s-th turn of representative r (a fixed unknown belongs
    to mode 0 alone, with weight 1).  Block j, K_j = E_j^H K E_j, has the
    entries sum_t exp(2 pi i j t / m) K[r, turn^t r'], read from the
    representatives' rows K[reps] (K is a CSR matrix, a `FormMatrix` or a
    `Saddle`).  For real K and b, mode m - j is the conjugate of mode j,
    so only j = 0..m/2 are solved and

        x = sum_j c_j Re(E_j x_j),  c_j = 1 for j in {0, m/2}, else 2.

    A mode whose load norm sqrt(c_j) |E_j^H b| is below 1e-2 * REL_TOL *
    |b| is skipped, which leaves at most 1% of the residual contract per
    mode.  `matrix` and `rhs` are the kept blocks stacked diagonally, each
    in the `nested_dissection` order of the representatives' points and of
    the graph of their triplets (i, rep[col]), for which no matrix is
    formed; they are complex only when a mode other than 0 and m/2 is
    kept.  All blocks' entries, at their stacked positions, are converted
    to CSC in one pass; a column holds its own block's entries alone, so
    its duplicates sum as in that block.  At m = 1: one mode, E =
    identity, K itself.  Nothing here checks that K commutes with the
    turn: the caller checks x on the full K (`achieved_residual` at
    `kmax`, max|K| over the representatives' rows: exact for a K that
    commutes with the turn, at most max|K| otherwise, which only tightens
    the check).

    `rel_tol` is the tolerance a `solve_direct` of `matrix` and `rhs` must
    meet for the recombined x to keep the contract on K, 0.5 REL_TOL
    min(1, kmax / max|matrix|): the sqrt(m) K[r, f] couplings of mode 0
    to a fixed unknown f can lift max|matrix| above max|K|.  E is unitary
    and a conjugate pair enters x with weight 2, so |K x - b| is at most
    sqrt(2) times the block residual, under 0.5 REL_TOL (max|K| |x| +
    |b|), plus the skipped modes' load, under 1e-2 sqrt(m/2 + 1) REL_TOL
    |b|.  That needs the block solution's norm to be at most |x|, so modes
    0 and m/2 must come out real: their blocks and loads are real, and
    SuperLU keeps them so.
    """

    def __init__(self, K, b, coords, orbits):
        orbits, fixed, rep, shift = orbits
        nr, m = orbits.shape
        reps = np.concatenate([orbits[:, 0], fixed])
        self._orbits, self._fixed = orbits, fixed

        # column j of load is E_j^H b over the orbits, j = 0..m/2; c_j |E_j^H b|^2 per mode
        load = np.fft.rfft(b[orbits], axis=1) / np.sqrt(m)
        j = np.arange(load.shape[1])
        share = np.where((j == 0) | (2 * j == m), 1, 2) * (np.abs(load) ** 2).sum(axis=0)
        share[0] += b[fixed] @ b[fixed]
        skip = np.sqrt(share) < 1e-2 * REL_TOL * np.linalg.norm(b)
        self.modes = tuple(int(mode) for mode in np.flatnonzero(~skip))

        rows = K[reps].tocoo()
        i, col, turn = rows.row, rep[rows.col], shift[rows.col]
        size = np.where(np.arange(reps.size) < nr, m, 1)
        data = rows.data * np.sqrt(size[i] / size[col])
        self.kmax = float(max(rows.data.max(initial=0.0), -rows.data.min(initial=0.0)))
        del rows
        order = nested_dissection(coords[reps], i, col)
        phase = np.exp(2j * np.pi * np.arange(m) / m)

        # each block's entries at its stacked positions, after the blocks before it
        self._blocks, rhs, r, c, v, offset = [], [], [], [], [], 0
        for j in self.modes:
            if j == 0:
                perm, keep, part = order, slice(None), data
            else:
                perm, keep = order[order < nr], (i < nr) & (col < nr)
                w = (-1.0) ** np.arange(m) if 2 * j == m else phase[(j * np.arange(m)) % m]
                part = data[keep] * w[turn[keep]]
            pos = np.empty(perm.size, dtype=np.int32)
            pos[perm] = np.arange(offset, offset + perm.size, dtype=np.int32)
            r.append(pos[i[keep]])
            c.append(pos[col[keep]])
            v.append(part)
            rhs.append(np.concatenate([load[:, 0], b[fixed]])[perm] if j == 0 else load[perm, j])
            self._blocks.append((j, offset, perm))
            offset += perm.size
        # free each list's parts once joined and the joined triplets once
        # converted, which keeps the step's traced peak near 2.3x the matrix
        del i, col, turn, data, part
        r = np.concatenate(r)
        c = np.concatenate(c)
        v = np.concatenate(v)
        self.matrix = sp.csc_matrix((v, (r, c)), shape=(offset, offset))
        del r, c, v
        self.rhs = np.concatenate(rhs) if np.iscomplexobj(self.matrix.data) else np.concatenate(rhs).real
        # both maxima over assembled entries, duplicates summed
        self.rel_tol = 0.5 * REL_TOL * min(1.0, self.kmax / np.abs(self.matrix.data).max())

    def recombine(self, y) -> np.ndarray:
        """The real x = sum_j c_j Re(E_j x_j) of the stacked block solution y."""
        nr, m = self._orbits.shape
        coeffs = np.zeros((nr, m // 2 + 1), dtype=complex)
        x = np.zeros(nr * m + self._fixed.size)
        for j, offset, perm in self._blocks:
            part = np.empty(perm.size, dtype=y.dtype)
            part[perm] = y[offset : offset + perm.size]
            coeffs[:, j] = part[:nr]
            if j == 0:
                x[self._fixed] = part[nr:].real
        x[self._orbits] = np.fft.irfft(coeffs, n=m, axis=1) * np.sqrt(m)
        return x
