"""Saddle-point composition, a nested-dissection ordering, a direct
sparse solver with residual checks, and the split of a rotation-invariant
system into its Fourier modes.

Matrices are scipy CSR throughout (sorted indices, summed duplicates).
`solve_direct` factors with SuperLU in the order it is given, without
pivoting; callers order the system first with `nested_dissection`, whose
separators are minimum vertex covers of the edges each cut crosses.  A
pivoted SuperLU factorization with COLAMD ordering is the fallback.
`CyclicModes` turns K x = b, for a K that commutes with a rotation of its
unknowns, into one block-diagonal system of the Fourier modes the load
excites.  Every step is deterministic for identical inputs.
"""

from __future__ import annotations

import ctypes
import warnings

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


def _check_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} contains NaN or Inf")


def compose_saddle(S_uw, B, A0) -> sp.csr_matrix:
    """Block matrix [[S_uw, B^T], [B, -A0]] of the primal-dual system.

    S_uw is the (N,N) primal block (stabilization plus data mass), B the
    (M,N) constraint coupling, A0 the (M,M) dual stiffness.  The result is
    exactly symmetric.
    """
    S_uw = sp.csr_matrix(S_uw)
    B = sp.csr_matrix(B)
    A0 = sp.csr_matrix(A0)
    n = S_uw.shape[0]
    m = A0.shape[0]
    if S_uw.shape != (n, n) or A0.shape != (m, m) or B.shape != (m, n):
        raise ValueError(
            f"incompatible blocks: S{S_uw.shape}, B{B.shape}, A0{A0.shape}"
        )
    # two CSR rows stacked: bmat would go through COO triplets of all four blocks
    K = sp.vstack(
        [sp.hstack([S_uw, B.T.tocsr()], format="csr"), sp.hstack([B, -A0], format="csr")],
        format="csr",
    )
    K.sort_indices()
    return K


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
    if pivoting:
        options = {}
    else:
        options = {
            "permc_spec": "NATURAL",
            "diag_pivot_thresh": 0.0,
            "options": {"SymmetricMode": True},
        }
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
    res = achieved_residual(K, x, b)
    if res > rel_tol:
        x = x + lu.solve(b - K @ x)
        res = achieved_residual(K, x, b)
    if not np.isfinite(res):
        raise SolverError("non-finite solution")
    if res > rel_tol:
        raise SolverError(
            f"residual tolerance not met: relative residual {res:.3e}, "
            f"required {rel_tol:.3e}"
        )
    return x


def achieved_residual(K, x, b) -> float:
    """Relative residual ||K x - b||_2 / (max|K| * ||x||_2 + ||b||_2), the
    solve_direct contract's scaling; K is CSR or CSC with summed duplicates."""
    kmax = np.abs(K.data).max(initial=0.0)
    scale = kmax * np.linalg.norm(x) + np.linalg.norm(b)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(K @ x - b) / scale)


#: parts of at most this many unknowns are not split further
LEAF_SIZE = 64


def nested_dissection(coords, A) -> np.ndarray:
    """Fill-reducing symmetric permutation p of A: factor A[p][:, p].

    Geometric nested dissection (George, SIAM J. Numer. Anal. 10, 1973) of
    A's graph, coords[i] being the point of unknown i.  Each part larger
    than LEAF_SIZE is halved at the median of its longer bounding-box side;
    its separator is a minimum vertex cover of the edges that cross the cut
    (`_cut_cover`; Ashcraft & Liu, SIMAX 19, 1998), numbered after both
    halves, which lose the separator's unknowns.  The half-0 endpoints
    alone also separate, but at P2 they form a band about one element
    wide where a line of shared nodes suffices (1.3x the fill of SuperLU's
    minimum degree on the k=2 level-3 saddle, against 0.99x).  Leaves and
    separators are numbered in coordinate order along their last cut (a
    graph that is one leaf keeps its index order).  All parts of one depth
    are split in one pass over the upper-triangle edge list and one
    matching of all their cut edges, so the cost is O(nnz * depth) plus
    the matchings; only stable sorts and deterministic graph searches are
    used, so the result is deterministic.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    if coords.shape != (n, 2) or A.shape != (n, n):
        raise ValueError(f"shape mismatch: coords{coords.shape}, A{A.shape}")
    upper = sp.triu(A, k=1, format="coo")
    ei, ej = upper.row.astype(np.int64), upper.col.astype(np.int64)
    perm = np.empty(n, dtype=np.int64)
    part = np.zeros(n, dtype=np.int64)  # part of each unnumbered unknown, else -1
    half1 = np.zeros(n, dtype=bool)
    # the unnumbered unknowns, part after part; per part: size, first position in perm
    verts = np.arange(n)
    size = np.array([n])
    first = np.zeros(1, dtype=np.int64)
    while verts.size:
        # parts of at most LEAF_SIZE unknowns are numbered in their current order
        leaf = np.repeat(size <= LEAF_SIZE, size)
        perm[(np.arange(verts.size) + np.repeat(first - _starts(size), size))[leaf]] = verts[leaf]
        part[verts[leaf]] = -1
        verts, size, first = verts[~leaf], size[size > LEAF_SIZE], first[size > LEAF_SIZE]
        if not verts.size:
            break
        start = _starts(size)
        label = np.repeat(np.arange(size.size), size)
        part[verts] = label

        pts = coords[verts]
        extent = np.maximum.reduceat(pts, start) - np.minimum.reduceat(pts, start)
        side = np.argmax(extent, axis=1)[label]
        verts = verts[np.lexsort((pts[np.arange(verts.size), side], label))]
        up = np.arange(verts.size) - np.repeat(start, size) >= np.repeat(size // 2, size)
        half1[verts] = up

        inside = (part[ei] >= 0) & (part[ei] == part[ej])
        ei, ej = ei[inside], ej[inside]
        cut = half1[ei] != half1[ej]
        e0, e1 = ei[cut], ej[cut]
        flip = half1[e0]
        is_sep = np.zeros(n, dtype=bool)
        is_sep[_cut_cover(np.where(flip, e1, e0), np.where(flip, e0, e1))] = True

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
    left, li = np.unique(e0, return_inverse=True)
    right, ri = np.unique(e1, return_inverse=True)
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
    every fixed unknown).  rotation None is the order-1 case: every
    unknown is its own orbit and none is fixed.
    """
    n = coords.shape[0]
    moved = np.empty(0) if rotation is None else np.flatnonzero(rotation != np.arange(n))
    if moved.size == 0:
        own = np.arange(n)
        return own[:, None], np.empty(0, dtype=np.int64), own, np.zeros(n, dtype=np.int64)
    fixed = np.flatnonzero(rotation == np.arange(n))
    m, i = 1, rotation[moved[0]]
    while i != moved[0] and m <= n:
        i, m = rotation[i], m + 1

    angle = np.arctan2(coords[:, 1], coords[:, 0]) % (2.0 * np.pi)
    turned, least, turns = moved, angle[moved], np.zeros(moved.size, dtype=np.int64)
    for s in range(1, m):
        turned = np.take(rotation, turned)
        turned_angle = np.take(angle, turned)
        turns[turned_angle < least] = s
        np.minimum(least, turned_angle, out=least)
    orbits = np.empty((np.count_nonzero(turns == 0), m), dtype=np.int64)
    orbits[:, 0] = moved[turns == 0]
    for s in range(1, m):
        orbits[:, s] = rotation[orbits[:, s - 1]]
    members = np.bincount(np.concatenate([orbits.ravel(), fixed]), minlength=n)
    if np.any(members != 1) or np.any(rotation[orbits[:, -1]] != orbits[:, 0]):
        raise ValueError("rotation is not a permutation whose moved cycles share one length")
    rep = np.empty(n, dtype=np.int64)
    shift = np.zeros(n, dtype=np.int64)
    rep[orbits] = np.arange(orbits.shape[0])[:, None]
    shift[orbits] = np.arange(m)
    rep[fixed] = orbits.shape[0] + np.arange(fixed.size)
    return orbits, fixed, rep, shift


class CyclicModes:
    """K x = b as one block-diagonal system of the Fourier modes of the load.

    A K that commutes with a rotation of its unknowns (P K P^T = K, see
    `cyclic_orbits`) is block diagonal in the orbit Fourier basis: column
    r of E_j holds exp(2 pi i j s / m) / sqrt(m) at the s-th turn of
    representative r (a fixed unknown belongs to mode 0 alone, with
    weight 1).  Block j, K_j = E_j^H K E_j, is built from the
    representatives' rows of K: K_j[r, r'] = sum_t exp(2 pi i j t / m)
    K[r, turn^t r'].  For real K and b mode m - j is the conjugate of mode
    j, so only j = 0..m/2 are solved and

        x = sum_j c_j Re(E_j x_j),  c_j = 1 for j in {0, m/2}, else 2.

    A mode whose load norm sqrt(c_j) |E_j^H b| is below 1e-2 * REL_TOL *
    |b| is skipped, which leaves at most 1% of the residual contract per
    mode.  `matrix` and `rhs` are the kept blocks, each in the
    nested-dissection order of the representatives' points, stacked
    diagonally; they are complex only when a mode other than 0 and m/2
    is kept.  rotation None is the order-1 case: one mode, E = identity,
    K itself.  Nothing here checks that K commutes with the rotation: a
    K that does not gives an x that misses the residual contract on the
    full K, which the caller checks (`achieved_residual`).

    `rel_tol` is the tolerance a `solve_direct` of `matrix` and `rhs` must
    meet for the recombined x to keep the contract on K, 0.5 REL_TOL
    min(1, max|K| / max|matrix|): the sqrt(m) K[r, f] couplings of mode 0
    to a fixed unknown f can lift max|matrix| above max|K|.  E is unitary
    and a conjugate pair enters x with weight 2, so |K x - b| is at most
    sqrt(2) times the block residual, under 0.5 REL_TOL (max|K| |x| +
    |b|), plus the skipped modes' load, under 1e-2 sqrt(m/2 + 1) REL_TOL
    |b|.  That needs the block solution's norm to be at most |x|, so modes
    0 and m/2 must come out real: their blocks and loads are real, and
    SuperLU keeps them so.
    """

    def __init__(self, K, b, coords, rotation):
        orbits, fixed, rep, shift = cyclic_orbits(rotation, coords)
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
        mode0 = sp.csr_matrix((data, (i, col)), shape=(reps.size, reps.size))
        order = nested_dissection(coords[reps], mode0)
        phase = np.exp(2j * np.pi * np.arange(m) / m)

        self._blocks, entries, rhs, offset = [], [], [], 0
        for j in self.modes:
            if j == 0:
                perm, keep, values = order, slice(None), data
            else:
                perm, keep = order[order < nr], (i < nr) & (col < nr)
                w = (-1.0) ** np.arange(m) if 2 * j == m else phase[(j * np.arange(m)) % m]
                values = data[keep] * w[turn[keep]]
            pos = np.empty(perm.size, dtype=np.int64)
            pos[perm] = offset + np.arange(perm.size)
            entries.append((values, pos[i[keep]], pos[col[keep]]))
            rhs.append(np.concatenate([load[:, 0], b[fixed]])[perm] if j == 0 else load[perm, j])
            self._blocks.append((j, offset, perm))
            offset += perm.size
        values, r, c = (np.concatenate(parts) for parts in zip(*entries))
        self.matrix = sp.csc_matrix((values, (r, c)), shape=(offset, offset))
        self.rhs = np.concatenate(rhs) if np.iscomplexobj(values) else np.concatenate(rhs).real
        # both maxima over assembled entries, duplicates summed
        self.rel_tol = 0.5 * REL_TOL * min(1.0, np.abs(K.data).max() / np.abs(self.matrix.data).max())

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
