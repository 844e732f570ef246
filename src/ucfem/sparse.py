"""Saddle-point composition, a nested-dissection ordering and a direct
sparse solver with residual checks.

Matrices are scipy CSR throughout (sorted indices, summed duplicates).
`solve_direct` factors with SuperLU in the order it is given, without
pivoting; callers order the system first with `nested_dissection`.  A
pivoted SuperLU factorization with COLAMD ordering is the fallback.
Every step is deterministic for identical inputs.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    pass


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
    K = sp.bmat([[S_uw, B.T], [B, -A0]], format="csr")
    K.sort_indices()
    return K


def solve_direct(K, b, rel_tol: float = 1e-10) -> np.ndarray:
    """LU solve with a residual contract.

    Guarantees ||K x - b||_2 <= rel_tol * (max|K| * ||x||_2 + ||b||_2),
    applying one step of iterative refinement if the first solve misses.

    K is factored in the order given and without pivoting, so callers pass
    it in a fill-reducing order (`nested_dissection`).  That is sound for
    the systems this package solves: SPD matrices and the symmetric
    quasi-definite saddle matrix [[H, B^T], [B, -C]] with H and C SPD,
    every symmetric permutation of which has an LDL^T factorization
    (Vanderbei, SIAM J. Optim. 5, 1995).  Any other matrix may meet a zero
    pivot, give a non-finite solution or miss the contract; then K is
    refactored once with COLAMD ordering and partial pivoting, valid for
    every nonsingular matrix, and a RuntimeWarning says so.  SolverError
    is raised if that fails too.
    """
    K = sp.csc_matrix(K)
    b = np.asarray(b, dtype=float)
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
    try:
        lu = spla.splu(K, **options)
    except RuntimeError as exc:  # SuperLU signals a zero pivot column this way
        raise SolverError(f"singular matrix: {exc}") from exc
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
    the half-0 endpoints of the edges that cross the cut form its separator,
    numbered after both halves.  Leaves and separators are numbered in
    coordinate order along their last cut (a graph that is one leaf keeps
    its index order).  All parts of one depth are split in one pass over
    the upper-triangle edge list, so the cost is O(nnz * depth); only
    stable sorts are used, so the result is deterministic.
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
        is_sep = np.zeros(n, dtype=bool)
        is_sep[np.where(half1[ei[cut]], ej[cut], ei[cut])] = True

        sep = is_sep[verts]
        n0 = np.add.reduceat(~up & ~sep, start)
        n1 = size - size // 2
        rank = np.cumsum(sep) - sep
        rank -= np.repeat(rank[start], size)
        perm[(np.repeat(first + n0 + n1, size) + rank)[sep]] = verts[sep]
        part[verts[sep]] = -1
        verts = verts[~sep]
        size = np.stack([n0, n1], axis=1).ravel()
        first = np.stack([first, first + n0], axis=1).ravel()[size > 0]
        size = size[size > 0]
    return perm


def _starts(size):
    """Index of the first entry of each part in a part-after-part array."""
    return np.cumsum(size) - size
