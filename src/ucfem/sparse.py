"""Saddle-point composition and a direct sparse solver with residual checks.

Matrices are scipy CSR throughout (sorted indices, summed duplicates).
The factorization is SuperLU with the default COLAMD ordering, which is
deterministic for identical inputs.
"""

from __future__ import annotations

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
    Valid for symmetric indefinite systems (partial pivoting inside
    SuperLU).
    """
    K = sp.csc_matrix(K)
    b = np.asarray(b, dtype=float)
    if K.shape[0] != K.shape[1] or b.shape != (K.shape[0],):
        raise ValueError(f"shape mismatch: K{K.shape}, b{b.shape}")
    _check_finite(b, "right-hand side")

    try:
        lu = spla.splu(K)
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SolverError(f"singular matrix: {exc}") from exc
    udiag = np.abs(lu.U.diagonal())
    if udiag.size and udiag.min() == 0.0:
        raise SolverError(
            f"numerically singular matrix: zero pivot at index {int(udiag.argmin())}"
        )

    x = lu.solve(b)
    _check_finite(x, "solution")
    kmax = np.abs(K.data).max() if K.nnz else 0.0
    scale = kmax * np.linalg.norm(x) + np.linalg.norm(b)

    def residual(x):
        return np.linalg.norm(K @ x - b)

    res = residual(x)
    if res > rel_tol * scale:
        x = x + lu.solve(b - K @ x)
        res = residual(x)
        scale = kmax * np.linalg.norm(x) + np.linalg.norm(b)
        if res > rel_tol * scale:
            raise SolverError(
                f"residual tolerance not met: achieved {res:.3e}, "
                f"required {rel_tol * scale:.3e}"
            )
    return x


def achieved_residual(K, x, b) -> float:
    """Relative residual in the solve_direct contract's scaling."""
    kmax = np.abs(sp.csr_matrix(K).data).max() if K.nnz else 0.0
    scale = kmax * np.linalg.norm(x) + np.linalg.norm(b)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(K @ x - b) / scale)

