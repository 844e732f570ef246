#!/usr/bin/env python3
"""Print SHA-256 fingerprints of the Fourier-mode solves of a fixed list of
configurations, one line per solve, to compare two checkouts bit for bit.

Each configuration and level runs one `solver.solve_uc` (the saddle solve)
and its `solver.hminus1_residual` (the Riesz solve with A0); both go
through `solver.CyclicModes`, which the script wraps.  A line holds the
first 16 hex digits of the SHA-256 of each of: the `CyclicModes` `matrix`
(data, indices and indptr, with their dtypes), `rhs`, `rel_tol.hex()`,
`kmax.hex()` and `modes`, then the solution: u, z and solve_residual on
the saddle line, residual_hminus1 on the Riesz line.  Run it in each
checkout and diff the output:

    python3 scripts/fingerprint.py > fingerprint.txt
    diff fingerprint.txt ../other/fingerprint.txt

Only these `CyclicModes` solves are covered: the order-1 path of a mesh
without a recorded rotation, `solve_poisson`, the study outputs and the
load and error-norm assembly are not.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

# run from a checkout: the package is imported from src/ beside this script
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ucfem import solver, studies  # noqa: E402
from ucfem.config import build_config  # noqa: E402
from ucfem.mesh import build_disk_mesh  # noqa: E402

#: (name, config entries, levels)
CONFIGS = (
    ("k1_n4", {"k": "1", "exact.n": "4"}, range(1, 6)),
    ("k1_n3", {"k": "1", "exact.n": "3"}, range(1, 6)),
    (
        "k2_noise",
        {
            "k": "2",
            "exact.kind": "zero",
            "perturbation.mode": "nodal_noise",
            "perturbation.epsilon": "1e-3",
            "perturbation.seed": "0",
        },
        range(1, 5),
    ),
)


def digest(*parts) -> str:
    """First 16 hex digits of the SHA-256 of arrays (bytes and dtype) and strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            part = np.ascontiguousarray(part)
            h.update(part.dtype.str.encode())
            h.update(part.tobytes())
    return h.hexdigest()[:16]


def modes_fields(modes) -> str:
    A = modes.matrix
    return (
        f"matrix={digest(A.data, A.indices, A.indptr)} rhs={digest(modes.rhs)} "
        f"rel_tol={digest(modes.rel_tol.hex())} kmax={digest(modes.kmax.hex())} "
        f"modes={digest(repr(modes.modes))}"
    )


def main() -> int:
    made = []

    class Recorded(solver.CyclicModes):
        def __init__(self, *a):
            super().__init__(*a)
            made.append(self)

    solver.CyclicModes = Recorded
    for name, entries, levels in CONFIGS:
        cfg = build_config(entries)
        exact = studies.exact_field_from_config(cfg)
        for level in levels:
            made.clear()
            mesh = build_disk_mesh(cfg.geometry, cfg.sectors, level)
            sol = solver.solve_uc(mesh, cfg.k, exact, cfg.perturbation, studies.resolve_hmin(cfg))
            res = solver.hminus1_residual(sol.dual_space, sol.u, sol.K.A0, sol.K.B)
            saddle, riesz = made
            print(
                f"{name} level={level} saddle {modes_fields(saddle)} u={digest(sol.u)} "
                f"z={digest(sol.z)} solve_residual={digest(sol.solve_residual.hex())}"
            )
            print(f"{name} level={level} riesz {modes_fields(riesz)} residual_hminus1={digest(res.hex())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
