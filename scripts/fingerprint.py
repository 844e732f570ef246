#!/usr/bin/env python3
"""Print SHA-256 fingerprints of the Fourier-mode solves of a fixed list of
configurations, one line per solve, to compare two checkouts bit for bit.

Each configuration and level runs one `solver.solve_uc` (the saddle solve)
and its `solver.hminus1_residual` (the Riesz solve with A0), on the disk
mesh and, for the `_norot` configurations, on the same mesh without its
recorded rotation (the order-1 path).  Each level of the `poisson_k*`
lines runs one `solver.solve_poisson` of f = 4.  Every one of these solves
goes through `solver.CyclicModes`, which the script wraps.  A line holds
the first 16 hex digits of the SHA-256 of each of: the `CyclicModes`
`matrix` (data, indices and indptr, with their dtypes), `rhs`,
`rel_tol.hex()`, `kmax.hex()` and `modes`, then the solution: u, z and
solve_residual on the saddle line, residual_hminus1 on the Riesz line, u
and its four `error_norms` against the exact solution r3^2 - |x|^2 on the
Poisson line.  A third line per configuration and level hashes
what the solve's primal space and forms give without a solve: the load
over omega, the four `error_norms` of u over B (inner omega), and
s(u_I, u_I) and |u_I|^2_omega of the nodal interpolant u_I of the exact
field, the quantities of the energy-balance ladder.  Run it in each
checkout and diff the output:

    python3 scripts/fingerprint.py > fingerprint.txt
    diff fingerprint.txt ../other/fingerprint.txt

The study outputs are not covered.
"""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

# run from a checkout: the package is imported from src/ beside this script
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ucfem import solver, studies  # noqa: E402
from ucfem.config import build_config  # noqa: E402
from ucfem.fem import assemble_load_region, build_space, error_norms, interpolate_nodal  # noqa: E402
from ucfem.fields import QuadraticField  # noqa: E402
from ucfem.mesh import ALL_REGIONS, B_REGIONS, Region, build_disk_mesh  # noqa: E402

#: nodal noise on zero data, the entries of a configuration but its order k
NOISE = {
    "exact.kind": "zero",
    "perturbation.mode": "nodal_noise",
    "perturbation.epsilon": "1e-3",
    "perturbation.seed": "0",
}

#: (name, config entries, levels, whether the mesh keeps its recorded rotation)
CONFIGS = (
    ("k1_n4", {"k": "1", "exact.n": "4"}, range(1, 6), True),
    ("k1_n3", {"k": "1", "exact.n": "3"}, range(1, 6), True),
    ("k2_n4", {"k": "2", "exact.n": "4"}, range(1, 5), True),
    ("k2_noise", {"k": "2", **NOISE}, range(1, 5), True),
    ("k1_noise_norot", {"k": "1", **NOISE}, range(1, 5), False),
    ("k2_noise_norot", {"k": "2", **NOISE}, range(1, 5), False),
)

#: (name, k, levels) of the `solve_poisson` lines, on the default disk mesh
POISSON = (("poisson_k1", 1, range(1, 5)), ("poisson_k2", 2, range(1, 5)))


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


def norms_digest(err) -> str:
    return digest(" ".join(float(v).hex() for v in vars(err).values()))


def forms_fields(sol, exact) -> str:
    space, K = sol.primal_space, sol.K
    load = assemble_load_region(space, exact, Region.OMEGA_DATA)
    norms = norms_digest(error_norms(space, sol.u, exact, B_REGIONS, inner=[Region.OMEGA_DATA]))
    u_i = interpolate_nodal(space, exact)
    s_ii, m_ii = (float(u_i @ (form.matrix @ u_i)) for form in (K.S, K.M_omega))
    return f"load={digest(load)} norms={norms} s_ii={digest(s_ii.hex())} m_ii={digest(m_ii.hex())}"


def main() -> int:
    made = []

    class Recorded(solver.CyclicModes):
        def __init__(self, *a):
            super().__init__(*a)
            made.append(self)

    solver.CyclicModes = Recorded
    for name, entries, levels, rotated in CONFIGS:
        cfg = build_config(entries)
        exact = studies.exact_field_from_config(cfg)
        for level in levels:
            made.clear()
            mesh = build_disk_mesh(cfg.geometry, cfg.sectors, level)
            if not rotated:
                mesh = replace(mesh, rotation=None)
            sol = solver.solve_uc(mesh, cfg.k, exact, cfg.perturbation, studies.resolve_hmin(cfg))
            res = solver.hminus1_residual(sol.dual_space, sol.u, sol.K.A0, sol.K.B)
            saddle, riesz = made
            print(
                f"{name} level={level} saddle {modes_fields(saddle)} u={digest(sol.u)} "
                f"z={digest(sol.z)} solve_residual={digest(sol.solve_residual.hex())}"
            )
            print(f"{name} level={level} riesz {modes_fields(riesz)} residual_hminus1={digest(res.hex())}")
            print(f"{name} level={level} forms {forms_fields(sol, exact)}")
    cfg = build_config({})
    paraboloid = QuadraticField(cfg.geometry.r3**2, c=-1.0)
    for name, k, levels in POISSON:
        for level in levels:
            made.clear()
            space0 = build_space(build_disk_mesh(cfg.geometry, cfg.sectors, level), k).zero_trace()
            u = solver.solve_poisson(space0, QuadraticField(4.0))
            (poisson,) = made
            norms = norms_digest(error_norms(space0, u, paraboloid, ALL_REGIONS))
            print(f"{name} level={level} poisson {modes_fields(poisson)} u={digest(u)} norms={norms}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
