#!/usr/bin/env python3
"""Map where the data term overtakes the regularization energy.

For monomial data on a small inner disk the stabilization energy of the
interpolant dwarfs the data-region energy on coarse meshes, and the solver
returns a near-zero field until the balance flips.  This script prints the
per-level energy ratio and the L2(B) error for a chosen geometry so the
onset level is visible; with the default small data disk the flip sits
around level 9, with --wide (data disk of radius 0.8) between levels 3 and 4.
"""

import argparse
import sys

import numpy as np

from ucfem.fem import (
    assemble_gradient_jump,
    assemble_region_mass,
    build_space,
    error_norms,
    interpolate_nodal,
)
from ucfem.geometry import Geometry
from ucfem.harmonic import HarmonicMonomial
from ucfem.mesh import ALL_REGIONS, B_REGIONS, Region, build_disk_mesh, refine_uniform
from ucfem.solver import UcProblem, solve_uc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--wide", action="store_true", help="use radii (0.8, 0.9, 1.0) and 16 sectors"
    )
    parser.add_argument("--n", type=int, default=3, help="monomial index (u = Re z^{n-1})")
    parser.add_argument("--max-level", type=int, default=5)
    parser.add_argument("--solve", action="store_true", help="also solve per level")
    args = parser.parse_args(argv)

    # the thin 0.8/0.9/1.0 annuli need 14+ sectors, or circle projection
    # inverts triangles on refinement
    radii, sectors = ((0.8, 0.9, 1.0), 16) if args.wide else ((0.25, 0.5, 1.0), 8)
    geo = Geometry(*radii)
    mono = HarmonicMonomial(args.n)
    mesh = build_disk_mesh(geo, sectors, 1)
    print("level  h        s(u_I,u_I)   |q|^2_omega  ratio      err_l2_B")
    for level in range(1, args.max_level + 1):
        space = build_space(mesh, 1, False)
        u_i = interpolate_nodal(space, mono)
        jump = assemble_gradient_jump(space).matrix
        mass = assemble_region_mass(space, ALL_REGIONS).matrix
        mass_om = assemble_region_mass(space, [Region.OMEGA_DATA]).matrix
        stab = u_i @ (jump @ u_i) + mesh.h**2 * (u_i @ (mass @ u_i))
        data = u_i @ (mass_om @ u_i)
        err = ""
        if args.solve:
            sol = solve_uc(UcProblem(geometry=geo, k=1, exact=mono), mesh)
            err = f"{error_norms(space, sol.u, mono, B_REGIONS).l2:.4e}"
        print(
            f"{level:>5}  {mesh.h:.5f}  {stab:.5e}  {data:.5e}  {stab / data:9.2f}  {err}"
        )
        if level < args.max_level:
            mesh = refine_uniform(mesh, geo)
    return 0


if __name__ == "__main__":
    sys.exit(main())
