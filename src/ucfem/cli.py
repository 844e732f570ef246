"""Command-line front end: single solves, studies, and the self-test suite.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 self-test failure, 5 out of memory.  Errors print one machine-parsable line
`error=<kind> <message>` to stderr.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import fem, harmonic, mesh as meshmod, quadrature, studies
from .config import ConfigError, RunConfig, build_config, parse_entries
from .fields import AffineField, ConstantField, RadialQuadratic
from .geometry import Geometry
from .solver import solve_poisson, solve_uc, verify_positivity
from .sparse import SolverError


def _load_config(args) -> RunConfig:
    text = ""
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
    entries = parse_entries(text)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        entries[key] = value
    return build_config(entries)


def _out_path(args, cfg_path: str, default_name: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg_path:
        p = Path(cfg_path)
        return p if p.is_absolute() else out_dir / p
    return out_dir / default_name


def _cmd_alpha(args, cfg: RunConfig) -> int:
    if (args.alpha1 is None) != (args.alpha2 is None):
        raise ConfigError("--alpha1 and --alpha2 must be given together")
    exps = harmonic.optimal_alpha(*cfg.geometry.radii)
    line = f"alpha={exps.alpha!r} beta={exps.beta!r}"
    if args.alpha1 is not None:
        tilde = harmonic.combined_exponent(args.alpha1, args.alpha2)
        line += f" alpha_tilde={tilde!r}"
    print(line)
    return 0


def _cmd_three_ball(args, cfg: RunConfig) -> int:
    exps = harmonic.optimal_alpha(*cfg.geometry.radii)
    alphas = [exps.alpha, exps.alpha + 0.05, exps.alpha + 0.1]
    alphas = [a for a in alphas if a < 1.0]
    header = ["n"] + [f"ratio(alpha={a:.6f})" for a in alphas]
    lines = [",".join(header)]
    for n in range(1, args.n_max + 1):
        mono = harmonic.HarmonicMonomial(n=n, dim=cfg.geometry.dim)
        ratios = [harmonic.three_ball_ratio(mono, cfg.geometry, a) for a in alphas]
        lines.append(",".join([str(n)] + [f"{r:.12f}" for r in ratios]))
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if cfg.output.csv:
        _out_path(args, cfg.output.csv, "three_ball.csv").write_text(table, encoding="utf-8")
    return 0


def _cmd_mesh(args, cfg: RunConfig) -> int:
    level = cfg.levels[-1]
    msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=level)
    diag = meshmod.validate(msh)
    path = _out_path(args, cfg.output.csv, f"mesh_l{level}.txt")
    meshmod.write_mesh(msh, path)
    print(
        f"mesh level={level} vertices={msh.n_vertices} triangles={msh.n_triangles} "
        f"h={msh.h:.6e} shape_ratio={diag.shape_ratio:.4f} "
        f"violations={len(diag.violations)} file={path}"
    )
    return 0


def _cmd_poisson(args, cfg: RunConfig) -> int:
    # manufactured baseline: f = 4, exact solution 1 - |x|^2 on the disk r3 = 1
    level = cfg.levels[-1]
    msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=level)
    space0 = fem.build_space(msh, cfg.k).zero_trace()
    uh = solve_poisson(space0, ConstantField(4.0))

    exact = RadialQuadratic(cfg.geometry.r3**2, -1.0)
    err = fem.error_norms(space0, uh, exact, meshmod.ALL_REGIONS)
    print(
        f"poisson level={level} k={cfg.k} dofs={space0.n_dofs} h={msh.h:.6e} "
        f"err_l2={err.l2:.6e} err_h1semi={err.h1_semi:.6e}"
    )
    return 0


def _cmd_uc(args, cfg: RunConfig) -> int:
    level = cfg.levels[-1]
    msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=level)
    exact = studies.exact_field_from_config(cfg)
    sol = solve_uc(msh, cfg.k, exact, cfg.perturbation, studies.resolve_hmin(cfg))
    err = fem.error_norms(sol.primal_space, sol.u, exact, meshmod.B_REGIONS)
    s, dual, omega = fem.stability_terms(
        sol.u, sol.z, sol.forms["S"], sol.forms["M_omega"], sol.forms["A0"]
    )
    print(
        f"uc level={level} k={cfg.k} dofs=({sol.primal_space.n_dofs},{sol.dual_space.n_dofs}) "
        f"h={msh.h:.6e} tik={sol.tikhonov_scale:.6e} err_l2_B={err.l2:.6e} "
        f"residual={sol.solve_residual:.3e} s={s:.6e} dual={dual:.6e} omega={omega:.6e} "
        f"delta_q_norm={sol.perturbation.norm_l2_omega:.6e}"
    )
    return 0


def _run_study(args, cfg: RunConfig, runner, name: str) -> int:
    report = runner(cfg)
    csv_path = _out_path(args, cfg.output.csv, f"{name}.csv")
    json_path = _out_path(args, cfg.output.json, f"{name}.json")
    csv_path.write_text(studies.report_to_csv(report), encoding="utf-8")
    json_path.write_text(studies.report_to_json(report), encoding="utf-8")
    rates = " ".join(
        f"{col}={val:.3f}" for col, val in report.fitted_rates.items() if val is not None
    )
    print(f"{name} levels={report.config_echo['levels']} window={report.rate_window}")
    print(f"rates: {rates}")
    for key, val in report.verdicts.items():
        print(f"{key}={val}")
    print(f"wrote {csv_path} {json_path}")
    return 0


def _selftest_checks(cfg: RunConfig):
    def quad_exact():
        # every rule the assembly reads, each to the degree it is used for
        for d in range(5):
            rule = quadrature.tri_rule(d)
            for a in range(d + 1):
                for b in range(d + 1 - a):
                    got = rule.weights @ (rule.points[:, 1] ** a * rule.points[:, 2] ** b)
                    if abs(got - quadrature.reference_monomial_integral(a, b)) > 1e-14:
                        return False
        # the k-point Gauss rule of the gradient jump, exact to degree 2k - 1
        gauss = (quadrature.gauss_rule_01(k) for k in (1, 2))
        return all(abs(w @ x**p - 1 / (p + 1)) < 1e-14 for x, w in gauss for p in range(2 * x.size))

    def three_ball_equality():
        exps = harmonic.optimal_alpha(*cfg.geometry.radii)
        for dim in (2, 3):
            geo = Geometry(*cfg.geometry.radii, dim=dim)
            for n in range(1, 51):
                mono = harmonic.HarmonicMonomial(n=n, dim=dim)
                if abs(harmonic.three_ball_ratio(mono, geo, exps.alpha) - 1.0) > 1e-12:
                    return False
        return True

    def alpha_arithmetic():
        exps = harmonic.optimal_alpha(0.25, 0.5, 1.0)
        return abs(exps.alpha - 0.5) < 1e-15 and abs(exps.beta - 1.0) < 1e-15

    def positivity():
        msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=1)
        space = fem.build_space(msh, 1)
        space0 = space.zero_trace()
        return verify_positivity(space, space0, trials=20, seed=0) <= 1e-12

    def consistency_identity():
        # a(u_I, v) = 0 for an affine u and every zero-trace v, at k = 1 and 2
        msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=1)
        for k in (1, 2):
            space = fem.build_space(msh, k)
            space0 = space.zero_trace()
            B = fem.assemble_stiffness(space0, space).matrix
            u_i = fem.interpolate_nodal(space, AffineField(0.3, -1.0, 2.0))
            bound = 1e-12 * np.abs(B.data).max() * np.abs(u_i).max()
            if np.abs(B @ u_i).max() > bound:
                return False
        return True

    def mesh_valid():
        msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=2)
        return meshmod.validate(msh).ok

    def partition_of_unity():
        msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=2)
        space = fem.build_space(msh, 1)
        M = fem.assemble_region_mass(space, meshmod.ALL_REGIONS).matrix
        ones = np.ones(space.n_dofs)
        area = float(np.abs(meshmod.signed_areas(msh)).sum())
        return abs(ones @ (M @ ones) - area) <= 1e-12 * area

    return [
        ("quadrature_exactness", quad_exact),
        ("three_ball_equality", three_ball_equality),
        ("alpha_arithmetic", alpha_arithmetic),
        ("positivity_identity", positivity),
        ("consistency_identity", consistency_identity),
        ("mesh_validate", mesh_valid),
        ("partition_of_unity", partition_of_unity),
    ]


def _cmd_selftest(args, cfg: RunConfig) -> int:
    failed = 0
    passed = 0
    for name, check in _selftest_checks(cfg):
        try:
            ok = check()
        except Exception as exc:  # a crash is a failure, keep going
            print(f"FAIL {name}: {exc}")
            failed += 1
            continue
        if ok:
            print(f"ok {name}")
            passed += 1
        else:
            print(f"FAIL {name}")
            failed += 1
    print(f"invariants: {passed} passed, {failed} failed")
    return 0 if failed == 0 else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucfem",
        description="Stabilized primal-dual FEM for unique continuation on disks",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--out-dir", default=".", help="directory for output artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alpha = sub.add_parser("alpha", help="print the stability exponents")
    p_alpha.add_argument("--alpha1", type=float, help="rate exponent for alpha_tilde")
    p_alpha.add_argument("--alpha2", type=float, help="sensitivity exponent for alpha_tilde")

    p_tb = sub.add_parser("three-ball", help="ratio table over n and test exponents")
    p_tb.add_argument("--n-max", type=int, default=50)

    sub.add_parser("mesh", help="write the mesh file for the configured level")
    sub.add_parser("poisson", help="well-posed baseline solve with diagnostics")
    sub.add_parser("uc", help="single unique continuation solve with diagnostics")
    sub.add_parser("converge", help="h-refinement convergence study")
    sub.add_parser("perturb", help="perturbation sensitivity study")
    sub.add_parser("stagnate", help="stagnation study with the max(h, h_min) variant")
    sub.add_parser("selftest", help="run the invariant suite")
    return parser


_COMMANDS = {
    "alpha": _cmd_alpha,
    "three-ball": _cmd_three_ball,
    "mesh": _cmd_mesh,
    "poisson": _cmd_poisson,
    "uc": _cmd_uc,
    "converge": partial(_run_study, runner=studies.run_convergence_study, name="converge"),
    "perturb": partial(_run_study, runner=studies.run_perturbation_study, name="perturb"),
    "stagnate": partial(_run_study, runner=studies.run_stagnation_study, name="stagnate"),
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error=config {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, cfg)
    except SolverError as exc:
        print(f"error=solver {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error=memory {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error=config {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
