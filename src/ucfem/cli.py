"""Command-line front end: single solves, studies, and the self-test suite.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 self-test failure.  Errors print one machine-parsable line
`error=<kind> <message>` to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fem, harmonic, mesh as meshmod, quadrature, studies
from .config import ConfigError, RunConfig, build_config, parse_entries
from .fields import ConstantField
from .geometry import Geometry
from .solver import solve_poisson, verify_positivity
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
    exps = harmonic.optimal_alpha(*cfg.geometry.radii)
    line = f"alpha={exps.alpha!r} beta={exps.beta!r}"
    if args.alpha1 is not None and args.alpha2 is not None:
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
    space0 = fem.build_space(msh, cfg.k, dirichlet=True)
    uh = solve_poisson(space0, ConstantField(4.0))

    r3sq = cfg.geometry.r3**2

    class _Paraboloid:
        def value(self, pts):
            pts = np.asarray(pts)
            return r3sq - pts[:, 0] ** 2 - pts[:, 1] ** 2

        def gradient(self, pts):
            pts = np.asarray(pts)
            return -2.0 * pts

    err = fem.error_norms(space0, uh, _Paraboloid(), meshmod.ALL_REGIONS)
    print(
        f"poisson level={level} k={cfg.k} dofs={space0.n_dofs} h={msh.h:.6e} "
        f"err_l2={err.l2:.6e} err_h1semi={err.h1_semi:.6e}"
    )
    return 0


def _cmd_uc(args, cfg: RunConfig) -> int:
    from .solver import UcProblem, solve_uc

    level = cfg.levels[-1]
    msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=level)
    exact = studies.exact_field_from_config(cfg)
    hmin = studies.resolve_hmin(cfg)
    problem = UcProblem(
        geometry=cfg.geometry,
        k=cfg.k,
        exact=exact,
        perturbation=cfg.perturbation,
        tikhonov_hmin=hmin if hmin > 0 else None,
    )
    sol = solve_uc(problem, msh)
    err = fem.error_norms(sol.primal_space, sol.u, exact, meshmod.B_REGIONS)
    d = sol.diagnostics
    print(
        f"uc level={level} k={cfg.k} dofs=({d.n_dofs_primal},{d.n_dofs_dual}) "
        f"h={d.h:.6e} tik={d.tikhonov_scale:.6e} err_l2_B={err.l2:.6e} "
        f"residual={d.solve_residual:.3e} "
        f"s={d.triple_norm_parts['s']:.6e} dual={d.triple_norm_parts['dual']:.6e} "
        f"omega={d.triple_norm_parts['omega']:.6e} "
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
    rule = fem.ASSEMBLY_RULE

    def quad_exact():
        for a in range(5):
            for b in range(5 - a):
                got = float(
                    np.dot(rule.weights, rule.points[:, 1] ** a * rule.points[:, 2] ** b)
                )
                want = quadrature.reference_monomial_integral(a, b)
                if abs(got - want) > 1e-14 * max(1.0, abs(want)):
                    return False
        return True

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
        space = fem.build_space(msh, 1, dirichlet=False)
        space0 = fem.build_space(msh, 1, dirichlet=True)
        return verify_positivity(space, space0, trials=20, seed=0) <= 1e-12

    def adjoint_identity():
        msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=1)
        space = fem.build_space(msh, 1, dirichlet=False)
        space0 = fem.build_space(msh, 1, dirichlet=True)
        B = fem.assemble_stiffness(space0, space).matrix
        rng = np.random.default_rng(7)
        x = rng.standard_normal(B.shape[1])
        y = rng.standard_normal(B.shape[0])
        lhs = (B @ x) @ y
        rhs = x @ (B.T @ y)
        return abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def mesh_valid():
        msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=2)
        return meshmod.validate(msh).ok

    def partition_of_unity():
        msh = meshmod.build_disk_mesh(cfg.geometry, cfg.sectors, level=2)
        space = fem.build_space(msh, 1, dirichlet=False)
        M = fem.assemble_region_mass(space, meshmod.ALL_REGIONS).matrix
        ones = np.ones(space.n_dofs)
        area = float(np.abs(meshmod.signed_areas(msh)).sum())
        return abs(ones @ (M @ ones) - area) <= 1e-12 * area

    return [
        ("quadrature_exactness", quad_exact),
        ("three_ball_equality", three_ball_equality),
        ("alpha_arithmetic", alpha_arithmetic),
        ("positivity_identity", positivity),
        ("adjoint_identity", adjoint_identity),
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
        if args.command == "converge":
            return _run_study(args, cfg, studies.run_convergence_study, "converge")
        if args.command == "perturb":
            return _run_study(args, cfg, studies.run_perturbation_study, "perturb")
        if args.command == "stagnate":
            return _run_study(args, cfg, studies.run_stagnation_study, "stagnate")
        return _COMMANDS[args.command](args, cfg)
    except SolverError as exc:
        print(f"error=solver {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error=config {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
