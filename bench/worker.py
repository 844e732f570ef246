"""One benchmark process: set up, run one workload in a closed loop, check it.

Started by `run.py` in a fresh interpreter per run, so that peak RSS and
set-up time belong to that workload alone.  The last stdout line is a JSON
result for `run.py`; every failed level operation also prints one
`error=<kind>` line.

    python3 bench/worker.py --workload converge_k1 --seed 0 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ucfem  # noqa: E402
import ucfem.fem  # noqa: E402
import ucfem.mesh  # noqa: E402
import ucfem.solver  # noqa: E402
import ucfem.sparse  # noqa: E402
import ucfem.studies  # noqa: E402
from spans import Patches, Tracer, install_spans, span_totals  # noqa: E402
from ucfem.config import parse_config  # noqa: E402
from ucfem.mesh import Region  # noqa: E402

DEFAULT_SEED = 0
#: relative tolerance of the float reference comparison.  Re-ordering the
#: sparse LU (SuperLU MMD_ATA instead of COLAMD) moves the study columns by
#: up to 4e-9 relative at these levels, and the drift grows with the
#: condition number on finer meshes; 1e-6 leaves room for such legitimate
#: solver changes, while a change of the discretization moves these
#: columns by 0.1% or more.
REL_TOL = 1e-6

_PERTURB_BASE = (
    "k = 2\nlevels = 1..4\nexact.kind = zero\nperturbation.mode = nodal_noise\n"
    "perturbation.epsilon = 1e-3\n"
)
#: config text per workload; only perturb_k2 takes the workload seed
CONFIGS = {
    "converge_k1": lambda seed: "k = 1\nlevels = 2..5\nexact.n = 4\n",
    "perturb_k2": lambda seed: _PERTURB_BASE + f"perturbation.seed = {seed}\n",
    # exact.n = 4 is the harmonic field Re z^3
    "energy_k1": lambda seed: "k = 1\nlevels = 1..6\nexact.n = 4\n",
}
STUDIES = {
    "converge_k1": "run_convergence_study",
    "perturb_k2": "run_perturbation_study",
}
#: coverage check: exact call counts per traced body at the parent code
#: (two factorizations and two stiffness assemblies per solved level)
EXPECTED_COUNTS = {
    "converge_k1": {"sparse.factor_calls": 8, "fem.stiffness_calls": 8},
    "perturb_k2": {"sparse.factor_calls": 8, "fem.stiffness_calls": 8},
    "energy_k1": {"sparse.factor_calls": 0, "fem.stiffness_calls": 0},
}


class BenchFailure(Exception):
    """A failed level operation, reported as `error=<kind>`."""

    def __init__(self, kind, detail):
        super().__init__(detail)
        self.kind = kind


def report_error(kind, workload, level, detail):
    detail = " ".join(str(detail).split())[:300]
    print(f"error={kind} workload={workload} level={level} detail={detail}", flush=True)


# --- probes installed in every run ------------------------------------------


def install_contract_check(patches, tracer, state):
    """Re-check the documented `solve_direct` contract on every solve:
    ||K x - b|| <= rel_tol * (max|K| ||x|| + ||b||)."""

    def make(solve_direct):
        default_tol = inspect.signature(solve_direct).parameters["rel_tol"].default

        def checked(K, b, rel_tol=default_tol):
            x = solve_direct(K, b, rel_tol)
            with tracer.span("bench.check"):
                data = np.abs(K.data)
                scale = (data.max() if data.size else 0.0) * np.linalg.norm(x)
                scale += np.linalg.norm(b)
                res = np.linalg.norm(K @ x - b)
                ratio = float(res / scale) if scale > 0 else float(res)
            state["residual_max"] = max(state["residual_max"], ratio)
            if not ratio <= rel_tol:
                raise BenchFailure(
                    "contract", f"relative residual {ratio:.3e} > rel_tol {rel_tol:.1e}"
                )
            return x

        return checked

    patches.wrap(ucfem.solver, "solve_direct", make)


def install_level_marks(patches, tracer, levels, marks):
    """Timestamp the start of each level of a study: a level begins when
    the study asks for its mesh."""

    def make(fn):
        def marked(*args, **kwargs):
            marks.append(time.perf_counter())
            tracer.level = levels[len(marks) - 1]
            return fn(*args, **kwargs)

        return marked

    patches.wrap(ucfem.studies, "build_disk_mesh", make)
    patches.wrap(ucfem.studies, "refine_uniform", make)


# --- workload bodies ----------------------------------------------------------


def study_body(workload, cfg, tracer, patches):
    """One full study plus its CSV/JSON serialization; returns (rows,
    finest-level seconds).  The finest level runs from the study's request
    for the finest mesh to the study's return (which adds the rate fits,
    a few milliseconds)."""
    marks = []
    install_level_marks(patches, tracer, cfg.levels, marks)
    run = getattr(ucfem.studies, STUDIES[workload])
    with tracer.span("studies.study"):
        report = run(cfg)
    finest = time.perf_counter() - marks[-1]
    tracer.level = None
    with tracer.span("studies.report"):
        ucfem.studies.report_to_csv(report)
        ucfem.studies.report_to_json(report)
    rows = [
        {k: v for k, v in dataclasses.asdict(row).items() if v is not None}
        for row in report.rows
    ]
    return rows, finest


def energy_body(cfg, tracer):
    """Energy-balance ladder s(u_I,u_I)/|u_I|^2_omega, mesh and fem only."""
    exact = ucfem.studies.exact_field_from_config(cfg)
    rows = []
    mesh = None
    for level in cfg.levels:
        start = time.perf_counter()
        tracer.level = level
        if mesh is None:
            mesh = ucfem.mesh.build_disk_mesh(cfg.geometry, cfg.sectors, level=level)
        else:
            mesh = ucfem.mesh.refine_uniform(mesh, cfg.geometry)
        space = ucfem.fem.build_space(mesh, cfg.k)
        u_i = ucfem.fem.interpolate_nodal(space, exact)
        stab = ucfem.fem.assemble_stabilization(space, mesh.h).matrix
        mass = ucfem.fem.assemble_region_mass(space, Region.OMEGA_DATA).matrix
        ratio = float(u_i @ (stab @ u_i)) / float(u_i @ (mass @ u_i))
        rows.append({"level": level, "n_dofs": space.n_dofs, "ratio": ratio})
        # drop this level's space and forms before the next level is built
        del space, u_i, stab, mass
        finest = time.perf_counter() - start
    tracer.level = None
    return rows, finest


# --- correctness ------------------------------------------------------------------


def load_references():
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def check_rows(workload, seed, rows, references):
    """Per-level verdicts: None when the level passes, else (kind, detail).

    Seed-independent workloads and the default seed compare against the
    stored references; another seed of perturb_k2 is checked on the
    invariants that do not depend on the seed: dof counts and finite
    outputs (the residual contract is checked on every solve).
    """
    exact_ref = workload != "perturb_k2" or seed == DEFAULT_SEED
    by_level = {r["level"]: r for r in rows}
    verdicts = []
    for ref in references[workload]:
        row = by_level.get(ref["level"])
        if row is None:
            verdicts.append(("reference", "level missing from the output"))
            continue
        verdict = None
        for col, want in ref.items():
            got = row.get(col)
            if isinstance(want, int):
                if got != want:
                    verdict = ("reference", f"{col}={got} expected {want}")
            elif got is None or not math.isfinite(got):
                verdict = ("nonfinite", f"{col}={got}")
            elif exact_ref and abs(got - want) > REL_TOL * abs(want):
                verdict = ("reference", f"{col}={got!r} expected {want!r}")
            if verdict:
                break
        verdicts.append(verdict)
    return verdicts


# --- per-layer metrics -------------------------------------------------------------

#: metric -> span name; `_s` is inclusive time summed over calls
INCLUSIVE = {
    "mesh.build_s": "mesh.build",
    "mesh.refine_s": "mesh.refine",
    "fem.space_s": "fem.space",
    "fem.stabilization_s": "fem.stabilization",
    "fem.jump_s": "fem.jump",
    "fem.cell_laplacian_s": "fem.cell_laplacian",
    "fem.mass_s": "fem.mass",
    "fem.stiffness_s": "fem.stiffness",
    "fem.load_s": "fem.load",
    "fem.interpolate_s": "fem.interpolate",
    "fem.error_norms_s": "fem.error_norms",
    "fem.triple_norm_s": "fem.triple_norm",
    "sparse.compose_s": "sparse.compose",
    "sparse.solve_direct_s": "sparse.solve_direct",
    "sparse.factor_s": "sparse.factor",
    "solver.solve_uc_s": "solver.solve_uc",
    "solver.hminus1_s": "solver.hminus1",
    "solver.perturbation_s": "solver.perturbation",
    "studies.study_s": "studies.study",
    "studies.report_s": "studies.report",
}
SELF = {"solver.solve_uc_self_s": "solver.solve_uc", "studies.self_s": "studies.study"}
CALLS = {
    "mesh.refine_calls": "mesh.refine",
    "fem.mass_calls": "fem.mass",
    "fem.stiffness_calls": "fem.stiffness",
    "sparse.factor_calls": "sparse.factor",
}


def layer_metrics(tracer, wall, residual_max):
    """Per-layer metrics of one traced body, and each span name's share
    of the body's wall time by self time."""
    totals, covered = span_totals(tracer.spans)
    empty = (0, 0.0, 0.0)
    out = {m: totals.get(name, empty)[1] for m, name in INCLUSIVE.items()}
    out.update({m: totals.get(name, empty)[2] for m, name in SELF.items()})
    out.update({m: totals.get(name, empty)[0] for m, name in CALLS.items()})
    counts = tracer.counts
    out["mesh.triangles_finest"] = counts.get("mesh.triangles_finest", 0)
    out["sparse.K_nnz"] = counts.get("sparse.K_nnz", 0)
    out["sparse.factor_nnz"] = counts.get("sparse.factor_nnz", 0)
    out["sparse.fill_ratio"] = (
        out["sparse.factor_nnz"] / out["sparse.K_nnz"] if out["sparse.K_nnz"] else 0.0
    )
    solves = totals.get("sparse.solve_direct", empty)[0]
    out["sparse.refinement_steps"] = counts.get("sparse.lu_solves", 0) - solves
    out["sparse.residual_max"] = residual_max
    out["bench.wall_traced_s"] = wall
    out["bench.unattributed_s"] = wall - covered
    shares = {name: t[2] / wall for name, t in totals.items()}
    shares["(unattributed)"] = (wall - covered) / wall
    return out, shares


# --- run loop ----------------------------------------------------------------------


def failure_kind(exc):
    if isinstance(exc, BenchFailure):
        return exc.kind
    if isinstance(exc, ucfem.sparse.SolverError):
        return "contract" if "residual" in str(exc) else "solver"
    if isinstance(exc, MemoryError):
        return "memory"
    return "exception"


def run_body(workload, seed, cfg, tracer, references):
    """Run and check one workload body.

    Returns a dict with `attempted` and `failed` level operations and, when
    the body completed, `wall`, `finest` and (traced) `layers`/`shares`.
    Every failure prints its `error=` line; none is raised.
    """
    n_levels = len(cfg.levels)
    body = {"attempted": n_levels, "failed": n_levels}
    patches = Patches()
    state = {"residual_max": 0.0}
    tracer.reset()
    try:
        install_contract_check(patches, tracer, state)
        if tracer.enabled:
            install_spans(patches, tracer)
        start = time.perf_counter()
        if workload in STUDIES:
            rows, finest = study_body(workload, cfg, tracer, patches)
        else:
            rows, finest = energy_body(cfg, tracer)
        wall = time.perf_counter() - start
    except Exception as exc:  # a failed operation must not stop the harness
        report_error(failure_kind(exc), workload, tracer.level, f"{type(exc).__name__}: {exc}")
        return body
    finally:
        patches.restore()
        tracer.level = None

    failed = 0
    for level, verdict in zip(cfg.levels, check_rows(workload, seed, rows, references)):
        if verdict is not None:
            report_error(verdict[0], workload, level, verdict[1])
            failed += 1
    body.update(failed=failed, wall=wall, finest=finest)
    if tracer.enabled:
        layers, shares = layer_metrics(tracer, wall, state["residual_max"])
        for name, want in EXPECTED_COUNTS[workload].items():
            if layers[name] != want:
                report_error("coverage", workload, None, f"{name}={layers[name]} expected {want}")
                body["failed"] = n_levels
        body.update(layers=layers, shares=shares, spans=tracer.spans)
    return body


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ucfem": ucfem.__version__,
        "platform": platform.platform(),
    }


def median_of(bodies, key):
    values = [b[key] for b in bodies]
    return statistics.median(values) if values else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default="", help="file for the traced spans")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    if not os.path.abspath(ucfem.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ucfem imported from {ucfem.__file__}, not from {SRC}")
    cfg = parse_config(CONFIGS[args.workload](args.seed))
    ucfem.mesh.build_disk_mesh(cfg.geometry, cfg.sectors, level=cfg.levels[0])
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    references = load_references()
    plain = Tracer(args.workload, enabled=False)
    traced = Tracer(args.workload, enabled=True)
    untraced_done, traced_done = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    # closed loop: the next body starts when the previous one has finished;
    # a traced run alternates untraced and traced bodies, so that the
    # tracing overhead compares bodies run under the same machine load
    while True:
        tracer = traced if args.trace and len(untraced_done) > len(traced_done) else plain
        body = run_body(args.workload, args.seed, cfg, tracer, references)
        attempted += body["attempted"]
        failed += body["failed"]
        if "wall" in body:
            (traced_done if tracer.enabled else untraced_done).append(body)
        complete = untraced_done and (traced_done or not args.trace)
        if time.perf_counter() >= deadline and (complete or failed):
            break

    result = {
        "setup_end": setup_end,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "walls": [b["wall"] for b in untraced_done],
        "wall_s": median_of(untraced_done, "wall"),
        "finest_level_s": median_of(untraced_done, "finest"),
        "environment": environment(),
    }
    if args.trace and traced_done:
        # the traced body of median wall time, so that its self times
        # still add up to its wall time
        body = sorted(traced_done, key=lambda b: b["wall"])[(len(traced_done) - 1) // 2]
        layers = dict(body["layers"])
        if untraced_done:
            overhead = median_of(traced_done, "wall") - result["wall_s"]
            layers["bench.trace_overhead_s"] = overhead
        result["layers"] = layers
        for name, share in sorted(body["shares"].items(), key=lambda kv: -kv[1]):
            print(f"share {name} {100.0 * share:.2f}%")
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                bodies = [b["spans"] for b in traced_done]
                json.dump({"environment": result["environment"], "bodies": bodies}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
