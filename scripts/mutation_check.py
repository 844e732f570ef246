#!/usr/bin/env python3
"""Check that the Tier-1 suite kills a fixed list of one-line mutants of src/.

Each mutant replaces one text, which occurs exactly once in src/ucfem, by
another and so breaks one law of the method or the code.  For each, the
script copies the checkout (without .git) into a temporary directory,
patches the copy and runs the Tier-1 command there twice, stopping at the
first failure (`-x`): once in full, and once with `tests/test_bench_gate.py`
(the golden values of `bench/references.json`) deselected, so that every
mutant must also be killed by a test of the law itself.  Both runs leave
out `test_mutants_patch_one_place_each`, the check of the list itself.
It prints, per mutant, the first test that failed in each run, and exits
1 if a mutant survives the second run.  Run it from any directory:

    python3 scripts/mutation_check.py

It takes several minutes: each run stops at its first failure, and an
unkilled mutant would run the whole suite.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (file, old text, new text, law the mutant breaks)
MUTANTS = (
    ("src/ucfem/sparse.py", "REL_TOL = 1e-10", "REL_TOL = 1e-6", "every solve meets a 1e-10 relative residual"),
    (
        "src/ucfem/studies.py",
        "row.h ** ((1.0 - alpha) * cfg.k)",
        "row.h ** (1.0 - alpha)",
        "perturb sensitivity is normalized by h^{(1-alpha)k}",
    ),
    (
        "src/ucfem/fem.py",
        "D[2].data *= tikhonov_scale**space.k",
        "D[2].data *= tikhonov_scale ** ((space.k + 1) / 2)",
        "the Tikhonov term of s is tik^{2k} times the mass",
    ),
    (
        "src/ucfem/solver.py",
        "coeffs *= spec.epsilon / raw_norm",
        "coeffs *= 2 * spec.epsilon / raw_norm",
        "nodal noise has L2(omega) norm epsilon",
    ),
    (
        "src/ucfem/fem.py",
        "ASSEMBLY_RULE = quadrature.tri_rule(4)",
        "ASSEMBLY_RULE = quadrature.tri_rule(2)",
        "loads and error norms integrate with the degree-4 rule",
    ),
    (
        "src/ucfem/fem.py",
        "jump = np.concatenate([dn[0], -dn[1]], axis=2)",
        "jump = np.concatenate([dn[0], dn[1]], axis=2)",
        "the gradient jump is the difference of the two sides",
    ),
    (
        "src/ucfem/fem.py",
        "weight = length**2",
        "weight = length",
        "the gradient-jump term carries the face-length weight",
    ),
    (
        "src/ucfem/solver.py",
        "index[space.active] = np.arange(offset, offset + space.n_dofs, dtype=np.int32)",
        "index[space.active] = np.arange(space.n_dofs, dtype=np.int32)",
        "a solve numbers each space's unknowns after those of the spaces before it",
    ),
    (
        "src/ucfem/solver.py",
        "fixed.append(kept[kept >= 0])",
        "fixed.append(kept[kept > 0])",
        "every active fixed dof is an unknown of the solve",
    ),
    (
        "src/ucfem/sparse.py",
        "shift[orbits] = np.arange(orbits.shape[1], dtype=np.int32)",
        "shift[orbits] = np.arange(orbits.shape[1], dtype=np.int32)[::-1]",
        "column s of an orbit is the s-th turn of its representative",
    ),
    (
        "src/ucfem/sparse.py",
        "rep[fixed] = orbits.shape[0] + np.arange(fixed.size, dtype=np.int32)",
        "rep[fixed] = np.arange(fixed.size, dtype=np.int32)",
        "fixed unknowns are numbered after the orbits' representatives",
    ),
    (
        "src/ucfem/sparse.py",
        "keep = i < j",
        "keep = i < j - 1",
        "the ordering reads every edge of the graph",
    ),
    (
        "src/ucfem/sparse.py",
        "order = nested_dissection(coords[reps], i, col)",
        "order = nested_dissection(coords[reps], i, i)",
        "the mode blocks are ordered by the representatives' graph",
    ),
    (
        "src/ucfem/fem.py",
        "rep_dof = shift == 0",
        "rep_dof = shift == 1",
        "every form is computed on all elements that hold a representative dof",
    ),
    ("src/ucfem/fields.py", "2.0 * self.c * x", "self.c * x", "the gradient of c|x|^2 is 2c x"),
)

#: the Tier-1 command (ROADMAP.md), stopped at the first failure, without
#: the test that each old text occurs once, which every patched tree fails
PYTEST = [
    *(sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x", "-p", "no:cacheprovider"),
    *("--deselect", "tests/test_scripts.py::test_mutants_patch_one_place_each"),
]

#: seconds after which a run counts as killing its mutant (a hang)
TIMEOUT = 600


def first_failure(output: str) -> str | None:
    """The node id of the first failed or erroring test in pytest's short
    summary, None if the run passed."""
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.MULTILINE)
    return match.group(1) if match else None


def run_suite(tree: Path, extra) -> str | None:
    """The first test that fails in tree, "timeout" for a hang, else None."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(PYTEST + extra, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return None
    return first_failure(proc.stdout) or f"exit {proc.returncode}"


def main() -> int:
    survivors = 0
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", "results")
    with tempfile.TemporaryDirectory(prefix="ucfem-mutants-") as workdir:
        tree = Path(workdir) / "tree"
        shutil.copytree(ROOT, tree, ignore=ignore)
        print("| # | file | law broken | first kill, full suite | first kill, gate deselected | s |")
        print("|---|---|---|---|---|---|")
        for number, (name, old, new, law) in enumerate(MUTANTS, 1):
            path = tree / name
            source = path.read_text(encoding="utf-8")
            if source.count(old) != 1:
                raise SystemExit(f"mutant {number}: {old!r} does not occur exactly once in {name}")
            path.write_text(source.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            try:
                full = run_suite(tree, [])
                ungated = run_suite(tree, ["--deselect", "tests/test_bench_gate.py"])
            finally:
                path.write_text(source, encoding="utf-8")
            survivors += ungated is None
            print(
                f"| {number} | `{name}` | {law} | {full or 'SURVIVED'} | {ungated or 'SURVIVED'} "
                f"| {time.perf_counter() - start:.0f} |",
                flush=True,
            )
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed without the golden-value gate")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
