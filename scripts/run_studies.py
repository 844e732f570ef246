#!/usr/bin/env python3
"""Run the three experiment studies with their acceptance configurations.

Writes CSV + JSON reports under results/ (override with --out-dir).  The
convergence study uses the cubic-monomial setup; expect the L2(B) error to
sit on its preasymptotic plateau at these levels (see notes in README).
"""

import argparse
import sys
from pathlib import Path

# run from a checkout: the package is imported from src/ beside this script
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ucfem.cli import main as ucfem_main  # noqa: E402

STUDY_ARGS = {
    "converge": ["--set", "exact.n = 4", "--set", "levels = 2..5", "converge"],
    "perturb": [
        "--set",
        "exact.kind = zero",
        "--set",
        "perturbation.epsilon = 1e-3",
        "--set",
        "levels = 1..5",
        "perturb",
    ],
    "stagnate": [
        "--set",
        "exact.n = 3",
        "--set",
        "perturbation.epsilon = 1e-2",
        "--set",
        "levels = 1..5",
        "--set",
        "hmin.mode = value",
        "--set",
        "hmin.value = 0.1",
        "stagnate",
    ],
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument(
        "--study", choices=[*STUDY_ARGS, "all"], default="all", help="which study to run"
    )
    args = parser.parse_args(argv)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)

    names = list(STUDY_ARGS) if args.study == "all" else [args.study]
    for name in names:
        print(f"=== {name} ===")
        code = ucfem_main(["--out-dir", args.out_dir, *STUDY_ARGS[name]])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
