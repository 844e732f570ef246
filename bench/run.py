#!/usr/bin/env python3
"""ucfem benchmark: one workload per invocation, in fresh worker processes.

    python3 bench/run.py --workload converge_k1 --seed 0 --seconds 25 --trace 0

Starts `worker.py` once per set-up probe and once for the measured run,
with BLAS/OpenMP threads capped at the CPU count, and prints every metric
with its unit.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  Exits 1 when a
level operation failed, 2 when the ucfem sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
#: level operations per body, as configured in worker.CONFIGS
LEVELS = {"converge_k1": 4, "perturb_k2": 4, "energy_k1": 6}
#: extra set-up-only processes per run; setup_s is the median over them
#: and the measured run
SETUP_PROBES = 3
#: the whole run must end within 180 s; the worker gets what is left
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git checkout
    (git would otherwise report an enclosing repository)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_worker(cmd, env, timeout, what):
    """Run one worker to completion.

    Returns (its JSON result, its other stdout lines).  The result is None,
    after one `error=` line, when the worker was killed by a signal (an
    out-of-memory kill is SIGKILL, exit 137), outlived `timeout` or exited
    without a result.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"error=timeout detail={what} exceeded {timeout:.0f} s")
        return None, out.splitlines()
    lines = out.splitlines()
    if proc.returncode < 0:
        name = signal.Signals(-proc.returncode).name
        print(f"error=signal detail={what} killed by {name} (exit {128 - proc.returncode})")
        return None, lines
    if proc.returncode != 0 or not lines:
        print(f"error=worker detail={what} exited with code {proc.returncode}")
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "ucfem", "__init__.py")):
        print(f"error=missing_source detail=no ucfem package under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({var: str(nproc) for var in THREAD_VARS})
    common = [
        sys.executable,
        WORKER,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]

    setups = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        probe, _ = run_worker(common + ["--setup-only"], env, 60.0, "set-up probe")
        if probe is not None:
            setups.append(probe["setup_end"] - spawned)

    out_dir = os.path.join(HERE, "out")
    spans_out = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    cmd = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", spans_out]
    spawned = time.monotonic()
    remaining = RUN_LIMIT_S - (spawned - started)
    result, lines = run_worker(cmd, env, remaining, "measured run")
    for line in lines:
        print(line)

    levels = LEVELS[args.workload]
    if result is None:
        attempted, failed = levels, levels
    else:
        attempted, failed = result["attempted"], result["failed"]
        setups.append(result["setup_end"] - spawned)
    correct = result is not None and failed == 0

    values = {}
    if result is not None and result["wall_s"] is not None and not args.trace:
        values = {
            "wall_s": result["wall_s"],
            "finest_level_s": result["finest_level_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
    elif result is not None and args.trace:
        values = result.get("layers", {})
        if result["wall_s"] is not None:
            print(f"untraced wall_s = {result['wall_s']!r} s")
        print(f"spans written to {os.path.relpath(spans_out, ROOT)}")

    # every metric BENCHMARK.json lists for this mode, with its unit there
    metrics = {}
    if values:
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    if result is not None:
        walls = ", ".join(f"{w:.3f}" for w in result["walls"])
        print(f"untraced body walls = [{walls}] s, set-up samples = {len(setups)}")
    environment = dict(result["environment"]) if result is not None else {}
    environment.update(
        nproc=nproc,
        threads={var: env[var] for var in THREAD_VARS},
        commit=git_commit(),
        seconds=args.seconds,
        seed=args.seed,
    )
    print("environment = " + json.dumps(environment, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
