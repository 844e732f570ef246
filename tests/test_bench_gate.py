"""The benchmark's correctness gate, run on its smaller levels.

`bench/worker.py` is loaded read-only, the way `test_bench_contract.py`
loads `spans.py`.  Each workload's body runs on a prefix of its levels
and its rows are checked by the worker's own `check_rows` (through
`run_body`, which also re-checks the `solve_direct` residual contract on
every solve) against `bench/references.json`.  A change that moves a
study column past the benchmark's tolerance fails here first, in about
two seconds, instead of in a 25-second benchmark run.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

WORKER_PATH = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    saved = sys.path[:]
    try:
        spec = importlib.util.spec_from_file_location("bench_worker", WORKER_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved  # the worker puts bench/ and src/ first on the path
    return module


@pytest.mark.parametrize(
    "workload, levels",
    [("converge_k1", (2, 3, 4)), ("perturb_k2", (1, 2, 3)), ("energy_k1", (1, 2, 3, 4, 5))],
)
def test_workload_rows_match_references(worker, capsys, workload, levels):
    seed = worker.DEFAULT_SEED
    cfg = replace(worker.parse_config(worker.CONFIGS[workload](seed)), levels=levels)
    refs = [ref for ref in worker.load_references()[workload] if ref["level"] in levels]
    assert [ref["level"] for ref in refs] == list(levels)
    tracer = worker.Tracer(workload, enabled=False)
    body = worker.run_body(workload, seed, cfg, tracer, {workload: refs})
    assert body["failed"] == 0, capsys.readouterr().out


@pytest.mark.parametrize(
    "workload, levels", [("converge_k1", (2, 3, 4)), ("perturb_k2", (1, 2, 3))]
)
def test_two_factorizations_and_stiffness_assemblies_per_level(worker, capsys, workload, levels):
    # the traced benchmark gates these counts exactly (`EXPECTED_COUNTS`,
    # two of each per solved level); a change that adds or drops one fails
    # here before the benchmark's coverage check does.  The body runs
    # fewer levels than the benchmark's, so that check reports a coverage
    # error and nothing else.
    seed = worker.DEFAULT_SEED
    cfg = replace(worker.parse_config(worker.CONFIGS[workload](seed)), levels=levels)
    refs = [ref for ref in worker.load_references()[workload] if ref["level"] in levels]
    tracer = worker.Tracer(workload, enabled=True)
    body = worker.run_body(workload, seed, cfg, tracer, {workload: refs})
    errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("error=")]
    assert all(line.startswith("error=coverage") for line in errors), errors
    assert body["layers"]["sparse.factor_calls"] == 2 * len(levels)
    assert body["layers"]["fem.stiffness_calls"] == 2 * len(levels)
