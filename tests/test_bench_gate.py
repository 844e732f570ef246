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
