#!/usr/bin/env python3
"""Regenerate bench/references.json: the per-level outputs of every
workload at the default seed, which the benchmark's correctness gate
compares against.  Run it only at a commit whose outputs are known good:

    python3 bench/make_references.py
"""

import json
import os

import worker
from spans import Patches, Tracer
from ucfem.config import parse_config


def main():
    references = {}
    for workload in sorted(worker.CONFIGS):
        cfg = parse_config(worker.CONFIGS[workload](worker.DEFAULT_SEED))
        tracer = Tracer(workload, enabled=False)
        patches = Patches()
        try:
            if workload in worker.STUDIES:
                rows, _ = worker.study_body(workload, cfg, tracer, patches)
            else:
                rows, _ = worker.energy_body(cfg, tracer)
        finally:
            patches.restore()
        references[workload] = rows
        print(f"{workload}: {len(rows)} levels")
    with open(os.path.join(worker.HERE, "references.json"), "w") as fh:
        json.dump(references, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
