"""Regenerate ``golden.json``: the expected output of every job any seed
can draw.

    PYTHONPATH=src python3 perfbench/golden.py [--workload NAME]

* compile-cold: a digest of ``compile_fingerprint`` plus the plan shape;
* serve-closed: the ``result_digest`` of the ``simulate`` / ``compile``
  result;
* tune-cells: the winning configuration of each cell.

Each job is computed in this process through the same public functions
the benchmark drives (serve-closed through the service executor the
daemon's workers run), so a run's replies are checked against an
independent in-process computation.  Regenerate only when a change is
meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from jobs import TUNE_GRID, WORKLOADS, all_job_keys

HERE = Path(__file__).resolve().parent


def _compile_cold(jobs: dict) -> dict:
    from repro.core import ResCCLBackend
    from repro.core.plancache import get_cache
    from repro.runtime import MB
    from worker import job_cluster, plan_digest, read_sources, resolve

    sources = read_sources()
    out = {}
    for key, job in jobs.items():
        get_cache().clear()
        cluster = job_cluster(job)
        backend = ResCCLBackend()
        program = resolve(job["spec"], cluster, sources)
        plan = backend.plan(cluster, program, job["buffer_mb"] * MB)
        out[key] = plan_digest(plan, backend.compile(program, cluster))
    return out


def _serve_closed(jobs: dict) -> dict:
    from repro.service.protocol import execute, parse_request, result_digest
    from worker import request_fields

    return {
        key: result_digest(execute(
            parse_request(job["op"], request_fields(job)).to_payload()
        ))
        for key, job in jobs.items()
    }


def _tune_cells(jobs: dict) -> dict:
    from repro.tuning.tuner import Cell, tune

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, job in jobs.items():
            cell = Cell(job["collective"], job["buffer_mb"], job["nodes"],
                        job["gpus"])
            (result,) = tune([cell], Path(tmp) / "table.json", jobs=1,
                             **TUNE_GRID).results
            out[key] = result.entry["config"]
    return out


GENERATORS = {
    "compile-cold": _compile_cold,
    "serve-closed": _serve_closed,
    "tune-cells": _tune_cells,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    golden = {name: golden[name] for name in WORKLOADS if name in golden}
    for workload in args.workload or WORKLOADS:
        golden[workload] = GENERATORS[workload](all_job_keys(workload))
        print(f"{workload}: {len(golden[workload])} golden outputs",
              file=sys.stderr)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
