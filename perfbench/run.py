"""ResCCL benchmark: fixed-work runs of three workloads, from a fresh state.

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 40 --trace 0

Workloads (see ``jobs.py`` for the job lists and ``worker.py`` for how
each is driven):

* ``compile-cold``   cold ``ResCCLBackend.plan()`` calls, cache cleared;
* ``serve-closed``   a ``resccl serve`` daemon under two closed-loop clients;
* ``tune-cells``     cold ``tune()`` calls over a seeded list of small cells.

A run repeats the workload's fixed, seeded job list (at least 100 jobs)
in ``R`` fresh worker processes, one after another, where ``R = max(3,
round(seconds / nominal))`` and *nominal* is the workload's seconds per
process on a 2-vCPU host; compile-cold makes two passes over the list in
each process.  Each process starts from the same state: an empty plan
cache, no disk tier, no tuning table, ``PYTHONHASHSEED=0``, and
``XDG_CACHE_HOME``/``TMPDIR`` inside a sandbox that is removed at the end.
Set-up-only processes, interleaved with those, bring the set-up samples
of a run to ``SETUP_SAMPLES``.

Every time is the best of its repeats.  Jobs of one key (the same
program, cluster and buffer, or the same tuning cell) run the identical
computation, so a key's repeats are pooled over its jobs, the processes
and the passes, and each job's latency is its key's best; the throughput
follows from those, and ``setup_s`` is the best over all processes.  A
shared 2-vCPU host runs memory-heavy Python 30-90% slower than its best
in bursts of seconds to minutes; the best of many repeats spread over a
run of ``--seconds`` is what repeats from run to run, where a mean or a
median does not, and the longer the run the steadier it is.  On
serve-closed, a reply that joined an identical request the other client
already had in flight (the service marks it ``coalesced``) returned early
and is left out: the best would otherwise pick such lucky overlaps, which
differ from run to run.

End-to-end metrics (``--trace 0``):

* ``setup_s``        spawn -> first timed job, the best over all processes
  (set-up-only ones included);
* ``jobs_per_s``     clients x jobs / sum of the jobs' latencies: the
  timed wall of a pass in which every job took that latency (Little's
  law for serve-closed's two closed-loop clients);
* ``job_p50_ms``     median of the jobs' latencies;
* ``job_p90_ms``     their p90 (the list leaves >= 10 jobs beyond it);
* ``peak_rss_mb``    median peak RSS (serve-closed: daemon and workers);
* ``sim_algbw_gbps`` geometric mean of simulated algorithm bandwidth over
  the workload's plans (deterministic for a seed);
* ``plan_tbs_per_rank`` mean max TBs per rank over the plans (ditto).

With ``--trace 1`` the run makes one untraced and one traced process and
reports the per-layer metrics of ``layers.py``, including
``obs.tracing_overhead`` (traced / untraced jobs per second - 1).  The
traced spans are written to ``.perfbench/``.

Every job's output is checked against ``golden.json``; a mismatch, an
exception or a non-2xx reply counts as a failed job.  The last stdout
line is the JSON result; the line before it holds the machine record and
the raw per-process figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS, job_key, make_jobs
from layers import PER_LAYER
from machine import machine_record, proc_stats
from stats import TooFewSamples, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Passes over the job list per worker process.  Only compile-cold's list
#: is short enough for two; serve-closed must make one (its cold keys
#: must stay cold).
PASSES = {"compile-cold": 2, "serve-closed": 1, "tune-cells": 1}
#: Seconds of one worker process (set-up and all passes) on a 2-vCPU host.
NOMINAL_S = {
    "compile-cold": 8.0,
    "serve-closed": 4.0,
    "tune-cells": 7.5,
}
MIN_PROCESSES = 3
#: Set-up samples per run: processes that stop after set-up make up the
#: difference when the full processes are fewer.
SETUP_SAMPLES = 8
#: Wall budget of one worker process, set-up and extras included.
WORKER_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_algbw_gbps": "GB/s",
    "plan_tbs_per_rank": "TBs",
}


class WorkerFailed(RuntimeError):
    pass


def processes_for(workload: str, seconds: int) -> int:
    return max(MIN_PROCESSES, round(seconds / NOMINAL_S[workload]))


def sandbox_env(sandbox: Path) -> dict:
    env = dict(os.environ)
    for name in ("RESCCL_CACHE_DIR", "RESCCL_TUNING_TABLE"):
        env.pop(name, None)
    for sub in ("xdg", "tmp"):
        (sandbox / sub).mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    env.update({
        "PYTHONPATH": src + (os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else ""),
        "PYTHONHASHSEED": "0",
        "XDG_CACHE_HOME": str(sandbox / "xdg"),
        "TMPDIR": str(sandbox / "tmp"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _group_alive(pgid: int) -> bool:
    return any(pgrp == pgid and state != "Z"
               for _, state, _, pgrp in proc_stats())


def _reap_group(pgid: int) -> None:
    """Kill whatever the worker left in its process group, and wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_worker(args, env, sandbox: Path, index: int, *, extras: bool = False,
               trace: bool = False, setup_only: bool = False,
               spans_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--index", str(index), "--sandbox", str(sandbox),
           "--passes", str(PASSES[args.workload])]
    if extras:
        cmd.append("--extras")
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
    spawn_t = time.perf_counter()
    proc = subprocess.Popen(
        cmd + ["--spawn-t", repr(spawn_t)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        raise WorkerFailed(f"worker {index} timed out")
    finally:
        _reap_group(proc.pid)
    if err.strip():
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {index} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def jobs_per_s(record: dict) -> float:
    """Jobs per second of one worker process over all its passes."""
    return len(record["ok"]) / record["wall_s"]


def job_latencies_ms(records, keys) -> list:
    """Per job of the fixed list, the best time of its key over every job
    of that key, every process and every pass (see the module docstring);
    a ``None`` sample (a coalesced reply) is left out."""
    pooled = {key: [] for key in keys}
    for record in records:
        for times in record["latencies_s"]:
            for key, elapsed in zip(keys, times):
                if elapsed is not None:
                    pooled[key].append(elapsed)
    best = {key: min(times) * 1e3 for key, times in pooled.items()}
    return [best[key] for key in keys]


def schedule(n: int) -> list:
    """Process order of an untraced run: ``n`` full processes with the
    set-up-only ones spread evenly among them, as ``(index, setup_only)``."""
    extra = max(0, SETUP_SAMPLES - n)
    slots = [((i + 1) / (n + 1), i, False) for i in range(n)]
    slots += [((k + 0.5) / extra, n + k, True) for k in range(extra)]
    return [(index, setup_only) for _, index, setup_only in sorted(slots)]


def end_to_end(records, setups, keys) -> dict:
    """The end-to-end metrics from the full processes' ``records``, the
    set-up times ``setups`` of every process and the job list's ``keys``."""
    job_ms = job_latencies_ms(records, keys)
    extras = next(r["extras"] for r in records if "extras" in r)
    clients = records[0]["clients"]
    return {
        "setup_s": min(setups),
        "jobs_per_s": clients * len(job_ms) / (sum(job_ms) / 1e3),
        "job_p50_ms": statistics.median(job_ms),
        "job_p90_ms": percentile(job_ms, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "sim_algbw_gbps": extras["sim_algbw_gbps"],
        "plan_tbs_per_rank": extras["plan_tbs_per_rank"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # A terminated run still reaps its worker's process group (the
    # serve-closed daemon included) and removes its sandbox.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    machine = machine_record()
    sandbox = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    sandbox.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    env = sandbox_env(sandbox)
    try:
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            plain = run_worker(args, env, sandbox, 0)
            traced = run_worker(args, env, sandbox, 1, trace=True,
                                spans_out=spans)
            records = [plain, traced]
            setup_records = records
            metrics = dict(traced["layers"])
            metrics["obs.tracing_overhead"] = (
                jobs_per_s(traced) / jobs_per_s(plain) - 1.0
            )
            units = PER_LAYER
        else:
            n = processes_for(args.workload, args.seconds)
            setup_records = [
                run_worker(args, env, sandbox, index, extras=(index == n - 1),
                           setup_only=setup_only)
                for index, setup_only in schedule(n)
            ]
            records = [r for r in setup_records if "ok" in r]
            keys = [job_key(args.workload, job)
                    for job in make_jobs(args.workload, args.seed)]
            metrics = end_to_end(records, [r["setup_s"] for r in setup_records],
                                 keys)
            units = END_TO_END_UNITS
    except (WorkerFailed, TooFewSamples) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(sandbox, ignore_errors=True)

    attempted = sum(len(r["ok"]) for r in records)
    failed = sum(1 for r in records for ok in r["ok"] if not ok)
    expected = len(make_jobs(args.workload, args.seed))
    complete = all(len(times) == expected
                   for r in records for times in r["latencies_s"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "per_process": [
            {"setup_s": r["setup_s"], "import_s": r["import_s"],
             "wall_s": r["wall_s"], "jobs": len(r["ok"]),
             "jobs_per_s": jobs_per_s(r), "peak_rss_mb": r["peak_rss_mb"]}
            for r in records
        ],
        "setup_s": [r["setup_s"] for r in setup_records],
    }
    raw = OUT_DIR / f"raw-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"detail": detail, "records": records}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
