"""Steadiness report: repeat a workload in fresh runs and show the spread.

    python3 perfbench/steady.py --workload tune-cells --runs 10 \
        [--same-seed] [--trace 0] [--seconds 40] [--out FILE]

Each run is a separate ``run.py`` invocation (so a fresh set of worker
processes); runs use seeds ``1, 2, ...``, or seed 1 every time with
``--same-seed``.  For every metric the report prints the median,
the quartiles (``statistics.quantiles(n=4)``), the spread (IQR / median),
min and max.  It flags:

* ``SPREAD``  a host-time metric whose spread exceeds ``MAX_SPREAD``
  (a tenth);
* ``ALIAS``   a metric equal to another metric in every run;
* ``VARIES``  a deterministic metric that differs between runs of one
  seed (only with ``--same-seed``).

The raw results are written to ``--out`` (JSON) when given.  This is the
evidence the bounds in ``BENCHMARK.json`` are set from.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import aliased_pairs, spread

HERE = Path(__file__).resolve().parent

#: Metrics that are not host time: counts, ratios of counts, and the
#: deterministic plan-quality figures.
DETERMINISTIC = {"sim_algbw_gbps", "plan_tbs_per_rank"}
#: Run-to-run spread (IQR / median) above which a host-time metric is
#: flagged.
MAX_SPREAD = 0.10


def _is_host_time(name: str, unit: str) -> bool:
    if name in DETERMINISTIC:
        return False
    return unit in ("s", "ms", "us", "1/s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run.py exited {proc.returncode} (seed {seed})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(results, same_seed: bool) -> int:
    flags = 0
    runs = [{k: v["value"] for k, v in r["metrics"].items()} for r in results]
    units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
    print(f"{'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'min':>12s} {'max':>12s}")
    for name in sorted(units):
        values = [r[name] for r in runs]
        median, q1, q3, rel = spread(values)
        note = ""
        if _is_host_time(name, units[name]) and rel > MAX_SPREAD:
            note = "  SPREAD"
            flags += 1
        if same_seed and not _is_host_time(name, units[name]) \
                and len(set(values)) > 1:
            note += "  VARIES"
            flags += 1
        print(f"{name:32s} {units[name]:6s} {median:12.5g} {q1:12.5g} "
              f"{q3:12.5g} {rel:7.3f} {min(values):12.5g} "
              f"{max(values):12.5g}{note}")
    for a, b in aliased_pairs(runs):
        print(f"ALIAS  {a} == {b} in every run")
        flags += 1
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"runs={len(results)} attempted={attempted} failed={failed} "
          f"correct={correct} flags={flags}")
    return flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    results = []
    for i in range(args.runs):
        seed = 1 if args.same_seed else 1 + i
        start = time.monotonic()
        results.append(run_once(args.workload, seed, args.seconds, args.trace))
        print(f"run {i + 1}/{args.runs} seed={seed} done in "
              f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    flags = report(results, args.same_seed)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
