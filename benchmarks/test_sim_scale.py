"""Thousand-GPU simulation scale-up benchmark.

Sweeps mesh-allreduce from 2x8 up to 64x8 (512 GPUs) and records, per
scale, the wall clock of the simulator (vectorized re-rater engaged by
pass size, earliest-wins lazy invalidation, batched simultaneous-finish
re-rates).  Writes ``BENCH_sim_scale.json`` at the repo root for CI
diffing.

Asserted acceptance shape:

* **>= 3x wall-time speedup at 16x8** over the pre-scale-up simulator
  (scalar rates, expanded per-instance bookkeeping, eager
  repost-every-change invalidation).  That simulator is gone from the
  tree, so its 16x8 wall is frozen: it was measured once, divided by
  the wall of a fixed pure-Python calibration loop timed in the same
  process, and the ratio is committed below.  Each run times the same
  loop next to its own 16x8 simulation, so a faster or slower host
  moves both sides of the comparison alike;
* **near-linear wall-time-vs-flows scaling** — the log-log exponent of
  wall time against admitted flows across the sweep stays well below
  the super-linear regime the per-event heap + dense re-rater exhibit;
* **bit-identical reports** between the vectorized and scalar re-raters
  in exact mode (work counters excepted), selected by overriding
  ``flows.VECTORIZE_MIN_FLOWS``;
* **fast fidelity** (``SimConfig.with_fidelity("fast")``) completes
  within 15% of the exact completion time while doing less work.

Scales above 16x8 are gated behind ``RESCCL_SIM_BENCH_SCALES=full`` to
keep the default benchmark run short; the committed JSON is generated
with the full sweep.  Wall times are best-of-N.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import json
import math
import os
import sys
import time
from pathlib import Path
from unittest import mock

from conftest import once

from repro import MB
from repro.algorithms import build_algorithm
from repro.core import ResCCLBackend
from repro.runtime import flows
from repro.runtime.metrics import SimCounters
from repro.runtime.simulator import simulate
from repro.topology import Cluster

OUT = Path(__file__).resolve().parent.parent / "BENCH_sim_scale.json"

ALGO = "mesh-allreduce"
BUFFER_MB = 64
MAX_MICROBATCHES = 4

#: Node counts (x8 GPUs each) always swept; the 3x assertion applies to
#: the largest.
SCALES = (2, 4, 8, 16)
#: Extension swept when RESCCL_SIM_BENCH_SCALES=full.
FULL_SCALES = (32, 64)

MIN_SPEEDUP_AT_16X8 = 3.0
#: Upper bound on the log-log wall-vs-flows exponent across the sweep.
#: Linear scaling is 1.0; the pre-scale-up simulator measures ~1.8-2.0
#: on the same sweep.  1.35 leaves room for log-factor queue costs and
#: timer noise while still rejecting any super-linear regression.
MAX_SCALING_EXPONENT = 1.35
MAX_FAST_REL_ERROR = 0.15

#: Iterations of the calibration loop (about 50 ms on a 2-vCPU VM).
CALIBRATION_ITERS = 40_000
#: 16x8 wall of the pre-scale-up simulator divided by the calibration
#: loop's wall: the best of three simulations over the best calibration
#: taken next to them in the same process, exactly as ``_timed`` does.
#: Measured on the last commit that still had that simulator (f823635,
#: ``SimConfig(vectorized_rates=False, event_queue="heap",
#: aggregate_microbatches=False, lazy_invalidation=False)``) on a 2-vCPU
#: VM: 25.19 s over 48.71 ms.  A second session read 30.01 s over
#: 50.38 ms (596); the smaller ratio is the stricter gate.
FROZEN_BASELINE_RATIO_16X8 = 517.1


def _calibration_loop():
    """Fixed pure-Python work shaped like the simulator's event loop:
    heap posts and pops, dict reads and writes, float arithmetic."""
    heap = []
    table = {}
    acc = 0.0
    for i in range(CALIBRATION_ITERS):
        heapq.heappush(heap, (((i * 7919) % 10007) * 0.5, i))
        table[i & 4095] = acc
        acc = acc * 0.999 + table.get((i * 31) & 4095, 0.0) + 1.0
        if len(heap) > 1024:
            heapq.heappop(heap)
    return acc


def _calibrate(repeats=5):
    """Best-of-N wall clock of the calibration loop.

    The collector stays off while the clock runs: the loop makes no
    cycles, and a collection would charge it for the size of whatever
    heap the process holds (a 16x8 plan, say) rather than for host speed.
    """
    best = math.inf
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            _calibration_loop()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def _with_threshold(value):
    """Override the pass size that engages the numpy re-rater."""
    return mock.patch.object(flows, "VECTORIZE_MIN_FLOWS", value)


def _fingerprint(report):
    """Physical report identity: everything but the work counters."""
    data = dataclasses.asdict(report)
    for fieldname in SimCounters.WORK_COUNTER_FIELDS:
        data["counters"].pop(fieldname)
    data["mode"] = report.mode.value
    return data


def _timed(plan, repeats):
    """Best-of-N wall clock of one simulation plus the best calibration
    wall, the two interleaved so host noise hits both alike."""
    best = calib = math.inf
    report = None
    for _ in range(repeats):
        calib = min(calib, _calibrate())
        start = time.perf_counter()
        report = simulate(plan)
        best = min(best, time.perf_counter() - start)
    return best, calib, report


def _plan_for(nodes):
    cluster = Cluster(nodes=nodes, gpus_per_node=8)
    program = build_algorithm(ALGO, cluster)
    return ResCCLBackend(max_microbatches=MAX_MICROBATCHES).plan(
        cluster, program, BUFFER_MB * MB
    )


def _sweep():
    full = os.environ.get("RESCCL_SIM_BENCH_SCALES", "") == "full"
    rows = []
    for nodes in SCALES + (FULL_SCALES if full else ()):
        plan = _plan_for(nodes)
        # Large points are stable enough single-shot and expensive
        # enough (minutes at 64x8) that repeats would double the sweep
        # for little signal.
        wall, calib, new = _timed(plan, repeats=3 if nodes <= max(SCALES) else 1)
        c = new.counters
        row = {
            "scale": f"{nodes}x8",
            "gpus": nodes * 8,
            "flows": c.flows_admitted,
            "events_posted": c.events_posted,
            "events_popped": c.events_popped,
            "stale_events_skipped": c.stale_events_skipped,
            "rate_updates": c.rate_updates,
            "reallocations": c.reallocations,
            "vectorized_passes": c.vectorized_passes,
            "queue_depth_max": c.queue_depth_max,
            "completion_time_us": new.completion_time_us,
            "wall_s": wall,
            "calib_s": calib,
            "wall_s_baseline": None,
            "speedup": None,
        }
        if nodes == 16:
            # The frozen baseline, scaled to this host by the calibration.
            row["wall_s_baseline"] = FROZEN_BASELINE_RATIO_16X8 * calib
            row["speedup"] = row["wall_s_baseline"] / wall
        rows.append(row)
        print(
            f"  {row['scale']:>5} {row['flows']:>7} flows  "
            f"wall {row['wall_s']:.2f}s  calib {calib * 1e3:.1f}ms"
            + (
                f"  frozen base {row['wall_s_baseline']:.2f}s  "
                f"speedup {row['speedup']:.2f}x"
                if row["speedup"] is not None
                else ""
            ),
            flush=True,
        )
    return rows


def _fingerprint_identity():
    """Vectorized and scalar re-raters pin the same physical report."""
    plan = _plan_for(4)
    with _with_threshold(0):
        vec = simulate(plan)
    with _with_threshold(sys.maxsize):
        scalar = simulate(plan)
    return {
        "scale": "4x8",
        "vectorized_equals_scalar": _fingerprint(vec) == _fingerprint(scalar),
        "vectorized_passes": vec.counters.vectorized_passes,
        "scalar_passes": scalar.counters.scalar_passes,
    }


def _fidelity_check():
    """Fast fidelity stays within the documented completion error bound.

    Measured at 2x8 — the largest sweep scale where ``plan_microbatches``
    still yields n_microbatches > 1 for this algorithm/buffer (mesh
    chunk count equals the rank count, so at 8x8 and above a 64 MB
    buffer plans a single micro-batch and collapse has nothing to do).
    The collapse approximation trades away micro-batch pipeline overlap,
    so its error grows with fabric contention; 15% is the contract at
    micro-batched scales, not a universal bound.
    """
    plan = _plan_for(2)
    exact = simulate(plan)
    t0 = time.perf_counter()
    fast = simulate(
        dataclasses.replace(plan, config=plan.config.with_fidelity("fast"))
    )
    wall_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    simulate(plan)
    wall_exact = time.perf_counter() - t0
    rel = abs(fast.completion_time_us - exact.completion_time_us) / (
        exact.completion_time_us
    )
    return {
        "scale": "2x8",
        "n_microbatches": plan.n_microbatches,
        "completion_exact_us": exact.completion_time_us,
        "completion_fast_us": fast.completion_time_us,
        "rel_error": rel,
        "bound": MAX_FAST_REL_ERROR,
        "wall_s_exact": wall_exact,
        "wall_s_fast": wall_fast,
        "fast_runs_collapsed": fast.counters.agg_runs_collapsed,
        "fast_rate_updates": fast.counters.rate_updates,
        "exact_rate_updates": exact.counters.rate_updates,
    }


def test_sim_scale(once):
    rows = once(_sweep)
    identity = _fingerprint_identity()
    fidelity = _fidelity_check()
    result = {
        "algorithm": ALGO,
        "buffer_mb": BUFFER_MB,
        "max_microbatches": MAX_MICROBATCHES,
        "frozen_baseline_ratio_16x8": FROZEN_BASELINE_RATIO_16X8,
        "scales": rows,
        "fingerprint_identity": identity,
        "fidelity": fidelity,
    }
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {OUT}")

    # >= 3x over the frozen pre-scale-up baseline at 16x8:
    # wall / calib <= frozen_ratio / 3.
    at_16x8 = next(r for r in rows if r["scale"] == "16x8")
    assert (
        at_16x8["wall_s"] / at_16x8["calib_s"]
        <= FROZEN_BASELINE_RATIO_16X8 / MIN_SPEEDUP_AT_16X8
    ), at_16x8

    # Near-linear wall-vs-flows scaling across the sweep (8x8 up, where
    # fixed per-run costs no longer dominate the measurement).
    lo = next(r for r in rows if r["scale"] == "8x8")
    hi = rows[-1]
    exponent = math.log(hi["wall_s"] / lo["wall_s"]) / math.log(
        hi["flows"] / lo["flows"]
    )
    print(
        f"  wall-vs-flows exponent {lo['scale']}->{hi['scale']}: "
        f"{exponent:.2f} (bound {MAX_SCALING_EXPONENT})"
    )
    assert exponent <= MAX_SCALING_EXPONENT, (lo, hi, exponent)

    # Exact mode: the numpy re-rater is an optimization, not a model.
    assert identity["vectorized_equals_scalar"], identity
    assert identity["vectorized_passes"] > 0, identity
    assert identity["scalar_passes"] > 0, identity

    # Fast fidelity: collapse actually engaged, bounded completion
    # error, strictly less rate work.
    assert fidelity["n_microbatches"] > 1, fidelity
    assert fidelity["fast_runs_collapsed"] > 0, fidelity
    assert fidelity["rel_error"] <= MAX_FAST_REL_ERROR, fidelity
    assert fidelity["fast_rate_updates"] < fidelity["exact_rate_updates"], fidelity
