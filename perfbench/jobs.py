"""Seeded, fixed-work job lists for the three benchmark workloads.

Every workload is a fixed multiset of job *templates*, each repeated a
fixed number of times.  The seed picks, per template, one input variant
from a small menu of cost-equivalent variants (buffer sizes that keep the
micro-batch count unchanged; two sizes per stratum for tune-cells) and
shuffles the order.  So the same seed gives a byte-identical list, another
seed gives another list, and the cost profile of a run does not depend on
the seed: the classes that the reported percentiles fall in have the same
sizes and members for every seed.

This module imports nothing from the program under test, so the lists can
be generated and tested without it.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List

WORKLOADS = ("compile-cold", "serve-closed", "tune-cells")

COLLECTIVES = ("allreduce", "allgather", "reducescatter")

# -- compile-cold -------------------------------------------------------

#: Inline ResCCLang sources from ``examples/algorithms`` by cluster shape.
DSL_2X8 = (
    "hm_allgather_2x8.rescclang",
    "hm_allreduce_2x8.rescclang",
    "hm_reducescatter_2x8.rescclang",
)
DSL_4X8 = ("hm_allreduce_4x8.rescclang",)

_BUILTINS = tuple(
    f"{family}-{coll}" for family in ("ring", "mesh", "hm") for coll in COLLECTIVES
)

#: 2x8 class: every built-in, both synthesizers, the 2x8 DSL files, four
#: times each (the DSL files five).  ``teccl:allreduce`` is left out: its
#: synthesis alone costs about six times a typical 2x8 job.
COMPILE_SMALL = tuple(
    ("2x8", spec, 2, 8, 4)
    for spec in _BUILTINS + tuple(f"taccl:{c}" for c in COLLECTIVES)
    + ("teccl:allgather", "teccl:reducescatter")
) + tuple(("2x8", f"dsl:{name}", 2, 8, 5) for name in DSL_2X8)
#: 4x8 class: every built-in, TACCL and the 4x8 DSL file.  The five
#: allreduce programs, the slowest (35-110 ms on a 2-vCPU host), once
#: each; ``mesh-allgather`` (~32 ms) twelve times, so that the p90 (the
#: 11th slowest of 102 jobs) is the sixth of those twelve, clear of both
#: edges; the other programs (20-30 ms) twice.  TECCL synthesis at 4x8
#: costs ~0.4 s per job and is left out.
_LARGE_REPS = {"mesh-allgather": 12}
COMPILE_LARGE = tuple(
    ("4x8", spec, 4, 8,
     _LARGE_REPS.get(spec, 1 if "allreduce" in spec else 2))
    for spec in _BUILTINS + tuple(f"taccl:{c}" for c in COLLECTIVES)
    + tuple(f"dsl:{name}" for name in DSL_4X8)
)
#: One micro-batch at both shapes: the buffer only scales the chunk, so
#: the seed moves neither compile cost nor the simulated bandwidth much.
COMPILE_BUFFERS_MB = {"2x8": (15.0, 16.0, 17.0), "4x8": (15.0, 16.0, 17.0)}

# -- serve-closed ---------------------------------------------------------

SERVE_COMPILE_KEYS = tuple(
    (spec, nodes, gpus)
    for nodes, gpus in ((2, 4), (2, 8))
    for spec in _BUILTINS
)
SERVE_SIM_SMALL = tuple(
    (spec, 2, 4) for spec in ("hm-allgather", "hm-reducescatter",
                              "mesh-allgather", "ring-allgather")
)
#: Four 2x8 plans of about equal simulation cost (55-65 ms in-process on
#: a 2-vCPU host), so whichever key the seed puts first in the Zipf order,
#: the tail costs the same.
SERVE_SIM_LARGE = tuple(
    (spec, 2, 8) for spec in ("hm-allgather", "hm-reducescatter",
                              "taccl:allgather", "taccl:reducescatter")
)
SERVE_BUFFERS_MB = {4: (16.0, 24.0, 32.0), 8: (56.0, 60.0, 64.0)}
#: Cold keys: 4x8 compiles of keys the warm pass never touches.
SERVE_COLD_KEYS = tuple(
    (spec, 4, 8) for spec in ("ring-allgather", "ring-reducescatter",
                              "hm-allgather", "hm-reducescatter",
                              "mesh-reducescatter", "taccl:allgather")
)
#: The p50 (the 60th of 120) falls inside the 2x8 compile replies; the
#: p90 (the 13th slowest) in the middle of the 24 large simulations.
SERVE_COUNTS = {"compile": 78, "sim-small": 15, "sim-large": 24, "cold": 3}

# -- tune-cells -----------------------------------------------------------

#: Two size strata per collective, by their centre (MB).  The seed draws
#: two cells per stratum from the sizes within two 32nds of a MB of the
#: centre, which search the same candidates, keep the same micro-batch
#: counts and cost alike; so the seed does not change the search cost.
#: With ``TUNE_GRID``, allreduce cells have four single-micro-batch
#: candidates (the fast-fidelity collapse is a no-op), allgather and
#: reduce-scatter cells five, four of them at two micro-batches that the
#: collapse folds.
TUNE_STRATA_MB = {"allreduce": (1.75, 2.25), "allgather": (3.25, 3.75),
                  "reducescatter": (3.25, 3.75)}
TUNE_MENU_STEPS = (-2, -1, 0, 1, 2)
TUNE_CELLS_PER_STRATUM = 2
#: Copies of each cell: 4 allreduce cells x 9 + 8 other cells x 8 = 100
#: jobs.  The allreduce cells are the slowest (~57 ms at best on a 2-vCPU
#: host, the others 40-50 ms), so the p90 (the 11th slowest) falls inside
#: them.
TUNE_COPIES = {"allreduce": 9, "allgather": 8, "reducescatter": 8}
#: The search grid handed to ``tune()``: the HPDS built-ins and TACCL at
#: 256 KB chunks, against the stock ring default.
TUNE_GRID = {"schedulers": ("hpds", "taccl"), "chunk_kb_grid": (256,),
             "mbs_grid": (8,), "tb_allowance_grid": (None,)}
TUNE_SHAPE = (2, 4)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _templated(workload: str, seed: int, templates, buffers) -> List[dict]:
    """Each template ``reps`` times at one seed-drawn buffer, shuffled."""
    rng = _rng(workload, seed)
    jobs = []
    for cls, spec, nodes, gpus, reps in templates:
        job = {"cls": cls, "spec": spec, "nodes": nodes, "gpus": gpus,
               "buffer_mb": rng.choice(buffers[cls])}
        jobs.extend(dict(job) for _ in range(reps))
    rng.shuffle(jobs)
    return jobs


def _compile_jobs(seed: int) -> List[dict]:
    return _templated("compile-cold", seed, COMPILE_SMALL + COMPILE_LARGE,
                      COMPILE_BUFFERS_MB)


def _zipf_counts(n_keys: int, total: int) -> List[int]:
    """Deterministic Zipf(1) split of ``total`` requests over ``n_keys``."""
    weights = [1.0 / (k + 1) for k in range(n_keys)]
    scale = total / sum(weights)
    counts = [max(1, int(w * scale)) for w in weights]
    k = 0
    while sum(counts) < total:
        counts[k % n_keys] += 1
        k += 1
    while sum(counts) > total:
        counts[counts.index(max(counts))] -= 1
    return counts


def _serve_jobs(seed: int) -> List[dict]:
    rng = _rng("serve-closed", seed)
    jobs = []
    compile_keys = list(SERVE_COMPILE_KEYS)
    rng.shuffle(compile_keys)
    for i in range(SERVE_COUNTS["compile"]):
        spec, nodes, gpus = compile_keys[i % len(compile_keys)]
        jobs.append({"cls": "compile", "op": "compile", "spec": spec,
                     "nodes": nodes, "gpus": gpus, "buffer_mb": 64.0})
    for cls, keys in (("sim-small", SERVE_SIM_SMALL),
                      ("sim-large", SERVE_SIM_LARGE)):
        keys = list(keys)
        rng.shuffle(keys)  # which key gets which Zipf rank
        for (spec, nodes, gpus), count in zip(
            keys, _zipf_counts(len(keys), SERVE_COUNTS[cls])
        ):
            buffer_mb = rng.choice(SERVE_BUFFERS_MB[gpus])
            jobs.extend(
                {"cls": cls, "op": "simulate", "spec": spec, "nodes": nodes,
                 "gpus": gpus, "buffer_mb": buffer_mb}
                for _ in range(count)
            )
    for spec, nodes, gpus in rng.sample(SERVE_COLD_KEYS, SERVE_COUNTS["cold"]):
        jobs.append({"cls": "cold", "op": "compile", "spec": spec,
                     "nodes": nodes, "gpus": gpus, "buffer_mb": 64.0})
    rng.shuffle(jobs)
    return jobs


def _tune_menu(center: float) -> List[float]:
    return [center + step / 32 for step in TUNE_MENU_STEPS]


def _tune_jobs(seed: int) -> List[dict]:
    rng = _rng("tune-cells", seed)
    nodes, gpus = TUNE_SHAPE
    jobs = []
    for coll, centers in TUNE_STRATA_MB.items():
        for center in centers:
            for size in rng.sample(_tune_menu(center), TUNE_CELLS_PER_STRATUM):
                job = {"cls": coll, "collective": coll, "buffer_mb": size,
                       "nodes": nodes, "gpus": gpus}
                jobs.extend(dict(job) for _ in range(TUNE_COPIES[coll]))
    rng.shuffle(jobs)
    return jobs


_MAKERS = {
    "compile-cold": _compile_jobs,
    "serve-closed": _serve_jobs,
    "tune-cells": _tune_jobs,
}


def make_jobs(workload: str, seed: int) -> List[dict]:
    """The fixed job list of ``workload`` for ``seed``."""
    if workload not in _MAKERS:
        raise ValueError(
            f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}"
        )
    return _MAKERS[workload](int(seed))


def job_key(workload: str, job: dict) -> str:
    """The golden-table key of one job (its output identity)."""
    if workload == "tune-cells":
        return (f"{job['collective']}|{job['buffer_mb']:g}MB|"
                f"{job['nodes']}x{job['gpus']}")
    op = job.get("op", "plan")
    return (f"{op}|{job['spec']}|{job['nodes']}x{job['gpus']}|"
            f"{job['buffer_mb']:g}MB")


def all_job_keys(workload: str) -> Dict[str, dict]:
    """Every job any seed can draw, by key (what the golden table covers)."""
    jobs: List[dict] = []
    if workload == "compile-cold":
        jobs += [{"cls": cls, "spec": spec, "nodes": nodes, "gpus": gpus,
                  "buffer_mb": b}
                 for cls, spec, nodes, gpus, _ in COMPILE_SMALL + COMPILE_LARGE
                 for b in COMPILE_BUFFERS_MB[cls]]
    elif workload == "serve-closed":
        jobs += [{"op": "compile", "spec": s, "nodes": n, "gpus": g,
                  "buffer_mb": 64.0}
                 for s, n, g in SERVE_COMPILE_KEYS + SERVE_COLD_KEYS]
        jobs += [{"op": "simulate", "spec": s, "nodes": n, "gpus": g,
                  "buffer_mb": b}
                 for s, n, g in SERVE_SIM_SMALL + SERVE_SIM_LARGE
                 for b in SERVE_BUFFERS_MB[g]]
    else:
        nodes, gpus = TUNE_SHAPE
        jobs += [{"collective": c, "buffer_mb": b, "nodes": nodes, "gpus": gpus}
                 for c, centers in TUNE_STRATA_MB.items()
                 for center in centers for b in _tune_menu(center)]
    return {job_key(workload, job): job for job in jobs}


def serialize(jobs: List[dict]) -> bytes:
    """Canonical bytes of a job list (the byte-identity check)."""
    return json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()
