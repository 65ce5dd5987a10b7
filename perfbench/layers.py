"""Per-layer metrics of a traced run.

The traced process arms ``repro.obs.observe()``, so its tracer holds the
benchmark's own spans (``job`` around each timed job, ``frontend.build``
around program construction) and the phase spans the program already
emits (``plan``, ``compile``, ``parsing``, ``analysis``, ``scheduling``,
``lowering``, ``tballoc``, ``kernelgen``, ``simulate``, ``tune-cell``).
A span's self time is its duration minus the time its children cover.
Times are reported as milliseconds per job; counts as totals over the
traced process's job list, which repeat exactly for a seed.

``obs.layer_coverage`` is the share of the job wall covered by the self
times of the phase spans alone (``PHASE_SPANS``).  The self time of the
``plan``/``compile`` wrappers (``core.plan_ms``) and of the ``job`` span
is left out as uncovered residue, so a new step in ``plan()`` that has no
span of its own lowers the coverage.

The simulator's work counts come from the ``sim_*`` metric series: of
the in-process registry on tune-cells, of the daemon's ``/metrics`` on
serve-closed.  ``runtime.validate_ms`` is timed on compile-cold, by a
``validate()`` of each plan outside the job span (validation otherwise
runs inside ``simulate()``).
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, Iterable, List

#: Span name -> the per-layer time metric its self time is charged to.
SELF_TIME_LAYERS = {
    "frontend.build": "frontend.build_ms",
    "parsing": "lang.parse_ms",
    "analysis": "ir.analysis_ms",
    "scheduling": "core.schedule_ms",
    "lowering": "core.tballoc_ms",
    "tballoc": "core.tballoc_ms",
    "kernelgen": "core.kernelgen_ms",
    "plan": "core.plan_ms",
    "compile": "core.plan_ms",
    "simulate": "runtime.simulate_ms",
    "tune-cell": "tuning.search_ms",
}

#: Spans that time one phase of work (not a wrapper around other phases).
PHASE_SPANS = ("frontend.build", "parsing", "analysis", "scheduling",
               "lowering", "tballoc", "kernelgen", "simulate", "tune-cell")

#: Span counters summed into count metrics.
SPAN_COUNTS = {
    ("parsing", "transfers"): "lang.transfers",
    ("analysis", "dag_nodes"): "ir.dag_nodes",
    ("analysis", "dag_edges"): "ir.dag_edges",
    ("scheduling", "sub_pipelines"): "core.sub_pipelines",
    ("plan", "tbs"): "core.tbs",
}

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = {
    "frontend.build_ms": "ms",
    "lang.parse_ms": "ms",
    "lang.transfers": "count",
    "ir.analysis_ms": "ms",
    "ir.dag_nodes": "count",
    "ir.dag_edges": "count",
    "core.schedule_ms": "ms",
    "core.sub_pipelines": "count",
    "core.tballoc_ms": "ms",
    "core.kernelgen_ms": "ms",
    "core.tbs": "count",
    "core.plan_ms": "ms",
    "plancache.hit_ratio": "ratio",
    "plancache.lowered_hit_ratio": "ratio",
    "plancache.warm_plan_ms": "ms",
    "runtime.validate_ms": "ms",
    "runtime.simulate_ms": "ms",
    "runtime.host_us_per_event": "us",
    "runtime.events_popped": "count",
    "runtime.stale_event_ratio": "ratio",
    "runtime.reallocations": "count",
    "runtime.shares_computed": "count",
    "runtime.vectorized_pass_ratio": "ratio",
    "runtime.queue_depth_max": "count",
    "aggregate.runs_collapsed": "count",
    "aggregate.collapse_noop": "count",
    "service.roundtrip_ms": "ms",
    "service.worker_ms": "ms",
    "service.overhead_ms": "ms",
    "service.coalesce_hits": "count",
    "service.job_retries": "count",
    "service.worker_restarts": "count",
    "service.admission_rejects": "count",
    "tuning.cell_ms": "ms",
    "tuning.search_ms": "ms",
    "tuning.screened": "count",
    "tuning.exact_scored": "count",
    "obs.layer_coverage": "ratio",
    "obs.tracing_overhead": "ratio",
}

#: Simulator work counters published as ``sim_*`` metric series.
SIM_SERIES = {
    "events_popped": "sim_events_popped_total",
    "stale_events_skipped": "sim_stale_events_skipped_total",
    "reallocations": "sim_rate_reallocations_total",
    "shares_computed": "sim_edge_shares_computed_total",
    "vectorized_passes": "sim_vectorized_passes_total",
    "queue_depth_max": "sim_queue_depth_max",
    "agg_runs_collapsed": "sim_agg_runs_collapsed_total",
    "agg_collapse_noop": "sim_agg_collapse_noop_total",
}


def _walk(span) -> Iterable:
    yield span
    for child in span.children:
        yield from _walk(child)


def _job_spans(roots) -> List:
    jobs = []
    for root in roots:
        for span in _walk(root):
            if span.name == "job":
                jobs.append(span)
    return jobs


def parse_prometheus(text: str) -> Dict[str, float]:
    """Sum every sample of each metric family in Prometheus text."""
    totals: Dict[str, float] = defaultdict(float)
    maxima: Dict[str, float] = {}
    pattern = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)")
    for line in text.splitlines():
        match = pattern.match(line)
        if match is None:
            continue
        name, value = match.group(1), float(match.group(3))
        totals[name] += value
        maxima[name] = max(maxima.get(name, value), value)
    totals["sim_queue_depth_max"] = maxima.get("sim_queue_depth_max", 0.0)
    return dict(totals)


def registry_totals(registry) -> Dict[str, float]:
    """``{metric name: summed value}`` of an in-process registry."""
    totals: Dict[str, float] = {}
    for name in registry.names():
        metric = registry.get(name)
        values = [v for _, v in metric.samples() if isinstance(v, (int, float))]
        if values:
            totals[name] = (max(values) if name == "sim_queue_depth_max"
                            else sum(values))
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, tracer, registry, counts: dict) -> Dict[str, float]:
    """Every per-layer metric of one traced process."""
    out = {name: 0.0 for name in PER_LAYER}
    jobs = _job_spans(tracer.roots)
    n_jobs = max(1, len(jobs))
    self_us: Dict[str, float] = defaultdict(float)
    phase_us, plan_spans, warm_plan_us, simulate_us = 0.0, 0, [], 0.0
    for job in jobs:
        for span in _walk(job):
            layer = SELF_TIME_LAYERS.get(span.name)
            if layer is not None:
                self_us[layer] += span.self_time_us
            if span.name in PHASE_SPANS:
                phase_us += span.self_time_us
            for (name, counter), metric in SPAN_COUNTS.items():
                if span.name == name:
                    out[metric] += span.counters.get(counter, 0)
            if span.name == "plan":
                plan_spans += 1
                if not any(c.name == "compile" for c in span.children):
                    warm_plan_us.append(span.duration_us)
            elif span.name == "simulate":
                simulate_us += span.duration_us
    for layer, micros in self_us.items():
        out[layer] = micros / 1e3 / n_jobs
    job_us = sum(job.duration_us for job in jobs)
    if workload in ("compile-cold", "tune-cells"):
        out["obs.layer_coverage"] = _ratio(phase_us, job_us)
    if warm_plan_us:
        out["plancache.warm_plan_ms"] = sum(warm_plan_us) / len(warm_plan_us) / 1e3

    if workload == "serve-closed":
        series = parse_prometheus(counts.get("metrics", ""))
        hits = series.get("compile_cache_hits_total", 0.0)
        misses = series.get("compile_cache_misses_total", 0.0)
        out["plancache.hit_ratio"] = _ratio(hits, hits + misses)
        roundtrip, worker = counts["roundtrip_ms"], counts["worker_ms"]
        out["service.roundtrip_ms"] = sum(roundtrip) / len(roundtrip)
        out["service.worker_ms"] = sum(worker) / len(worker)
        out["service.overhead_ms"] = (
            out["service.roundtrip_ms"] - out["service.worker_ms"]
        )
        for metric, name in (
            ("service.coalesce_hits", "service_coalesce_hits_total"),
            ("service.job_retries", "service_job_retries_total"),
            ("service.worker_restarts", "service_worker_restarts_total"),
            ("service.admission_rejects", "service_admission_rejects_total"),
        ):
            out[metric] = series.get(name, 0.0)
    else:
        from repro.core.plancache import get_cache

        stats = get_cache().stats
        if workload == "compile-cold":
            hits, lookups = counts["hits"], counts["lookups"]
            lowered_hits = counts["lowered_hits"]
        else:
            hits, lookups, lowered_hits = stats.hits, stats.lookups, stats.lowered_hits
        out["plancache.hit_ratio"] = _ratio(hits, lookups)
        out["plancache.lowered_hit_ratio"] = _ratio(lowered_hits, plan_spans)
        series = registry_totals(registry)

    if workload == "compile-cold":
        out["runtime.validate_ms"] = counts["validate_s"] * 1e3 / n_jobs
    sim = {field: series.get(name, 0.0) for field, name in SIM_SERIES.items()}
    out["runtime.events_popped"] = sim.get("events_popped", 0)
    out["runtime.stale_event_ratio"] = _ratio(
        sim.get("stale_events_skipped", 0), sim.get("events_popped", 0)
    )
    out["runtime.reallocations"] = sim.get("reallocations", 0)
    out["runtime.shares_computed"] = sim.get("shares_computed", 0)
    out["runtime.vectorized_pass_ratio"] = _ratio(
        sim.get("vectorized_passes", 0), sim.get("reallocations", 0)
    )
    out["runtime.queue_depth_max"] = sim.get("queue_depth_max", 0)
    out["runtime.host_us_per_event"] = _ratio(
        simulate_us, sim.get("events_popped", 0)
    )
    out["aggregate.runs_collapsed"] = sim.get("agg_runs_collapsed", 0)
    out["aggregate.collapse_noop"] = sim.get("agg_collapse_noop", 0)

    if workload == "tune-cells":
        out["tuning.cell_ms"] = counts["cell_s"] * 1e3 / max(1, counts["cells"])
        out["tuning.screened"] = counts["screened"]
        out["tuning.exact_scored"] = counts["exact_scored"]
    return {k: float(v) for k, v in out.items()}
