"""Golden determinism: the simulator's rate solver is exact.

The headline invariant of the simulator's performance machinery is that
it is an *optimization*, not an approximation.  With the default
``rate_rel_epsilon=0.0``, a simulation must produce a bitwise-equal
report

* on the production solver and on the brute-force reference solver
  (:mod:`repro.runtime.reference`) that recomputes every edge share and
  re-rates every flow per pass, and
* with the numpy re-rater forced on for every pass and with it never
  engaged (``flows.VECTORIZE_MIN_FLOWS`` overridden).

Only the *work counters* enumerated in
``SimCounters.WORK_COUNTER_FIELDS`` (how the answer was computed) may
differ; every physical field — completion times, TB/link stats, the
dynamic completion order, traces — is pinned.
"""

import dataclasses
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.algorithms import build_algorithm
from repro.core import ResCCLBackend
from repro.faults import run_with_faults
from repro.lang import parse_program
from repro.runtime import MB, SimConfig, Simulator, flows, simulate
from repro.runtime.metrics import SimCounters
from repro.runtime.reference import reference_solver
from repro.topology import Cluster

CORPUS = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "algorithms").glob(
        "*.rescclang"
    )
)


def cluster_for(program):
    gpus = program.header.gpus_per_node
    if program.nranks % gpus:
        return Cluster(nodes=1, gpus_per_node=program.nranks)
    return Cluster(nodes=program.nranks // gpus, gpus_per_node=gpus)


def report_fingerprint(report):
    """Everything observable about a run, with exact float identity.

    ``dataclasses.asdict`` recurses through TB stats, link stats, trace
    events, fault stats, and counters; the declared work counters
    (``SimCounters.WORK_COUNTER_FIELDS``) are masked out as the
    optimizations' legitimate degrees of freedom.
    """
    data = dataclasses.asdict(report)
    for field in SimCounters.WORK_COUNTER_FIELDS:
        data["counters"].pop(field)
    data["mode"] = report.mode.value
    return data


def vectorize_threshold(value):
    """Override the affected-flow count that engages the numpy re-rater."""
    return mock.patch.object(flows, "VECTORIZE_MIN_FLOWS", value)


#: Ways to run the same simulation that must be bit-identical to the
#: production default: the reference solver, and the numpy re-rater
#: forced on for every pass or never engaged.
EXACT_VARIANTS = {
    "reference-solver": reference_solver,
    "vectorized-always": lambda: vectorize_threshold(0),
    "scalar-rates": lambda: vectorize_threshold(sys.maxsize),
}


def assert_bit_identical(plan, record_trace=False):
    fast = simulate(plan, record_trace=record_trace)
    with reference_solver():
        slow = simulate(plan, record_trace=record_trace)
    assert report_fingerprint(fast) == report_fingerprint(slow)
    # The optimization actually optimizes: on any contended plan the
    # reference allocator computes at least as many edge shares.
    assert fast.counters.shares_computed <= slow.counters.shares_computed
    return fast


class TestBuiltins:
    @pytest.mark.parametrize(
        "algo", ["ring-allreduce", "ring-allgather", "mesh-allreduce"]
    )
    def test_builtin_collectives(self, algo):
        cluster = Cluster(nodes=2, gpus_per_node=4)
        program = build_algorithm(algo, cluster)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 8 * MB)
        assert_bit_identical(plan, record_trace=True)

    def test_larger_fabric_with_background_traffic(self):
        cluster = Cluster(nodes=2, gpus_per_node=8)
        program = build_algorithm("mesh-allreduce", cluster)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 8 * MB)
        from repro.runtime.simulator import simulate as sim

        fast = sim(plan)
        with reference_solver():
            slow = sim(plan)
        assert report_fingerprint(fast) == report_fingerprint(slow)

    def test_epsilon_zero_is_default(self):
        config = SimConfig()
        assert config.rate_rel_epsilon == 0.0
        assert config.collapse_microbatches is False


class TestExactVariantMatrix:
    """Every exact variant pins the same report.

    Covers the reference solver and forced-vectorized vs scalar
    re-rating, over built-in collectives, a background-traffic run and
    fault-injected recovery runs.
    """

    @pytest.mark.parametrize("variant", sorted(EXACT_VARIANTS))
    @pytest.mark.parametrize(
        "algo",
        ["ring-allreduce", "hm-allreduce", "hm-allgather", "mesh-reducescatter"],
    )
    def test_builtin_variants(self, algo, variant):
        cluster = Cluster(nodes=2, gpus_per_node=4)
        program = build_algorithm(algo, cluster)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 8 * MB)
        base = simulate(plan, record_trace=True)
        with EXACT_VARIANTS[variant]():
            other = simulate(plan, record_trace=True)
        assert report_fingerprint(base) == report_fingerprint(other)

    @pytest.mark.parametrize("variant", sorted(EXACT_VARIANTS))
    def test_background_traffic_variants(self, variant):
        cluster = Cluster(nodes=2, gpus_per_node=8)
        program = build_algorithm("mesh-allreduce", cluster)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 8 * MB)
        edge = next(iter(cluster.edges))
        traffic = [((edge,), 500.0)]
        base = simulate(plan, background_traffic=traffic)
        with EXACT_VARIANTS[variant]():
            other = simulate(plan, background_traffic=traffic)
        assert report_fingerprint(base) == report_fingerprint(other)

    @pytest.mark.parametrize("variant", sorted(EXACT_VARIANTS))
    def test_multi_edge_background_traffic_variants(self, variant):
        """Background flows of different loads, over one and two edges,
        contend with the collective on several links at once."""
        cluster = Cluster(nodes=2, gpus_per_node=4)
        program = build_algorithm("ring-allreduce", cluster)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 8 * MB)
        edges = sorted(cluster.edges)
        traffic = [
            ((edges[0],), 200.0),
            ((edges[1], edges[2]), 800.0),
            ((edges[-1],), 1500.0),
        ]
        base = simulate(plan, background_traffic=traffic, record_trace=True)
        assert base.completion_time_us > simulate(plan).completion_time_us
        with EXACT_VARIANTS[variant]():
            other = simulate(
                plan, background_traffic=traffic, record_trace=True
            )
        assert report_fingerprint(base) == report_fingerprint(other)

    def test_vectorized_path_engages(self):
        """A zero threshold really switches to the numpy re-rater."""
        cluster = Cluster(nodes=2, gpus_per_node=8)
        program = build_algorithm("mesh-allreduce", cluster)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 8 * MB)
        with vectorize_threshold(0):
            report = simulate(plan)
        assert report.counters.vectorized_passes > 0
        assert report.counters.scalar_passes == 0

    @pytest.mark.parametrize("variant", ["vectorized-always", "scalar-rates"])
    def test_fault_injected_variants(self, variant):
        """A fault-injected recovery run replays identically per axis."""
        cluster = Cluster(nodes=2, gpus_per_node=4)
        program = build_algorithm("ring-allreduce", cluster)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 8 * MB)
        base = run_with_faults(
            plan, "link-flap", seed=1, recovery="fallback", record_trace=True
        )
        with EXACT_VARIANTS[variant]():
            other = run_with_faults(
                plan, "link-flap", seed=1, recovery="fallback",
                record_trace=True,
            )
        assert report_fingerprint(base.report) == report_fingerprint(
            other.report
        )

    @pytest.mark.parametrize("variant", sorted(EXACT_VARIANTS))
    def test_replan_recovery_variants(self, variant):
        """A killed link recovered by a residual replan, including the
        resumed run on the degraded fabric, replays identically."""
        cluster = Cluster(nodes=2, gpus_per_node=4)
        program = build_algorithm("hm-allreduce", cluster)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 8 * MB)
        base = run_with_faults(
            plan, "link-kill", seed=1, recovery="replan", record_trace=True
        )
        with EXACT_VARIANTS[variant]():
            other = run_with_faults(
                plan, "link-kill", seed=1, recovery="replan",
                record_trace=True,
            )
        assert base.report.fault_stats.replans == 1
        assert report_fingerprint(base.report) == report_fingerprint(
            other.report
        )
        assert report_fingerprint(base.baseline) == report_fingerprint(
            other.baseline
        )


class TestDslCorpus:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
    def test_corpus_program(self, path):
        program = parse_program(path.read_text())
        cluster = cluster_for(program)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 4 * MB)
        assert_bit_identical(plan)

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
    def test_corpus_vectorized_and_scalar(self, path):
        """Forced-vectorized and scalar re-rating over the corpus."""
        program = parse_program(path.read_text())
        cluster = cluster_for(program)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 4 * MB)
        base = report_fingerprint(simulate(plan))
        with vectorize_threshold(0):
            vectorized = simulate(plan)
        with vectorize_threshold(sys.maxsize):
            scalar = simulate(plan)
        assert report_fingerprint(vectorized) == base
        assert report_fingerprint(scalar) == base


class TestFaultInjected:
    def test_chaos_run_is_bit_identical(self):
        """Fault injection, watchdog, and recovery replay identically.

        The fault schedule is seeded off the clean-run horizon, so both
        solver modes face the same injected events; the recovery path
        (fallback compile + resumed execution) must then complete at the
        same instant with the same flow history.
        """
        cluster = Cluster(nodes=2, gpus_per_node=4)
        program = build_algorithm("ring-allreduce", cluster)
        backend = ResCCLBackend(max_microbatches=4)
        plan = backend.plan(cluster, program, 8 * MB)

        fast = run_with_faults(
            plan, "link-flap", seed=1, recovery="fallback", record_trace=True
        )
        with reference_solver():
            slow = run_with_faults(
                plan, "link-flap", seed=1, recovery="fallback",
                record_trace=True,
            )
        assert report_fingerprint(fast.report) == report_fingerprint(
            slow.report
        )
        assert report_fingerprint(fast.baseline) == report_fingerprint(
            slow.baseline
        )


class TestVectorizedSelection:
    """The network engages the numpy re-rater only when a pass needs it."""

    @pytest.mark.parametrize(
        "algo, nodes, gpus, buffer_mb",
        [
            ("hm-allgather", 2, 4, 24),
            ("ring-allgather", 2, 4, 24),
            ("hm-allgather", 2, 8, 60),
            ("hm-reducescatter", 2, 8, 60),
        ],
    )
    def test_small_plans_never_build_mirrors(self, algo, nodes, gpus, buffer_mb):
        """Plans shaped like the service benchmark's simulate requests
        (the service's default 8 micro-batches) stay on the scalar
        re-rater and never pay for the numpy mirrors."""
        cluster = Cluster(nodes=nodes, gpus_per_node=gpus)
        program = build_algorithm(algo, cluster)
        plan = ResCCLBackend(max_microbatches=8).plan(
            cluster, program, buffer_mb * MB
        )
        sim = Simulator(plan)
        report = sim.run()
        assert report.counters.vectorized_passes == 0
        assert report.counters.scalar_passes > 0
        assert not sim.network._mirrored

    def test_threshold_crossing_plan_engages_mid_run(self):
        """2x8 mesh-allreduce crosses the threshold after scalar passes,
        builds the mirrors once, and matches a scalar-only run."""
        cluster = Cluster(nodes=2, gpus_per_node=8)
        program = build_algorithm("mesh-allreduce", cluster)
        plan = ResCCLBackend(max_microbatches=4).plan(cluster, program, 64 * MB)
        builds = []
        build = flows.FlowNetwork._build_mirrors

        def spy(network):
            builds.append(network.scalar_passes)
            build(network)

        with mock.patch.object(flows.FlowNetwork, "_build_mirrors", spy):
            report = simulate(plan)
        assert len(builds) == 1 and builds[0] > 0
        assert report.counters.vectorized_passes > 0
        with vectorize_threshold(sys.maxsize):
            scalar = simulate(plan)
        assert scalar.counters.vectorized_passes == 0
        assert report_fingerprint(report) == report_fingerprint(scalar)
