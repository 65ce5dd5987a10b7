"""The test-only oracles and the removed implementation switches.

:mod:`repro.runtime.reference` and :mod:`repro.core.reference` swap the
stage a production module calls for the length of a ``with`` block.
These tests pin that the swap takes effect inside the block, is undone
on every exit (an exception included, so one failing comparison cannot
leave later tests on the slow path), and that no production module
imports either oracle.  The wall-time switches the oracles replace
(``indexed_schedule``, ``--reference-schedule``) are gone from the API
and are rejected rather than ignored.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.algorithms import build_algorithm
from repro.cli import main
from repro.core import ResCCLBackend, reference
from repro.core import hpds, tballoc
from repro.core.compiler import ResCCLCompiler, compile_fingerprint
from repro.ir import dag
from repro.runtime import MB, FlowNetwork, Simulator, simulate
from repro.runtime import reference as runtime_reference
from repro.runtime.reference import ReferenceFlowNetwork, reference_solver
from repro.topology import Cluster

ORACLES = {"repro.core.reference", "repro.runtime.reference"}


def _plan():
    cluster = Cluster(nodes=2, gpus_per_node=4)
    program = build_algorithm("mesh-allreduce", cluster)
    return ResCCLBackend(max_microbatches=4).plan(cluster, program, 8 * MB)


def _stages():
    return (
        dag._hazard_edges_fused,
        hpds._schedule_indexed,
        tballoc._merge_rank_indexed,
    )


class TestReferenceSolver:
    def test_swaps_network_inside_block_and_restores(self):
        plan = _plan()
        with reference_solver():
            assert type(Simulator(plan).network) is ReferenceFlowNetwork
        assert type(Simulator(plan).network) is FlowNetwork

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with reference_solver():
                raise RuntimeError("boom")
        assert type(Simulator(_plan()).network) is FlowNetwork

    def test_module_simulate_runs_brute_force(self):
        """The oracle's ``simulate`` really solves by brute force: same
        physical answer, strictly more edge shares on a contended plan."""
        plan = _plan()
        fast = simulate(plan)
        slow = runtime_reference.simulate(plan)
        assert slow.completion_time_us == fast.completion_time_us
        assert slow.counters.shares_computed > fast.counters.shares_computed
        assert type(Simulator(plan).network) is FlowNetwork


class TestReferenceCompiler:
    def test_swaps_stages_inside_block_and_restores(self):
        production = _stages()
        with reference.reference_compiler():
            assert _stages() == (
                reference.hazard_edges_reference,
                reference.schedule_reference,
                reference.merge_rank_reference,
            )
        assert _stages() == production

    def test_restores_after_exception(self):
        production = _stages()
        with pytest.raises(RuntimeError, match="boom"):
            with reference.reference_compiler():
                raise RuntimeError("boom")
        assert _stages() == production

    def test_module_compile_matches_production(self):
        cluster = Cluster(nodes=2, gpus_per_node=4)
        program = build_algorithm("hm-allreduce", cluster)
        ranks = list(range(cluster.world_size))
        literal = reference.compile(program, cluster)
        indexed = ResCCLCompiler().compile(program, cluster)
        assert compile_fingerprint(literal, kernel_ranks=ranks) == (
            compile_fingerprint(indexed, kernel_ranks=ranks)
        )


def _imported_modules(path, package):
    """Absolute names of every module (or module attribute) ``path``
    imports, with relative imports resolved against ``package``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


class TestOraclesAreTestOnly:
    def test_no_production_module_imports_an_oracle(self):
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root.parent).with_suffix("")
            module = ".".join(rel.parts)
            if module.endswith(".__init__"):
                package = module[: -len(".__init__")]
            else:
                package = module.rsplit(".", 1)[0]
            if module in ORACLES:
                continue
            if _imported_modules(path, package) & ORACLES:
                offenders.append(module)
        assert offenders == []

    def test_scan_sees_relative_imports(self):
        """The scan resolves the relative imports production code uses."""
        root = Path(repro.__file__).parent
        names = _imported_modules(root / "core" / "hpds.py", "repro.core")
        assert "repro.core.pipeline" in names


class TestRemovedCompileSwitch:
    def test_compiler_rejects_indexed_schedule(self):
        with pytest.raises(TypeError, match="indexed_schedule"):
            ResCCLCompiler(indexed_schedule=False)

    def test_backend_rejects_indexed_schedule(self):
        with pytest.raises(TypeError, match="indexed_schedule"):
            ResCCLBackend(indexed_schedule=False)

    def test_cli_rejects_reference_schedule(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "compile", "ring-allgather", "--nodes", "1", "--gpus", "8",
                    "--reference-schedule",
                ]
            )
        assert exc.value.code == 2
        assert "--reference-schedule" in capsys.readouterr().err
