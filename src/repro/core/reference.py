"""Test-only oracle for the compiler.

The production compile path runs indexed, near-linearithmic
implementations of its three hot stages.  This module keeps the literal
implementations they replace — slow and obviously correct:

* :func:`hazard_edges_reference` — dependency analysis by two-level
  grouping (per buffer slot, then per step) instead of the fused
  single pass of :func:`repro.ir.dag.build_dag`;
* :func:`schedule_reference` — HPDS (Algorithm 1) written out
  literally: a full chunk scan per pick, a full remaining-task scan per
  chunk visit, and a per-link ready-set scan per candidate;
* :func:`merge_rank_reference` — best-fit TB merging (section 4.4) by
  a linear scan over the open TBs.

:func:`reference_compiler` runs every compile inside the block on these
three, and :func:`compile` is one uncached
:meth:`~repro.core.compiler.ResCCLCompiler.compile` on them.  Outputs
must be bit-identical to production
(:func:`~repro.core.compiler.compile_fingerprint`).  Tests and
``benchmarks/`` reach the oracle only through this module; no
production module imports it.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Set, Tuple, Union
from unittest import mock

from ..ir import dag as _dag
from ..ir.dag import DependencyDAG
from ..ir.task import TransmissionTask
from ..lang.builder import AlgoProgram
from ..topology import Cluster
from . import hpds as _hpds
from . import tballoc as _tballoc
from .compiler import CompileResult, ResCCLCompiler
from .hpds import _priority_key
from .pipeline import GlobalPipeline, SubPipeline
from .tballoc import EndpointGroup, TBAssignment


def hazard_edges_reference(
    dag: DependencyDAG, tasks: Sequence[TransmissionTask]
) -> None:
    """Hazard edges by two-level grouping: per buffer slot, then per step.

    The source rank reads its copy of the chunk; the destination writes
    its slot (an ``rrc`` also reads it, but the write subsumes the read).
    """
    per_slot: Dict[Tuple[int, int], Dict[int, List[Tuple[int, bool]]]] = (
        defaultdict(lambda: defaultdict(list))
    )
    for task in tasks:
        per_slot[(task.src, task.chunk)][task.step].append((task.task_id, False))
        per_slot[(task.dst, task.chunk)][task.step].append((task.task_id, True))

    for by_step in per_slot.values():
        last_writers: List[int] = []
        readers_since_write: List[int] = []
        for step in sorted(by_step):
            group = by_step[step]
            writes = [tid for tid, w in group if w]
            reads = [tid for tid, w in group if not w]
            for tid in writes:
                for producer in last_writers:
                    dag.add_edge(producer, tid)  # write-after-write
                for reader in readers_since_write:
                    dag.add_edge(reader, tid)  # write-after-read
            for tid in reads:
                for producer in last_writers:
                    dag.add_edge(producer, tid)  # read-after-write
            if writes:
                last_writers = writes
                readers_since_write = list(reads)
            else:
                readers_since_write.extend(reads)


class _ChunkQueue:
    """Hierarchical priority queue over chunks.

    Orders chunks by :func:`~repro.core.hpds._priority_key`; the pick is
    a full scan, which is what the indexed scheduler's lazy-deletion
    heap replaces.
    """

    def __init__(self, chunks: List[int]) -> None:
        self._served: Dict[int, int] = {c: 0 for c in chunks}
        self._urgency: Dict[int, int] = {c: 0 for c in chunks}
        self._chunks = sorted(chunks)

    def decrease(self, chunk: int) -> None:
        self._served[chunk] += 1

    def set_urgency(self, chunk: int, value: int) -> None:
        self._urgency[chunk] = value

    def highest_with_flag(self, flags: Dict[int, bool]) -> int:
        """Highest-priority chunk whose flag is still true, or -1."""
        best = -1
        best_key = None
        for chunk in self._chunks:
            if not flags.get(chunk, False):
                continue
            key = _priority_key(
                self._served[chunk], self._urgency[chunk], chunk
            )
            if best_key is None or key < best_key:
                best_key = key
                best = chunk
        return best


def _heights(dag: DependencyDAG, order: List[int]) -> Dict[int, int]:
    """Critical-path height of each task: length of the longest
    dependency chain it heads.  Drives the urgency level of the priority
    hierarchy."""
    height: Dict[int, int] = {}
    for tid in reversed(order):
        height[tid] = 1 + max((height[s] for s in dag.succs[tid]), default=0)
    return height


def schedule_reference(dag: DependencyDAG) -> GlobalPipeline:
    """HPDS (Algorithm 1), literally."""
    order = dag.topological_order()  # raises CyclicDependencyError

    remaining: Set[int] = {t.task_id for t in dag.tasks}
    unscheduled_preds: Dict[int, int] = {
        t.task_id: len(dag.preds[t.task_id]) for t in dag.tasks
    }
    # Algorithm 1 removes scheduled nodes from G immediately (line 22), so
    # a task becomes data-ready as soon as its producers are scheduled —
    # possibly within the *current* sub-pipeline, which is how one
    # sub-pipeline packs multi-stage chains (Figure 5(c)).
    ready: Set[int] = {tid for tid, n in unscheduled_preds.items() if n == 0}

    height = _heights(dag, order)

    chunks = [c for c, members in dag.chunk_tasks.items() if members]
    queue = _ChunkQueue(chunks)
    chunk_remaining: Dict[int, List[int]] = {
        c: list(dag.chunk_tasks[c]) for c in chunks
    }
    ready_by_chunk: Dict[int, Set[int]] = {c: set() for c in chunks}
    # Communication-dependency arbitration: when several ready tasks of
    # different chunks contend for one link, the algorithm's step order
    # decides — a later-step task must not claim the link first, or the
    # earlier-step chain (and everything behind it) stalls.
    ready_by_link: Dict[str, Set[int]] = {}
    for tid in ready:
        ready_by_chunk[dag.task(tid).chunk].add(tid)
        ready_by_link.setdefault(dag.task(tid).link, set()).add(tid)

    def link_has_earlier_ready(task_id: int) -> bool:
        task = dag.task(task_id)
        key = (task.step, task_id)
        return any(
            (dag.task(other).step, other) < key
            for other in ready_by_link.get(task.link, ())
            if other != task_id
        )

    def refresh_urgency(chunk: int) -> None:
        queue.set_urgency(
            chunk,
            max((height[t] for t in ready_by_chunk[chunk]), default=0),
        )

    for chunk in chunks:
        refresh_urgency(chunk)

    sub_pipelines: List[SubPipeline] = []
    while remaining:
        current = SubPipeline(index=len(sub_pipelines))
        used_links: Set[str] = set()
        flags: Dict[int, bool] = {
            c: bool(chunk_remaining[c]) for c in chunks
        }
        while any(flags.values()):
            chunk = queue.highest_with_flag(flags)
            if chunk < 0:
                break
            node_list: List[int] = []
            for task_id in chunk_remaining[chunk]:
                if task_id not in ready:
                    continue
                link = dag.task(task_id).link
                if link in used_links:
                    continue
                if link_has_earlier_ready(task_id):
                    continue  # the link belongs to an earlier-step chain
                node_list.append(task_id)
                used_links.add(link)
            if not node_list:
                flags[chunk] = False
                continue
            current.task_ids.extend(node_list)
            picked = set(node_list)
            chunk_remaining[chunk] = [
                t for t in chunk_remaining[chunk] if t not in picked
            ]
            remaining.difference_update(picked)
            touched = {chunk}
            for task_id in node_list:
                ready.discard(task_id)
                ready_by_chunk[chunk].discard(task_id)
                ready_by_link[dag.task(task_id).link].discard(task_id)
                for succ in dag.succs[task_id]:
                    unscheduled_preds[succ] -= 1
                    if unscheduled_preds[succ] == 0:
                        ready.add(succ)
                        succ_task = dag.task(succ)
                        ready_by_chunk[succ_task.chunk].add(succ)
                        ready_by_link.setdefault(succ_task.link, set()).add(succ)
                        touched.add(succ_task.chunk)
                        # A chunk that regained eligible work is revisited.
                        flags[succ_task.chunk] = True
            for touched_chunk in touched:
                refresh_urgency(touched_chunk)
            queue.decrease(chunk)
        if not current.task_ids:
            raise RuntimeError(
                "HPDS made no progress — the ready set is empty although "
                f"{len(remaining)} task(s) remain (inconsistent DAG state)"
            )
        sub_pipelines.append(current)
    return GlobalPipeline(sub_pipelines=sub_pipelines, scheduler="hpds")


def merge_rank_reference(
    groups: List[EndpointGroup],
    rank: int,
    pipelining_allowance: int,
) -> Tuple[List[TBAssignment], int, int]:
    """Best-fit merge of one rank's endpoints by linear scan over open TBs."""
    merges_accepted = 0
    merges_rejected = 0
    open_tbs: List[TBAssignment] = []
    for group in groups:  # already sorted by window start
        best = None
        for tb in open_tbs:
            if tb.window[1] + pipelining_allowance < group.window[0]:
                if best is None or tb.window[1] > best.window[1]:
                    best = tb
        if best is None:
            if open_tbs:
                merges_rejected += 1
            best = TBAssignment(rank=rank)
            open_tbs.append(best)
        else:
            merges_accepted += 1
        best.groups.append(group)
    return open_tbs, merges_accepted, merges_rejected


@contextmanager
def reference_compiler() -> Iterator[None]:
    """Run every compile inside the block on the reference stages.

    Covers compiles reached indirectly too, such as the residual compile
    of :func:`repro.faults.build_resume_plan`.  Plan-cache hits bypass
    it, so compare through :class:`ResCCLCompiler` or this module's
    :func:`compile`, never through a cached backend.  Not thread-safe:
    it swaps the stage functions the production modules call.
    """
    with mock.patch.object(
        _dag, "_hazard_edges_fused", hazard_edges_reference
    ), mock.patch.object(
        _hpds, "_schedule_indexed", schedule_reference
    ), mock.patch.object(
        _tballoc, "_merge_rank_indexed", merge_rank_reference
    ):
        yield


def compile(
    algorithm: Union[str, AlgoProgram],
    cluster: Cluster,
    scheduler: str = "hpds",
    validate: bool = True,
) -> CompileResult:
    """A full, uncached compile on the reference stages."""
    with reference_compiler():
        return ResCCLCompiler(scheduler=scheduler, validate=validate).compile(
            algorithm, cluster
        )


__all__ = [
    "compile",
    "hazard_edges_reference",
    "merge_rank_reference",
    "reference_compiler",
    "schedule_reference",
]
