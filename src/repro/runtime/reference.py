"""Test-only oracle for the simulator's rate solver.

:class:`ReferenceFlowNetwork` is the brute-force allocator: every
reallocation pass recomputes the share of every occupied edge and
re-rates every live flow, with no share cache, no dirty-edge tracking,
no decrease-only admission pass and no numpy re-rater.  It is slow and
obviously correct, and the production
:class:`~repro.runtime.flows.FlowNetwork` must reproduce its rates
exactly, so every simulation must report bit-identical physical results
on either one (only the work counters in
``SimCounters.WORK_COUNTER_FIELDS`` may differ).

Tests and ``benchmarks/`` reach the oracle through :func:`simulate` or
the :func:`reference_solver` context manager; no production module
imports this one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, List

from . import simulator as _simulator
from .flows import Flow, FlowNetwork
from .metrics import SimReport
from .plan import ExecutionPlan


class ReferenceFlowNetwork(FlowNetwork):
    """Brute-force rate allocator: ``O(edges + flows)`` per pass."""

    def _reallocate(
        self, dirty_edges: Iterable[str], now: float, ordered: bool = True
    ) -> List[Flow]:
        self.reallocations += 1
        self.scalar_passes += 1
        shares = {e: self._edge_share(e) for e in self._edge_flows}
        changed = self._rerate_scalar(
            list(self._flows.values()), shares.__getitem__, now
        )
        return self._account(changed, ordered)

    def _rerate_admission(self, flow: Flow, now: float) -> List[Flow]:
        return self._reallocate(flow.edges, now, ordered=False)


@contextmanager
def reference_solver() -> Iterator[None]:
    """Run every simulator built inside the block on the reference solver.

    Covers simulators built indirectly too, such as the fallback and
    resume runs of :func:`repro.faults.run_with_faults`.  Not
    thread-safe: it swaps the network class the simulator module builds.
    """
    saved = _simulator.FlowNetwork
    _simulator.FlowNetwork = ReferenceFlowNetwork
    try:
        yield
    finally:
        _simulator.FlowNetwork = saved


def simulate(plan: ExecutionPlan, **kwargs) -> SimReport:
    """:func:`repro.runtime.simulate` on the reference solver."""
    with reference_solver():
        return _simulator.simulate(plan, **kwargs)


__all__ = ["ReferenceFlowNetwork", "reference_solver", "simulate"]
