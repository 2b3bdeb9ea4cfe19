"""Minimal-heap-size search: the measurement behind Fig. 6.

The paper evaluates every fix by "the minimal-heap size required to run
the program" (section 5.2, step 6).  The simulated VM gives that measure a
precise meaning: the smallest heap byte limit under which the workload
completes without :class:`~repro.memory.heap.OutOfMemoryError` (the VM
collects when the limit would be exceeded and raises only if the live set
itself cannot fit).

:func:`find_min_heap` binary-searches the limit.  Because the workloads
are deterministic, the search is exact down to the requested resolution.
The search is expressed as a *probe plan* (:func:`_search_steps`, a
generator that yields limits and receives outcomes) driven one probe at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.apply import ReplacementMap
from repro.core.chameleon import Chameleon, RunMetrics
from repro.memory.heap import OutOfMemoryError
from repro.workloads.base import Workload

__all__ = ["MinHeapResult", "find_min_heap", "measure_min_heap"]

#: Hard ceiling on the doubled upper bracket -- beyond this the workload
#: is considered to never complete.
_LIMIT_CEILING = 1 << 40


@dataclass(frozen=True)
class MinHeapResult:
    """Outcome of one minimal-heap search."""

    min_heap_bytes: int
    probes: int
    unconstrained_peak: int
    at_minimum: RunMetrics
    """Metrics of the run at ``min_heap_bytes``: the search's final
    successful probe, so reading them costs no extra run."""

    @property
    def headroom(self) -> float:
        """min-heap / peak-live ratio (>1: GC needs slack to operate)."""
        if self.unconstrained_peak == 0:
            return 1.0
        return self.min_heap_bytes / self.unconstrained_peak


def _search_steps(low: int, high: int, resolution: int):
    """The probe plan: yields the next limit, receives its outcome.

    Returns ``(min_heap_bytes, probes)`` via ``StopIteration``.  Both
    brackets are *verified*, not assumed: ``high`` is doubled until it
    succeeds, and ``low`` is probed and halved downward while it
    succeeds.  An assumed-failing ``low`` that actually completes would
    otherwise inflate the reported minimum to ``low + resolution`` -- a
    seed of ``peak // 2`` then understates every Fig. 6 improvement whose
    true minimum sits at or below the seed.
    """
    probes = 0
    low_known_failing = False
    while True:
        probes += 1
        if (yield high):
            break
        low = high
        low_known_failing = True
        high *= 2
        if high > _LIMIT_CEILING:
            raise RuntimeError("workload does not complete in any heap")
    if not low_known_failing:
        # Verify the lower bracket: halve downward while it succeeds.
        while low > 0:
            probes += 1
            if not (yield low):
                break
            high = low
            low //= 2
    while high - low > resolution:
        middle = (low + high) // 2
        probes += 1
        if (yield middle):
            high = middle
        else:
            low = middle
    return high, probes


def find_min_heap(attempt: Callable[[int], bool], low: int, high: int,
                  resolution: int = 2048) -> tuple:
    """Search the smallest ``limit`` for which ``attempt(limit)``
    succeeds.

    Args:
        attempt: Runs the program under a byte limit; True on completion,
            False on OOM.  Must be deterministic.
        low: Initial lower bracket (verified; the search probes below it
            when it unexpectedly succeeds).
        high: Upper bracket; doubled until it succeeds.
        resolution: Terminate when the bracket is this tight.

    Returns:
        ``(min_heap_bytes, probes)``.  The returned limit is always one
        the plan probed successfully.
    """
    if low < 0 or high <= low:
        raise ValueError("need 0 <= low < high")
    plan = _search_steps(low, high, resolution)
    try:
        limit = next(plan)
        while True:
            limit = plan.send(attempt(limit))
    except StopIteration as stop:
        return stop.value


def min_heap_probe(tool: Chameleon, workload: Workload,
                   policy: Optional[ReplacementMap],
                   limit: int) -> Optional[RunMetrics]:
    """One minimal-heap probe on a fresh workload instance: the run's
    metrics if it completes under ``limit``, ``None`` if it OOMs."""
    try:
        return tool.plain_run(workload.fresh(), policy=policy,
                              heap_limit=limit)[1]
    except OutOfMemoryError:
        return None


def measure_min_heap(tool: Chameleon, workload: Workload,
                     policy: Optional[ReplacementMap] = None,
                     resolution: int = 2048) -> MinHeapResult:
    """Minimal heap for ``workload`` under ``tool``'s VM configuration.

    The unconstrained peak-live footprint seeds the search bracket: the
    true minimum is at least the peak live set and (for these workloads)
    at most a small multiple of it.  The metrics of the probe that ran
    at the minimum come back as :attr:`MinHeapResult.at_minimum`.
    """
    _, metrics = tool.plain_run(workload.fresh(), policy=policy)
    peak = max(metrics.peak_live_bytes, resolution)
    completed: Dict[int, RunMetrics] = {}

    def attempt(limit: int) -> bool:
        probe = min_heap_probe(tool, workload, policy, limit)
        if probe is not None:
            completed[limit] = probe
        return probe is not None

    min_heap, probes = find_min_heap(attempt, low=max(peak // 2, 1),
                                     high=peak * 2, resolution=resolution)
    return MinHeapResult(min_heap_bytes=min_heap, probes=probes,
                         unconstrained_peak=peak,
                         at_minimum=completed[min_heap])
