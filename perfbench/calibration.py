"""Host-speed calibration for the timed metrics.

The benchmark's host is a shared VM whose speed is not steady: the same
pure-Python code runs up to 1.8x slower at times, in wall and CPU time
alike, with no steal time to account for it.  Each vCPU changes speed
every second or so, and independently of the other, and slow spells of
minutes come on top.  A run of the benchmark averages out the fast
changes but not the slow ones, so raw round times of runs made minutes
apart differ by the host, not by the program.

A *slice* is a fixed piece of pure-Python work of the kind the package
does: small-object allocation, attribute access, method calls, dict and
list operations, stack walking, and lookups in tables too large for the
caches.  It lives in the benchmark, so a change to the package does not
change it.  The runner times slices between the operations of every
round, so they sample the host's speed while the rounds run, and scales
the run's times by ``REFERENCE_SLICE_S / mean slice time``: the time the
work would have taken on a host that runs one slice in
``REFERENCE_SLICE_S`` seconds.

The large tables are an ``array``, which holds no references for
Python's cyclic GC to traverse, and an int-only dict, which it does not
track, so they do not slow the package's own collections.  Their resident
memory is recorded, so that the runner can leave it out of the peak RSS.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from array import array
from typing import List, Optional

REFERENCE_SLICE_S = 0.02
"""The slice time that scaled seconds refer to: about one slice when the
host runs fast (a 2-vCPU Intel Xeon VM, Python 3.11)."""

_TABLE_LEVELS = 19
"""Levels of the large search table: 2**19 - 1 keys, 4 MiB."""


class _Node:
    __slots__ = ("key", "left", "right", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.left = None
        self.right = None
        self.count = 1


class _Tree:
    def __init__(self) -> None:
        self.root = None

    def insert(self, key: int) -> None:
        if self.root is None:
            self.root = _Node(key)
            return
        node = self.root
        while key != node.key:
            child = node.left if key < node.key else node.right
            if child is None:
                child = _Node(key)
                if key < node.key:
                    node.left = child
                else:
                    node.right = child
                return
            node = child
        node.count += 1

    def total(self) -> int:
        stack, node, total = [], self.root, 0
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            total += node.count
            node = node.right
        return total


def _search_table(levels: int, stride: int) -> array:
    """The keys ``0, stride, 2 * stride, ...`` laid out as a perfect
    implicit search tree of ``levels`` levels: the children of slot ``i``
    are slots ``2i`` and ``2i + 1``; slot 0 is unused.  The node at
    position ``p`` of depth ``d`` has in-order rank
    ``(2p + 1) * 2**(levels - 1 - d) - 1``."""
    out = array("q", [0]) * (1 << levels)
    for depth in range(levels):
        step = 1 << (levels - depth)
        first = (step >> 1) - 1
        out[1 << depth:2 << depth] = array(
            "q", range(first * stride, ((1 << levels) - 1) * stride,
                       step * stride))
    return out


def _resident_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


class Calibrator:
    """Times slices and turns their mean into a host-speed factor.

    The tables are built on first use, so a process that never calibrates
    does not pay for them."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.cpu = 0.0
        """Process CPU seconds spent in slices, to take out of a round's
        CPU time."""
        self.resident_mib = 0.0
        """Resident memory the tables added when they were built."""
        self._table: Optional[array] = None
        self._counts: dict = {}
        self._expected: Optional[int] = None

    def _build(self) -> None:
        before = _resident_mib()
        self._table = _search_table(_TABLE_LEVELS, 1 << 21)
        self._counts = {key: 0 for key in range(0, 1 << 17, 4)}
        self._expected = self._work()
        self.resident_mib = max(0.0, _resident_mib() - before)

    def _work(self) -> int:
        table, counts, limit = self._table, self._counts, len(self._table)
        state, total = 12345, 0
        for _ in range(2):
            tree, groups = _Tree(), {}
            for i in range(1200):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                tree.insert(state % 3000)
                groups.setdefault(state % 251, []).append(i)
                key = (state << 9) & ((1 << 40) - 1)
                slot = 1
                while slot < limit:
                    slot = 2 * slot + (key > table[slot])
                total += slot & 7
                key = state % (1 << 17)
                if key in counts:
                    counts[key] = counts[key] + 1
                    counts[key] -= 1
                total += len([i, key, str(i)])
            total += tree.total() + sum(len(v) for v in groups.values())
            frame = sys._getframe()
            while frame is not None:
                frame = frame.f_back
        return total

    def slice(self, count: int = 1) -> None:
        """Time ``count`` slices, with Python's cyclic GC off so that the
        heap the package leaves behind does not change a slice's work."""
        if self._table is None:
            self._build()
        enabled = gc.isenabled()
        gc.disable()
        cpu = time.process_time()
        try:
            for _ in range(count):
                start = time.perf_counter()
                result = self._work()
                self.times.append(time.perf_counter() - start)
                if result != self._expected:
                    raise RuntimeError("calibration slice gave a wrong "
                                       "result")
        finally:
            self.cpu += time.process_time() - cpu
            if enabled:
                gc.enable()

    def factor(self, first: int = 0) -> float:
        """The scale that turns seconds measured while slices ``first``
        onwards ran into seconds at the reference speed."""
        times = self.times[first:]
        return REFERENCE_SLICE_S * len(times) / sum(times)
