"""Differential byte-identity of the interchangeable GC cores.

``MarkSweepGC`` ships two mark/account cores (``reference``, ``fast``)
that must be observably indistinguishable: same charged ticks, same
per-cycle statistics (including dict *insertion order*, which JSON
round-trips preserve), same freed-object sequence, same surviving heap.  This suite checks that contract differentially --
over the committed trace corpus (real workload operation mixes), over
generated fuzz traces, and over raw synthetic heap shapes driven
straight through ``collect()`` -- with the heap sanitizer attached to
the non-reference replays.
"""

import json
import pathlib
import random

import pytest

from repro.memory.gc import MarkSweepGC
from repro.memory.heap import SimHeap
from repro.verify.generate import generate_trace
from repro.verify.trace import BASELINE_IMPLS, Trace, replay_trace

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))

CORES = MarkSweepGC.CORES


def _replay(trace: Trace, core: str):
    impl = BASELINE_IMPLS[trace.kind]
    return replay_trace(trace, impl, gc_core=core, gc_detail=True,
                        sanitize=(core != "reference"))


def _assert_identical(trace: Trace) -> None:
    reference = _replay(trace, "reference")
    assert reference.gc_detail["cycles"], "replay never collected"
    for core in CORES[1:]:
        result = _replay(trace, core)
        assert not result.violations, \
            f"{core}: sanitizer violations {result.violations}"
        assert result.ticks == reference.ticks, f"{core}: tick divergence"
        assert result.outcomes == reference.outcomes, \
            f"{core}: observable outcome divergence"
        # Full GC record, sweep order included.  Comparing the JSON
        # serialisation also pins dict insertion order (type
        # distributions, per-context stats), the strictest observable.
        assert json.dumps(result.gc_detail["freed_ids"]) \
            == json.dumps(reference.gc_detail["freed_ids"]), \
            f"{core}: freed-object sequence divergence"
        assert result.gc_detail["surviving_ids"] \
            == reference.gc_detail["surviving_ids"], \
            f"{core}: surviving-heap divergence"
        assert json.dumps(result.gc_detail["cycles"]) \
            == json.dumps(reference.gc_detail["cycles"]), \
            f"{core}: per-cycle GC stats divergence"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_traces_identical_across_cores(path):
    _assert_identical(Trace.from_json(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("adt", ["list", "set", "map"])
@pytest.mark.parametrize("seed", range(6))
def test_generated_traces_identical_across_cores(adt, seed):
    _assert_identical(generate_trace(adt, seed=seed, n_ops=40))


# ----------------------------------------------------------------------
# Raw-heap property test: random object graphs through collect()
# ----------------------------------------------------------------------


def _random_heap(seed: int) -> SimHeap:
    rng = random.Random(seed)
    heap = SimHeap()
    objects = [heap.allocate(rng.choice(["A", "B", "C"]),
                             rng.choice([16, 24, 48]))
               for _ in range(rng.randrange(30, 120))]
    for obj in objects:
        for _ in range(rng.randrange(0, 4)):
            obj.add_ref(rng.choice(objects).obj_id)
    for obj in rng.sample(objects, rng.randrange(1, 8)):
        heap.add_root(obj)
    return heap


def _collect_record(seed: int, core: str) -> dict:
    import dataclasses

    heap = _random_heap(seed)
    charged = []
    gc = MarkSweepGC(heap, charge=charged.append, core=core)
    freed = []
    cycles = []
    for tick in range(3):
        stats = gc.collect(tick=tick)
        cycles.append(dataclasses.asdict(stats))
        # Churn between cycles: drop a root, add fresh garbage.
        if heap._roots:
            first_root = heap.get(next(iter(heap._roots)))
            heap.remove_root(first_root)
        heap.allocate("Churn", 16)
    freed = [heap.total_freed_objects, heap.total_freed_bytes]
    return {
        "charged": charged,
        "cycles": cycles,
        "freed": freed,
        "surviving": sorted(heap._objects),
        "live_bytes": gc.live_bytes_estimate(),
    }


@pytest.mark.parametrize("seed", range(10))
def test_random_heaps_identical_across_cores(seed):
    reference = _collect_record(seed, "reference")
    for core in CORES[1:]:
        record = _collect_record(seed, core)
        assert json.dumps(record) == json.dumps(reference), \
            f"core {core!r} diverges from reference on seed {seed}"

