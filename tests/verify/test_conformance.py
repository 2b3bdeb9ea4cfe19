"""Cross-core conformance harness for the compiled scenario library.

Every scenario in :mod:`repro.workloads.compiled` must uphold the
guarantees the verification subsystem established for hand-written
replays before it may claim to be a workload:

(a) **source-trace anchor** -- every source trace of the scenario diffs
    clean (:func:`repro.verify.trace.diff_trace` with the heap
    sanitizer) across its eligible implementations.  The oracle is the
    implementations agreeing with the baseline, not the executor
    agreeing with a hand-written copy of itself: replay *is* compiled
    execution, so comparing the two would compare the code with itself;
(b) **core-grid identity** -- a full scenario run produces a
    byte-identical tick count and GC-cycle record on every
    ``gc_core`` x ``vm_core`` combination;
(c) **sanitizer-clean** -- a full scenario run under a tight GC
    threshold triggers real collections and zero heap-soundness
    violations.

New scenarios added to ``SCENARIOS`` are picked up automatically; there
is no way to register a scenario that dodges this suite.
"""

import dataclasses

import pytest

from repro.memory.gc import MarkSweepGC
from repro.runtime.vm import RuntimeEnvironment
from repro.verify.sanitizer import HeapSanitizer
from repro.verify.trace import diff_trace
from repro.workloads.compiled import SCENARIOS, make_scenario

SCENARIO_NAMES = sorted(SCENARIOS)

GC_CORES = MarkSweepGC.CORES
VM_CORES = ("reference", "fast")


def _scenario_observables(name, gc_core, vm_core):
    """One full scenario run's simulated observables under real GC."""
    vm = RuntimeEnvironment(gc_threshold_bytes=64 * 1024, gc_core=gc_core,
                            vm_core=vm_core)
    make_scenario(name).run(vm)
    vm.finish()
    return {
        "ticks": vm.now,
        "cycles": [dataclasses.asdict(cycle)
                   for cycle in vm.timeline.cycles],
    }


class TestScenarioLibraryShape:
    def test_at_least_eight_scenarios(self):
        assert len(SCENARIOS) >= 8

    def test_all_three_families_represented(self):
        families = {spec.family for spec in SCENARIOS.values()}
        assert {"heavy-tail", "phase-shift", "multi-tenant"} <= families

    def test_registered_name_matches_key(self):
        for name, spec in SCENARIOS.items():
            assert spec.name == name
            assert make_scenario(name).name == name


@pytest.mark.parametrize("name", SCENARIO_NAMES)
class TestConformance:
    def test_replay_anchor(self, name):
        """(a): every source trace diffs clean across implementations."""
        for trace in make_scenario(name).source_traces():
            report = diff_trace(trace, sanitize=True)
            assert len(report.results) > 1
            assert report.ok, report.summary()

    def test_core_grid_byte_identical(self, name):
        """(b): ticks and GC record equal on every core combination."""
        reference = _scenario_observables(name, "reference", "reference")
        assert reference["cycles"], "scenario must trigger real GC"
        for gc_core in GC_CORES:
            for vm_core in VM_CORES:
                if (gc_core, vm_core) == ("reference", "reference"):
                    continue
                leg = _scenario_observables(name, gc_core, vm_core)
                assert leg == reference, (gc_core, vm_core)

    def test_sanitizer_clean(self, name):
        """(c): a tight-threshold run collects repeatedly, soundly."""
        vm = RuntimeEnvironment(gc_threshold_bytes=32 * 1024)
        sanitizer = HeapSanitizer()
        sanitizer.attach(vm)
        make_scenario(name).run(vm)
        vm.finish()
        assert len(vm.timeline.cycles) >= 2
        assert sanitizer.violations == []

    def test_deterministic_across_runs(self, name):
        """Same seed, same scale -> byte-identical repeat runs."""
        first = _scenario_observables(name, "fast", "fast")
        second = _scenario_observables(name, "fast", "fast")
        assert first == second
