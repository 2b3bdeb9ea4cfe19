"""Minimal-heap binary search."""

import pytest

from repro.analysis.minheap import MinHeapResult, find_min_heap, measure_min_heap
from repro.core.chameleon import Chameleon
from repro.collections.wrappers import ChameleonList
from repro.workloads import BENCHMARKS
from repro.workloads.base import Workload


class TestFindMinHeap:
    def test_exact_threshold_search(self):
        threshold = 77_000
        attempts = []

        def attempt(limit):
            attempts.append(limit)
            return limit >= threshold

        found, probes = find_min_heap(attempt, low=1024, high=1 << 20,
                                      resolution=1024)
        assert threshold <= found < threshold + 1024
        assert probes == len(attempts)

    def test_grows_upper_bracket(self):
        found, _ = find_min_heap(lambda limit: limit >= 10_000,
                                 low=16, high=32, resolution=16)
        assert 10_000 <= found < 10_016

    def test_resolution_controls_probe_count(self):
        def attempt(limit):
            return limit >= 50_000
        _, coarse = find_min_heap(attempt, low=1024, high=1 << 20,
                                  resolution=16_384)
        _, fine = find_min_heap(attempt, low=1024, high=1 << 20,
                                resolution=256)
        assert coarse < fine

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            find_min_heap(lambda limit: True, low=100, high=100)

    def test_never_succeeding_run_raises(self):
        with pytest.raises(RuntimeError):
            find_min_heap(lambda limit: False, low=1, high=2,
                          resolution=1)


class TestLowerBracketVerification:
    """``low`` is probed, not assumed failing: a true minimum at or
    below the seed must still be found."""

    def test_finds_minimum_below_the_seed(self):
        threshold = 100
        attempts = []

        def attempt(limit):
            attempts.append(limit)
            return limit >= threshold

        found, probes = find_min_heap(attempt, low=1000, high=4000,
                                      resolution=8)
        assert threshold <= found < threshold + 8
        assert probes == len(attempts)

    def test_seed_equal_to_minimum(self):
        found, _ = find_min_heap(lambda limit: limit >= 1000,
                                 low=1000, high=4000, resolution=8)
        assert 1000 <= found < 1008

    def test_always_succeeding_attempt_bottoms_out(self):
        found, _ = find_min_heap(lambda limit: True, low=512, high=1024,
                                 resolution=64)
        assert found <= 64

    def test_failing_seed_skips_downward_probe(self):
        """When the doubling loop has already seen ``low`` fail, no
        downward probes are spent re-checking it."""
        attempts = []

        def attempt(limit):
            attempts.append(limit)
            return limit >= 100

        found, probes = find_min_heap(attempt, low=16, high=32,
                                      resolution=8)
        assert 100 <= found < 108
        assert probes == len(attempts)
        # Every probe below the first success came from the doubling
        # loop, none from the lower-bracket verification.
        assert min(attempts) == 32


class GrowingWorkload(Workload):
    name = "growing"

    def run(self, vm):
        lst = ChameleonList(vm, initial_capacity=64)
        lst.pin()
        for i in range(self.scaled(200)):
            lst.add(vm.allocate_data("Item", int_fields=4))


class TestMeasureMinHeap:
    def test_min_heap_brackets_peak_live(self):
        tool = Chameleon()
        result = measure_min_heap(tool, GrowingWorkload(), resolution=1024)
        assert isinstance(result, MinHeapResult)
        # The program cannot run below its live set, and the GC-overhead
        # guard keeps the answer within a small factor above it.
        assert result.min_heap_bytes >= result.unconstrained_peak * 0.9
        assert result.min_heap_bytes <= result.unconstrained_peak * 1.6
        assert result.probes > 0
        assert result.headroom >= 0.9

    def test_deterministic(self):
        tool = Chameleon()
        first = measure_min_heap(tool, GrowingWorkload(), resolution=2048)
        second = measure_min_heap(tool, GrowingWorkload(), resolution=2048)
        assert first.min_heap_bytes == second.min_heap_bytes

    def test_policy_changes_the_answer(self):
        """A smaller-footprint configuration needs a smaller heap."""
        from repro.core.apply import ReplacementMap
        from repro.runtime.vm import ImplementationChoice

        class ManySmallMaps(Workload):
            name = "maps"

            def run(self, vm):
                from repro.collections.wrappers import ChameleonMap
                holder = vm.allocate_data("H", ref_fields=1)
                vm.add_root(holder)
                def site():
                    return ChameleonMap(vm, src_type="HashMap")
                self._keys = []
                for _ in range(self.scaled(80)):
                    mapping = site()
                    holder.add_ref(mapping.heap_obj.obj_id)
                    for k in range(4):
                        mapping.put(k, k)
                    self._keys.append(mapping)

        tool = Chameleon()
        workload = ManySmallMaps()
        session = tool.profile(workload)
        policy = tool.build_policy(session.suggestions)
        assert len(policy) >= 1
        base = measure_min_heap(tool, workload, resolution=1024)
        optimized = measure_min_heap(tool, workload, policy=policy,
                                     resolution=1024)
        assert optimized.min_heap_bytes < base.min_heap_bytes


class TestRunAtMinimum:
    """``at_minimum`` is the run at the minimum, as an independent
    uninstrumented run under that limit measures it."""

    @pytest.mark.parametrize("workload_class", BENCHMARKS,
                             ids=lambda cls: cls.name)
    def test_matches_an_independent_run(self, workload_class):
        workload = workload_class(scale=0.05)
        result = measure_min_heap(Chameleon(), workload, resolution=32768)
        _, metrics = Chameleon().plain_run(
            workload.fresh(), heap_limit=result.min_heap_bytes)
        assert result.at_minimum == metrics
        assert result.at_minimum.completed
