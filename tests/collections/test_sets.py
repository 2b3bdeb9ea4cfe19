"""Set implementations: hash/array semantics and footprints."""

import pytest

from repro.collections.sets import (ArraySetImpl, HashSetImpl, LazySetImpl,
                                    LinkedHashSetImpl, SizeAdaptingSetImpl)


@pytest.fixture(params=[HashSetImpl, LinkedHashSetImpl, LazySetImpl,
                        ArraySetImpl, SizeAdaptingSetImpl])
def any_set(request, vm):
    return request.param(vm)


class TestSetSemantics:
    """Behaviour shared by every interchangeable set implementation --
    the paper's requirement that alternatives 'have the same logical
    behavior'."""

    def test_add_returns_newness(self, any_set):
        assert any_set.add("a") is True
        assert any_set.add("a") is False
        assert any_set.size == 1

    def test_contains(self, any_set):
        any_set.add("x")
        assert any_set.contains("x")
        assert not any_set.contains("y")

    def test_remove(self, any_set):
        any_set.add("x")
        assert any_set.remove_value("x") is True
        assert any_set.remove_value("x") is False
        assert any_set.size == 0

    def test_clear(self, any_set):
        for value in "abc":
            any_set.add(value)
        any_set.clear()
        assert any_set.size == 0
        assert not any_set.contains("a")

    def test_no_duplicates_in_iteration(self, any_set):
        for value in ("a", "b", "a", "c", "b"):
            any_set.add(value)
        assert sorted(any_set.iter_values()) == ["a", "b", "c"]

    def test_many_elements(self, any_set):
        for i in range(100):
            any_set.add(i)
        assert any_set.size == 100
        assert all(any_set.contains(i) for i in range(100))
        assert not any_set.contains(100)

    def test_heap_object_elements_by_identity(self, any_set, vm):
        a = vm.allocate_data("Rec")
        b = vm.allocate_data("Rec")
        any_set.add(a)
        assert any_set.contains(a)
        assert not any_set.contains(b)

    def test_footprint_invariant(self, any_set):
        for i in range(20):
            any_set.add(i)
            triple = any_set.adt_footprint()
            assert triple.live >= triple.used >= triple.core >= 0


class TestHashSet:
    def test_entry_objects_on_heap(self, vm):
        hash_set = HashSetImpl(vm)
        hash_set.add("a")
        internals = [vm.heap.get(i) for i in hash_set.adt_internal_ids()]
        type_names = {obj.type_name for obj in internals}
        assert "HashMap$Entry" in type_names
        assert "Object[]" in type_names

    def test_resize_doubles_table(self, vm):
        hash_set = HashSetImpl(vm, initial_capacity=4)
        for i in range(5):
            hash_set.add(i)
        assert hash_set.capacity == 8

    def test_footprint_includes_entries_and_slack(self, vm):
        hash_set = HashSetImpl(vm, initial_capacity=16)
        for i in range(2):
            hash_set.add(i)
        triple = hash_set.adt_footprint()
        # 24 bytes per entry (section 2.3) are part of live and used.
        assert triple.live - triple.slack == triple.used
        assert triple.slack > 0  # 14 unused table slots

    def test_iteration_order_deterministic(self, vm):
        a = HashSetImpl(vm)
        b = HashSetImpl(vm)
        for i in range(10):
            a.add(i)
            b.add(i)
        assert list(a.iter_values()) == list(b.iter_values())


class TestLinkedHashSet:
    def test_insertion_order_iteration(self, vm):
        linked = LinkedHashSetImpl(vm)
        for value in (3, 1, 2):
            linked.add(value)
        assert list(linked.iter_values()) == [3, 1, 2]

    def test_heavier_entries_than_hash_set(self, vm):
        plain = HashSetImpl(vm, initial_capacity=16)
        linked = LinkedHashSetImpl(vm, initial_capacity=16)
        for i in range(8):
            plain.add(i)
            linked.add(i)
        assert linked.adt_footprint().live > plain.adt_footprint().live

    def test_iteration_skips_empty_buckets(self, vm):
        """The linked variant's iteration cost is independent of table
        capacity -- its advantage for sparse sets."""
        sparse_linked = LinkedHashSetImpl(vm, initial_capacity=256)
        sparse_plain = HashSetImpl(vm, initial_capacity=256)
        sparse_linked.add(1)
        sparse_plain.add(1)
        start = vm.now
        list(sparse_linked.iter_values())
        linked_cost = vm.now - start
        start = vm.now
        list(sparse_plain.iter_values())
        plain_cost = vm.now - start
        assert linked_cost < plain_cost


class TestLazySet:
    def test_no_table_until_update(self, vm):
        lazy = LazySetImpl(vm)
        assert lazy.capacity == 0
        assert not lazy.contains("x")  # read on unallocated table
        assert list(lazy.adt_internal_ids()) == []

    def test_first_add_allocates(self, vm):
        lazy = LazySetImpl(vm)
        lazy.add("x")
        assert lazy.capacity > 0
        assert lazy.contains("x")

    def test_empty_lazy_smaller_than_eager(self, vm):
        assert (LazySetImpl(vm).adt_footprint().live
                < HashSetImpl(vm).adt_footprint().live)


class TestArraySet:
    def test_no_per_element_objects(self, vm):
        array_set = ArraySetImpl(vm, initial_capacity=4)
        array_set.add("a")
        internals = [vm.heap.get(i) for i in array_set.adt_internal_ids()]
        assert all(obj.type_name == "Object[]" for obj in internals)

    def test_smaller_than_hash_set_when_small(self, vm):
        """Table 2: 'ArraySet more efficient than an HashSet' for small
        sizes."""
        hash_set = HashSetImpl(vm)
        array_set = ArraySetImpl(vm)
        for i in range(4):
            hash_set.add(i)
            array_set.add(i)
        assert array_set.adt_footprint().live < hash_set.adt_footprint().live

    def test_contains_faster_than_hashing_when_tiny(self, vm):
        hash_set = HashSetImpl(vm)
        array_set = ArraySetImpl(vm)
        hash_set.add("k")
        array_set.add("k")
        start = vm.now
        array_set.contains("k")
        scan_cost = vm.now - start
        start = vm.now
        hash_set.contains("k")
        hash_cost = vm.now - start
        assert scan_cost < hash_cost

    def test_contains_slower_than_hashing_when_large(self, vm):
        """The crossover that motivates SizeAdaptingSet."""
        hash_set = HashSetImpl(vm)
        array_set = ArraySetImpl(vm)
        for i in range(200):
            hash_set.add(i)
            array_set.add(i)
        start = vm.now
        array_set.contains(199)
        scan_cost = vm.now - start
        start = vm.now
        hash_set.contains(199)
        hash_cost = vm.now - start
        assert hash_cost < scan_cost


class TestSizeAdaptingSet:
    def test_starts_as_array(self, vm):
        hybrid = SizeAdaptingSetImpl(vm, conversion_threshold=4)
        assert not hybrid.is_hashed
        assert hybrid.conversions == 0

    def test_converts_past_threshold(self, vm):
        hybrid = SizeAdaptingSetImpl(vm, conversion_threshold=4)
        for i in range(5):
            hybrid.add(i)
        assert hybrid.is_hashed
        assert hybrid.conversions == 1
        assert all(hybrid.contains(i) for i in range(5))

    def test_conversion_is_one_way(self, vm):
        hybrid = SizeAdaptingSetImpl(vm, conversion_threshold=2)
        for i in range(5):
            hybrid.add(i)
        for i in range(5):
            hybrid.remove_value(i)
        assert hybrid.is_hashed
        assert hybrid.conversions == 1

    def test_iterator_opened_before_conversion_sees_the_contents(self, vm):
        hybrid = SizeAdaptingSetImpl(vm, conversion_threshold=2)
        hybrid.add(0)
        values = hybrid.iter_values()
        hybrid.add(1)
        hybrid.add(2)  # converts before the first next()
        assert hybrid.is_hashed
        assert sorted(values) == [0, 1, 2]

    def test_duplicates_do_not_trigger_conversion(self, vm):
        hybrid = SizeAdaptingSetImpl(vm, conversion_threshold=2)
        for _ in range(10):
            hybrid.add("same")
        assert not hybrid.is_hashed

    def test_invalid_threshold(self, vm):
        with pytest.raises(ValueError):
            SizeAdaptingSetImpl(vm, conversion_threshold=0)

    def test_footprint_includes_inner(self, vm):
        hybrid = SizeAdaptingSetImpl(vm, conversion_threshold=100)
        for i in range(3):
            hybrid.add(i)
        inner_ids = set(hybrid.adt_internal_ids())
        assert hybrid._inner.anchor_id in inner_ids
        assert hybrid.adt_footprint().live > hybrid._inner.adt_footprint().live

    def test_old_array_becomes_garbage_after_conversion(self, vm):
        hybrid = SizeAdaptingSetImpl(vm, conversion_threshold=2)
        hybrid.anchor and vm.add_root(hybrid.anchor)
        for i in range(3):
            hybrid.add(i)
        vm.collect()
        # Inner is now a hash set; old ArraySet anchor was swept.
        live_types = {obj.type_name for obj in vm.heap.objects()}
        assert "ArraySet" not in live_types
