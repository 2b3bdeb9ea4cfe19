"""Map implementations: hash/array semantics and footprints."""

import pytest

from repro.collections.maps import (ArrayMapImpl, HashMapImpl, LazyMapImpl,
                                    LinkedHashMapImpl, SizeAdaptingMapImpl)


@pytest.fixture(params=[HashMapImpl, LinkedHashMapImpl, LazyMapImpl,
                        ArrayMapImpl, SizeAdaptingMapImpl])
def any_map(request, vm):
    return request.param(vm)


class TestMapSemantics:
    def test_put_get(self, any_map):
        assert any_map.put("k", 1) is None
        assert any_map.get("k") == 1
        assert any_map.get("missing") is None

    def test_put_replaces_and_returns_old(self, any_map):
        any_map.put("k", 1)
        assert any_map.put("k", 2) == 1
        assert any_map.get("k") == 2
        assert any_map.size == 1

    def test_remove_key(self, any_map):
        any_map.put("k", 1)
        assert any_map.remove_key("k") == 1
        assert any_map.remove_key("k") is None
        assert any_map.size == 0

    def test_contains_key_and_value(self, any_map):
        any_map.put("k", "v")
        assert any_map.contains_key("k")
        assert not any_map.contains_key("v")
        assert any_map.contains_value("v")
        assert not any_map.contains_value("k")

    def test_clear(self, any_map):
        for i in range(5):
            any_map.put(i, i)
        any_map.clear()
        assert any_map.size == 0
        assert any_map.get(0) is None

    def test_iter_items_covers_all(self, any_map):
        expected = {i: i * 10 for i in range(20)}
        for key, value in expected.items():
            any_map.put(key, value)
        assert dict(any_map.iter_items()) == expected
        assert sorted(any_map.iter_keys()) == sorted(expected)
        assert sorted(any_map.iter_values()) == sorted(expected.values())

    def test_heap_object_keys_by_identity(self, any_map, vm):
        a, b = vm.allocate_data("K"), vm.allocate_data("K")
        any_map.put(a, "va")
        assert any_map.get(a) == "va"
        assert any_map.get(b) is None

    def test_footprint_invariant_under_mixed_ops(self, any_map):
        for i in range(25):
            any_map.put(i, i)
            if i % 3 == 0:
                any_map.remove_key(i // 2)
            triple = any_map.adt_footprint()
            assert triple.live >= triple.used >= triple.core >= 0


class TestHashMap:
    def test_default_capacity_and_resize(self, vm):
        mapping = HashMapImpl(vm)
        assert mapping.capacity == 16
        for i in range(13):  # > 16 * 0.75
            mapping.put(i, i)
        assert mapping.capacity == 32

    def test_entry_bytes_are_the_dominant_overhead(self, vm):
        """Section 2.3: shrinking initial capacity cannot fix HashMap
        bloat because each entry object alone is 24 bytes."""
        tiny = HashMapImpl(vm, initial_capacity=1)
        for i in range(8):
            tiny.put(i, i)
        triple = tiny.adt_footprint()
        entry_bytes = 8 * vm.model.hash_entry_size()
        assert entry_bytes > triple.live * 0.4

    def test_values_referenced_from_entries(self, vm):
        mapping = HashMapImpl(vm)
        value = vm.allocate_data("V")
        mapping.put("k", value)
        entry_objs = [vm.heap.get(i) for i in mapping.adt_internal_ids()
                      if vm.heap.get(i).type_name == "HashMap$Entry"]
        assert len(entry_objs) == 1
        assert value.obj_id in entry_objs[0].refs

    def test_replacing_value_swaps_entry_ref(self, vm):
        mapping = HashMapImpl(vm)
        old = vm.allocate_data("V")
        new = vm.allocate_data("V")
        mapping.put("k", old)
        mapping.put("k", new)
        entry = next(vm.heap.get(i) for i in mapping.adt_internal_ids()
                     if vm.heap.get(i).type_name == "HashMap$Entry")
        assert new.obj_id in entry.refs
        assert old.obj_id not in entry.refs


class TestLinkedHashMap:
    def test_insertion_order(self, vm):
        mapping = LinkedHashMapImpl(vm)
        for key in (9, 1, 5):
            mapping.put(key, key)
        assert [k for k, _ in mapping.iter_items()] == [9, 1, 5]

    def test_heavier_than_hash_map(self, vm):
        plain = HashMapImpl(vm, initial_capacity=16)
        linked = LinkedHashMapImpl(vm, initial_capacity=16)
        for i in range(8):
            plain.put(i, i)
            linked.put(i, i)
        assert linked.adt_footprint().live > plain.adt_footprint().live


class TestLazyMap:
    def test_no_table_until_put(self, vm):
        lazy = LazyMapImpl(vm)
        assert lazy.capacity == 0
        assert lazy.get("x") is None
        assert not lazy.contains_key("x")
        assert lazy.remove_key("x") is None

    def test_empty_lazy_map_beats_hash_map(self, vm):
        """The FindBugs fix: lazily allocated maps cost only the anchor
        while they stay empty."""
        assert (LazyMapImpl(vm).adt_footprint().live
                < HashMapImpl(vm).adt_footprint().live)

    def test_behaves_normally_once_used(self, vm):
        lazy = LazyMapImpl(vm)
        lazy.put("k", "v")
        assert lazy.capacity == 16
        assert lazy.get("k") == "v"


class TestArrayMap:
    def test_interleaved_array_layout(self, vm):
        mapping = ArrayMapImpl(vm, initial_capacity=4)
        internals = [vm.heap.get(i) for i in mapping.adt_internal_ids()]
        assert len(internals) == 1
        array = internals[0]
        assert array.type_name == "Object[]"
        assert array.size == vm.model.ref_array_size(8)  # 2 slots per pair

    def test_no_entry_objects(self, vm):
        mapping = ArrayMapImpl(vm)
        for i in range(4):
            mapping.put(i, i)
        types = {vm.heap.get(i).type_name
                 for i in mapping.adt_internal_ids()}
        assert types == {"Object[]"}

    def test_small_array_map_beats_hash_map(self, vm):
        """The TVLA replacement: a 5-entry ArrayMap is far smaller than a
        5-entry HashMap."""
        hash_map = HashMapImpl(vm)
        array_map = ArrayMapImpl(vm)
        for i in range(5):
            hash_map.put(i, i)
            array_map.put(i, i)
        assert (array_map.adt_footprint().live
                < 0.5 * hash_map.adt_footprint().live)

    def test_growth(self, vm):
        mapping = ArrayMapImpl(vm, initial_capacity=2)
        for i in range(5):
            mapping.put(i, i)
        assert mapping.capacity >= 5
        assert mapping.get(4) == 4

    def test_remove_compacts(self, vm):
        mapping = ArrayMapImpl(vm)
        for i in range(3):
            mapping.put(i, i * 10)
        assert mapping.remove_key(1) == 10
        assert mapping.peek_items() == [(0, 0), (2, 20)]


class TestSizeAdaptingMap:
    def test_conversion_at_threshold(self, vm):
        hybrid = SizeAdaptingMapImpl(vm, conversion_threshold=3)
        for i in range(3):
            hybrid.put(i, i)
        assert not hybrid.is_hashed
        hybrid.put(3, 3)
        assert hybrid.is_hashed
        assert all(hybrid.get(i) == i for i in range(4))

    def test_default_threshold_is_sixteen(self, vm):
        """Section 2.3: TVLA's best conversion bound was 16."""
        assert SizeAdaptingMapImpl(vm).conversion_threshold == 16

    def test_small_stays_array_shaped(self, vm):
        hybrid = SizeAdaptingMapImpl(vm, conversion_threshold=16)
        hash_map = HashMapImpl(vm)
        for i in range(5):
            hybrid.put(i, i)
            hash_map.put(i, i)
        assert hybrid.adt_footprint().live < hash_map.adt_footprint().live

    def test_iterator_opened_before_conversion_sees_the_contents(self, vm):
        hybrid = SizeAdaptingMapImpl(vm, conversion_threshold=2)
        hybrid.put(0, 0)
        items = hybrid.iter_items()
        hybrid.put(1, 10)
        hybrid.put(2, 20)  # converts before the first next()
        assert hybrid.is_hashed
        assert sorted(items) == [(0, 0), (1, 10), (2, 20)]

    def test_replacement_put_does_not_convert(self, vm):
        hybrid = SizeAdaptingMapImpl(vm, conversion_threshold=2)
        hybrid.put("k", 1)
        for i in range(10):
            hybrid.put("k", i)
        assert not hybrid.is_hashed
