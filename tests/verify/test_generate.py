"""Determinism and shape of the seeded trace generator."""

import pytest

from repro.collections.base import CollectionKind
from repro.verify.generate import ADT_KINDS, SWAP_TARGETS, generate_trace
from repro.verify.trace import (BASELINE_IMPLS, Trace, diff_trace,
                                ops_for_kind)


class TestDeterminism:
    @pytest.mark.parametrize("adt", sorted(ADT_KINDS))
    def test_same_seed_same_json(self, adt):
        first = generate_trace(adt, seed=7).to_json()
        second = generate_trace(adt, seed=7).to_json()
        assert first == second

    def test_different_seeds_differ(self):
        assert generate_trace("list", 0).ops != generate_trace("list", 1).ops

    def test_n_ops_changes_the_stream(self):
        """n_ops is part of the RNG seed string, so it selects a distinct
        trace rather than a prefix -- a truncated CI repro must rerun with
        the logged n_ops, which is why it lives in meta."""
        trace = generate_trace("map", 3, n_ops=12)
        assert trace.meta["n_ops"] == 12
        assert trace.ops != generate_trace("map", 3, n_ops=40).ops[:12]

    def test_generated_trace_survives_json_round_trip(self):
        trace = generate_trace("set", 11)
        assert Trace.from_json(trace.to_json()).ops == trace.ops


class TestShape:
    @pytest.mark.parametrize("adt", sorted(ADT_KINDS))
    def test_kind_and_baseline(self, adt):
        trace = generate_trace(adt, seed=0)
        kind = ADT_KINDS[adt]
        assert trace.kind is kind
        assert trace.baseline_impl == BASELINE_IMPLS[kind]
        assert len(trace.ops) >= 40

    @pytest.mark.parametrize("adt", sorted(ADT_KINDS))
    def test_ops_stay_on_the_replayable_surface(self, adt):
        surface = set(ops_for_kind(ADT_KINDS[adt]))
        surface.update(["init", "gc", "swap", "iter_new", "iter_next"])
        for seed in range(6):
            for op in generate_trace(adt, seed).ops:
                assert op[0] in surface, op

    @pytest.mark.parametrize("adt", sorted(ADT_KINDS))
    def test_swaps_target_full_surface_impls(self, adt):
        kind = ADT_KINDS[adt]
        for seed in range(8):
            for op in generate_trace(adt, seed).ops:
                if op[0] == "swap":
                    assert op[1] in SWAP_TARGETS[kind]

    def test_unknown_adt_rejected(self):
        with pytest.raises(KeyError):
            generate_trace("deque", 0)


class TestGeneratedTracesDiffClean:
    """The in-suite fuzz smoke: a handful of seeds per ADT must replay
    divergence-free across the whole registry (the CI fuzz-smoke leg runs
    the wider campaign)."""

    # 582, 660, 1374 and 1000128 are regression seeds: their set traces
    # convert a SizeAdaptingSet between an iterator's creation and its
    # first next(), which once left that iterator reading the cleared
    # array.
    @pytest.mark.parametrize("adt", sorted(ADT_KINDS))
    @pytest.mark.parametrize("seed", [0, 1, 2, 582, 660, 1374, 1000128])
    def test_seed_diffs_clean(self, adt, seed):
        report = diff_trace(generate_trace(adt, seed), sanitize=True)
        assert report.ok, report.summary()
        for result in report.results.values():
            assert not result.violations
