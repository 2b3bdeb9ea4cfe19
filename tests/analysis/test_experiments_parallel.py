"""Determinism contract: the experiment suite is byte-identical at any
scheduler parallelism (ISSUE 2 acceptance criterion)."""

import pytest

from repro.analysis import experiments
from repro.analysis.scheduler import Scheduler

SCALE = 0.05
RESOLUTION = 32768


@pytest.fixture(autouse=True)
def fresh_session_cache():
    experiments.reset_session_cache()
    yield
    experiments.reset_session_cache()


@pytest.fixture(scope="module")
def pool():
    with Scheduler(jobs=4) as scheduler:
        yield scheduler


class TestFig6Parallel:
    def test_rows_and_details_identical(self, pool):
        serial = experiments.run_fig6(scale=SCALE, resolution=RESOLUTION)
        experiments.reset_session_cache()
        parallel = experiments.run_fig6(scale=SCALE, resolution=RESOLUTION,
                                        scheduler=pool)
        assert parallel.rows == serial.rows
        assert parallel.details == serial.details
        assert parallel.render() == serial.render()


class TestFig7Parallel:
    def test_ticks_and_gc_counts_identical(self, pool):
        serial = experiments.run_fig7(scale=SCALE, resolution=RESOLUTION)
        experiments.reset_session_cache()
        parallel = experiments.run_fig7(scale=SCALE, resolution=RESOLUTION,
                                        scheduler=pool)
        assert parallel.rows == serial.rows
        assert parallel.gc_cycles == serial.gc_cycles
        assert parallel.render() == serial.render()


class TestSessionCacheInteraction:
    def test_fig7_after_fig6_reuses_profiles(self):
        """In one process, Fig. 7 re-profiles nothing Fig. 6 already
        profiled."""
        experiments.run_fig6(scale=SCALE, resolution=RESOLUTION)
        cache = experiments.get_session_cache()
        misses_after_fig6 = cache.misses
        experiments.run_fig7(scale=SCALE, resolution=RESOLUTION)
        assert cache.misses == misses_after_fig6
        assert cache.hits >= len(experiments.BENCHMARKS)

    def test_cached_rerun_is_identical(self):
        first = experiments.run_fig6(scale=SCALE, resolution=RESOLUTION)
        second = experiments.run_fig6(scale=SCALE, resolution=RESOLUTION)
        assert experiments.get_session_cache().hits > 0
        assert second.render() == first.render()


def _count_searches(monkeypatch):
    """Wrap ``experiments.measure_min_heap``; returns the call log."""
    calls = []
    measure = experiments.measure_min_heap

    def counting(tool, workload, *args, **kwargs):
        calls.append(workload.name)
        return measure(tool, workload, *args, **kwargs)

    monkeypatch.setattr(experiments, "measure_min_heap", counting)
    return calls


@pytest.fixture(scope="module")
def run_all_serial():
    """``run_all`` in-process, with its min-heap searches counted."""
    experiments.reset_session_cache()
    with pytest.MonkeyPatch.context() as monkeypatch:
        searches = _count_searches(monkeypatch)
        text = experiments.run_all(scale=SCALE, resolution=RESOLUTION,
                                   scheduler=Scheduler(jobs=1))
    experiments.reset_session_cache()
    return text, searches


class TestRunAll:
    """Fig. 6 and Fig. 7 run as one job graph inside ``run_all``."""

    def test_sections_match_the_standalone_runners(self, run_all_serial,
                                                   monkeypatch):
        text, _ = run_all_serial
        fig6 = experiments.run_fig6(scale=SCALE, resolution=RESOLUTION)
        experiments.reset_session_cache()
        searches = _count_searches(monkeypatch)
        fig7 = experiments.run_fig7(scale=SCALE, resolution=RESOLUTION)
        assert f"\n\n{fig6.render()}\n\n{fig7.render()}\n\n" in text
        # Standalone Fig. 7 searches only its six base heaps.
        assert sorted(searches) == sorted(
            cls.name for cls in experiments.BENCHMARKS)

    def test_fig6_and_fig7_share_the_base_searches(self, run_all_serial):
        _, searches = run_all_serial
        assert len(searches) == 3 * len(experiments.BENCHMARKS)

    def test_identical_on_a_pool(self, run_all_serial):
        text, _ = run_all_serial
        with Scheduler(jobs=2) as scheduler:
            parallel = experiments.run_all(scale=SCALE,
                                           resolution=RESOLUTION,
                                           scheduler=scheduler)
        assert parallel == text
