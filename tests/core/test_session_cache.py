"""Profiling-session cache: keys, hit behavior, and the session store."""

import os
import pickle
import threading

import pytest

from repro.core.chameleon import Chameleon, ProfilingSession, SessionCache
from repro.core.config import ToolConfig
from repro.workloads import TvlaWorkload


@pytest.fixture
def cache():
    return SessionCache()


@pytest.fixture
def tool(cache):
    return Chameleon(ToolConfig(), session_cache=cache)


class TestKey:
    def test_same_spec_same_key(self):
        config = ToolConfig()
        assert SessionCache.key(config, TvlaWorkload(scale=0.1)) \
            == SessionCache.key(config, TvlaWorkload(scale=0.1))

    def test_key_covers_workload_spec(self):
        config = ToolConfig()
        base = SessionCache.key(config, TvlaWorkload(scale=0.1))
        assert SessionCache.key(config, TvlaWorkload(scale=0.2)) != base
        assert SessionCache.key(config, TvlaWorkload(scale=0.1,
                                                     seed=7)) != base
        assert SessionCache.key(
            config, TvlaWorkload(scale=0.1, manual_fixes=True)) != base

    def test_key_covers_config_fingerprint(self):
        workload = TvlaWorkload(scale=0.1)
        assert SessionCache.key(ToolConfig(), workload) \
            != SessionCache.key(ToolConfig(gc_threshold_bytes=1024),
                                workload)


class TestProfileHook:
    def test_second_profile_hits(self, tool, cache):
        first = tool.profile(TvlaWorkload(scale=0.05))
        second = tool.profile(TvlaWorkload(scale=0.05))
        assert cache.misses == 1
        assert cache.hits == 1
        # The cached session is the same measurement, minus the live VM.
        assert second.vm is None
        assert second.metrics == first.metrics
        assert second.report.render_top_contexts(3) \
            == first.report.render_top_contexts(3)

    def test_policy_runs_bypass_the_cache(self, tool, cache):
        session = tool.profile(TvlaWorkload(scale=0.05))
        policy = tool.build_policy(session.suggestions)
        repeat = tool.profile(TvlaWorkload(scale=0.05), policy=policy)
        assert repeat.vm is not None
        assert cache.hits == 0
        assert len(cache) == 1

    def test_heap_limited_runs_bypass_the_cache(self, tool, cache):
        tool.profile(TvlaWorkload(scale=0.05), heap_limit=1 << 30)
        assert len(cache) == 0

    def test_no_cache_installed_keeps_vm(self):
        session = Chameleon(ToolConfig()).profile(TvlaWorkload(scale=0.05))
        assert session.vm is not None

    def test_clear_resets_counters(self, tool, cache):
        tool.profile(TvlaWorkload(scale=0.05))
        tool.profile(TvlaWorkload(scale=0.05))
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)


class TestDiskSpill:
    """Sessions persist across invocations through an attached
    :class:`~repro.analysis.index.SessionStore`: one cache writes
    through, a later process's fresh cache reads back."""

    def test_save_load_roundtrip(self, tool, cache, tmp_path):
        from repro.analysis.index import SessionStore

        store_dir = str(tmp_path / "store")
        cache.attach_store(SessionStore(store_dir))
        fresh_session = tool.profile(TvlaWorkload(scale=0.05))
        assert len(SessionStore(store_dir)) == 1

        other_cache = SessionCache()
        other_cache.attach_store(SessionStore(store_dir))
        other_tool = Chameleon(ToolConfig(), session_cache=other_cache)
        reloaded = other_tool.profile(TvlaWorkload(scale=0.05))
        assert other_cache.hits == 1
        assert reloaded.metrics == fresh_session.metrics
        assert len(reloaded.suggestions) == len(fresh_session.suggestions)

    def test_load_missing_file_is_a_noop(self, cache, tmp_path):
        from repro.analysis.index import SessionStore

        cache.attach_store(SessionStore(str(tmp_path / "absent")))
        key = SessionCache.key(ToolConfig(), TvlaWorkload(scale=0.05))
        assert cache.get(key) is None
        assert (len(cache), cache.misses) == (0, 1)

    def test_load_does_not_clobber_existing_entries(self, tool, cache,
                                                    tmp_path):
        from repro.analysis.index import SessionStore

        tool.profile(TvlaWorkload(scale=0.05))
        key = SessionCache.key(ToolConfig(), TvlaWorkload(scale=0.05))
        in_memory = cache.get(key)
        store = SessionStore(str(tmp_path / "store"))
        store.put(key, "stale")
        cache.attach_store(store)
        assert cache.get(key) is in_memory  # memory wins over the store
        assert cache.store_hits == 0


class TestBackingStore:
    """The content-addressed per-entry store behind the in-memory cache:
    puts write through, misses read through (and promote), so scheduler
    workers sharing one store directory share sessions."""

    def test_put_writes_through(self, tool, cache, tmp_path):
        from repro.analysis.index import SessionStore

        store = SessionStore(str(tmp_path / "store"))
        cache.attach_store(store)
        assert cache.backing_store is store
        tool.profile(TvlaWorkload(scale=0.05))
        key = SessionCache.key(ToolConfig(), TvlaWorkload(scale=0.05))
        assert store.get(key) is not None

    def test_miss_reads_through_and_promotes(self, tool, cache, tmp_path):
        from repro.analysis.index import SessionStore

        store_dir = str(tmp_path / "store")
        cache.attach_store(SessionStore(store_dir))
        first = tool.profile(TvlaWorkload(scale=0.05))

        # A different process's cache: empty memory, same store.
        other_cache = SessionCache()
        other_cache.attach_store(SessionStore(store_dir))
        other_tool = Chameleon(ToolConfig(), session_cache=other_cache)
        reloaded = other_tool.profile(TvlaWorkload(scale=0.05))
        assert other_cache.hits == 1
        assert other_cache.store_hits == 1
        assert reloaded.metrics == first.metrics
        assert len(other_cache) == 1  # promoted into memory
        other_tool.profile(TvlaWorkload(scale=0.05))
        assert other_cache.store_hits == 1  # second hit was in-memory

    def test_clear_keeps_the_store_attached(self, cache, tmp_path):
        from repro.analysis.index import SessionStore

        store = SessionStore(str(tmp_path / "store"))
        cache.attach_store(store)
        cache.clear()
        assert cache.backing_store is store
        assert cache.store_hits == 0

    def test_detach(self, cache, tmp_path):
        from repro.analysis.index import SessionStore

        cache.attach_store(SessionStore(str(tmp_path / "store")))
        cache.detach_store()
        assert cache.backing_store is None


class TestSpillDurability:
    """A torn, truncated or concurrent write to the session store must
    never take down later runs: a damaged entry reads as a miss with a
    warning, and every write is atomic, so readers only ever observe
    complete entries."""

    KEY = ("k",)

    @pytest.fixture
    def store(self, tmp_path):
        from repro.analysis.index import SessionStore

        return SessionStore(str(tmp_path))

    def _damage(self, store, data):
        with open(store.path_for(self.KEY), "wb") as handle:
            handle.write(data)

    def _reads_as_a_miss(self, cache, store):
        cache.attach_store(store)
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            assert cache.get(self.KEY) is None
        assert len(cache) == 0

    def test_truncated_spill_is_treated_as_empty(self, cache, store):
        store.put(self.KEY, "session")
        with open(store.path_for(self.KEY), "rb") as handle:
            data = handle.read()
        self._damage(store, data[:len(data) // 2])
        self._reads_as_a_miss(cache, store)

    def test_garbage_spill_is_treated_as_empty(self, cache, store):
        self._damage(store, b"not a pickle at all")
        self._reads_as_a_miss(cache, store)

    def test_non_dict_spill_is_treated_as_empty(self, cache, store):
        # A complete pickle that is not a (key, session) pair.
        self._damage(store, pickle.dumps(["not", "a", "pair"]))
        self._reads_as_a_miss(cache, store)

    def test_failed_save_preserves_previous_spill(self, store, tmp_path,
                                                  monkeypatch):
        store.put(self.KEY, "session")
        original = sorted(p.name for p in tmp_path.iterdir())

        def boom(entry, handle, protocol=None):
            handle.write(b"half a pi")
            raise OSError("disk full")

        from repro.analysis import index as index_mod

        monkeypatch.setattr(index_mod.pickle, "dump", boom)
        with pytest.raises(OSError):
            store.put(("other",), "session")
        monkeypatch.undo()
        assert store.get(self.KEY) == "session"  # old entry untouched
        assert sorted(p.name for p in tmp_path.iterdir()) == original

    def test_concurrent_saves_never_leave_a_torn_file(self, store,
                                                      tmp_path,
                                                      monkeypatch):
        """Interleave two writers of one key: whichever rename wins, the
        entry on disk is some one writer's complete pickle."""
        from repro.analysis import index as index_mod

        real_replace = os.replace
        fired = []

        def interleaved_replace(src, dst):
            if not fired:
                fired.append(True)
                store.put(self.KEY, "two")  # a second writer completes
            real_replace(src, dst)

        monkeypatch.setattr(index_mod.os, "replace", interleaved_replace)
        store.put(self.KEY, "one")
        monkeypatch.undo()

        assert store.get(self.KEY) in ("one", "two")
        assert [p.name for p in tmp_path.iterdir()] == \
            [os.path.basename(store.path_for(self.KEY))]

    def test_threaded_save_hammer_yields_a_complete_spill(self, tmp_path):
        """Pool workers write one store directory at once: threads, each
        with its own cache on the same directory, put overlapping and
        distinct keys concurrently; every key reads back and no
        ``.tmp`` file remains."""
        from repro.analysis.index import SessionStore

        shared = [(f"shared{i}",) for i in range(8)]
        barrier = threading.Barrier(6)

        def writer(n):
            cache = SessionCache()
            cache.attach_store(SessionStore(str(tmp_path)))
            barrier.wait()
            for key in shared + [(f"writer{n}", i) for i in range(8)]:
                cache.put(key, ProfilingSession(
                    report=None, suggestions=[key], metrics=None,
                    vm=None))

        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        store = SessionStore(str(tmp_path))
        keys = shared + [(f"writer{n}", i)
                         for n in range(6) for i in range(8)]
        assert len(store) == len(keys)
        for key in keys:
            assert store.get(key).suggestions == [key]
        assert not list(tmp_path.glob("*.tmp"))
