"""Cross-run experiment index: manifests, runs.sqlite, gating, store."""

import copy
import json
import os

import pytest

from repro.analysis import index as run_index
from repro.analysis import perf
from repro.analysis.index import (GateDivergenceError, RunDirectory,
                                  RunIndex, SessionStore, gate_document)
from repro.cli import main


def make_manifest(run_id, started_at=1000.0, **overrides):
    """A minimal valid manifest for direct index tests."""
    manifest = {
        "schema": run_index.MANIFEST_SCHEMA,
        "schema_version": run_index.MANIFEST_SCHEMA_VERSION,
        "run_id": run_id,
        "kind": "perf",
        "started_at": started_at,
        "wall_seconds": 1.0,
        "python": "3.11.0",
        "pythonhashseed": "2009",
        "git_rev": None,
        "config_fingerprint": "fp",
        "command": ["perf"],
        "params": {},
        "artifacts": [],
        "results": {},
    }
    manifest.update(overrides)
    return manifest


def make_record(name="bench", wall=1.0, ticks=100, **overrides):
    record = {"name": name, "workload": "tvla", "capture": True,
              "wall_seconds": wall, "phases": {"run": wall * 0.5},
              "ticks": ticks, "gc_cycles": 2, "allocated_objects": 10}
    record.update(overrides)
    return record


class TestManifestValidation:
    def test_valid_manifest_passes(self):
        run_index.validate_manifest(make_manifest("r1"))

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            run_index.validate_manifest([])

    def test_rejects_missing_field(self):
        manifest = make_manifest("r1")
        del manifest["config_fingerprint"]
        with pytest.raises(ValueError, match="config_fingerprint"):
            run_index.validate_manifest(manifest)

    def test_rejects_wrong_field_type(self):
        manifest = make_manifest("r1", params=[1, 2])
        with pytest.raises(ValueError, match="'params' has type"):
            run_index.validate_manifest(manifest)

    def test_rejects_missing_git_rev(self):
        manifest = make_manifest("r1")
        del manifest["git_rev"]
        with pytest.raises(ValueError, match="git_rev"):
            run_index.validate_manifest(manifest)

    def test_rejects_newer_schema_version(self):
        manifest = make_manifest(
            "r1",
            schema_version=run_index.MANIFEST_SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="newer"):
            run_index.validate_manifest(manifest)


class TestRunDirectory:
    def test_create_finalize_roundtrip(self, tmp_path):
        run = RunDirectory.create(
            str(tmp_path), "perf", command=["perf", "--scale", "0.05"],
            params={"scale": 0.05}, config_fingerprint="fp")
        run.add_artifact("summary.txt", "hello\n")
        path = run.finalize(results={"n": 1}, wall_seconds=2.5)
        assert os.path.exists(path)
        manifest = RunDirectory.open(str(tmp_path), run.run_id).manifest
        assert manifest["kind"] == "perf"
        assert manifest["wall_seconds"] == 2.5
        assert manifest["results"] == {"n": 1}
        assert manifest["artifacts"] == ["summary.txt"]
        assert manifest["pythonhashseed"] == \
            run_index.interpreter_hashseed()
        with open(run.artifact_path("summary.txt")) as handle:
            assert handle.read() == "hello\n"

    def test_run_id_embeds_the_kind(self, tmp_path):
        run = RunDirectory.create(str(tmp_path), "experiment")
        assert "-experiment-" in run.run_id

    def test_no_manifest_until_finalize(self, tmp_path):
        """A crashed run leaves artifacts but no manifest, so indexing
        never sees half-finished invocations."""
        run = RunDirectory.create(str(tmp_path), "perf")
        run.add_artifact("partial.txt", "…")
        assert not os.path.exists(run.manifest_path())

    def test_finalize_measures_wall_clock_when_not_given(self, tmp_path):
        run = RunDirectory.create(str(tmp_path), "perf")
        run.finalize(results={})
        assert run.manifest["wall_seconds"] >= 0.0


class TestAtomicWriteText:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        run_index.atomic_write_text(str(path), "one")
        run_index.atomic_write_text(str(path), "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]  # no temp leftovers

    def test_failed_write_leaves_original_and_no_temp(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "out.txt"
        run_index.atomic_write_text(str(path), "original")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(run_index.os, "replace", boom)
        with pytest.raises(OSError):
            run_index.atomic_write_text(str(path), "clobbered")
        monkeypatch.undo()
        assert path.read_text() == "original"
        assert list(tmp_path.iterdir()) == [path]


class TestRunIndex:
    def test_record_run_is_an_upsert(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            index.record_run(make_manifest("r1", wall_seconds=1.0))
            index.record_run(make_manifest("r1", wall_seconds=9.0))
            rows = index.runs()
            assert len(rows) == 1
            assert rows[0]["wall_seconds"] == 9.0

    def test_record_benchmark_is_an_upsert(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            index.record_run(make_manifest("r1"))
            index.record_benchmark("r1", make_record(wall=1.0))
            index.record_benchmark("r1", make_record(wall=2.0))
            rows = index.history("bench")
            assert len(rows) == 1
            assert rows[0]["wall_seconds"] == 2.0
            assert rows[0]["run_seconds"] == 1.0  # phases["run"]

    def test_history_is_newest_first_and_joined(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            for i in (1, 2, 3):
                index.record_run(make_manifest(f"r{i}",
                                               started_at=1000.0 + i))
                index.record_benchmark(f"r{i}", make_record(wall=float(i)))
            rows = index.history("bench")
            assert [row["run_id"] for row in rows] == ["r3", "r2", "r1"]
            assert rows[0]["pythonhashseed"] == "2009"
            assert index.history("bench", last=2)[0]["run_id"] == "r3"
            excluded = index.history("bench", exclude_run="r3")
            assert [row["run_id"] for row in excluded] == ["r2", "r1"]

    def test_benchmark_names_are_distinct_and_sorted(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            index.record_run(make_manifest("r1"))
            index.record_benchmark("r1", make_record(name="zeta"))
            index.record_benchmark("r1", make_record(name="alpha"))
            index.record_run(make_manifest("r2", started_at=1001.0))
            index.record_benchmark("r2", make_record(name="alpha"))
            assert index.benchmark_names() == ["alpha", "zeta"]

    def test_trend_with_no_rows_is_none(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            assert index.trend("absent") is None

    def test_trend_with_one_row_has_no_delta(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            index.record_run(make_manifest("r1"))
            index.record_benchmark("r1", make_record(wall=1.0))
            trend = index.trend("bench")
            assert trend["latest_wall_seconds"] == 1.0
            assert trend["delta"] is None
            assert trend["median_wall_seconds"] is None

    def test_trend_latest_vs_median_of_preceding(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            for i, wall in enumerate([1.0, 2.0, 3.0, 3.0]):
                index.record_run(make_manifest(f"r{i}",
                                               started_at=1000.0 + i))
                index.record_benchmark(f"r{i}", make_record(wall=wall))
            trend = index.trend("bench", window=3)
            # latest 3.0 vs median(3.0, 2.0, 1.0) = 2.0 -> +50%
            assert trend["latest_wall_seconds"] == 3.0
            assert trend["median_wall_seconds"] == 2.0
            assert trend["delta"] == pytest.approx(0.5)
            assert trend["runs"] == 4

    def test_refuses_newer_index_schema(self, tmp_path):
        import sqlite3

        path = tmp_path / run_index.INDEX_NAME
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version = "
                     f"{run_index.INDEX_SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(ValueError, match="newer"):
            RunIndex(str(path))


class TestGateDocument:
    def _doc(self, *records):
        return {"benchmarks": list(records)}

    def _seed(self, index, walls, ticks=100, name="bench"):
        for i, wall in enumerate(walls):
            index.record_run(make_manifest(f"seed{name}{i}",
                                           started_at=1000.0 + i))
            index.record_benchmark(
                f"seed{name}{i}",
                make_record(name=name, wall=wall, ticks=ticks))

    def test_fresh_index_skips_every_benchmark(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            report = gate_document(index, self._doc(make_record()))
        assert report.ok
        assert report.rows[0].status == "no-history"
        assert "no indexed history" in report.render()

    def test_ok_within_threshold(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            self._seed(index, [1.0, 1.0, 1.0])
            report = gate_document(index, self._doc(make_record(wall=1.2)))
        assert report.ok
        assert report.rows[0].status == "ok"
        assert report.rows[0].ratio == pytest.approx(1.2)
        assert "gate: ok" in report.render()

    def test_regression_past_threshold(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            self._seed(index, [1.0, 1.0, 1.0])
            report = gate_document(index, self._doc(make_record(wall=1.5)))
        assert not report.ok
        assert report.rows[0].status == "regression"
        rendered = report.render()
        assert "REGRESSION" in rendered
        assert "1 regression(s)" in rendered

    def test_median_is_robust_to_one_outlier(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            self._seed(index, [1.0, 1.0, 100.0])
            report = gate_document(index, self._doc(make_record(wall=1.2)))
        assert report.ok  # median 1.0, not mean ~34

    def test_exclude_run_skips_the_current_row(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            self._seed(index, [1.0])
            # The gated invocation's own row is already indexed…
            index.record_run(make_manifest("current", started_at=2000.0))
            index.record_benchmark("current", make_record(wall=5.0))
            # …and must not dilute the reference it is gated against.
            report = gate_document(index, self._doc(make_record(wall=5.0)),
                                   exclude_run="current")
        assert not report.ok
        assert report.rows[0].reference_wall == 1.0

    def test_refuses_tick_diverged_history(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            self._seed(index, [1.0], ticks=101)
            with pytest.raises(GateDivergenceError) as excinfo:
                gate_document(index,
                              self._doc(make_record(wall=1.0, ticks=100)))
        message = str(excinfo.value)
        assert "'bench'" in message
        assert "101" in message      # indexed ticks
        assert "100" in message      # current ticks
        assert "different simulated work" in message

    def test_untracked_tick_rows_do_not_diverge(self, tmp_path):
        """Rows with ticks=NULL (experiment wall clocks) never refuse."""
        with RunIndex.at_root(str(tmp_path)) as index:
            index.record_run(make_manifest("r1"))
            index.record_benchmark(
                "r1", {"name": "bench", "wall_seconds": 1.0})
            report = gate_document(index, self._doc(make_record(wall=1.0)))
        assert report.ok


class TestSessionStore:
    KEY = ("Workload", 2009, 0.1, False, "fp")

    def test_digest_is_stable(self):
        assert SessionStore.digest(self.KEY) == \
            SessionStore.digest(("Workload", 2009, 0.1, False, "fp"))
        assert SessionStore.digest(self.KEY) != \
            SessionStore.digest(self.KEY + ("x",))

    def test_put_get_roundtrip(self, tmp_path):
        store = SessionStore(str(tmp_path))
        assert store.put(self.KEY, {"session": 1}) is True
        assert store.put(self.KEY, {"session": 1}) is False  # idempotent
        assert len(store) == 1
        assert store.get(self.KEY) == {"session": 1}
        assert store.get(("other",)) is None

    def test_corrupt_entry_warns_and_is_skipped(self, tmp_path):
        store = SessionStore(str(tmp_path))
        store.put(self.KEY, "good")
        store.put(("other",), "alsogood")
        with open(store.path_for(self.KEY), "wb") as handle:
            handle.write(b"\x80\x04 truncated garbage")
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            assert store.get(self.KEY) is None
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            assert store.sessions() == ["alsogood"]

    def test_failed_put_leaves_no_temp_files(self, tmp_path, monkeypatch):
        store = SessionStore(str(tmp_path))

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(run_index.os, "replace", boom)
        with pytest.raises(OSError):
            store.put(self.KEY, "session")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_lint_drift_loader_reads_a_store(self, tmp_path):
        from repro.lint.drift import load_sessions

        store = SessionStore(str(tmp_path))
        store.put(("a",), "session-a")
        assert load_sessions(str(tmp_path)) == ["session-a"]


@pytest.fixture(scope="module")
def bench_doc():
    """One tiny suite document for CLI-level ingest/gate tests."""
    return perf.run_suite(scale=0.05, repeats=1, workloads=("tvla",),
                          include_gc_heavy=False)


class TestCliHistoryAndGate:
    def _write(self, doc, path):
        perf.write_document(doc, str(path))
        return str(path)

    def test_history_errors_without_an_index(self, tmp_path):
        with pytest.raises(SystemExit, match="no index"):
            main(["history", "--runs-root", str(tmp_path / "empty")])

    def test_ingest_then_trends_and_series(self, bench_doc, tmp_path,
                                           capsys):
        root = tmp_path / "runs"
        doc_path = self._write(bench_doc, tmp_path / "BENCH.json")
        assert main(["history", "--ingest", doc_path,
                     "--runs-root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert "2 benchmark row(s)" in out
        assert main(["history", "--runs-root", str(root)]) == 0
        trends = capsys.readouterr().out
        assert "tvla_capture_on" in trends
        assert "tvla_capture_off" in trends
        assert "1 indexed run(s) (1 perf)" in trends
        assert main(["history", "tvla_capture_on",
                     "--runs-root", str(root)]) == 0
        series = capsys.readouterr().out
        assert "1 indexed run(s), newest first" in series
        assert "-perf-" in series  # run id embeds the kind

    def test_perf_run_writes_manifest_and_rows(self, tmp_path, capsys):
        from repro.analysis.index import MANIFEST_NAME

        root = tmp_path / "runs"
        assert main(["perf", "--scale", "0.05", "--repeats", "1",
                     "--no-gc-heavy",
                     "--output", str(tmp_path / "BENCH.json"),
                     "--runs-root", str(root)]) == 0
        capsys.readouterr()
        manifests = list(root.glob(f"*/{MANIFEST_NAME}"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        run_index.validate_manifest(manifest)
        assert manifest["kind"] == "perf"
        assert manifest["config_fingerprint"]
        assert "BENCH_chameleon.json" in manifest["artifacts"]
        with RunIndex.at_root(str(root)) as index:
            assert len(index.runs(kind="perf")) == 1
            assert "tvla_capture_on" in index.benchmark_names()

    def test_gate_fails_on_injected_slowdown(self, bench_doc, tmp_path,
                                             capsys):
        """History seeded with a 100x-faster doctored doc makes the real
        run look like a regression: the gate must exit non-zero."""
        root = tmp_path / "runs"
        fast = copy.deepcopy(bench_doc)
        for record in fast["benchmarks"]:
            record["wall_seconds"] /= 100.0
            record["phases"] = {phase: seconds / 100.0
                                for phase, seconds in
                                record["phases"].items()}
        assert main(["history", "--ingest",
                     self._write(fast, tmp_path / "fast.json"),
                     "--runs-root", str(root)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "--scale", "0.05", "--repeats", "1",
                  "--no-gc-heavy",
                  "--output", str(tmp_path / "BENCH.json"),
                  "--gate", "--runs-root", str(root)])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "regression(s)" in out

    def test_gate_passes_against_honest_history(self, bench_doc, tmp_path,
                                                capsys):
        root = tmp_path / "runs"
        assert main(["history", "--ingest",
                     self._write(bench_doc, tmp_path / "honest.json"),
                     "--runs-root", str(root)]) == 0
        capsys.readouterr()
        assert main(["perf", "--scale", "0.05", "--repeats", "1",
                     "--no-gc-heavy",
                     "--output", str(tmp_path / "BENCH.json"),
                     "--gate", "--gate-threshold", "100",
                     "--runs-root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "gate: ok" in out

    def test_gate_refuses_tick_diverged_history(self, bench_doc, tmp_path,
                                                capsys):
        """Indexed rows measuring different simulated work must be
        refused -- naming the benchmark and both tick values -- exactly
        like the single-file --baseline comparison."""
        root = tmp_path / "runs"
        doctored = copy.deepcopy(bench_doc)
        name = doctored["benchmarks"][0]["name"]
        true_ticks = doctored["benchmarks"][0]["ticks"]
        doctored["benchmarks"][0]["ticks"] = true_ticks + 1
        assert main(["history", "--ingest",
                     self._write(doctored, tmp_path / "diverged.json"),
                     "--runs-root", str(root)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "--scale", "0.05", "--repeats", "1",
                  "--no-gc-heavy",
                  "--output", str(tmp_path / "BENCH.json"),
                  "--gate", "--runs-root", str(root)])
        message = str(excinfo.value)
        assert excinfo.value.code != 0
        assert name in message
        assert str(true_ticks + 1) in message   # indexed ticks
        assert str(true_ticks) in message       # current ticks
        assert "cannot gate" in message

    def test_gate_requires_the_index(self, tmp_path):
        with pytest.raises(SystemExit, match="--gate needs the index"):
            main(["perf", "--scale", "0.05", "--repeats", "1",
                  "--no-gc-heavy",
                  "--output", str(tmp_path / "BENCH.json"),
                  "--gate", "--no-index"])

    def test_ingest_rejects_invalid_documents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit):
            main(["history", "--ingest", str(bad),
                  "--runs-root", str(tmp_path / "runs")])
