"""Tests of the benchmark itself: output checks, traced-run fidelity and
the result line.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import calibration, suite, tracing  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


class SmallAdvise(suite.Advise):
    scale = 0.05


class SmallReproduce(suite.Reproduce):
    scale = 0.02


@pytest.fixture(scope="module")
def tracer():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    yield tracer
    tracer.enabled = False


def _workload(cls, seed=5):
    from repro.workloads import default_workload_registry

    return cls(suite.Setup(default_workload_registry(), seed, cls.scale),
               seed)


def _failures(results, reference):
    return [name for name, record in results
            if suite.failed(name, record, reference)]


def test_planted_divergence_in_advise_fails_operations(tracer, monkeypatch):
    from repro.memory.gc import MarkSweepGC

    workload = _workload(SmallAdvise)
    ops = [op for op in workload.ops()
           if op[0].startswith(("optimize:", "online:"))]
    reference = dict(suite.run_ops(ops))
    assert _failures(suite.run_ops(ops), reference) == []

    collect = MarkSweepGC.collect

    def collect_charging_one_more_tick(self, *args, **kwargs):
        self._charge(1)
        return collect(self, *args, **kwargs)

    monkeypatch.setattr(MarkSweepGC, "collect",
                        collect_charging_one_more_tick)
    failures = _failures(suite.run_ops(ops), reference)
    assert failures == [name for name, _ in ops]


def test_planted_divergence_in_a_collection_fails_diffs(tracer,
                                                       monkeypatch):
    from repro.collections.sets import ArraySetImpl

    workload = _workload(SmallAdvise)
    ops = [op for op in workload.ops() if op[0].startswith("diff:")]
    reference = dict(suite.run_ops(ops))
    assert _failures(suite.run_ops(ops), reference) == []

    contains = ArraySetImpl.contains
    monkeypatch.setattr(ArraySetImpl, "contains",
                        lambda self, value: not contains(self, value))
    failures = _failures(suite.run_ops(ops), reference)
    assert failures and all(name.startswith("diff:set:")
                            for name in failures)


def test_run_ops_calls_between_before_every_operation():
    calls = []
    ops = [(name, lambda n=name: calls.append(n) or {"name": n})
           for name in ("a", "b")]
    results = suite.run_ops(ops, lambda: calls.append("between"))
    assert calls == ["between", "a", "between", "b"]
    assert results == [("a", {"name": "a"}), ("b", {"name": "b"})]


def test_host_speed_factor_is_reference_over_mean_slice():
    calibrator = calibration.Calibrator()
    calibrator.slice(3)
    assert len(calibrator.times) == 3 and calibrator.cpu > 0
    assert calibrator.resident_mib >= 0
    calibrator.times[:] = [0.01, 0.03]
    assert calibrator.factor() == pytest.approx(
        calibration.REFERENCE_SLICE_S / 0.02)


def test_raising_operation_is_a_failed_operation():
    def boom():
        raise RuntimeError("planted")

    (name, record), = suite.run_ops([("boom", boom)])
    assert suite.failed(name, record, {"boom": record})


@pytest.mark.parametrize("cls", [SmallAdvise, SmallReproduce])
def test_traced_round_reproduces_untraced_outcomes(tracer, tmp_path, cls):
    workload = _workload(cls)
    tracer.out_dir = str(tmp_path)
    tracer.spans.clear()
    untraced = suite.run_ops(workload.ops())
    assert tracer.spans == []
    tracer.enabled = True
    tracer.op = "traced"
    try:
        traced = suite.run_ops(workload.ops())
    finally:
        tracer.enabled = False
    assert traced == untraced
    tracer.collect_workers()
    metrics = tracing.op_metrics(tracer.spans)
    names = {metric["name"] for metric in _spec()["per_layer"]}
    assert set(metrics) <= names
    if cls is SmallAdvise:
        assert metrics["core.plain_runs"] == 2 * len(suite.PROGRAMS)
        assert metrics["runtime.ticks"] > 0
        assert metrics["workloads.self_s"] > 0
        assert metrics["verify.replays"] > 0
        assert metrics["lint.files"] > 0
    else:
        # Min-heap searches run in forked pool workers.
        assert {span["pid"] for span in tracer.spans} != {os.getpid()}
        assert metrics["analysis.minheap_searches"] > 0
        assert metrics["analysis.scheduler.jobs"] > 0
        assert 0 < metrics["analysis.scheduler.utilisation"] <= 1


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_benchmark_metric(trace):
    spec = _spec()
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "advise", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(value["value"] > 0
                   for value in result["metrics"].values())


def test_checkout_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "advise",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
