"""Span tracer for the traced run, and the layer-boundary wrappers.

:func:`install` wraps the public entry points of each layer of the
``repro`` package.  The wrappers are installed in every benchmark
process, traced or not, and record nothing unless the installed
:class:`Tracer` is enabled.  Installing them unconditionally is what keeps
traced and untraced runs identical: allocation-context capture
(``repro.runtime.context``) keeps the first stack frames outside the
library, so a wrapper frame that existed only in traced runs would change
context keys and the ticks charged for capture.  For the same reason every
wrapper calls the wrapped function from one source line in both modes.

A span is a dict with ``id``, ``name``, ``start``, ``end``, ``parent``,
``op`` (the benchmark operation it belongs to), ``pid`` and optional
``attrs``.  The layer of a span is the first dotted part of its name.
Spans are kept in memory.  Scheduler pool workers are forked from the
benchmark process, so each worker appends its spans to a file in
``out_dir`` after every job it runs (a pool worker exits without running
exit hooks) and the parent reads them back with
:meth:`Tracer.collect_workers`.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

LAYERS = ("memory", "profiler", "rules", "core", "analysis", "workloads",
          "verify", "lint")
"""The package's modules whose entry points the benchmark wraps, which
are the layers self time is reported for.  ``runtime`` and
``collections`` are entered from inside the programs, once per operation,
so their time is part of ``workloads`` self time (see README.md)."""

_FAILED = object()

#: The tracer the wrappers record into.  Process-wide because the
#: wrappers themselves are: they replace attributes of the package's
#: classes and modules, and forked pool workers inherit both.
_installed: Optional["Tracer"] = None


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.enabled = False
        self.op: Optional[str] = None
        self.spans: List[dict] = []
        self.out_dir = out_dir
        self.pid = os.getpid()
        self._stack: List[dict] = []
        self._next = 0
        self._worker = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked pool worker starts with an empty record of its own.
        self.spans = []
        self._stack = []
        self.pid = os.getpid()
        self._worker = True

    def current(self) -> Optional[str]:
        """Id of the innermost open span, if any."""
        return self._stack[-1]["id"] if self._stack else None

    def open(self, name: str, parent: Optional[str] = None,
             op: Optional[str] = None) -> dict:
        """Start a span; it nests under the innermost open span unless
        ``parent`` names another (a job's span in a pool worker)."""
        span = {"id": f"{self.pid}:{self._next}", "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": parent if parent is not None else self.current(),
                "op": op if op is not None else self.op, "pid": self.pid}
        self._next += 1
        self._stack.append(span)
        return span

    def close(self, span: dict, attrs: Optional[dict] = None) -> None:
        """End ``span`` (the innermost open one)."""
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"] = attrs
        self._stack.pop()
        self.spans.append(span)
        if self._worker and not self._stack and self.out_dir:
            path = os.path.join(self.out_dir, f"worker-{self.pid}.jsonl")
            with open(path, "a", encoding="utf-8") as handle:
                for item in self.spans:
                    handle.write(json.dumps(item) + "\n")
            self.spans = []

    def collect_workers(self) -> None:
        """Move the spans pool workers wrote into this record."""
        if not self.out_dir:
            return
        for path in sorted(glob.glob(os.path.join(self.out_dir,
                                                  "worker-*.jsonl"))):
            with open(path, encoding="utf-8") as handle:
                self.spans.extend(json.loads(line) for line in handle)
            os.unlink(path)


def _active() -> Optional[Tracer]:
    tracer = _installed
    return tracer if tracer is not None and tracer.enabled else None


def _wrap(fn: Callable, name: str,
          observe: Optional[Callable[..., dict]] = None,
          before: Optional[Callable[[tuple], Any]] = None,
          on_error: bool = False) -> Callable:
    """``fn`` recording a span named ``name`` while the tracer is on.

    ``observe(args, result, state)`` turns the call into span attributes,
    where ``state`` is what ``before(args)`` returned; it runs after a
    raising call only when ``on_error`` is set (``result`` is then
    :data:`_FAILED`).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _active()
        state = None
        if tracer is not None:
            span = tracer.open(name)
            if before is not None:
                state = before(args)
        result = _FAILED
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            if tracer is not None:
                attrs = None
                if observe is not None and (result is not _FAILED
                                            or on_error):
                    attrs = observe(args, result, state)
                tracer.close(span, attrs)

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _patch_method(cls: type, attr: str, name: str, **hooks: Any) -> None:
    original = cls.__dict__[attr]
    if not getattr(original, "__perfbench_wrapped__", False):
        setattr(cls, attr, _wrap(original, name, **hooks))


def _patch_function(original: Callable, name: str, **hooks: Any) -> None:
    """Replace ``original`` in every ``repro`` module that binds it, so
    callers that imported it by name reach the wrapper too."""
    wrapper = _wrap(original, name, **hooks)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class TracedJob:
    """A scheduler job function whose run, in whichever process executes
    it, is an ``analysis.scheduler.job`` span of the submitting operation.

    Module-level and holding only picklable state, so jobs still cross
    the pool boundary.
    """

    def __init__(self, fn: Callable, job_id: str, parent: Optional[str],
                 op: Optional[str]) -> None:
        self.fn = fn
        self.job_id = job_id
        self.parent = parent
        self.op = op

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        tracer = _active()
        if tracer is not None:
            span = tracer.open("analysis.scheduler.job", parent=self.parent,
                               op=self.op)
        try:
            return self.fn(*args, **kwargs)
        finally:
            if tracer is not None:
                tracer.close(span, {"job": self.job_id})


def _count_py(paths) -> int:
    count = 0
    for path in paths:
        if os.path.isdir(path):
            for _root, _dirs, names in os.walk(path):
                count += sum(1 for name in names if name.endswith(".py"))
        elif path.endswith(".py"):
            count += 1
    return count


def _run_observation(args, _result, _state) -> dict:
    vm = args[1]
    # Plain attribute reads: `vm.now` would fold the fast core's batched
    # charges, a flush the untraced run does not make.
    return {"ticks": vm.clock.ticks + vm.clock.pending,
            "contexts": len(vm.contexts),
            "objects": vm.heap.total_allocated_objects}


def _stats_before(args) -> dict:
    return args[0].stats.as_dict()


def _stats_delta(args, _result, before) -> dict:
    after = args[0].stats.as_dict()
    delta = {key: after[key] - before[key] for key in after}
    delta["workers"] = args[0].jobs
    return delta


def _on_vm_created(_vm) -> None:
    tracer = _active()
    if tracer is not None:
        tracer.close(tracer.open("runtime.vm"))


def install(tracer: Tracer) -> None:
    """Make ``tracer`` the one the layer wrappers record into, wrapping
    the entry points on first use (idempotent)."""
    global _installed
    already = _installed is not None
    _installed = tracer
    if already:
        return

    from repro.analysis import minheap
    from repro.analysis.scheduler import JobGraph, Scheduler
    from repro.core.chameleon import Chameleon, SessionCache
    from repro.core.online import OnlineChameleon
    from repro.lint import interproc, rule_checker, usage
    from repro.memory.gc import MarkSweepGC
    from repro.profiler import report
    from repro.rules.engine import RuleEngine
    from repro.runtime.vm import add_vm_created_hook
    from repro.verify import generate, trace
    from repro.workloads import Workload

    _patch_method(Chameleon, "optimize", "core.optimize")
    _patch_method(Chameleon, "profile", "core.profile")
    _patch_method(Chameleon, "plain_run", "core.plain_run")
    _patch_method(Chameleon, "build_policy", "core.build_policy",
                  observe=lambda a, r, s: {"entries": len(r)})
    _patch_method(OnlineChameleon, "run", "core.online")
    _patch_method(SessionCache, "get", "analysis.session_cache",
                  observe=lambda a, r, s: {"hit": r is not None})
    _patch_method(Scheduler, "run", "analysis.scheduler.run",
                  before=_stats_before, observe=_stats_delta)
    _patch_method(MarkSweepGC, "collect", "memory.gc")
    _patch_method(RuleEngine, "__init__", "rules.engine_init")
    _patch_method(RuleEngine, "evaluate", "rules.evaluate",
                  observe=lambda a, r, s: {"suggestions": len(r)})
    _patch_method(RuleEngine, "evaluate_intervals",
                  "rules.evaluate_intervals")
    pending = [Workload]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in cls.__dict__:
            _patch_method(cls, "run", "workloads.run",
                          observe=_run_observation, on_error=True)

    _patch_function(report.build_report, "profiler.report",
                    observe=lambda a, r, s: {
                        "contexts": len(r.profiles),
                        "ops": sum(p.info.total_ops for p in r.profiles)})
    _patch_function(minheap.measure_min_heap, "analysis.minheap",
                    observe=lambda a, r, s: {"probes": r.probes})
    _patch_function(generate.generate_trace, "verify.generate")
    _patch_function(trace.diff_trace, "verify.diff",
                    observe=lambda a, r, s: {"ok": r.ok})
    _patch_function(trace.replay_trace, "verify.replay",
                    observe=lambda a, r, s: {"ops": len(r.outcomes)})
    _patch_function(rule_checker.check_rules, "lint.rules_check",
                    observe=lambda a, r, s: {"findings": len(r)})
    _patch_function(usage.lint_paths_detailed, "lint.usage",
                    observe=lambda a, r, s: {"findings": len(r[0]),
                                             "files": _count_py(a[0])})
    _patch_function(interproc.analyze_paths, "lint.interproc",
                    observe=lambda a, r, s: {"findings": len(r.findings),
                                             "sites": len(r.sites)})

    original_add = JobGraph.add

    @functools.wraps(original_add)
    def add(self, job_id, fn, *args, **kwargs):
        tracer = _installed
        return original_add(self, job_id,
                            TracedJob(fn, job_id, tracer.current(),
                                      tracer.op),
                            *args, **kwargs)

    JobGraph.add = add
    add_vm_created_hook(_on_vm_created)


# ----------------------------------------------------------------------
# Per-layer metrics from one operation's spans
# ----------------------------------------------------------------------
def _self_times(spans: List[dict]) -> Dict[str, float]:
    """Span duration minus the durations of its same-process children.

    A pool job's span names its submitting span as parent but runs
    concurrently in another process, so it is not subtracted.
    """
    by_id = {span["id"]: span for span in spans}
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["pid"] == span["pid"]:
            child_time[parent["id"]] += span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - child_time[span["id"]]
            for span in spans}


def op_metrics(spans: List[dict]) -> Dict[str, float]:
    """The per-layer metrics of one operation, from its spans.

    A layer that did no work in the operation reports 0 for its counts,
    times and ratios.
    """
    total: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    attr: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    longest_job = 0.0
    self_times = _self_times(spans)
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        total[name] += duration
        count[name] += 1
        for key, value in span.get("attrs", {}).items():
            if isinstance(value, (int, float)):
                attr[f"{name}.{key}"] += value
        layer_self[name.split(".", 1)[0]] += self_times[span["id"]]
        if name == "analysis.scheduler.job":
            longest_job = max(longest_job, duration)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    scheduler_capacity = (attr["analysis.scheduler.run.workers"]
                          / max(count["analysis.scheduler.run"], 1)
                          * total["analysis.scheduler.run"])
    metrics = {
        "core.profile_s": total["core.profile"],
        "core.plain_run_s": total["core.plain_run"],
        "core.plain_runs": count["core.plain_run"],
        "core.online_s": total["core.online"],
        "core.policy_entries": attr["core.build_policy.entries"],
        "runtime.vms": count["runtime.vm"],
        "runtime.ticks": attr["workloads.run.ticks"],
        "runtime.contexts": attr["workloads.run.contexts"],
        "runtime.mticks_per_s": ratio(attr["workloads.run.ticks"] / 1e6,
                                      total["workloads.run"]),
        "collections.ops": (attr["profiler.report.ops"]
                            + attr["verify.replay.ops"]),
        "memory.gc_s": total["memory.gc"],
        "memory.gc_cycles": count["memory.gc"],
        "memory.gc_ms_per_cycle": ratio(1000 * total["memory.gc"],
                                        count["memory.gc"]),
        "memory.allocated_objects": attr["workloads.run.objects"],
        "profiler.report_s": total["profiler.report"],
        "profiler.contexts": attr["profiler.report.contexts"],
        "rules.evaluate_s": total["rules.evaluate"],
        "rules.suggestions": attr["rules.evaluate.suggestions"],
        "rules.evaluate_intervals_s": total["rules.evaluate_intervals"],
        "analysis.minheap_searches": count["analysis.minheap"],
        "analysis.minheap_probes": attr["analysis.minheap.probes"],
        "analysis.minheap_s": total["analysis.minheap"],
        "analysis.scheduler.jobs":
            attr["analysis.scheduler.run.jobs_executed"],
        "analysis.scheduler.worker_s":
            attr["analysis.scheduler.run.worker_seconds"],
        "analysis.scheduler.spawn_s":
            attr["analysis.scheduler.run.spawn_seconds"],
        "analysis.scheduler.merge_s":
            attr["analysis.scheduler.run.merge_seconds"],
        # SchedulerStats.transfer_seconds: submit-to-arrival time minus
        # in-worker time, summed over jobs -- mostly queue wait.
        "analysis.scheduler.wait_s":
            attr["analysis.scheduler.run.transfer_seconds"],
        "analysis.scheduler.utilisation": ratio(
            attr["analysis.scheduler.run.worker_seconds"],
            scheduler_capacity),
        "analysis.scheduler.longest_job_s": longest_job,
        "analysis.session_cache_hits": attr["analysis.session_cache.hit"],
        "analysis.session_cache_misses": (
            count["analysis.session_cache"]
            - attr["analysis.session_cache.hit"]),
        "lint.rules_check_s": total["lint.rules_check"],
        "lint.usage_s": total["lint.usage"],
        "lint.interproc_s": total["lint.interproc"],
        "lint.files": attr["lint.usage.files"],
        "lint.sites": attr["lint.interproc.sites"],
        "lint.findings": (attr["lint.rules_check.findings"]
                          + attr["lint.usage.findings"]
                          + attr["lint.interproc.findings"]),
        "verify.generate_s": total["verify.generate"],
        "verify.replay_s": total["verify.replay"],
        "verify.replays": count["verify.replay"],
        "verify.ops_replayed": attr["verify.replay.ops"],
        "verify.diff_ok_ratio": ratio(attr["verify.diff.ok"],
                                      count["verify.diff"]),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
