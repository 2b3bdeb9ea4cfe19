"""The benchmark's two workloads.

Each workload is a closed loop of *rounds*: one client in one process
runs a round, and the next round starts when it completes.  A round is a
fixed list of operations; each yields an outcome record that the runner
checks: each record must equal the record of the same operation run
under the ``reference`` GC and VM cores (the package's executable spec),
and lint must report no finding of error severity.  A diff record is the
diff's verdict, so a divergence the differential fuzzer finds is an
outcome to reproduce, not a failed operation; the runner prints every
divergence it sees.

Only numbers and rendered text with frame line numbers normalised are
compared: allocation contexts name source lines of the driving code, so
raw context strings are not outcomes.
"""

from __future__ import annotations

import importlib
import os
import re
from typing import Callable, Dict, List, Optional, Tuple

PROGRAMS = ("tvla", "pmd", "bloat", "findbugs", "soot", "fop")
"""The paper's six programs, in the order ``advise`` runs them."""

Op = Tuple[str, Callable[[], dict]]


def run_ops(ops: List[Op],
            between: Optional[Callable[[], None]] = None
            ) -> List[Tuple[str, dict]]:
    """Run each operation, calling ``between`` before each one; one that
    raises yields an ``error`` record instead of stopping the round."""
    results = []
    for name, call in ops:
        if between is not None:
            between()
        try:
            record = call()
        except Exception as exc:  # a failed operation, counted by the runner
            record = {"error": f"{type(exc).__name__}: {exc}"}
        results.append((name, record))
    return results


def _metrics(run) -> list:
    return [run.ticks, run.peak_live_bytes, run.gc_cycles,
            run.total_allocated_objects, run.total_allocated_bytes,
            run.completed]


class Setup:
    """What every workload builds before its timed rounds: the workload
    registry, the offline tool (with its rule engine), the online tool
    and the six paper programs at the workload's scale."""

    def __init__(self, registry, seed: int, scale: float) -> None:
        from repro import Chameleon, OnlineChameleon

        self.tool = Chameleon()
        self.online = OnlineChameleon()
        self.programs = [registry.create(name, seed=seed, scale=scale)
                         for name in PROGRAMS]


class Workload:
    """A benchmark workload over a :class:`Setup`; subclasses list one
    round's operations in :meth:`ops`."""

    name = ""
    scale = 0.2
    jobs = 1
    modules: Tuple[str, ...] = ()

    def __init__(self, setup: Setup, seed: int) -> None:
        self.setup = setup
        self.seed = seed

    def ops(self) -> List[Op]:
        raise NotImplementedError


class Advise(Workload):
    """Advice as a user gets it.  For each paper program: offline advice
    (``optimize``), then the section 3.3.2 online mode on a fresh
    instance.  Then the static advice of one lint pass over the programs'
    sources and ``examples/``, and generated list, set and map traces
    diffed across every eligible implementation -- the check that the
    implementations advice picks from are interchangeable.  Every round
    uses the same traces, drawn from the workload seed."""

    name = "advise"
    modules = ("repro", "repro.workloads", "repro.lint.rule_checker",
               "repro.lint.usage", "repro.lint.interproc",
               "repro.verify.generate", "repro.verify.trace")
    traces_per_adt = 3
    trace_ops = 40

    def __init__(self, setup: Setup, seed: int) -> None:
        super().__init__(setup, seed)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.paths = [importlib.import_module(type(p).__module__).__file__
                      for p in setup.programs]
        self.paths.append(os.path.join(root, "examples"))

    def ops(self) -> List[Op]:
        ops: List[Op] = []
        for program in self.setup.programs:
            ops.append((f"optimize:{program.name}",
                        lambda p=program: self._optimize(p.fresh())))
            ops.append((f"online:{program.name}",
                        lambda p=program: self._online(p.fresh())))
        ops += [("lint:rules", self._rules), ("lint:usage", self._usage),
                ("lint:interproc", self._interproc)]
        for slot in range(self.traces_per_adt):
            for adt in ("list", "set", "map"):
                seed = self.trace_seed(slot)
                ops.append((f"diff:{adt}:{seed}",
                            lambda a=adt, s=seed: self._diff(a, s)))
        return ops

    def trace_seed(self, slot: int) -> int:
        """The generator seed of trace ``slot``."""
        return self.seed * 1_000_003 + slot

    def _optimize(self, workload) -> dict:
        result = self.setup.tool.optimize(workload)
        return {"baseline": _metrics(result.baseline),
                "optimized": _metrics(result.optimized),
                "suggestions": [[s.rule.text, s.profile.src_type,
                                 s.action.render()]
                                for s in result.session.suggestions],
                "policy": len(result.policy)}

    def _online(self, workload) -> dict:
        result = self.setup.online.run(workload, with_baseline=False)
        return {"online": _metrics(result.online),
                "replaced": result.policy.replacements_chosen}

    @staticmethod
    def _errors(findings) -> dict:
        from repro.lint.findings import Severity

        return {"findings": len(findings),
                "errors": sum(1 for f in findings
                              if f.severity is Severity.ERROR)}

    def _rules(self) -> dict:
        from repro.lint import rule_checker
        from repro.rules.builtin import BUILTIN_RULES

        return self._errors(rule_checker.check_rules(BUILTIN_RULES))

    def _usage(self) -> dict:
        from repro.lint import usage

        return self._errors(usage.lint_paths_detailed(self.paths)[0])

    def _interproc(self) -> dict:
        from repro.lint import interproc

        return self._errors(interproc.analyze_paths(self.paths).findings)

    def _diff(self, adt: str, seed: int) -> dict:
        from repro.verify import generate, trace

        report = trace.diff_trace(
            generate.generate_trace(adt, seed, self.trace_ops),
            sanitize=True)
        return {"ok": report.ok,
                "divergence": list(report.failure_signature() or ()),
                "impls": len(report.results)}

    @staticmethod
    def quality(records: Dict[str, dict]) -> Optional[Dict[str, float]]:
        """Advice quality over the six programs, in percent: peak live
        bytes and ticks saved by the applied policy, and the online
        mode's tick overhead against the uninstrumented baseline.
        ``None`` unless every program's records are correct."""
        if not all(f"{kind}:{name}" in records for name in PROGRAMS
                   for kind in ("optimize", "online")):
            return None
        base_peak = base_ticks = saved_peak = saved_ticks = online = 0
        for name in PROGRAMS:
            result = records[f"optimize:{name}"]
            base, opt = result["baseline"], result["optimized"]
            base_ticks += base[0]
            base_peak += base[1]
            saved_ticks += base[0] - opt[0]
            saved_peak += base[1] - opt[1]
            online += records[f"online:{name}"]["online"][0]
        return {"core.peak_saved_pct": 100.0 * saved_peak / base_peak,
                "core.ticks_saved_pct": 100.0 * saved_ticks / base_ticks,
                "core.online_overhead_pct":
                    100.0 * (online / base_ticks - 1.0)}


_FRAME_LINE = re.compile(r"(\b[\w<>]+(?:\.[\w<>]+)+):\d+")


def normalise_frames(text: str) -> str:
    """``pkg.mod.func:123`` -> ``pkg.mod.func:N`` throughout ``text``."""
    return _FRAME_LINE.sub(r"\1:N", text)


class Reproduce(Workload):
    """Every paper figure, as ``experiment all --jobs 2`` runs it, from an
    empty session cache."""

    name = "reproduce"
    scale = 0.05
    jobs = 2
    modules = ("repro.analysis.experiments", "repro.analysis.scheduler")

    def ops(self) -> List[Op]:
        return [("run_all", self._run_all)]

    def _run_all(self) -> dict:
        from repro.analysis import experiments
        from repro.analysis.scheduler import Scheduler

        experiments.reset_session_cache()
        with Scheduler(jobs=self.jobs) as scheduler:
            text = experiments.run_all(self.scale, resolution=8192,
                                       scheduler=scheduler)
        return {"text": normalise_frames(text)}


WORKLOADS = {cls.name: cls for cls in (Advise, Reproduce)}


def failed(name: str, record: dict, reference: Dict[str, dict]) -> bool:
    """Whether operation ``name`` failed: it raised, lint found an error,
    or its record differs from the reference record."""
    if "error" in record or record.get("errors", 0) > 0:
        return True
    return reference.get(name) != record
