"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload advise --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every metric is printed on its own line with its
unit, then the output-check verdict, and the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every operation's output was correct, 1 when one was
not, and 2 when the checkout holds no ``src/repro`` package to measure.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HASH_SEED = "0"
"""``PYTHONHASHSEED`` of every workload process: simulated hash tables
iterate string keys in hash order, so tick counts depend on it."""

SETUP_SAMPLES = 7
"""Set-ups per run (one in-process, the rest in fresh interpreters);
``setup_s`` is their median.  Each is scaled to the reference host speed
by slices timed right before and after it (see calibration.py)."""

SETUP_SLICES = 5
"""Calibration slices before, and again after, each set-up."""

ROUND_SLICES = 25
"""Calibration slices per round (see calibration.py): one before each of
its operations, and the rest, but at least five, after it."""

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mib": "MiB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("advise", "reproduce"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-probe", action="store_true",
                      help="time one set-up and exit (used internally)")
    mode.add_argument("--reference", action="store_true",
                      help="print one round's outcome records (used "
                           "internally, under the reference cores)")
    return parser.parse_args(argv)


def _cpu_seconds() -> float:
    """User and system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _describe_inputs(workload_cls, seed: int) -> dict:
    """The inputs recorded with every result.  A benchmark checkout need
    not be a git repository; ``src_sha256`` then identifies the code."""
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        revision = done.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, names in os.walk(src):
        dirs.sort()
        for file_name in sorted(names):
            if file_name.endswith((".py", ".json")):
                path = os.path.join(base, file_name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"workload": workload_cls.name, "seed": seed,
            "hash_seed": HASH_SEED, "scale": workload_cls.scale,
            "jobs": workload_cls.jobs, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_revision": revision,
            "src_sha256": digest.hexdigest()[:16]}


def _setup(suite, tracing, tracer, workload_cls, seed):
    """Build the workload; returns it, set-up seconds and its parts."""
    start = time.perf_counter()
    for module in workload_cls.modules:
        importlib.import_module(module)
    imported = time.perf_counter()
    tracing.install(tracer)
    installed = time.perf_counter()
    from repro.workloads import default_workload_registry

    registry = default_workload_registry()
    registered = time.perf_counter()
    workload = workload_cls(suite.Setup(registry, seed, workload_cls.scale),
                            seed)
    done = time.perf_counter()
    parts = {"setup.import_s": imported - start,
             "setup.registry_s": registered - installed}
    return workload, (imported - start) + (done - installed), parts


def _child(args, extra_env=None):
    """Run this script again for one internal mode; returns the JSON of
    its last output line."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **(extra_env or {}))
    command = [sys.executable, os.path.abspath(__file__), *args]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _median_metrics(samples):
    keys = samples[0].keys()
    return {key: statistics.median(sample[key] for sample in samples)
            for key in keys}


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no package to measure at {src}/repro",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__),
                   *(sys.argv[1:] if argv is None else argv)],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.path[:0] = [src, ROOT]
    from perfbench import calibration, suite, tracing

    workload_cls = suite.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    worker_dir = os.path.join(OUT_DIR, f"workers-{os.getpid()}")
    tracer = tracing.Tracer(out_dir=worker_dir)
    tracer.enabled = bool(args.trace) and not (args.setup_probe
                                               or args.reference)
    tracer.op = "setup"
    calibrator = calibration.Calibrator()
    calibrator.slice(SETUP_SLICES)
    workload, setup_s, setup_parts = _setup(suite, tracing, tracer,
                                            workload_cls, args.seed)
    calibrator.slice(SETUP_SLICES)
    setup_s *= calibrator.factor()
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(
            src, "repro"):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.reference:
        from repro.core.config import ToolConfig

        config = ToolConfig()
        records = dict(suite.run_ops(workload.ops()))
        print(json.dumps({"cores": [config.gc_core, config.vm_core],
                          "records": records}))
        return 0

    os.makedirs(worker_dir, exist_ok=True)
    try:
        return _measure(args, calibrator, suite, tracing, tracer,
                        workload_cls, workload, setup_s, setup_parts)
    finally:
        shutil.rmtree(worker_dir, ignore_errors=True)


def _measure(args, calibrator, suite, tracing, tracer, workload_cls,
             workload, setup_s, setup_parts) -> int:
    inputs = _describe_inputs(workload_cls, args.seed)
    print("inputs " + json.dumps(inputs, sort_keys=True))
    setup_spans = list(tracer.spans)
    tracer.spans.clear()

    # Closed loop: rounds run back to back until the time is up; a round
    # is not started when less than half of the last one's time is left.
    # The traced run alternates untraced and traced rounds, so its
    # tracing overhead is measured under the same conditions.  Slices
    # timed before every operation and after every round give the run its
    # host-speed factor (see calibration.py); their time is not the
    # round's.
    first_slice = len(calibrator.times)
    calibrator.slice(5)
    rounds = []  # (index, traced, wall, cpu, results)
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        ops = workload.ops()
        gc.collect()
        tracer.enabled = traced
        tracer.op = f"round-{index}"
        sliced, sliced_cpu = sum(calibrator.times), calibrator.cpu
        cpu = _cpu_seconds()
        start = time.perf_counter()
        span = tracer.open("bench.round") if traced else None
        results = suite.run_ops(ops, calibrator.slice)
        if span is not None:
            tracer.close(span)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu
        tracer.enabled = False
        wall -= sum(calibrator.times) - sliced
        cpu -= calibrator.cpu - sliced_cpu
        calibrator.slice(max(5, ROUND_SLICES - len(ops)))
        rounds.append((index, traced, wall, cpu, results))
        index += 1
        if (time.perf_counter() + wall / 2 >= deadline
                and (not args.trace or index >= 2)):
            break
    peak_rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    problems = []
    reference = {}
    try:
        answer = _child(["--workload", args.workload, "--seed",
                         str(args.seed), "--reference"],
                        {"REPRO_GC_CORE": "reference",
                         "REPRO_VM_CORE": "reference"})
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        problems.append(f"reference run failed: {exc}")
    else:
        reference = answer["records"]
        if answer["cores"] != ["reference", "reference"]:
            problems.append(f"reference ran on cores {answer['cores']}")
    attempted = failed = 0
    first = {}
    for _index, traced, _wall, _cpu, results in rounds:
        for name, record in results:
            attempted += 1
            bad = suite.failed(name, record, reference)
            if not bad and traced:
                # A traced round must reproduce the untraced outcomes.
                bad = first.setdefault(name, record) != record
            elif not bad:
                first.setdefault(name, record)
            if bad:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{name}: {json.dumps(record)[:300]}")
    correct = failed == 0 and not problems
    for name, record in first.items():
        if record.get("divergence"):
            print(f"divergence found by {name}: {record['divergence']}")

    untraced = [r for r in rounds if not r[1]]
    factor = calibrator.factor(first_slice)
    if args.trace:
        metrics = _layer_metrics(args, suite, tracing, tracer, rounds,
                                 setup_spans, setup_parts, first, inputs)
    else:
        setups = [setup_s] + [
            _child(["--workload", args.workload, "--seed", str(args.seed),
                    "--setup-probe"])["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        values = {"setup_s": statistics.median(setups),
                  "wall_s": factor * statistics.median(r[2] for r in untraced),
                  "cpu_s": factor * statistics.median(r[3] for r in untraced),
                  "peak_rss_mib": (peak_rss_kib / 1024.0
                                   - calibrator.resident_mib)}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        walls = sorted(factor * r[2] for r in untraced)
        # The highest percentile with at least ten rounds beyond it.
        count = len(walls)
        tail = (f", p{100 * (count - 10) // count} {walls[count - 11]:.4f} s"
                if count >= 20 else "")
        print(f"rounds {count}: scaled wall median {values['wall_s']:.4f} s"
              f"{tail}; raw walls "
              + ", ".join(f"{r[2]:.4f}" for r in untraced)
              + f" s; host-speed factor {factor:.4f} from"
              f" {len(calibrator.times) - first_slice} slices; scaled setup"
              " samples "
              + ", ".join(f"{value:.4f}" for value in setups) + " s")
        for name, value in (suite.Advise.quality(first) or {}).items():
            print(f"advice {name} = {value:.4f} %")
        _write_result(args, inputs, metrics, None)

    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    print("outputs " + ("correct" if correct else "INCORRECT"))
    for problem in problems:
        print("  " + problem)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_metrics(args, suite, tracing, tracer, rounds, setup_spans,
                   setup_parts, records, inputs):
    """Per-layer metrics: the median over traced rounds of each
    operation-level value, plus set-up parts and tracing overhead."""
    tracer.collect_workers()
    by_op = {}
    for span in tracer.spans:
        by_op.setdefault(span["op"], []).append(span)
    traced_rounds = [r for r in rounds if r[1]]
    values = _median_metrics([tracing.op_metrics(by_op[f"round-{r[0]}"])
                              for r in traced_rounds])
    values.update(setup_parts)
    values["rules.engine_init_s"] = sum(
        span["end"] - span["start"] for span in setup_spans
        if span["name"] == "rules.engine_init")
    untraced_wall = statistics.median(r[2] for r in rounds if not r[1])
    traced_wall = statistics.median(r[2] for r in traced_rounds)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1)
    values.update(suite.Advise.quality(records) or {
        "core.peak_saved_pct": 0.0, "core.ticks_saved_pct": 0.0,
        "core.online_overhead_pct": 0.0})
    metrics = {name: {"value": value, "unit": _unit(name)}
               for name, value in sorted(values.items())}
    _write_result(args, inputs, metrics, setup_spans + tracer.spans)
    return metrics


def _unit(name: str) -> str:
    if name.endswith("mticks_per_s"):
        return "Mticks/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio") or name.endswith("utilisation"):
        return "ratio"
    if name.endswith("_ms_per_cycle"):
        return "ms"
    return "count"


def _write_result(args, inputs, metrics, spans) -> None:
    """Keep the result, its inputs and any spans in the output directory."""
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"inputs": inputs, "metrics": metrics, "spans": spans},
                  handle)


if __name__ == "__main__":
    sys.exit(main())
