"""Benchmark of the Chameleon reproduction: ``python3 perfbench/run.py``.

See ``perfbench/README.md`` for the workloads, the metrics and how the
traced run attributes time to the package's layers.
"""
