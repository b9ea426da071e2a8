"""The Airfoil wall-clock ledger: the repo's performance benchmark.

Six workloads, end-to-end metrics with regression bounds, and a traced run
that attributes the wall clock to this repo's layers from the outside.
See ``README.md`` in this directory; entry points are ``run.py`` (the
one-workload contract command) and ``python -m benchmarks.perf``.
"""
