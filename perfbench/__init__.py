"""Benchmark of the qgelfand CLI: seeded workloads, per-command correctness
checks against recorded values, and per-layer traced timings.  Run it with
``python3 perfbench/run.py``; see README.md."""
