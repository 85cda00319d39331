"""End-to-end, per-layer benchmark of the simulator (see README.md).

Drives the simulator from outside through ``run_experiment`` +
``summarize_run``; every run is a fresh child process
(:mod:`benchmarks.e2e.child`), orchestrated by
:mod:`benchmarks.e2e.harness`.  ``BENCHMARK.json`` at the repository
root names every metric and workload; this package measures them.
"""
