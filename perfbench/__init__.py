"""Benchmark for distcode: closed-loop workloads, per-layer tracing, result JSON.

Run it from the repository root with ``python3 -m perfbench.run --help``.
"""
