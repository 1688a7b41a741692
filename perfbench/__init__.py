"""Benchmark for hcpkit: four workloads, pinned references and a traced run.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and every metric.
"""
