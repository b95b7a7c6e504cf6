"""Benchmark for p3bundles: timed workloads, correctness digests and tracing.

Run it from the repository root with ``python3 perfbench/run.py --workload
NAME``; see perfbench/README.md.
"""
