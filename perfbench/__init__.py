"""Benchmark of the latticealign library: workloads, tracing and the runner.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
