"""Benchmark for ruleweave: end-to-end workloads plus a traced per-layer run.

Run ``python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0``
from the repository root; see ``perfbench/README.md``.
"""
