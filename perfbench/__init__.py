"""End-to-end and per-layer benchmark of the Sim2Rec reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``BENCHMARK.json`` at the repository root lists the
workloads and metrics. See ``perfbench/run.py``.
"""
