"""The repository benchmark: named workloads, host/simulated metrics, traced layers.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
