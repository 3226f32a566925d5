"""Host-time benchmark of MiniDB (``repro.db``): end-to-end workloads
plus a separate traced run that splits the time across layers.

Run one workload with ``python3 hostbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; README.md in this
directory describes the workloads and metrics.
"""
