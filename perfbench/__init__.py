"""Repository benchmark: three workloads, end-to-end metrics, traced layers.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See ``run.py``.
"""
