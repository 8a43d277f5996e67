"""End-to-end and per-layer benchmark of the simulated HopsFS-CL stack.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/METRICS.md`` lists
every metric and why each workload exists.
"""
