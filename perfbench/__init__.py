"""The repository benchmark: four workloads over the task path, one command.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` says what
each workload and metric is for.
"""
