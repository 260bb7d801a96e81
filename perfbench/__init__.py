"""The repository's benchmark: three in-process workloads, one command.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this process, checks every output and prints one
JSON result line.  See ``perfbench/README.md``.
"""
