"""Remeasure the committed S1 and S2 cells that the README compares.

    python3 perfbench/figures.py --repeats 5

S1: batch RealAA at n = 64 and n = 8192 (bimodal 0/8 inputs, t = n // 4,
epsilon 1, known range 8, aggregate trace).  S2: batch TreeAA on the
Figure-3 tree at n = 100,000 (bimodal v3/v8 inputs, t = n // 4) without
and with a ``MetricsCollector``.  Every cell gets one untimed warm-up
call first, so imports and the (n, t) round-budget table are paid
outside the timing, then *repeats* timed calls; the table gives their
median and quartiles next to the value committed in
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from typing import Any, Callable, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (cell, committed seconds) from benchmarks/results/S1.txt and S2.txt.
COMMITTED = {
    "S1 batch n=64": 0.0820,
    "S1 batch n=8192": 3.9255,
    "S2 n=100000 batch": 7.0693,
    "S2 n=100000 batch+metrics": 18.2427,
}


def _timed(call: Callable[[], Any], repeats: int) -> List[float]:
    call()
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        call()
        times.append(time.perf_counter() - began)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src")]
    from repro.core.api import run_real_aa, run_tree_aa
    from repro.net.network import TraceLevel
    from repro.observability import MetricsCollector
    from repro.trees import figure_tree

    def s1(n: int) -> Callable[[], Any]:
        inputs = [0.0 if i % 2 == 0 else 8.0 for i in range(n)]
        return lambda: run_real_aa(inputs, max(1, n // 4), epsilon=1.0, known_range=8.0,
                                   trace_level=TraceLevel.AGGREGATE, backend="batch")

    tree = figure_tree()
    n = 100_000
    labels = ["v3" if i % 2 == 0 else "v8" for i in range(n)]

    def s2(metrics: bool) -> Callable[[], Any]:
        return lambda: run_tree_aa(tree, labels, n // 4, backend="batch",
                                   observer=MetricsCollector(tree=tree) if metrics else None)

    cells = {
        "S1 batch n=64": s1(64),
        "S1 batch n=8192": s1(8192),
        "S2 n=100000 batch": s2(False),
        "S2 n=100000 batch+metrics": s2(True),
    }
    print(f"{'cell':28} {'committed s':>12} {'median s':>10} {'q1 s':>10} {'q3 s':>10}")
    for name, call in cells.items():
        times = _timed(call, args.repeats)
        q1, _, q3 = statistics.quantiles(times, n=4)
        print(f"{name:28} {COMMITTED[name]:12.4f} {statistics.median(times):10.4f} {q1:10.4f} {q3:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
