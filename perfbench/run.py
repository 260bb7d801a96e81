"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload batch-large --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout, in this one process: no process pool,
no sweep cache outside a temporary directory, and at most one client
connection open at a time.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` measures half the time traced and half untraced, prints
each layer's self time, writes the spans to ``.perfbench-work/`` and
prints the per-layer metrics.  ``--self-check`` only runs the checker
self-test; ``--describe`` prints the make-up of a seed's first round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

#: The seed a traced run's untraced half draws from (``seed + OFFSET``);
#: the traced half sees exactly the inputs of the seed itself.
UNTRACED_SEED_OFFSET = 1_000_003

#: Span name -> per-layer metric reported as mean self seconds per op.
SELF_TIME_METRICS = {
    "rounds.budget": "rounds.budget_s",
    "engine.kernel": "engine.kernel_s",
    "engine.dense": "engine.dense_s",
    "engine.metrics": "engine.metrics_s",
    "engine.backend": "engine.backend_self_s",
    "net.run_protocol": "net.run_protocol_s",
    "net.payload_units": "net.payload_units_s",
    "gradecast.receive": "gradecast.receive_s",
    "adversary.byzantine": "adversary.byzantine_s",
    "trees.verdict": "trees.verdict_s",
    "spec.build": "spec.build_s",
    "observability.export": "observability.export_s",
    "core.api": "core.api_s",
    "analysis.spec_point": "analysis.spec_point_s",
    "flywheel.evaluate": "flywheel.evaluate_s",
}
#: Span name -> per-layer metric reported as mean inclusive seconds per op.
INCLUSIVE_METRICS = {
    "oracle.reference": "oracle.reference_s",
    "oracle.batch": "oracle.batch_s",
    "oracle.cross_protocol": "oracle.cross_protocol_s",
    "oracle.round_bound": "oracle.round_bound_s",
    "oracle.metrics_parity": "oracle.metrics_parity_s",
}
#: Counter -> per-layer metric (counted over the first traced round).
COUNT_METRICS = {
    "rounds.budget.calls": "rounds.budget_calls",
    "engine.kernel.calls": "engine.kernel_runs",
    "engine.dense.calls": "engine.dense_runs",
    "net.payload_units.calls": "net.payload_units_calls",
    "net.messages": "net.messages",
    "net.payload_units": "net.payload_units",
    "oracle.cells_ok": "oracle.cells_ok",
    "oracle.cells_skipped": "oracle.cells_skipped",
    "service.cache_hits": "service.cache_hits",
    "service.compute.calls": "service.points_executed",
}
SERVICE_METRICS = (
    "service.submit_s", "service.queue_wait_s", "service.compute_s",
    "service.persist_s", "service.poll_s",
)


def _purge_program() -> None:
    """Forget every imported ``repro`` module, so the next import is fresh."""
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measurement:
    """What one measured stretch of rounds produced."""

    def __init__(self) -> None:
        self.durations: List[float] = []
        self.failed = 0
        self.problems: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(self.durations)


def measure(workload: Any, seed: int, seconds: float, tracer: Any = None, first_id: int = 0) -> Measurement:
    """Run whole rounds until *seconds* have passed; time and check each op."""
    out = Measurement()
    rounds = workload.rounds(seed)
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        ops = next(rounds)
        # Start each round from a collected heap, outside the timing.
        gc.collect()
        if tracer is not None:
            tracer.counting = index == 0
        for op in ops:
            op_id = first_id + out.attempted
            span = None
            if tracer is not None:
                tracer.op_id = op_id
                tracer.enabled = True
                span = tracer.begin("op")
            began = time.perf_counter()
            error: Optional[str] = None
            try:
                result = workload.run(op)
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - began
            if span is not None:
                tracer.end(span)
                tracer.enabled = False
            out.durations.append(elapsed)
            problems = [error] if error else workload.check(op, result)
            if tracer is not None and error is None:
                workload.count(tracer, op, result)
            # Free the outcome here, not when the next op's result replaces
            # it: a large outcome takes tens of milliseconds to deallocate.
            result = None
            if problems:
                out.failed += 1
                out.problems.append(f"op {op_id} (slot {op.get('slot')}): {'; '.join(problems)}")
        index += 1
    if tracer is not None:
        tracer.counting = False
    return out


def setup(workload: Any) -> List[float]:
    """Import the program and prepare the workload several times.

    Each set-up starts from a fresh import of ``repro`` so that work at
    import time is counted; all but the last are torn down again.
    """
    times = []
    for attempt in range(workload.setup_repeats):
        _purge_program()
        gc.collect()
        began = time.perf_counter()
        workload.load()
        workload.prepare()
        times.append(time.perf_counter() - began)
        if attempt < workload.setup_repeats - 1:
            workload.teardown()
    return times


def seed_problems(workload_cls: Any, loaded: Any, seed: int) -> List[str]:
    """A second seed must give different inputs of the same make-up."""
    first, second = (describe(workload_cls, loaded, s) for s in (seed, seed + 1))
    problems = []
    if [op["makeup"] for op in first] != [op["makeup"] for op in second]:
        problems.append(f"seeds {seed} and {seed + 1} give different make-ups")
    if any(a["inputs"] == b["inputs"] for a, b in zip(first, second) if a["seeded"]):
        problems.append(f"seeds {seed} and {seed + 1} give an op the same inputs")
    return problems


def describe(workload_cls: Any, loaded: Any, seed: int) -> List[Dict[str, Any]]:
    """The make-up and an input digest of each op of a seed's first round."""
    fresh = workload_cls(ROOT)
    fresh.repro = loaded.repro
    if hasattr(fresh, "warm_points"):
        for point in fresh.warm_points():
            fresh.submitted[json.dumps(point, sort_keys=True)] = point
    ops = next(fresh.rounds(seed))
    return [
        {"makeup": json.loads(json.dumps(fresh.signature(op), default=str)),
         "inputs": fresh.details(op), "seeded": fresh.seeded(op)}
        for op in ops
    ]


def layer_metrics(workload: Any, tracer: Any, traced: Measurement, untraced: Measurement) -> Dict[str, float]:
    """The per-layer metrics of a traced run (seconds are per op)."""
    ops = traced.attempted
    own = tracer.layer_totals()
    inclusive = tracer.inclusive_totals()
    metrics: Dict[str, float] = {}
    for name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = own.get(name, 0.0) / ops
    for name, metric in INCLUSIVE_METRICS.items():
        metrics[metric] = inclusive.get(name, 0.0) / ops
    for name, metric in COUNT_METRICS.items():
        metrics[metric] = float(tracer.counters.get(name, 0))
    service = workload.service_stages(tracer)
    for metric in SERVICE_METRICS:
        metrics[metric] = service.get(metric, 0.0) / ops
    op_total = sum(traced.durations)
    metrics["trace.op_s"] = op_total / ops
    metrics["trace.ops_per_s"] = traced.ops_per_s
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s
    metrics["trace.overhead_pct"] = 100.0 * (untraced.ops_per_s / traced.ops_per_s - 1.0)
    metrics["trace.unattributed_pct"] = 100.0 * own.get("op", 0.0) / op_total
    metrics["trace.spans_per_op"] = len(tracer.spans) / ops
    return metrics


def print_layers(metrics: Dict[str, float]) -> None:
    """The traced run's per-op layer table (self seconds unless noted)."""
    print(f"{'layer metric':32} {'per op':>14}")
    for name, value in sorted(metrics.items()):
        print(f"{name:32} {value:14.6f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}/repro; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import selfcheck, service_exec, spans
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    checker_problems = selfcheck.run()
    if args.self_check:
        for problem in checker_problems:
            print(problem)
        print("self-check:", "FAILED" if checker_problems else "every checker rejects its wrong output")
        return 1 if checker_problems else 0

    # One CPU for the whole run: the service's client, HTTP and worker
    # threads then pass the interpreter lock on one core (unpinned, the
    # service's job latency spread 35 % across runs), and no op migrates.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORKDIR, exist_ok=True)
    cls = WORKLOADS[args.workload]
    workload = cls(ROOT)
    if args.describe:
        workload.load()
        for op in describe(cls, workload, args.seed):
            print(json.dumps(op))
        return 0
    if args.trace:
        workload.executor = workload.trace_executor
    try:
        setup_times = setup(workload)
        run_problems = checker_problems + seed_problems(cls, workload, args.seed)
        if args.trace:
            # Traced half first, so its first round — where the counters
            # are taken — sees the same state in every run of the seed.
            tracer = spans.Tracer()
            service_exec.TRACER = tracer
            restore = spans.install(tracer, workload.hooks(tracer))
            workload.tracer = tracer
            try:
                result = measure(workload, args.seed, args.seconds / 2, tracer)
            finally:
                restore()
                workload.tracer = service_exec.TRACER = None
            untraced = measure(workload, args.seed + UNTRACED_SEED_OFFSET, args.seconds / 2,
                               first_id=result.attempted)
            metrics = layer_metrics(workload, tracer, result, untraced)
            tracer.write(os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
            print_layers(metrics)
            result.durations += untraced.durations
            result.failed += untraced.failed
            result.problems += untraced.problems
            report = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
        else:
            result = measure(workload, args.seed, args.seconds)
            report = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "op_s_p50": {"value": statistics.median(result.durations), "unit": "s"},
                "ops_per_s": {"value": result.ops_per_s, "unit": "1/s"},
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MiB"},
            }
        run_problems += workload.run_checks(args.seed)
    finally:
        workload.teardown()
        _remove_if_empty(WORKDIR)
    for problem in (run_problems + result.problems)[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run_problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": report,
    }))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric == "trace.spans_per_op":
        return "count/op"
    return "count"


def _remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
