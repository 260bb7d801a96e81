"""In-memory spans around calls into the program's layers.

The traced run wraps public functions of each layer from here, outside
the program: :func:`install` swaps every module-level binding (and class
attribute) of a target for a wrapper that records one span per call —
name, start, end, parent and op id — and returns an undo callback.  Spans
stay in memory until the run ends; :meth:`Tracer.layer_totals` turns them
into self times (a span's duration minus the part its children cover).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute, span name).  ``Class.method`` attributes patch
#: the class and every subclass that overrides the method.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.protocols.rounds", "realaa_iterations", "rounds.budget"),
    ("repro.protocols.rounds", "worst_burn_factor", "rounds.budget"),
    ("repro.engine.kernel", "BatchExecution.run_realaa_phase", "engine.kernel"),
    ("repro.engine.dense", "DenseExecution.run_realaa_phase", "engine.dense"),
    ("repro.engine.metrics", "BatchMetrics.emit", "engine.metrics"),
    ("repro.engine.metrics", "BatchMetrics.finalize", "engine.metrics"),
    ("repro.engine.metrics", "BatchMetrics.flush", "engine.metrics"),
    ("repro.engine.backend", "BatchSynchronousEngine.run_real_aa", "engine.backend"),
    ("repro.engine.backend", "BatchSynchronousEngine.run_path_aa", "engine.backend"),
    ("repro.engine.backend", "BatchSynchronousEngine.run_tree_aa", "engine.backend"),
    ("repro.net.runner", "run_protocol", "net.run_protocol"),
    ("repro.net.network", "payload_units", "net.payload_units"),
    ("repro.protocols.gradecast", "ParallelGradecast.receive_values", "gradecast.receive"),
    ("repro.protocols.gradecast", "ParallelGradecast.receive_echoes", "gradecast.receive"),
    ("repro.protocols.gradecast", "ParallelGradecast.receive_supports", "gradecast.receive"),
    ("repro.adversary.base", "Adversary.byzantine_messages", "adversary.byzantine"),
    ("repro.analysis.spec", "ScenarioSpec.build_tree", "spec.build"),
    ("repro.analysis.spec", "ScenarioSpec.make_inputs", "spec.build"),
    ("repro.analysis.spec", "ScenarioSpec.make_adversary", "spec.build"),
    ("repro.analysis.spec", "execute_spec_point", "analysis.spec_point"),
    ("repro.observability.events", "export_run", "observability.export"),
    ("repro.core.api", "run_tree_aa", "core.api"),
    ("repro.core.api", "run_path_aa", "core.api"),
    ("repro.core.api", "run_real_aa", "core.api"),
    ("repro.flywheel.oracles", "evaluate_point", "flywheel.evaluate"),
    ("repro.flywheel.oracles", "_check_cross_protocol", "oracle.cross_protocol"),
    ("repro.flywheel.oracles", "_check_round_bound", "oracle.round_bound"),
    ("repro.flywheel.oracles", "_trace_records", "oracle.metrics_parity"),
    ("repro.service.worker", "write_sweep_jsonl", "service.persist"),
    ("repro.service.journal", "JobJournal.record_submitted", "service.persist"),
    ("repro.service.journal", "JobJournal.record_point", "service.persist"),
    ("repro.service.journal", "JobJournal.record_job", "service.persist"),
    ("repro.analysis.parallel", "SweepCache.put", "service.persist"),
)

#: Bindings patched only inside one module: the AA verdicts' tree walks
#: (other callers of the same functions are not verdicts).
LOCAL_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.api", "in_convex_hull", "trees.verdict"),
    ("repro.core.api", "distance", "trees.verdict"),
)


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, op id, thread name)
        self.spans: List[Tuple[str, float, float, int, Any, str]] = []
        self.counters: Counter = Counter()
        #: Counters are taken only while this is set (the first traced
        #: round), so they repeat exactly for a given seed.
        self.counting = False
        #: Spans are recorded only while this is set (during ops, not
        #: during the benchmark's own checks).
        self.enabled = False
        self.op_id: Any = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        """Open a span; returns its index (close it with :meth:`end`)."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                (name, time.perf_counter(), 0.0, parent, self.op_id, threading.current_thread().name)
            )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span opened as *index*."""
        now = time.perf_counter()
        self._stack().pop()
        name, start, _, parent, op, thread = self.spans[index]
        self.spans[index] = (name, start, now, parent, op, thread)

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter (only during the counted round)."""
        if self.counting:
            with self._lock:
                self.counters[name] += amount

    def wrap(self, func: Callable, name: Any, on_result: Optional[Callable] = None) -> Callable:
        """*func* recording a span per call; *name* may be a callable of
        the call's arguments."""
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return func(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            tracer.count(label + ".calls")
            index = tracer.begin(label)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def self_times(self) -> List[float]:
        """Each span's duration minus its children's durations."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> Dict[str, float]:
        """Self seconds summed per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]] += own
        return dict(totals)

    def inclusive_totals(self) -> Dict[str, float]:
        """Wall seconds summed per span name, children included."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def write(self, path: str) -> None:
        """Write every span and counter as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for name, start, end, parent, op, thread in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "thread": thread}) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _replace_everywhere(original: Any, replacement: Any, modules: Iterable[str]) -> List[Callable[[], None]]:
    """Rebind every module-level name bound to *original*."""
    undo: List[Callable[[], None]] = []
    for module_name in modules:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append(functools.partial(setattr, module, key, original))
    return undo


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(tracer: Tracer, hooks: Optional[Dict[str, Callable]] = None) -> Callable[[], None]:
    """Wrap every target; returns a callback restoring the originals.

    *hooks* maps a span name to a callback run on each result, for
    counters read off return values.
    """
    hooks = hooks or {}
    undo: List[Callable[[], None]] = []
    repro_modules = [m for m in sys.modules if m == "repro" or m.startswith("repro.")]
    for module_name, attr, name in FUNCTION_TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            for cls in _subclasses(getattr(module, class_name)):
                if method in vars(cls):
                    original = vars(cls)[method]
                    setattr(cls, method, tracer.wrap(original, name, hooks.get(name)))
                    undo.append(functools.partial(setattr, cls, method, original))
            continue
        original = getattr(module, attr)
        undo += _replace_everywhere(original, tracer.wrap(original, name, hooks.get(name)), repro_modules)
    # One oracle function runs both engines; its span is named per engine.
    run_side = importlib.import_module("repro.flywheel.oracles")._run_side
    undo += _replace_everywhere(
        run_side,
        tracer.wrap(run_side, lambda spec, backend: f"oracle.{backend}"),
        ["repro.flywheel.oracles"],
    )
    for module_name, attr, name in LOCAL_TARGETS:
        module = importlib.import_module(module_name)
        undo += _replace_everywhere(getattr(module, attr), tracer.wrap(getattr(module, attr), name), [module_name])

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore
