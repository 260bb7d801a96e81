"""The three workloads: how each makes its inputs, runs an op and checks it.

A workload yields *rounds*: lists of ops with a fixed make-up, whose
details (sizes, trees, inputs, corrupted sets, adversary seeds) come
from the seed.  The program is imported afresh by :meth:`Workload.load`
at every set-up, so nothing here holds a ``repro`` object at module level.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from . import checks

#: A flywheel round's make-up: points per (t, trace level) cell of each
#: protocol, in the stream's own 1:1:2 protocol proportions.
FLYWHEEL_PER_CELL = {"real-aa": 1, "path-aa": 1, "tree-aa": 2}
#: Points a service job carries.
JOB_NEW_POINTS = 9
JOB_REPEATS = 3
JOBS_PER_ROUND = 4
#: Client poll interval: a tenth of a job's ~0.1 s, so polling adds little
#: latency and few interpreter-lock hand-overs to the worker thread.
POLL_INTERVAL = 0.01


def _rng(*parts: Any) -> random.Random:
    """A generator seeded from *parts* (stable across processes)."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()[:12]


class Workload:
    """One workload's inputs, op, checks and set-up."""

    name = ""
    #: The program's modules this workload calls.
    modules: Tuple[str, ...] = ()
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 5
    #: ``ServiceConfig.executor`` for the service's set-up, and the one
    #: a traced run uses.
    executor: Optional[str] = None
    trace_executor: Optional[str] = None
    #: The traced run's tracer while the traced half runs.
    tracer: Any = None

    def __init__(self, root: str) -> None:
        self.root = root
        self.repro: Dict[str, Any] = {}

    def load(self) -> None:
        """Import :attr:`modules` (afresh, after the harness purged them)."""
        for module in self.modules:
            self.repro[module] = importlib.import_module(module)

    def m(self, module: str) -> Any:
        return self.repro[module]

    def prepare(self) -> None:
        """Set-up after the imports: warm-up work, services."""

    def teardown(self) -> None:
        """Undo :meth:`prepare`."""

    def rounds(self, seed: int) -> Iterator[List[Dict[str, Any]]]:
        raise NotImplementedError

    def run(self, op: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def check(self, op: Dict[str, Any], result: Any) -> List[str]:
        raise NotImplementedError

    def run_checks(self, seed: int) -> List[str]:
        """Checks made once per run, outside the measured ops."""
        return []

    def signature(self, op: Dict[str, Any]) -> Any:
        """The make-up of an op: what stays fixed across seeds."""
        return op["slot"]

    def details(self, op: Dict[str, Any]) -> Any:
        """What the seed chooses for an op."""
        return _digest({k: v for k, v in op.items() if k != "slot"})

    def seeded(self, op: Dict[str, Any]) -> bool:
        """Whether the seed chooses this op's inputs."""
        return True

    def hooks(self, tracer: Any) -> Dict[str, Callable[[Any], None]]:
        """Span name -> callback counting off that call's result."""

        def trace_counts(result: Any) -> None:
            trace = getattr(result, "execution", result).trace
            tracer.count("net.messages", trace.message_count)
            tracer.count("net.payload_units", trace.payload_unit_count)

        return {"net.run_protocol": trace_counts, "engine.backend": trace_counts}

    def count(self, tracer: Any, op: Dict[str, Any], result: Any) -> None:
        """Counters read off an op's result in the traced run."""

    def service_stages(self, tracer: Any) -> Dict[str, float]:
        """The service's latency stages, summed over traced ops."""
        return {}


# ----------------------------------------------------------------------
# batch-large
# ----------------------------------------------------------------------

#: (protocol, base n, t choice, tree, adversary, MetricsCollector).
#: t is n // 4 ("quarter") or the maximum (n - 1) // 3.  Silent and
#: crash corrupt a pinned set of PINNED parties (see README).
BATCH_SLOTS = (
    ("tree-aa", 10_000, "quarter", "figure", "none", True),
    ("tree-aa", 12_000, "quarter", "generated", "passive", False),
    ("tree-aa", 14_000, "quarter", "figure", "silent", False),
    ("tree-aa", 13_000, "quarter", "generated", "crash", True),
    ("tree-aa", 18_000, "quarter", "figure", "none", False),
    ("tree-aa", 10_500, "max", "generated", "none", False),
    ("real-aa", 36_000, "quarter", None, "none", True),
    ("real-aa", 9_000, "max", None, "silent", False),
    ("real-aa", 20_000, "quarter", None, "passive", False),
)
#: The slot whose inputs do not depend on the seed: at the maximum t its
#: round count exceeds ``empirical_tree_round_bound`` on every input, so
#: it fails the same way in every run (README, "Known failure").
FIXED_SLOT = 5
#: n = base + a seeded offset below N_JITTER, distinct within a run.
N_JITTER = 200
PINNED = 16
#: The larger tree: one generated 40-vertex tree, the same in every run.
GENERATED_TREE = (40, 7)
REAL_RANGE = 8.0
REAL_EPSILON = 1.0
SMALL_N = 64


class BatchLarge(Workload):
    name = "batch-large"
    modules = (
        "repro.core.api",
        "repro.trees.generators",
        "repro.observability",
        "repro.adversary",
        "repro.lowerbound",
        "repro.protocols.rounds",
        "repro.net.network",
    )

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.used_n: set = set()
        self.fixed_uses = 0

    def _tree(self, kind: str) -> Any:
        gen = self.m("repro.trees.generators")
        if kind == "figure":
            return gen.figure_tree()
        return gen.random_tree(*GENERATED_TREE)

    def _fresh_n(self, base: int, rng: random.Random) -> int:
        while True:
            n = base + rng.randrange(N_JITTER)
            if n not in self.used_n:
                self.used_n.add(n)
                return n

    def make_op(self, slot: int, rng: random.Random, n: Optional[int] = None) -> Dict[str, Any]:
        protocol, base, t_mode, tree, adversary, metrics = BATCH_SLOTS[slot]
        n = n if n is not None else self._fresh_n(base, rng)
        t = n // 4 if t_mode == "quarter" else (n - 1) // 3
        op: Dict[str, Any] = {
            "slot": slot, "protocol": protocol, "n": n, "t": t,
            "adversary": adversary, "metrics": metrics,
        }
        if adversary in ("silent", "crash"):
            op["corrupt"] = sorted(rng.sample(range(n), PINNED))
        if adversary == "crash":
            op["crash_round"] = rng.randint(1, 6)
            op["partial_to"] = rng.randrange(n)
        if protocol == "real-aa":
            op["inputs"] = [round(rng.uniform(0.0, REAL_RANGE), 6) for _ in range(n)]
            return op
        op["tree"] = tree
        # Built here, outside the timed op.
        op["tree_obj"] = self._tree(tree)
        vertices = sorted(op["tree_obj"].vertices, key=str)
        anchors = rng.sample(vertices, 4)
        op["inputs"] = [anchors[rng.randrange(4)] for _ in range(n)]
        return op

    def rounds(self, seed: int) -> Iterator[List[Dict[str, Any]]]:
        index = 0
        while True:
            ops = []
            for slot in range(len(BATCH_SLOTS)):
                if slot == FIXED_SLOT:
                    # Seed-independent: n and inputs follow the use count.
                    rng = _rng("batch-large-fixed", self.fixed_uses)
                    n = BATCH_SLOTS[slot][1] + self.fixed_uses
                    self.fixed_uses += 1
                    self.used_n.add(n)
                    ops.append(self.make_op(slot, rng, n=n))
                else:
                    ops.append(self.make_op(slot, _rng("batch-large", seed, index, slot)))
            index += 1
            yield ops

    def _adversary(self, op: Dict[str, Any]) -> Any:
        adv = self.m("repro.adversary")
        kind = op["adversary"]
        if kind == "none":
            return None
        if kind == "passive":
            return adv.PassiveAdversary()
        if kind == "silent":
            return adv.SilentAdversary(corrupt=op["corrupt"])
        return adv.CrashAdversary(
            crash_round=op["crash_round"], partial_to=op["partial_to"], corrupt=op["corrupt"]
        )

    def _execute(self, op: Dict[str, Any], backend: str, trace_level: Any = None) -> Any:
        api = self.m("repro.core.api")
        TraceLevel = self.m("repro.net.network").TraceLevel
        if op["protocol"] == "real-aa":
            collector = self.m("repro.observability").MetricsCollector() if op["metrics"] else None
            return api.run_real_aa(
                op["inputs"], op["t"], epsilon=REAL_EPSILON, known_range=REAL_RANGE,
                adversary=self._adversary(op), observer=collector,
                trace_level=trace_level or TraceLevel.AGGREGATE, backend=backend,
            )
        tree = op["tree_obj"]
        collector = self.m("repro.observability").MetricsCollector(tree=tree) if op["metrics"] else None
        return api.run_tree_aa(
            tree, op["inputs"], op["t"], adversary=self._adversary(op), observer=collector,
            trace_level=trace_level or TraceLevel.FULL, backend=backend,
        )

    def run(self, op: Dict[str, Any]) -> Any:
        return self._execute(op, "batch")

    def check(self, op: Dict[str, Any], outcome: Any) -> List[str]:
        execution = outcome.execution
        n, t = op["n"], op["t"]
        corrupted = set(execution.corrupted)
        problems = []
        if len(corrupted) > t:
            problems.append(f"{len(corrupted)} corrupted parties for t = {t}")
        if "corrupt" in op and not corrupted <= set(op["corrupt"]):
            problems.append("parties outside the pinned set were corrupted")
        honest = [pid for pid in range(n) if pid not in corrupted]
        outputs = {pid: execution.outputs.get(pid) for pid in honest}
        bounds = self.m("repro.lowerbound")
        if op["protocol"] == "real-aa":
            problems += checks.check_real_outputs(
                [op["inputs"][pid] for pid in honest], list(outputs.values()), REAL_EPSILON
            )
            upper = self.m("repro.protocols.rounds").realaa_duration(REAL_RANGE, REAL_EPSILON, n, t)
            problems += checks.check_rounds(outcome.rounds, 1 if t else 0, upper)
            return problems
        tree = op["tree_obj"]
        adj = checks.adjacency(tree.edges(), tree.vertices)
        problems += checks.check_tree_outputs(adj, {pid: op["inputs"][pid] for pid in honest}, outputs)
        lower, upper = checks.tree_round_bounds(
            adj, n, t, bounds.theorem2_lower_bound, bounds.empirical_tree_round_bound
        )
        problems += checks.check_rounds(outcome.rounds, lower, upper)
        return problems

    def run_checks(self, seed: int) -> List[str]:
        """One op of slot 2's make-up at n = 64 on both engines."""
        op = self.make_op(2, _rng("batch-large-small", seed), n=SMALL_N)
        aggregate = self.m("repro.net.network").TraceLevel.AGGREGATE
        batch = self._execute(op, "batch", aggregate)
        reference = self._execute(op, "reference", aggregate)
        problems = checks.check_rows_equal(
            _outcome_row(reference), _outcome_row(batch), "reference and batch rows at n = 64"
        )
        return problems + [f"n = 64: {p}" for p in self.check(op, reference)]

    def seeded(self, op: Dict[str, Any]) -> bool:
        return op["slot"] != FIXED_SLOT

    def details(self, op: Dict[str, Any]) -> Any:
        return _digest({k: v for k, v in op.items() if k not in ("slot", "tree_obj")})

    def signature(self, op: Dict[str, Any]) -> Any:
        n, t = op["n"], op["t"]
        t_choice = "max" if t == (n - 1) // 3 else "quarter" if t == n // 4 else str(t)
        return (op["slot"], op["protocol"], op.get("tree"), op["adversary"], op["metrics"],
                n // 1000 * 1000, t_choice)

    def prepare(self) -> None:
        """Warm-up: one small op per engine path, so first calls are paid."""
        rng = _rng("batch-large-warm")
        for slot in (0, 6):
            op = self.make_op(slot, rng, n=2_000 + slot)
            self.check(op, self.run(op))


def _outcome_row(outcome: Any) -> Dict[str, Any]:
    """The engine-independent projection of a TreeAA/RealAA outcome."""
    execution = outcome.execution
    honest = sorted(execution.honest)
    return {
        "honest": honest,
        "outputs": [execution.outputs.get(pid) for pid in honest],
        "rounds": outcome.rounds,
        "terminated": outcome.terminated,
        "valid": outcome.valid,
        "agreement": outcome.agreement,
        "messages": execution.trace.message_count,
        "per_round_messages": list(execution.trace.per_round_messages),
        "payload_units": execution.trace.payload_unit_count,
    }


# ----------------------------------------------------------------------
# flywheel-small
# ----------------------------------------------------------------------


class FlywheelSmall(Workload):
    name = "flywheel-small"
    modules = (
        "repro.analysis.spec",
        "repro.analysis.strategies",
        "repro.flywheel.oracles",
        "repro.lowerbound",
    )

    def rounds(self, seed: int) -> Iterator[List[Dict[str, Any]]]:
        """Rounds of the stream's points with a fixed make-up.

        A round holds, in a fixed order, the stream's next points of every
        (protocol, t, trace level) cell, as many as
        :data:`FLYWHEEL_PER_CELL` says; points whose cell is already full
        are skipped.  The stream draws these axes independently, so a
        round has the stream's mix exactly: a seed's mix cannot move
        ``op_s_p50``, which falls between the fast real-aa/path-aa points
        and the slower tree-aa points.
        """
        strategies = self.m("repro.analysis.strategies")
        slots = [
            (protocol, t, trace)
            for t in range(strategies.FLYWHEEL_MAX_T + 1)
            for trace in ("full", "aggregate")
            for protocol, count in FLYWHEEL_PER_CELL.items()
            for _ in range(count)
        ]
        stream = strategies.spec_stream(seed, 10**9)
        while True:
            left = {cell: slots.count(cell) for cell in slots}
            taken: Dict[Tuple[str, int, str], List[Any]] = defaultdict(list)
            while any(left.values()):
                spec = next(stream)
                cell = (spec.protocol, spec.t, spec.trace_level)
                if left[cell]:
                    left[cell] -= 1
                    taken[cell].append(spec)
            yield [{"slot": cell, "spec": taken[cell].pop()} for cell in slots]

    def run(self, op: Dict[str, Any]) -> Any:
        return self.m("repro.flywheel.oracles").evaluate_point(op["spec"])

    def check(self, op: Dict[str, Any], row: Any) -> List[str]:
        oracles = self.m("repro.flywheel.oracles")
        problems = checks.check_flywheel_row(row, set(oracles.REFERENCE_ONLY_ADVERSARIES))
        spec = op["spec"]
        if spec.protocol != "real-aa" and "rounds" in row:
            tree = spec.build_tree()
            adj = checks.adjacency(tree.edges(), tree.vertices)
            bounds = self.m("repro.lowerbound")
            lower, upper = checks.tree_round_bounds(
                adj, spec.n, spec.t, bounds.theorem2_lower_bound, bounds.empirical_tree_round_bound
            )
            problems += checks.check_rounds(row["rounds"], lower, upper)
        if not row.get("ok"):
            problems.append("the point's row is not ok")
        return problems

    def details(self, op: Dict[str, Any]) -> Any:
        return _digest(op["spec"].to_dict())

    def count(self, tracer: Any, op: Dict[str, Any], row: Any) -> None:
        for cell in row["oracles"].values():
            if cell["status"] in ("ok", "skipped"):
                tracer.count(f"oracle.cells_{cell['status']}")

    def prepare(self) -> None:
        for spec in self.m("repro.analysis.strategies").spec_stream(10**6, 4):
            op = {"slot": "point", "spec": spec}
            self.check(op, self.run(op))


# ----------------------------------------------------------------------
# service-jobs
# ----------------------------------------------------------------------


class ServiceJobs(Workload):
    """A closed loop of one client submitting jobs over loopback HTTP."""

    name = "service-jobs"
    trace_executor = "perfbench.service_exec:execute"
    modules = (
        "repro.analysis.spec",
        "repro.analysis.strategies",
        "repro.service",
        "repro.service.client",
        "repro.service.session",
    )

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.service: Any = None
        self.workdir: Optional[str] = None
        self.executor: Optional[str] = None
        #: Canonical JSON of every point submitted so far -> its spec dict.
        self.submitted: Dict[str, Dict[str, Any]] = {}
        self.direct_rows: Dict[str, Any] = {}
        self.stream_seed = 0

    def prepare(self) -> None:
        session = self.m("repro.service.session")
        base = os.path.join(self.root, ".perfbench-work")
        os.makedirs(base, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="service-", dir=base)
        config = session.ServiceConfig(
            port=0,
            cache_dir=os.path.join(self.workdir, "cache"),
            data_dir=os.path.join(self.workdir, "data"),
            pool_jobs=1,
            executor=self.executor,
        )
        self.service = session.ScenarioService(config).start()
        self.client = self.m("repro.service.client").ServiceClient(self.service.url)
        self.submitted = {}
        # Warm-up job: its points are the first ones later jobs repeat.
        warm = {"slot": "job", "points": self.warm_points(), "repeats": 0}
        problems = self.check(warm, self.run(warm))
        if problems:
            raise RuntimeError(f"service warm-up job failed its checks: {problems}")

    def warm_points(self) -> List[Dict[str, Any]]:
        """The warm-up job's points (the same in every run)."""
        stream = self.m("repro.analysis.strategies").spec_stream(10**6 + 1, JOB_NEW_POINTS + JOB_REPEATS)
        return [spec.to_dict() for spec in stream]

    def teardown(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def rounds(self, seed: int) -> Iterator[List[Dict[str, Any]]]:
        stream = self.m("repro.analysis.strategies").spec_stream(seed, 10**9)
        rng = _rng("service-jobs", seed)
        while True:
            yield [self._job(stream, rng) for _ in range(JOBS_PER_ROUND)]

    def _job(self, stream: Iterator[Any], rng: random.Random) -> Dict[str, Any]:
        """Nine new points and three repeated from earlier rounds' jobs
        (or the warm-up job), shuffled."""
        fresh = [next(stream).to_dict() for _ in range(JOB_NEW_POINTS)]
        earlier = sorted(self.submitted)
        points = fresh + [self.submitted[key] for key in rng.sample(earlier, JOB_REPEATS)]
        rng.shuffle(points)
        return {"slot": "job", "points": points, "repeats": JOB_REPEATS}

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        if self.tracer is None:
            yield
            return
        index = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(index)

    def run(self, op: Dict[str, Any]) -> Any:
        with self._span("service.submit"):
            job_id = self.client.submit({"points": op["points"]})["job_id"]
        with self._span("service.poll"):
            status = self.client.wait(job_id, timeout=120.0, interval=POLL_INTERVAL)
            return job_id, status, self.client.results(job_id)

    def count(self, tracer: Any, op: Dict[str, Any], result: Any) -> None:
        tracer.count("service.cache_hits", sum(1 for r in result[2] if r.get("status") == "cached"))

    def check(self, op: Dict[str, Any], result: Any) -> List[str]:
        job_id, status, records = result
        spec_mod = self.m("repro.analysis.spec")
        problems = []
        if status.get("status") != "done":
            problems.append(f"job ended {status.get('status')!r}")
        keys = [json.dumps(p, sort_keys=True) for p in op["points"]]
        repeats = sum(1 for key in keys if key in self.submitted)
        if repeats != op["repeats"]:
            problems.append(f"the plan repeats {repeats} points, the make-up says {op['repeats']}")
        cached = sum(1 for r in records if r.get("status") == "cached")
        problems += checks.check_cache_hits(repeats, cached)
        served = [r.get("row") for r in records]
        for key, point, row in zip(keys, op["points"], served):
            if key not in self.direct_rows:
                self.direct_rows[key] = checks.comparable_row(
                    spec_mod.execute_spec_point(spec_mod.ScenarioSpec.from_dict(point))
                )
            if row is None or checks.comparable_row(row) != self.direct_rows[key]:
                problems.append("a served row differs from the direct execute_spec_point row")
                break
        path = os.path.join(self.workdir or "", "data", f"{job_id}.jsonl")
        if not os.path.exists(path) or checks.read_jsonl_rows(path) != served:
            problems.append("the persisted JSONL does not read back as the served rows")
        for key, point in zip(keys, op["points"]):
            self.submitted[key] = point
        return problems

    def signature(self, op: Dict[str, Any]) -> Any:
        return (op["slot"], len(op["points"]), op["repeats"])

    def details(self, op: Dict[str, Any]) -> Any:
        return _digest(op["points"])

    def service_stages(self, tracer: Any) -> Dict[str, float]:
        """Job latency split at its timestamps, summed over traced ops.

        ``submit`` runs to the job's acceptance (the end of its journal
        record), ``queue_wait`` from there to the first point executing;
        ``compute`` and ``persist`` are the worker's spans; ``poll`` is the
        rest: cache scan, bookkeeping, the client noticing the terminal
        state, and the results fetch.
        """
        by_op: Dict[Any, List[Tuple[str, float, float, str]]] = defaultdict(list)
        for name, start, end, _, op_id, thread in tracer.spans:
            by_op[op_id].append((name, start, end, thread))
        stages: Dict[str, float] = defaultdict(float)
        for spans in by_op.values():
            roots = [s for s in spans if s[0] == "op"]
            computes = [s for s in spans if s[0] == "service.compute"]
            if not roots or not computes:
                continue
            persists = [s for s in spans if s[0] == "service.persist"]
            worker = [s for s in persists if s[3] == "scenario-worker"]
            handler = [s for s in persists if s[3] != "scenario-worker"]
            op_start, op_end = roots[0][1], roots[0][2]
            first = min(s[1] for s in computes)
            accepted = min([s[2] for s in handler if s[2] <= first] or [first])
            stage = {
                "service.submit_s": accepted - op_start,
                "service.queue_wait_s": first - accepted,
                "service.compute_s": sum(s[2] - s[1] for s in computes),
                "service.persist_s": sum(s[2] - s[1] for s in worker),
            }
            stage["service.poll_s"] = (op_end - op_start) - sum(stage.values())
            for key, value in stage.items():
                stages[key] += value
        return dict(stages)


WORKLOADS = {cls.name: cls for cls in (BatchLarge, FlywheelSmall, ServiceJobs)}
