"""Feed each checker a deliberately wrong output; it must say so.

Each case pairs a correct output, which the checker must accept, with a
wrong one, which it must reject.  A checker that accepts everything
would pass every run of the benchmark, so this runs before each run.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, List, Tuple

from . import checks

#: The path a - b - c - d - e with a leaf f hanging off c.
EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("c", "f")]
VERTICES = ["a", "b", "c", "d", "e", "f"]


def _cases() -> List[Tuple[str, Callable[[], List[str]], Callable[[], List[str]]]]:
    adj = checks.adjacency(EDGES, VERTICES)
    inputs = {0: "b", 1: "d", 2: "b"}
    return [
        (
            "vertex outside the hull",
            lambda: checks.check_tree_outputs(adj, inputs, {0: "c", 1: "c", 2: "d"}),
            lambda: checks.check_tree_outputs(adj, inputs, {0: "c", 1: "f", 2: "c"}),
        ),
        (
            "two outputs at distance 2",
            lambda: checks.check_tree_outputs(adj, inputs, {0: "b", 1: "c", 2: "b"}),
            lambda: checks.check_tree_outputs(adj, inputs, {0: "b", 1: "d", 2: "c"}),
        ),
        (
            "a missing honest output",
            lambda: checks.check_tree_outputs(adj, inputs, {0: "c", 1: "c", 2: "c"}),
            lambda: checks.check_tree_outputs(adj, inputs, {0: "c", 1: "c"}),
        ),
        (
            "a real output outside the inputs' range",
            lambda: checks.check_real_outputs([0.0, 8.0], [4.0, 4.5], 1.0),
            lambda: checks.check_real_outputs([0.0, 8.0], [8.5, 8.0], 1.0),
        ),
        (
            "real outputs further apart than epsilon",
            lambda: checks.check_real_outputs([0.0, 8.0], [4.0, 4.5], 1.0),
            lambda: checks.check_real_outputs([0.0, 8.0], [3.0, 4.5], 1.0),
        ),
        (
            "a round count above the upper bound",
            lambda: checks.check_rounds(15, 1, 31),
            lambda: checks.check_rounds(32, 1, 31),
        ),
        (
            "a mismatched backend row",
            lambda: checks.check_rows_equal({"rounds": 15, "outputs": ["v3"]}, {"rounds": 15, "outputs": ["v3"]}),
            lambda: checks.check_rows_equal({"rounds": 15, "outputs": ["v3"]}, {"rounds": 15, "outputs": ["v4"]}),
        ),
        (
            "a wrong cache-hit count",
            lambda: checks.check_cache_hits(3, 3),
            lambda: checks.check_cache_hits(3, 2),
        ),
        (
            "an oracle cell run where the spec says skip",
            lambda: checks.check_flywheel_row(_flywheel_row("skipped"), {"noise", "asym"}),
            lambda: checks.check_flywheel_row(_flywheel_row("ok"), {"noise", "asym"}),
        ),
        (
            "a persisted row that differs from the served row",
            lambda: _jsonl_problems({"rounds": 15}),
            lambda: _jsonl_problems({"rounds": 16}),
        ),
    ]


def _flywheel_row(metrics_cell: str) -> dict:
    """A tree-aa point with ``record=False``: metrics-parity must skip."""
    spec = {"protocol": "tree-aa", "adversary": "none", "record": False, "fault_plan": None}
    cells = {"execution": "ok", "backend-parity": "ok", "metrics-parity": metrics_cell,
             "cross-protocol": "ok", "round-bound": "ok"}
    return {"spec": spec, "oracles": {k: {"status": v} for k, v in cells.items()}}


def _jsonl_problems(persisted_row: dict) -> List[str]:
    """Write one point record to a temporary JSONL file and read it back."""
    handle, path = tempfile.mkstemp(suffix=".jsonl", dir=os.getcwd())
    try:
        with os.fdopen(handle, "w") as out:
            out.write(json.dumps({"type": "sweep_header"}) + "\n")
            out.write(json.dumps({"type": "point", "index": 0, "row": persisted_row}) + "\n")
        if checks.read_jsonl_rows(path) != [{"rounds": 15}]:
            return ["the persisted JSONL does not read back as the served rows"]
        return []
    finally:
        os.unlink(path)


def run() -> List[str]:
    """Problems with the checkers themselves (empty = all sound)."""
    problems = []
    for name, right, wrong in _cases():
        if right():
            problems.append(f"{name}: the checker rejects a correct output: {right()}")
        if not wrong():
            problems.append(f"{name}: the checker accepts the wrong output")
    return problems
