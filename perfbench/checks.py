"""Output checks that do not trust the program's own verdicts.

Every checker returns a list of problems (empty = the output passes).
Tree properties are recomputed here by breadth-first walks over the
tree's edge list; nothing in this module calls ``repro.trees.convex`` or
``repro.trees.paths``.  The round bounds come from ``repro.lowerbound``
and ``repro.protocols.rounds`` because they *are* the claims being
checked, and are passed in by the caller.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set

Adjacency = Dict[Hashable, List[Hashable]]


def adjacency(edges: Iterable[Sequence[Hashable]], vertices: Iterable[Hashable]) -> Adjacency:
    """An adjacency map built from an edge list."""
    adj: Adjacency = {v: [] for v in vertices}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def distances_from(adj: Adjacency, source: Hashable, blocked: Optional[Hashable] = None) -> Dict[Hashable, int]:
    """Hop distances from *source*, never stepping onto *blocked*."""
    seen = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen and w != blocked:
                seen[w] = seen[u] + 1
                queue.append(w)
    return seen


def diameter(adj: Adjacency) -> int:
    """The tree's diameter by a double sweep."""
    if not adj:
        return 0
    start = next(iter(adj))
    far = max(distances_from(adj, start).items(), key=lambda kv: kv[1])[0]
    return max(distances_from(adj, far).values())


def in_hull(adj: Adjacency, vertex: Hashable, anchors: Set[Hashable]) -> bool:
    """Whether *vertex* lies on a path between two anchors.

    A vertex is in a tree's convex hull iff it is an anchor or removing
    it leaves anchors in at least two of the resulting components.
    """
    if vertex in anchors:
        return True
    hit = 0
    for neighbour in adj[vertex]:
        if anchors.intersection(distances_from(adj, neighbour, blocked=vertex)):
            hit += 1
            if hit >= 2:
                return True
    return False


def check_tree_outputs(
    adj: Adjacency,
    honest_inputs: Mapping[int, Hashable],
    honest_outputs: Mapping[int, Any],
) -> List[str]:
    """Termination, hull validity and 1-agreement of one TreeAA run."""
    problems: List[str] = []
    if set(honest_outputs) != set(honest_inputs):
        problems.append(
            f"{len(honest_outputs)} honest outputs for {len(honest_inputs)} honest parties"
        )
    outputs = set(honest_outputs.values())
    strays = [v for v in outputs if v not in adj]
    if strays:
        return problems + [f"outputs {sorted(map(str, strays))[:3]} are not tree vertices"]
    anchors = set(honest_inputs.values())
    for v in sorted(outputs, key=str):
        if not in_hull(adj, v, anchors):
            problems.append(f"output {v!r} lies outside the honest inputs' hull")
    ordered = sorted(outputs, key=str)
    for i, u in enumerate(ordered):
        dist = distances_from(adj, u)
        for v in ordered[i + 1:]:
            if dist[v] > 1:
                problems.append(f"outputs {u!r} and {v!r} are {dist[v]} apart")
    return problems


def check_real_outputs(
    honest_inputs: Sequence[float],
    honest_outputs: Sequence[Any],
    epsilon: float,
) -> List[str]:
    """Termination, validity and epsilon-agreement of one RealAA run."""
    if not honest_outputs or any(not isinstance(v, float) for v in honest_outputs):
        return ["some honest party did not output a real"]
    if len(honest_outputs) != len(honest_inputs):
        return [f"{len(honest_outputs)} outputs for {len(honest_inputs)} honest parties"]
    lo, hi = min(honest_inputs), max(honest_inputs)
    problems = []
    outside = [v for v in honest_outputs if not lo <= v <= hi]
    if outside:
        problems.append(f"{len(outside)} outputs outside [{lo}, {hi}]")
    spread = max(honest_outputs) - min(honest_outputs)
    if spread > epsilon:
        problems.append(f"output spread {spread} exceeds epsilon {epsilon}")
    return problems


def check_rounds(rounds: int, lower: int, upper: int) -> List[str]:
    """The measured round count lies in ``[lower, upper]``."""
    if rounds < lower:
        return [f"ran {rounds} rounds, below the lower bound {lower}"]
    if rounds > upper:
        return [f"ran {rounds} rounds, above the upper bound {upper}"]
    return []


def tree_round_bounds(
    adj: Adjacency,
    n: int,
    t: int,
    theorem2_lower_bound: Callable[[float, int, int], float],
    empirical_tree_round_bound: Callable[[int], int],
) -> Sequence[int]:
    """``(lower, upper)``: Theorem 2 on the recomputed diameter, and the
    empirical TreeAA budget on the vertex count."""
    lower = int(theorem2_lower_bound(float(diameter(adj)), n, t)) if t else 0
    return lower, empirical_tree_round_bound(len(adj))


def check_rows_equal(left: Mapping[str, Any], right: Mapping[str, Any], what: str = "rows") -> List[str]:
    """Two result rows agree field by field."""
    keys = sorted(set(left) | set(right))
    diff = [k for k in keys if left.get(k) != right.get(k)]
    if diff:
        return [f"{what} differ in {', '.join(diff[:5])}"]
    return []


def strip_wall(trace_jsonl: str) -> List[Any]:
    """A JSONL trace's records with every ``wall_seconds`` field removed."""
    records = []
    for line in trace_jsonl.splitlines():
        if line.strip():
            record = json.loads(line)
            if isinstance(record, dict):
                record.pop("wall_seconds", None)
            records.append(record)
    return records


def comparable_row(row: Mapping[str, Any]) -> Dict[str, Any]:
    """A spec row with its embedded trace's wall clocks removed."""
    out = dict(row)
    if "trace_jsonl" in out:
        out["trace_jsonl"] = strip_wall(out["trace_jsonl"])
    return out


def expected_skips(spec: Mapping[str, Any], reference_only: Set[str]) -> Set[str]:
    """The oracle cells that must read ``skipped`` for this spec dict."""
    skips: Set[str] = set()
    if str(spec["adversary"]).split(":")[0] in reference_only:
        skips |= {"backend-parity", "metrics-parity"}
    elif not spec.get("record"):
        skips.add("metrics-parity")
    if spec["protocol"] != "tree-aa" or spec.get("fault_plan") is not None:
        skips.add("cross-protocol")
    return skips


def check_flywheel_row(row: Mapping[str, Any], reference_only: Set[str]) -> List[str]:
    """Every oracle cell is ok, and skipped exactly where the spec says."""
    cells = row.get("oracles", {})
    want = expected_skips(row["spec"], reference_only)
    got = {name for name, cell in cells.items() if cell.get("status") == "skipped"}
    problems = []
    if got != want:
        problems.append(f"skipped cells {sorted(got)}, spec implies {sorted(want)}")
    bad = sorted(n for n, c in cells.items() if c.get("status") not in ("ok", "skipped"))
    if bad:
        problems.append(f"oracle cells {bad} are not ok")
    if len(cells) != 5:
        problems.append(f"{len(cells)} oracle cells, expected 5")
    return problems


def check_cache_hits(expected: int, observed: int) -> List[str]:
    """The service's cache-hit count equals the repeats in the job plan."""
    if expected != observed:
        return [f"{observed} cache hits, the job plan repeats {expected} points"]
    return []


def read_jsonl_rows(path: str) -> List[Any]:
    """The ``row`` of every ``point`` record of a sweep JSONL file."""
    rows = []
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record.get("type") == "point":
                    rows.append(record.get("row"))
    return rows
