"""Temporal distance between a block and the next usage of an SI (§4.1).

The FC-candidate decision needs, for a block ``B`` and an SI ``S``, how
many cycles will elapse after ``B`` until ``S`` executes:

* :func:`min_distance` — shortest possible distance (Dijkstra over block
  cycle costs).  A rotation started at ``B`` can only help if even the
  *shortest* path leaves enough time.
* :func:`expected_distance` — typical distance: the expected hitting cost
  of the target set, conditioned on reaching it (walks that exit the
  program never reach ``S`` and must not dilute the estimate).
* :func:`max_distance` — pessimistic distance over the condensation DAG,
  with loop bodies weighted by their profiled average trip count.  A block
  too far ahead would hold Atom Containers hostage.

All distances are in core cycles; a block that itself uses the SI has
distance 0; blocks that cannot reach the SI report ``math.inf``.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

from .graph import ControlFlowGraph
from .probability import reach_probability_markov
from .scc import condense


def min_distance(
    cfg: ControlFlowGraph, targets: Iterable[str]
) -> dict[str, float]:
    """Shortest-path cycle distance from every block to the target set.

    Traversing edge ``u -> v`` costs ``cycles(v)`` (the cycles spent
    executing ``v``); a target block costs nothing on arrival — the SI
    fires at its start for our purposes.
    """
    target_set = set(targets)
    dist = {b: math.inf for b in cfg.block_ids()}
    heap: list[tuple[float, str]] = []
    for t in sorted(target_set):
        if t not in cfg:
            raise ValueError(f"unknown target block {t!r}")
        dist[t] = 0.0
        heapq.heappush(heap, (0.0, t))
    # Dijkstra on the transposed graph: settle distances *to* targets.
    while heap:
        d, block = heapq.heappop(heap)
        if d > dist[block]:
            continue
        for pred in cfg.predecessors(block):
            if pred in target_set:
                continue
            # Arriving *at* a target costs nothing extra; arriving at an
            # intermediate block costs that block's cycles.
            nd = d + (0 if block in target_set else cfg.get(block).cycles)
            if nd < dist[pred]:
                dist[pred] = nd
                heapq.heappush(heap, (nd, pred))
    return dist


def expected_distance(
    cfg: ControlFlowGraph, targets: Iterable[str]
) -> dict[str, float]:
    """Expected cycles until the target set, conditioned on reaching it.

    Uses the Doob h-transform: with reach probabilities ``h``, the
    conditioned walk takes edge ``u -> v`` with probability
    ``p(u->v) h(v) / h(u)``; the expected hitting cost then solves a
    linear system over blocks with ``h > 0``.
    """
    import numpy as np

    target_set = set(targets)
    h = reach_probability_markov(cfg, target_set)
    ids = cfg.block_ids()
    transient = [b for b in ids if b not in target_set and h[b] > 0]
    index = {b: i for i, b in enumerate(transient)}
    n = len(transient)
    a = np.eye(n)
    rhs = np.zeros(n)
    for b in transient:
        i = index[b]
        for s in cfg.successors(b):
            p_cond = cfg.edge_probability(b, s) * h[s] / h[b]
            if p_cond == 0:
                continue
            step_cost = 0.0 if s in target_set else cfg.get(s).cycles
            rhs[i] += p_cond * step_cost
            if s in index:
                a[i, index[s]] -= p_cond
    solution = np.linalg.solve(a, rhs) if n else np.zeros(0)
    result: dict[str, float] = {}
    for b in ids:
        if b in target_set:
            result[b] = 0.0
        elif b in index:
            result[b] = float(max(solution[index[b]], 0.0))
        else:
            result[b] = math.inf
    return result


def max_distance(
    cfg: ControlFlowGraph, targets: Iterable[str]
) -> dict[str, float]:
    """Pessimistic cycle distance via longest path on the condensation DAG.

    Within a loop SCC the body cost is multiplied by the profiled average
    trip count (ratio of member executions to entries into the SCC,
    defaulting to 1 when unprofiled), making the estimate finite.
    Blocks that cannot reach a target report ``inf``.
    """
    target_set = set(targets)
    for t in sorted(target_set):
        if t not in cfg:
            raise ValueError(f"unknown target block {t!r}")
    condensation = condense(cfg)
    scc_of = condensation.scc_of

    scc_cost: dict[int, float] = {}
    for node in condensation.nodes:
        body = sum(cfg.get(m).cycles for m in node.members)
        if node.is_loop:
            execs = sum(cfg.get(m).exec_count for m in node.members)
            entries = sum(
                cfg.edge(p, m).count
                for m in node.members
                for p in cfg.predecessors(m)
                if scc_of[p] != node.scc_id
            )
            trips = (execs / entries) if entries else 1.0
            body *= max(trips, 1.0)
        scc_cost[node.scc_id] = body

    target_sccs = {scc_of[t] for t in target_set}
    # Entering a target SCC costs, pessimistically, one pass over its
    # non-target members before the target fires (0 for a trivial SCC).
    target_entry_cost = {
        scc: sum(
            cfg.get(m).cycles
            for m in condensation.nodes[scc].members
            if m not in target_set
        )
        for scc in sorted(target_sccs)
    }
    # Longest distance from each SCC to any target SCC; process in Tarjan
    # (reverse topological) order so successors are settled first.
    best: dict[int, float] = {}
    for node in condensation.nodes:
        if node.scc_id in target_sccs:
            best[node.scc_id] = 0.0
            continue
        candidates = [
            (target_entry_cost[s] if s in target_sccs else scc_cost[s]) + best[s]
            for s in node.successors
            if best.get(s, math.inf) != math.inf
        ]
        best[node.scc_id] = max(candidates) if candidates else math.inf

    result: dict[str, float] = {}
    for b in cfg.block_ids():
        if b in target_set:
            result[b] = 0.0
        else:
            result[b] = best[scc_of[b]]
    return result
