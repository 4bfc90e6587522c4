"""Profiling views over a CFG: traces, counts, and per-SI statistics.

The forecast pipeline consumes three profiled measurements per
(block, SI) pair (§4.1): the probability of reaching an execution of the
SI, the temporal distance until that execution, and the expected number
of executions once reached.  This module derives all three from a
profiled :class:`~repro.cfg.graph.ControlFlowGraph` and bundles them into
:class:`SIStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distance import expected_distance, max_distance, min_distance
from .graph import ControlFlowGraph
from .probability import eye, reach_probability_scc, solve


def expected_si_executions(cfg: ControlFlowGraph, si_name: str) -> dict[str, float]:
    """Expected future executions of ``si_name`` from each block (inclusive).

    Solves the Markov expectation ``E(b) = usage(b) + sum p(b->s) E(s)``
    over the profiled branch probabilities.  Unlike the reach probability
    this counts *how many* executions, so loops multiply usage by their
    expected trip count.
    """
    ids = cfg.block_ids()
    index = {b: i for i, b in enumerate(ids)}
    n = len(ids)
    a = eye(n)
    rhs = [0.0] * n
    for b in ids:
        i = index[b]
        rhs[i] = cfg.get(b).si_usages.get(si_name, 0)
        for s in cfg.successors(b):
            a[i][index[s]] -= cfg.edge_probability(b, s)
    try:
        solution = solve(a, rhs)
    except ValueError as exc:
        raise ValueError(
            "expected-execution system is singular; the profile implies a "
            "loop that never exits"
        ) from exc
    return {b: max(solution[index[b]], 0.0) for b in ids}


@dataclass(frozen=True)
class SIStats:
    """Profiled forecast inputs for one (block, SI) pair (§4.1)."""

    block_id: str
    si_name: str
    probability: float
    min_distance: float
    expected_distance: float
    max_distance: float
    expected_executions: float

    def reachable(self) -> bool:
        return self.probability > 0 and not math.isinf(self.expected_distance)


def collect_si_stats(cfg: ControlFlowGraph, si_name: str) -> dict[str, SIStats]:
    """All per-block forecast inputs for one SI in one pass."""
    targets = cfg.blocks_using(si_name)
    if not targets:
        raise ValueError(f"no block uses SI {si_name!r}")
    prob = reach_probability_scc(cfg, targets)
    dmin = min_distance(cfg, targets)
    dexp = expected_distance(cfg, targets)
    dmax = max_distance(cfg, targets)
    execs = expected_si_executions(cfg, si_name)
    return {
        b: SIStats(
            block_id=b,
            si_name=si_name,
            probability=prob[b],
            min_distance=dmin[b],
            expected_distance=dexp[b],
            max_distance=dmax[b],
            expected_executions=execs[b],
        )
        for b in cfg.block_ids()
    }
