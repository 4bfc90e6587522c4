"""CFG profile well-formedness checks (rules CFG001..CFG004, CFG006, CFG007).

The §4 forecast pipeline consumes a profiled BB graph; its probability
and distance solvers assume a stochastically well-formed profile.  These
checks verify that shape statically:

* CFG001 — the graph names an entry block that exists;
* CFG002 — per block, out-edge probabilities sum to 1 (the branch
  distribution the reach-probability Markov solvers integrate);
* CFG003 — every edge probability lies in [0, 1];
* CFG004 — blocks unreachable from the entry (their forecast stats are
  vacuous: probability 0, distance ∞);
* CFG006 — profile counts (block executions, edge traversals) are
  non-negative;
* CFG007 — flow conservation of a profiled graph: a non-entry block's
  execution count matches its incoming traversals, a non-exit block's
  its outgoing ones (trace-derived profiles always satisfy this; a
  violation means the counts were edited or merged inconsistently).

That the SCC condensation partitions the block set is a property of
:func:`repro.cfg.scc.condense` itself, proven on random graphs by
``tests/test_cfg_properties.py``, so it is not re-checked here.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..cfg.graph import ControlFlowGraph
from .diagnostics import Diagnostic
from .rules import TOLERANCE, diag


def reachable_from_entry(cfg: ControlFlowGraph) -> set[str]:
    """Blocks reachable from the entry (empty set when no valid entry)."""
    if cfg.entry is None or cfg.entry not in cfg:
        return set()
    seen = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for succ in cfg.successors(stack.pop()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def check_cfg(cfg: ControlFlowGraph, subject: str) -> Iterator[Diagnostic]:
    if cfg.entry is None or cfg.entry not in cfg:
        yield diag(
            "CFG001",
            f"entry block {cfg.entry!r} is missing from the graph",
            subject=subject, location="entry", entry=cfg.entry,
        )
    else:
        reachable = reachable_from_entry(cfg)
        for block_id in cfg.block_ids():
            if block_id not in reachable:
                yield diag(
                    "CFG004",
                    f"block {block_id!r} is unreachable from the entry "
                    f"{cfg.entry!r}",
                    subject=subject, location=f"block {block_id}",
                    block=block_id,
                )

    for block in cfg.blocks():
        if block.exec_count < 0:
            yield diag(
                "CFG006",
                f"block {block.block_id!r} has a negative execution count "
                f"({block.exec_count})",
                subject=subject, location=f"block {block.block_id}",
                block=block.block_id, count=block.exec_count,
            )
    for edge in cfg.edges():
        if edge.count < 0:
            yield diag(
                "CFG006",
                f"edge {edge.src!r}->{edge.dst!r} has a negative traversal "
                f"count ({edge.count})",
                subject=subject, location=f"edge {edge.src}->{edge.dst}",
                src=edge.src, dst=edge.dst, count=edge.count,
            )

    for block_id in cfg.block_ids():
        successors = cfg.successors(block_id)
        if not successors:
            continue
        probabilities = [cfg.edge_probability(block_id, s) for s in successors]
        for succ, p in zip(successors, probabilities):
            if p < -TOLERANCE or p > 1 + TOLERANCE:
                yield diag(
                    "CFG003",
                    f"edge {block_id!r}->{succ!r} has probability {p!r}, "
                    "outside [0, 1]",
                    subject=subject, location=f"edge {block_id}->{succ}",
                    src=block_id, dst=succ, probability=p,
                )
        total = sum(probabilities)
        if abs(total - 1.0) > TOLERANCE:
            yield diag(
                "CFG002",
                f"out-edge probabilities of block {block_id!r} sum to "
                f"{total!r}, not 1",
                subject=subject, location=f"block {block_id}",
                block=block_id, total=total,
            )

    yield from _check_flow_conservation(cfg, subject)


def _check_flow_conservation(
    cfg: ControlFlowGraph, subject: str
) -> Iterator[Diagnostic]:
    """CFG007: profiled execution counts must match edge traversals."""
    if all(e.count == 0 for e in cfg.edges()):
        return  # unprofiled graph: nothing to conserve
    # Each profiled run enters once at the entry and may stop anywhere
    # (exit blocks, max-block cutoffs), so a per-block outflow deficit of
    # up to one per run is legitimate.
    entry_runs = 0
    if cfg.entry is not None and cfg.entry in cfg:
        entry_runs = cfg.get(cfg.entry).exec_count
    for block in cfg.blocks():
        block_id = block.block_id
        preds = cfg.predecessors(block_id)
        succs = cfg.successors(block_id)
        if preds and block_id != cfg.entry:
            inflow = sum(cfg.edge(p, block_id).count for p in preds)
            if inflow != block.exec_count:
                yield diag(
                    "CFG007",
                    f"block {block_id!r} executed {block.exec_count} times "
                    f"but its incoming edges carry {inflow} traversals",
                    subject=subject, location=f"block {block_id}",
                    block=block_id, exec_count=block.exec_count, inflow=inflow,
                )
        if succs:
            outflow = sum(cfg.edge(block_id, s).count for s in succs)
            deficit = block.exec_count - outflow
            if deficit < 0 or deficit > entry_runs:
                yield diag(
                    "CFG007",
                    f"block {block_id!r} executed {block.exec_count} times "
                    f"but its outgoing edges carry {outflow} traversals",
                    subject=subject, location=f"block {block_id}",
                    block=block_id, exec_count=block.exec_count,
                    outflow=outflow,
                )
