"""Dominator analysis over the BB graph.

A block ``d`` dominates ``b`` when every path from the entry to ``b``
passes through ``d``.  Dominators give the forecast pipeline a structural
guarantee the probabilistic candidates lack: a Forecast point placed in a
dominator of an SI's usage blocks fires on *every* execution path that
can reach the SI.  Lint rule FC006 (:mod:`repro.analysis.forecastcheck`)
checks placements against these dominator chains.

Implemented with the classic iterative dataflow algorithm (Cooper,
Harvey & Kennedy's "A Simple, Fast Dominance Algorithm") in reverse
post-order.
"""

from __future__ import annotations

from .graph import ControlFlowGraph


def _reverse_postorder(cfg: ControlFlowGraph) -> list[str]:
    seen: set[str] = set()
    order: list[str] = []
    # Iterative DFS with an explicit post stack.
    stack: list[tuple[str, int]] = [(cfg.entry, 0)]
    seen.add(cfg.entry)
    while stack:
        node, idx = stack[-1]
        successors = cfg.successors(node)
        if idx < len(successors):
            stack[-1] = (node, idx + 1)
            succ = successors[idx]
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, 0))
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


def immediate_dominators(cfg: ControlFlowGraph) -> dict[str, str]:
    """The immediate dominator of every entry-reachable block.

    The entry's immediate dominator is itself (the usual convention);
    blocks unreachable from the entry are absent from the result.
    """
    if cfg.entry is None:
        raise ValueError("the CFG needs an entry block")
    order = _reverse_postorder(cfg)
    index = {b: i for i, b in enumerate(order)}
    idom: dict[str, str] = {cfg.entry: cfg.entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for block in order:
            if block == cfg.entry:
                continue
            preds = [p for p in cfg.predecessors(block) if p in idom]
            if not preds:
                continue
            new = preds[0]
            for p in preds[1:]:
                new = intersect(new, p)
            if idom.get(block) != new:
                idom[block] = new
                changed = True
    return idom
