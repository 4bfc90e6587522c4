"""Strongly connected components and graph condensation.

The paper's probability algorithm "segments the BB graph into a tree of
strongly connected components (SCC) [Cormen et al.], recursively calls
itself to compute the probability values of the SCCs and finally executes
the algorithm proposed by Li/Hauck to compute the probability in the
resulting tree".  This module provides the segmentation: an iterative
Tarjan SCC finder (no recursion limits on deep CFGs) and the condensation
DAG whose nodes are SCCs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import ControlFlowGraph


def strongly_connected_components(cfg: ControlFlowGraph) -> list[list[str]]:
    """Tarjan's algorithm, iterative form.

    Returns SCCs in reverse topological order of the condensation (every
    SCC appears before any SCC that can reach it), which is Tarjan's
    natural emission order.
    """
    index_counter = 0
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: dict[str, bool] = {}
    stack: list[str] = []
    result: list[list[str]] = []

    for root in cfg.block_ids():
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, succ_i = work[-1]
            if succ_i == 0:
                index[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            successors = cfg.successors(node)
            while succ_i < len(successors):
                succ = successors[succ_i]
                succ_i += 1
                if succ not in index:
                    work[-1] = (node, succ_i)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack.get(succ):
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work[-1] = (node, succ_i)
            if succ_i >= len(successors):
                work.pop()
                if lowlink[node] == index[node]:
                    component: list[str] = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == node:
                            break
                    result.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result


@dataclass
class SCCNode:
    """One node of the condensation: a maximal strongly connected component."""

    scc_id: int
    members: tuple[str, ...]
    is_loop: bool = False
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class Condensation:
    """The DAG of SCCs of a CFG."""

    nodes: list[SCCNode]
    scc_of: dict[str, int]
    entry: int | None

    def loops(self) -> list[SCCNode]:
        return [n for n in self.nodes if n.is_loop]


def condense(cfg: ControlFlowGraph) -> Condensation:
    """Build the condensation DAG; SCCs with >1 member or a self edge are loops."""
    components = strongly_connected_components(cfg)
    scc_of: dict[str, int] = {}
    nodes: list[SCCNode] = []
    for i, members in enumerate(components):
        for m in members:
            scc_of[m] = i
        has_self_edge = any(
            scc_of.get(s) == i for m in members for s in cfg.successors(m) if s in scc_of
        )
        nodes.append(
            SCCNode(
                scc_id=i,
                members=tuple(members),
                is_loop=len(members) > 1 or has_self_edge,
            )
        )
    # Self-edge detection above only sees already-assigned members; redo
    # exactly now that the full map exists.
    for node in nodes:
        member_set = set(node.members)
        node.is_loop = len(node.members) > 1 or any(
            s in member_set for m in node.members for s in cfg.successors(m)
        )
    seen_edges: set[tuple[int, int]] = set()
    for edge in cfg.edges():
        a, b = scc_of[edge.src], scc_of[edge.dst]
        if a != b and (a, b) not in seen_edges:
            seen_edges.add((a, b))
            nodes[a].successors.append(b)
            nodes[b].predecessors.append(a)
    entry = scc_of.get(cfg.entry) if cfg.entry is not None else None
    return Condensation(nodes=nodes, scc_of=scc_of, entry=entry)
