"""Basic-block control-flow graph substrate (paper section 4).

The forecast pipeline runs on the application's Base-Block (BB) graph
annotated with profiling information (Fig. 3): per-block execution counts
and cycle costs, per-edge traversal counts (hence branch probabilities),
and per-block Special-Instruction usage.

:class:`ControlFlowGraph` is a light wrapper that keeps blocks and edges
in deterministic insertion order and offers the derived views the
forecast algorithms need (successor/predecessor maps, edge probabilities,
the transposed graph used for FC placement, DOT export for Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable


@dataclass(frozen=True)
class BasicBlock:
    """One basic block with profile annotations.

    Frozen: :meth:`ControlFlowGraph.set_profile` is the only writer of
    ``exec_count`` once the block is built.

    Parameters
    ----------
    block_id:
        Unique name within the graph.
    cycles:
        Core cycles one execution of this block costs (excluding SI
        executions, which are priced by the run-time molecule state).
    si_usages:
        ``{si_name: executions per block execution}``.
    exec_count:
        Profiled number of executions (0 until profiled).
    label:
        Optional human-readable annotation (function name etc.).
    """

    block_id: str
    cycles: int = 1
    si_usages: dict[str, int] = field(default_factory=dict)
    exec_count: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if not self.block_id:
            raise ValueError("basic block needs a non-empty id")
        if self.cycles < 0:
            raise ValueError("block cycle cost cannot be negative")
        if self.exec_count < 0:
            raise ValueError("execution counts cannot be negative")
        for si, n in self.si_usages.items():
            if n < 1:
                raise ValueError(f"SI usage count for {si!r} must be positive")

    def uses_si(self, si_name: str) -> bool:
        return si_name in self.si_usages


@dataclass(frozen=True)
class Edge:
    """A CFG edge with a profiled traversal count (frozen, like
    :class:`BasicBlock`: only ``set_profile`` rewrites ``count``)."""

    src: str
    dst: str
    count: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("edge count cannot be negative")


class ControlFlowGraph:
    """A profiled basic-block graph."""

    def __init__(self, entry: str | None = None):
        self._blocks: dict[str, BasicBlock] = {}
        self._edges: dict[tuple[str, str], Edge] = {}
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}
        self.entry = entry

    # -- construction ---------------------------------------------------------

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.block_id in self._blocks:
            raise ValueError(f"duplicate block {block.block_id!r}")
        self._blocks[block.block_id] = block
        self._succ[block.block_id] = []
        self._pred[block.block_id] = []
        if self.entry is None:
            self.entry = block.block_id
        return block

    def block(
        self,
        block_id: str,
        *,
        cycles: int = 1,
        si_usages: dict[str, int] | None = None,
        label: str = "",
    ) -> BasicBlock:
        """Convenience constructor-and-add."""
        return self.add_block(
            BasicBlock(block_id, cycles=cycles, si_usages=si_usages or {}, label=label)
        )

    def add_edge(self, src: str, dst: str, count: int = 0) -> Edge:
        if src not in self._blocks or dst not in self._blocks:
            raise ValueError(f"edge {src!r}->{dst!r} references an unknown block")
        key = (src, dst)
        if key in self._edges:
            raise ValueError(f"duplicate edge {src!r}->{dst!r}")
        edge = Edge(src, dst, count)
        self._edges[key] = edge
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        return edge

    # -- queries ---------------------------------------------------------------

    def __contains__(self, block_id: object) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def blocks(self) -> list[BasicBlock]:
        return list(self._blocks.values())

    def block_ids(self) -> list[str]:
        return list(self._blocks)

    def get(self, block_id: str) -> BasicBlock:
        return self._blocks[block_id]

    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    def edge(self, src: str, dst: str) -> Edge:
        return self._edges[(src, dst)]

    def successors(self, block_id: str) -> list[str]:
        return list(self._succ[block_id])

    def predecessors(self, block_id: str) -> list[str]:
        return list(self._pred[block_id])

    def exit_blocks(self) -> list[str]:
        """Blocks without successors (program exits)."""
        return [b for b in self._blocks if not self._succ[b]]

    def blocks_using(self, si_name: str) -> list[str]:
        return [b.block_id for b in self._blocks.values() if b.uses_si(si_name)]

    def si_names(self) -> list[str]:
        names: list[str] = []
        for block in self._blocks.values():
            for si in block.si_usages:
                if si not in names:
                    names.append(si)
        return names

    # -- probabilities ------------------------------------------------------------

    def edge_probability(self, src: str, dst: str) -> float:
        """Branch probability from profiled edge counts.

        Unprofiled blocks (all outgoing counts zero) fall back to a uniform
        distribution over their successors, so the forecast algorithms stay
        usable on statically constructed graphs.
        """
        out = [self._edges[(src, s)] for s in self._succ[src]]
        if not out:
            raise ValueError(f"block {src!r} has no successors")
        total = sum(e.count for e in out)
        if total == 0:
            return 1.0 / len(out)
        return self._edges[(src, dst)].count / total

    def set_profile(
        self,
        block_counts: dict[str, int] | None = None,
        edge_counts: dict[tuple[str, str], int] | None = None,
    ) -> None:
        """Install profiled execution/traversal counts.

        The one writer of the frozen ``exec_count``/``count`` fields.  It
        checks every id and count before writing any, so a refused call
        (``ValueError``) leaves the graph unchanged.
        """
        blocks = block_counts or {}
        edges = edge_counts or {}
        for block_id, count in blocks.items():
            if block_id not in self._blocks:
                raise ValueError(f"unknown block {block_id!r}")
            if count < 0:
                raise ValueError("execution counts cannot be negative")
        for key, count in edges.items():
            if key not in self._edges:
                raise ValueError(f"unknown edge {key!r}")
            if count < 0:
                raise ValueError("edge counts cannot be negative")
        for block_id, count in blocks.items():
            object.__setattr__(self._blocks[block_id], "exec_count", count)
        for key, count in edges.items():
            object.__setattr__(self._edges[key], "count", count)

    # -- derived graphs -------------------------------------------------------------

    def transposed(self) -> "ControlFlowGraph":
        """The graph with all edges reversed (used for FC placement)."""
        t = ControlFlowGraph(entry=None)
        for block in self._blocks.values():
            t.add_block(
                BasicBlock(
                    block.block_id,
                    cycles=block.cycles,
                    si_usages=dict(block.si_usages),
                    exec_count=block.exec_count,
                    label=block.label,
                )
            )
        for edge in self._edges.values():
            t.add_edge(edge.dst, edge.src, edge.count)
        exits = self.exit_blocks()
        t.entry = exits[0] if exits else self.entry
        return t

    def to_dot(self, *, highlight: Iterable[str] = (), si_marks: bool = True) -> str:
        """Graphviz DOT rendering (the Fig. 3 visualisation).

        Blocks in ``highlight`` (e.g. FC candidates) are drawn boxed; SI
        usages are annotated in the node label; the fill shade encodes the
        profiled execution count.
        """
        highlight = set(highlight)
        max_count = max((b.exec_count for b in self._blocks.values()), default=0)
        lines = ["digraph bbgraph {", "  node [style=filled];"]
        for block in self._blocks.values():
            label = block.block_id
            if block.label:
                label += f"\\n{block.label}"
            if si_marks and block.si_usages:
                uses = ",".join(f"{k}x{v}" for k, v in block.si_usages.items())
                label += f"\\n[{uses}]"
            if block.exec_count:
                label += f"\\n#{block.exec_count}"
            shade = 0
            if max_count:
                shade = int(90 * block.exec_count / max_count)
            shape = "box" if block.block_id in highlight else "ellipse"
            lines.append(
                f'  "{block.block_id}" [label="{label}", shape={shape}, '
                f'fillcolor="gray{100 - shade}"];'
            )
        for edge in self._edges.values():
            attr = f' [label="{edge.count}"]' if edge.count else ""
            lines.append(f'  "{edge.src}" -> "{edge.dst}"{attr};')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ControlFlowGraph({len(self._blocks)} blocks, "
            f"{len(self._edges)} edges, entry={self.entry!r})"
        )
