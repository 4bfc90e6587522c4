"""Unit tests for the CFG substrate: graph structure and SCCs."""

import pytest

from repro.cfg import (
    BasicBlock,
    ControlFlowGraph,
    condense,
    strongly_connected_components,
)
from tests.oracles import loops_of


def diamond() -> ControlFlowGraph:
    """entry -> {left, right} -> exit, with a loop on right."""
    cfg = ControlFlowGraph()
    cfg.block("entry", cycles=2)
    cfg.block("left", cycles=5, si_usages={"DCT": 1})
    cfg.block("right", cycles=3)
    cfg.block("exit", cycles=1)
    cfg.add_edge("entry", "left", count=30)
    cfg.add_edge("entry", "right", count=70)
    cfg.add_edge("left", "exit", count=30)
    cfg.add_edge("right", "right", count=140)
    cfg.add_edge("right", "exit", count=70)
    return cfg


class TestGraphStructure:
    def test_entry_defaults_to_first_block(self):
        cfg = diamond()
        assert cfg.entry == "entry"

    def test_duplicate_block_rejected(self):
        cfg = diamond()
        with pytest.raises(ValueError):
            cfg.block("entry")

    def test_edge_to_unknown_block_rejected(self):
        cfg = diamond()
        with pytest.raises(ValueError):
            cfg.add_edge("entry", "ghost")

    def test_duplicate_edge_rejected(self):
        cfg = diamond()
        with pytest.raises(ValueError):
            cfg.add_edge("entry", "left")

    def test_successors_predecessors(self):
        cfg = diamond()
        assert set(cfg.successors("entry")) == {"left", "right"}
        assert set(cfg.predecessors("exit")) == {"left", "right"}
        assert "right" in cfg.successors("right")

    def test_exit_blocks(self):
        assert diamond().exit_blocks() == ["exit"]

    def test_blocks_using_and_si_names(self):
        cfg = diamond()
        assert cfg.blocks_using("DCT") == ["left"]
        assert cfg.si_names() == ["DCT"]

    def test_block_validation(self):
        with pytest.raises(ValueError):
            BasicBlock("")
        with pytest.raises(ValueError):
            BasicBlock("b", cycles=-1)
        with pytest.raises(ValueError):
            BasicBlock("b", si_usages={"X": 0})

    def test_negative_execution_count_is_refused(self):
        cfg = ControlFlowGraph()
        with pytest.raises(ValueError, match="cannot be negative"):
            cfg.add_block(BasicBlock("b", exec_count=-3))
        assert "b" not in cfg

    def test_profile_counts_change_only_through_set_profile(self):
        cfg = diamond()
        block, edge = cfg.get("left"), cfg.edge("entry", "left")
        with pytest.raises(AttributeError):
            block.exec_count = 5
        with pytest.raises(AttributeError):
            edge.count = 5
        cfg.set_profile({"left": 5}, {("entry", "left"): 6})
        assert (block.exec_count, edge.count) == (5, 6)

    def test_edge_probability_profiled(self):
        cfg = diamond()
        assert cfg.edge_probability("entry", "left") == pytest.approx(0.3)
        assert cfg.edge_probability("entry", "right") == pytest.approx(0.7)

    def test_edge_probability_uniform_fallback(self):
        cfg = ControlFlowGraph()
        cfg.block("a")
        cfg.block("b")
        cfg.block("c")
        cfg.add_edge("a", "b")
        cfg.add_edge("a", "c")
        assert cfg.edge_probability("a", "b") == pytest.approx(0.5)

    def test_edge_probability_no_successors_raises(self):
        cfg = diamond()
        with pytest.raises(ValueError):
            cfg.edge_probability("exit", "entry")

    def test_transposed(self):
        t = diamond().transposed()
        assert set(t.successors("exit")) == {"left", "right"}
        assert t.entry == "exit"
        assert t.edge("exit", "left").count == 30

    def test_to_dot_contains_blocks_and_marks(self):
        dot = diamond().to_dot(highlight=["entry"])
        assert '"entry"' in dot and "shape=box" in dot
        assert "DCTx1" in dot
        assert '"right" -> "right"' in dot

    def test_set_profile_validates(self):
        cfg = diamond()
        with pytest.raises(ValueError):
            cfg.set_profile({"entry": -1})
        with pytest.raises(ValueError):
            cfg.set_profile(edge_counts={("entry", "left"): -2})

    @pytest.mark.parametrize(
        "block_counts, edge_counts",
        [
            ({"entry": 5, "left": -1}, None),
            ({"entry": 5, "ghost": 1}, None),
            ({"entry": 5}, {("entry", "left"): -1}),
            ({"entry": 5}, {("entry", "ghost"): 1}),
        ],
        ids=["negative-block", "unknown-block", "negative-edge", "unknown-edge"],
    )
    def test_refused_set_profile_writes_nothing(self, block_counts, edge_counts):
        cfg = diamond()

        def counts():
            return (
                [b.exec_count for b in cfg.blocks()],
                [e.count for e in cfg.edges()],
            )

        before = counts()
        with pytest.raises(ValueError):
            cfg.set_profile(block_counts, edge_counts)
        assert counts() == before


class TestSCC:
    def test_self_loop_is_scc_loop(self):
        cond = condense(diamond())
        loops = loops_of(cond)
        assert len(loops) == 1
        assert loops[0].members == ("right",)

    def test_acyclic_graph_has_trivial_sccs(self):
        cfg = ControlFlowGraph()
        for b in "abc":
            cfg.block(b)
        cfg.add_edge("a", "b")
        cfg.add_edge("b", "c")
        comps = strongly_connected_components(cfg)
        assert sorted(len(c) for c in comps) == [1, 1, 1]
        assert not loops_of(condense(cfg))

    def test_multi_block_loop(self):
        cfg = ControlFlowGraph()
        for b in ["entry", "head", "body", "exit"]:
            cfg.block(b)
        cfg.add_edge("entry", "head")
        cfg.add_edge("head", "body")
        cfg.add_edge("body", "head")
        cfg.add_edge("head", "exit")
        cond = condense(cfg)
        loops = loops_of(cond)
        assert len(loops) == 1
        assert set(loops[0].members) == {"head", "body"}

    def test_reverse_topological_emission(self):
        cfg = ControlFlowGraph()
        for b in "abc":
            cfg.block(b)
        cfg.add_edge("a", "b")
        cfg.add_edge("b", "c")
        comps = strongly_connected_components(cfg)
        order = {c[0]: i for i, c in enumerate(comps)}
        # successors must be emitted before predecessors
        assert order["c"] < order["b"] < order["a"]

    def test_condensation_edges(self):
        cond = condense(diamond())
        entry_node = cond.nodes[cond.scc_of["entry"]]
        assert len(entry_node.successors) == 2

    def test_nested_loops(self):
        # outer: a -> b -> c -> a ; inner self loop on b is part of same SCC
        cfg = ControlFlowGraph()
        for b in ["pre", "a", "b", "c", "post"]:
            cfg.block(b)
        cfg.add_edge("pre", "a")
        cfg.add_edge("a", "b")
        cfg.add_edge("b", "b")
        cfg.add_edge("b", "c")
        cfg.add_edge("c", "a")
        cfg.add_edge("c", "post")
        cond = condense(cfg)
        loops = loops_of(cond)
        assert len(loops) == 1
        assert set(loops[0].members) == {"a", "b", "c"}

    def test_deep_chain_no_recursion_error(self):
        cfg = ControlFlowGraph()
        n = 5000
        cfg.block("b0")
        for i in range(1, n):
            cfg.block(f"b{i}")
            cfg.add_edge(f"b{i-1}", f"b{i}")
        comps = strongly_connected_components(cfg)
        assert len(comps) == n
