"""Tests for dominator analysis (validated against networkx)."""

import networkx as nx
import pytest

from repro.cfg import ControlFlowGraph
from repro.cfg.dominators import immediate_dominators
from tests.oracles import to_networkx


def diamond_with_loop() -> ControlFlowGraph:
    cfg = ControlFlowGraph()
    for b in ["entry", "left", "right", "join", "loop", "exit"]:
        cfg.block(b)
    cfg.get("loop").si_usages["S"] = 1
    cfg.add_edge("entry", "left")
    cfg.add_edge("entry", "right")
    cfg.add_edge("left", "join")
    cfg.add_edge("right", "join")
    cfg.add_edge("join", "loop")
    cfg.add_edge("loop", "loop")
    cfg.add_edge("loop", "exit")
    return cfg


class TestImmediateDominators:
    def test_diamond(self):
        idom = immediate_dominators(diamond_with_loop())
        assert idom["left"] == "entry"
        assert idom["right"] == "entry"
        assert idom["join"] == "entry"  # neither branch dominates the join
        assert idom["loop"] == "join"
        assert idom["exit"] == "loop"

    def test_matches_networkx(self):
        cfg = diamond_with_loop()
        ours = immediate_dominators(cfg)
        theirs = dict(nx.immediate_dominators(to_networkx(cfg), cfg.entry))
        theirs.setdefault(cfg.entry, cfg.entry)  # convention difference
        assert ours == theirs

    def test_matches_networkx_on_random_graphs(self):
        import random

        rng = random.Random(17)
        for trial in range(10):
            cfg = ControlFlowGraph()
            n = 12
            for i in range(n):
                cfg.block(f"b{i}")
            edges = {(i, i + 1) for i in range(n - 1)}
            for _ in range(10):
                a, b = rng.randrange(n - 1), rng.randrange(n)
                edges.add((a, b))
            for a, b in sorted(edges):
                cfg.add_edge(f"b{a}", f"b{b}")
            ours = immediate_dominators(cfg)
            theirs = dict(nx.immediate_dominators(to_networkx(cfg), "b0"))
            theirs.setdefault("b0", "b0")
            assert ours == theirs, f"trial {trial}"

    def test_unreachable_blocks_excluded(self):
        cfg = ControlFlowGraph()
        cfg.block("entry")
        cfg.block("island")
        idom = immediate_dominators(cfg)
        assert "island" not in idom

    def test_entry_required(self):
        cfg = ControlFlowGraph()
        with pytest.raises(ValueError):
            immediate_dominators(cfg)


class TestForecastCoverage:
    def test_pipeline_placements_are_dominating_here(self, mini_library):
        # On the (structured) hotspot program the pipeline's FC blocks
        # dominate their SIs' usages — the structural soundness check.
        from repro.forecast import ForecastDecisionFunction, run_forecast_pipeline

        # rebuild the hotspot CFG inline (mirrors the conftest fixture)
        cfg = ControlFlowGraph()
        cfg.block("init", cycles=50)
        cfg.block("warmA", cycles=120)
        cfg.block("loopA", cycles=100, si_usages={"SATD": 1})
        cfg.block("mid", cycles=30)
        cfg.block("warmB", cycles=90)
        cfg.block("loopB", cycles=80, si_usages={"HT": 1})
        cfg.block("end", cycles=10)
        for a, b, c in [
            ("init", "warmA", 1), ("warmA", "loopA", 1), ("loopA", "loopA", 99),
            ("loopA", "mid", 1), ("mid", "warmB", 1), ("warmB", "loopB", 1),
            ("loopB", "loopB", 49), ("loopB", "end", 1),
        ]:
            cfg.add_edge(a, b, count=c)
        cfg.set_profile({"init": 1, "warmA": 1, "loopA": 100, "mid": 1,
                         "warmB": 1, "loopB": 50, "end": 1})
        fdfs = {
            "SATD": ForecastDecisionFunction(t_rot=60.0, t_sw=544.0, t_hw=24.0),
            "HT": ForecastDecisionFunction(t_rot=60.0, t_sw=298.0, t_hw=24.0),
        }
        annotation = run_forecast_pipeline(cfg, mini_library, fdfs, 6)
        idom = immediate_dominators(cfg)
        for point in annotation.all_points():
            for block in cfg.blocks_using(point.si_name):
                chain = [block]
                while chain[-1] != cfg.entry:
                    chain.append(idom[chain[-1]])
                assert point.block_id in chain
