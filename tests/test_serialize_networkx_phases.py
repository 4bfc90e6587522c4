"""Tests for the networkx cross-check of SCCs, and for phase rotation."""

import networkx as nx
import pytest

from repro.apps.h264.phases import (
    FRAME_CYCLES,
    PHASES,
    phase_area_comparison,
    run_phase_rotation,
)
from repro.cfg import ControlFlowGraph, strongly_connected_components
from tests.oracles import to_networkx


class TestNetworkxExport:
    def sample(self) -> ControlFlowGraph:
        cfg = ControlFlowGraph()
        cfg.block("a", cycles=2)
        cfg.block("b", cycles=3, si_usages={"S": 1})
        cfg.block("c", cycles=1)
        cfg.add_edge("a", "b", count=30)
        cfg.add_edge("a", "c", count=70)
        cfg.add_edge("b", "b", count=60)
        cfg.add_edge("b", "c", count=30)
        return cfg

    def test_structure_and_attributes(self):
        g = to_networkx(self.sample())
        assert set(g.nodes) == {"a", "b", "c"}
        assert g.nodes["b"]["si_usages"] == {"S": 1}
        assert g.edges["a", "b"]["count"] == 30
        assert g.edges["a", "b"]["probability"] == pytest.approx(0.3)

    def test_sccs_agree_with_networkx(self):
        cfg = self.sample()
        ours = {frozenset(c) for c in strongly_connected_components(cfg)}
        theirs = {
            frozenset(c)
            for c in nx.strongly_connected_components(to_networkx(cfg))
        }
        assert ours == theirs

    def test_sccs_agree_on_larger_random_graph(self):
        import random

        rng = random.Random(5)
        cfg = ControlFlowGraph()
        n = 30
        for i in range(n):
            cfg.block(f"b{i}")
        edges = set()
        for _ in range(60):
            a, b = rng.randrange(n), rng.randrange(n)
            if (a, b) not in edges:
                edges.add((a, b))
                cfg.add_edge(f"b{a}", f"b{b}")
        ours = {frozenset(c) for c in strongly_connected_components(cfg)}
        theirs = {
            frozenset(c)
            for c in nx.strongly_connected_components(to_networkx(cfg))
        }
        assert ours == theirs


class TestPhaseRotation:
    @pytest.fixture(scope="class")
    def report(self):
        return run_phase_rotation(frames=2, containers=8)

    def test_all_phases_executed_each_frame(self, report):
        assert len(report.results) == 2 * len(PHASES)
        assert report.frames() == 2

    def test_steady_state_mostly_hardware(self, report):
        for name, _share, _workload in PHASES:
            assert report.steady_state_hw_fraction(name) > 0.7, name

    def test_second_frame_faster_than_first(self, report):
        assert report.frame_si_cycles(1) < report.frame_si_cycles(0)

    def test_si_work_fits_the_frame(self, report):
        # SIs are hot spots, not the whole frame: in steady state their
        # cycles fit comfortably within the frame budget.
        assert report.frame_si_cycles(1) < FRAME_CYCLES

    def test_lookahead_beats_boundary_forecasts(self):
        ahead = run_phase_rotation(frames=2, containers=8, lookahead=True)
        boundary = run_phase_rotation(frames=2, containers=8, lookahead=False)
        assert ahead.frame_si_cycles(1) < boundary.frame_si_cycles(1)

    def test_area_comparison(self):
        cmp = phase_area_comparison(containers=8)
        assert cmp.extensible_slices == sum(cmp.per_phase_slices.values())
        assert cmp.rispp_slices < cmp.extensible_slices
        assert 0 < cmp.saving_pct < 100

    def test_frames_validated(self):
        with pytest.raises(ValueError):
            run_phase_rotation(frames=0)
