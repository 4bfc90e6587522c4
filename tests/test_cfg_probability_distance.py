"""Unit tests for reach probability, temporal distance and SI statistics."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from repro.cfg import (
    ControlFlowGraph,
    collect_si_stats,
    expected_distance,
    expected_si_executions,
    max_distance,
    min_distance,
    reach_probability_markov,
    reach_probability_scc,
)
from repro.cfg.probability import eye, solve


def branchy() -> ControlFlowGraph:
    """entry -(0.3)-> hit -> exit ; entry -(0.7)-> miss -> exit."""
    cfg = ControlFlowGraph()
    cfg.block("entry", cycles=1)
    cfg.block("hit", cycles=10, si_usages={"S": 2})
    cfg.block("miss", cycles=4)
    cfg.block("exit", cycles=1)
    cfg.add_edge("entry", "hit", count=30)
    cfg.add_edge("entry", "miss", count=70)
    cfg.add_edge("hit", "exit", count=30)
    cfg.add_edge("miss", "exit", count=70)
    return cfg


def loopy() -> ControlFlowGraph:
    """entry -> head ; head -(0.9)-> body(SI) -> head ; head -(0.1)-> exit."""
    cfg = ControlFlowGraph()
    cfg.block("entry", cycles=1)
    cfg.block("head", cycles=2)
    cfg.block("body", cycles=20, si_usages={"S": 1})
    cfg.block("exit", cycles=1)
    cfg.add_edge("entry", "head", count=10)
    cfg.add_edge("head", "body", count=90)
    cfg.add_edge("body", "head", count=90)
    cfg.add_edge("head", "exit", count=10)
    return cfg


class TestReachProbability:
    def test_branch_probability_markov(self):
        p = reach_probability_markov(branchy(), ["hit"])
        assert p["entry"] == pytest.approx(0.3)
        assert p["hit"] == 1.0
        assert p["miss"] == 0.0
        assert p["exit"] == 0.0

    def test_branch_probability_scc(self):
        p = reach_probability_scc(branchy(), ["hit"])
        assert p["entry"] == pytest.approx(0.3)
        assert p["miss"] == 0.0

    def test_loop_probability(self):
        # From head: reach body with prob 0.9 on first try, else exit -> 0.9.
        p = reach_probability_markov(loopy(), ["body"])
        assert p["head"] == pytest.approx(0.9)
        assert p["entry"] == pytest.approx(0.9)

    def test_scc_matches_markov_on_loop(self):
        cfg = loopy()
        pm = reach_probability_markov(cfg, ["body"])
        ps = reach_probability_scc(cfg, ["body"])
        for b in cfg.block_ids():
            assert ps[b] == pytest.approx(pm[b], abs=1e-12)

    def test_scc_matches_markov_on_nested_loops(self):
        cfg = ControlFlowGraph()
        for b, cyc in [("e", 1), ("h1", 1), ("h2", 1), ("t", 3), ("x", 1)]:
            cfg.block(b, cycles=cyc, si_usages={"S": 1} if b == "t" else None)
        cfg.add_edge("e", "h1", count=5)
        cfg.add_edge("h1", "h2", count=40)
        cfg.add_edge("h2", "t", count=10)
        cfg.add_edge("h2", "h1", count=25)  # inner back edge
        cfg.add_edge("t", "h1", count=10)
        cfg.add_edge("h2", "x", count=5)
        pm = reach_probability_markov(cfg, ["t"])
        ps = reach_probability_scc(cfg, ["t"])
        for b in cfg.block_ids():
            assert ps[b] == pytest.approx(pm[b], abs=1e-9)

    def test_target_is_absorbing(self):
        p = reach_probability_markov(loopy(), ["body"])
        assert p["body"] == 1.0

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            reach_probability_markov(branchy(), ["ghost"])
        with pytest.raises(ValueError):
            reach_probability_scc(branchy(), ["ghost"])

    def test_multiple_targets(self):
        p = reach_probability_markov(branchy(), ["hit", "miss"])
        assert p["entry"] == pytest.approx(1.0)


class TestDistances:
    def test_min_distance_straight_line(self):
        cfg = ControlFlowGraph()
        cfg.block("a", cycles=1)
        cfg.block("b", cycles=7)
        cfg.block("c", cycles=3, si_usages={"S": 1})
        cfg.add_edge("a", "b")
        cfg.add_edge("b", "c")
        d = min_distance(cfg, ["c"])
        assert d["c"] == 0.0
        assert d["b"] == 0.0  # directly precedes the target
        assert d["a"] == 7.0  # must execute b first

    def test_min_distance_picks_shortest_branch(self):
        cfg = branchy()
        cfg.block("far", cycles=100, si_usages={"S": 1})
        cfg.add_edge("miss", "far", count=1)
        d = min_distance(cfg, ["hit", "far"])
        assert d["entry"] == 0.0  # straight into hit
        assert d["miss"] == 0.0  # directly precedes far

    def test_min_distance_unreachable_is_inf(self):
        d = min_distance(branchy(), ["hit"])
        assert math.isinf(d["miss"]) or d["miss"] >= 0
        # miss cannot reach hit:
        assert math.isinf(d["miss"])

    def test_expected_distance_conditioned(self):
        # From entry, the only path reaching 'hit' goes straight there: the
        # conditional expected distance must be 0 (no intermediate blocks),
        # not diluted by the 70% of walks that go to 'miss'.
        d = expected_distance(branchy(), ["hit"])
        assert d["entry"] == pytest.approx(0.0)
        assert d["hit"] == 0.0
        assert math.isinf(d["miss"])

    def test_expected_distance_with_intermediate(self):
        cfg = ControlFlowGraph()
        cfg.block("a", cycles=1)
        cfg.block("m", cycles=9)
        cfg.block("t", cycles=2, si_usages={"S": 1})
        cfg.add_edge("a", "m")
        cfg.add_edge("m", "t")
        d = expected_distance(cfg, ["t"])
        assert d["a"] == pytest.approx(9.0)

    def test_expected_distance_loop(self):
        # From head: with prob 0.9 next is body (0 intermediate cycles).
        # Conditioned on eventually hitting body, distance is 0 from head.
        d = expected_distance(loopy(), ["body"])
        assert d["head"] == pytest.approx(0.0)
        assert d["entry"] == pytest.approx(2.0)  # must run head first

    def test_max_distance_dag(self):
        cfg = ControlFlowGraph()
        cfg.block("a", cycles=1)
        cfg.block("short", cycles=2)
        cfg.block("long", cycles=50)
        cfg.block("t", cycles=1, si_usages={"S": 1})
        cfg.add_edge("a", "short")
        cfg.add_edge("a", "long")
        cfg.add_edge("short", "t")
        cfg.add_edge("long", "t")
        d = max_distance(cfg, ["t"])
        assert d["a"] == pytest.approx(50.0)

    def test_max_distance_loop_scaled_by_trip_count(self):
        cfg = loopy()
        d = max_distance(cfg, ["body"])
        assert d["body"] == 0.0
        # entry goes through the loop SCC; cost is finite and positive.
        assert 0 < d["entry"] < math.inf

    def test_max_distance_unreachable_inf(self):
        d = max_distance(branchy(), ["hit"])
        assert math.isinf(d["miss"])


class TestExpectedExecutions:
    def test_straight_line(self):
        cfg = branchy()
        e = expected_si_executions(cfg, "S")
        # hit uses S twice, reached with prob 0.3
        assert e["entry"] == pytest.approx(0.6)
        assert e["hit"] == pytest.approx(2.0)
        assert e["miss"] == 0.0

    def test_loop_multiplies_usage(self):
        e = expected_si_executions(loopy(), "S")
        # Expected trips: geometric with continue prob 0.9 -> 9 executions.
        assert e["entry"] == pytest.approx(9.0, rel=1e-9)

    def test_never_exiting_loop_raises(self):
        cfg = ControlFlowGraph()
        cfg.block("a", si_usages={"S": 1})
        cfg.add_edge("a", "a", count=5)
        with pytest.raises(ValueError):
            expected_si_executions(cfg, "S")


class TestCollectSIStats:
    def test_bundles_all_measurements(self):
        stats = collect_si_stats(loopy(), "S")
        s = stats["entry"]
        assert s.probability == pytest.approx(0.9)
        assert s.expected_executions == pytest.approx(9.0, rel=1e-9)
        assert s.min_distance == pytest.approx(2.0)
        assert s.reachable()

    def test_unreachable_block_flagged(self):
        stats = collect_si_stats(branchy(), "S")
        assert not stats["miss"].reachable()

    def test_unknown_si_rejected(self):
        with pytest.raises(ValueError):
            collect_si_stats(branchy(), "NOPE")


def absorbing_chain(rng: random.Random, n: int) -> list[list[float]]:
    """``I - P`` of a random absorbing chain: every row exits w.p. >= 1/150."""
    a = eye(n)
    for i in range(n):
        stay = 1.0 - rng.uniform(1 / 150, 0.5)
        weights = [rng.random() if rng.random() < 0.7 else 0.0 for _ in range(n)]
        total = sum(weights) or 1.0
        for j, w in enumerate(weights):
            a[i][j] -= stay * w / total
    return a


def exact_solve(a: list[list[float]], rhs: list[float]) -> list[Fraction]:
    """Gauss-Jordan over the exact rationals the float entries denote."""
    n = len(rhs)
    m = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(a, rhs)]
    for k in range(n):
        p = next(i for i in range(k, n) if m[i][k] != 0)
        m[k], m[p] = m[p], m[k]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k] / m[k][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [m[i][n] / m[i][i] for i in range(n)]


def chains(count: int):
    rng = random.Random(2007)
    for _ in range(count):
        n = rng.randint(1, 8)
        yield absorbing_chain(rng, n), [rng.uniform(-10, 10) for _ in range(n)]


class TestSolve:
    """The CFG analyses' dense solver, with numpy as the oracle."""

    def test_matches_numpy_on_absorbing_chains(self):
        for a, rhs in chains(300):
            expected = np.linalg.solve(np.array(a), np.array(rhs))
            got = solve([row[:] for row in a], rhs[:])
            # numpy's summation order is its BLAS's, so compare relatively.
            assert got == pytest.approx(expected.tolist(), rel=1e-10, abs=1e-12)

    def test_within_condition_number_ulps_of_exact(self):
        for a, rhs in chains(100):
            exact = exact_solve(a, rhs)
            got = solve([row[:] for row in a], rhs[:])
            cond = np.linalg.cond(np.array(a), np.inf)
            scale = max(abs(float(x)) for x in exact)
            bound = 4 * len(rhs) * sys.float_info.epsilon * cond * scale
            for x, e in zip(got, exact):
                assert abs(Fraction(x) - e) <= bound

    def test_pivots_on_the_first_largest_entry(self):
        # Without a row swap the first multiplier would be 1e20 and wipe
        # out the 1.0 in the second row.
        a = [[1e-20, 1.0], [1.0, 1.0]]
        assert solve(a, [1.0, 2.0]) == pytest.approx([1.0, 1.0])

    def test_empty_system(self):
        assert solve([], []) == []

    def test_zero_pivot_raises(self):
        with pytest.raises(ValueError, match="singular"):
            solve([[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0])


def closed_loop() -> ControlFlowGraph:
    """entry -(0.5)-> t ; entry -(0.5)-> a <-> b, a loop with no exit."""
    cfg = ControlFlowGraph()
    for b in ("entry", "t", "a", "b"):
        cfg.block(b, cycles=1, si_usages={"S": 1} if b == "t" else None)
    cfg.add_edge("entry", "t", count=1)
    cfg.add_edge("entry", "a", count=1)
    cfg.add_edge("a", "b", count=1)
    cfg.add_edge("b", "a", count=1)
    return cfg


class TestSingularSystems:
    @pytest.mark.parametrize(
        "analysis",
        [
            lambda cfg: reach_probability_markov(cfg, ["t"]),
            lambda cfg: reach_probability_scc(cfg, ["t"]),
            lambda cfg: expected_distance(cfg, ["t"]),
            lambda cfg: expected_si_executions(cfg, "S"),
        ],
        ids=["markov", "scc", "expected_distance", "expected_executions"],
    )
    def test_closed_loop_raises_value_error(self, analysis):
        with pytest.raises(ValueError):
            analysis(closed_loop())
