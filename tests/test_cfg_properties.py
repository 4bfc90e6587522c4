"""Property tests over randomly generated CFGs.

The SCC-recursive probability computation must agree with the exact
absorbing-Markov-chain reference on *arbitrary* graphs, and the distance
measures must satisfy their ordering invariants.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import (
    ControlFlowGraph,
    condense,
    expected_distance,
    max_distance,
    min_distance,
    reach_probability_markov,
    reach_probability_scc,
)


@st.composite
def random_cfg(draw):
    """A random profiled CFG: 3..10 blocks, random edges, one SI block.

    Every block gets a guaranteed path onward (edge to the next block or
    exit), so the structure resembles a real program: connected from the
    entry, loops allowed, at least one exit.
    """
    n = draw(st.integers(min_value=3, max_value=10))
    cfg = ControlFlowGraph()
    for i in range(n):
        cfg.block(f"b{i}", cycles=draw(st.integers(1, 20)))
    edges = set()
    # A spine keeps everything reachable and guarantees an exit.
    for i in range(n - 1):
        edges.add((i, i + 1))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=n * 2,
        )
    )
    for a, b in extra:
        edges.add((a, b))
    # The last block stays an exit.
    edges = {(a, b) for a, b in edges if a != n - 1}
    for a, b in sorted(edges):
        cfg.add_edge(f"b{a}", f"b{b}", count=draw(st.integers(1, 50)))
    target = draw(st.integers(1, n - 1))
    cfg.get(f"b{target}").si_usages["S"] = 1
    return cfg


@settings(max_examples=60, deadline=None)
@given(random_cfg())
def test_condensation_partitions_the_blocks(cfg):
    """Every block lies in exactly one SCC, the one ``scc_of`` names."""
    condensation = condense(cfg)
    listed = [m for node in condensation.nodes for m in node.members]
    assert sorted(listed) == sorted(cfg.block_ids())
    for node in condensation.nodes:
        for member in node.members:
            assert condensation.scc_of[member] == node.scc_id


@settings(max_examples=60, deadline=None)
@given(random_cfg())
def test_scc_probability_matches_markov(cfg):
    targets = cfg.blocks_using("S")
    pm = reach_probability_markov(cfg, targets)
    ps = reach_probability_scc(cfg, targets)
    for block in cfg.block_ids():
        assert abs(pm[block] - ps[block]) < 1e-9


@settings(max_examples=60, deadline=None)
@given(random_cfg())
def test_probabilities_are_probabilities(cfg):
    targets = cfg.blocks_using("S")
    for p in reach_probability_scc(cfg, targets).values():
        assert 0.0 <= p <= 1.0


@settings(max_examples=60, deadline=None)
@given(random_cfg())
def test_distance_ordering(cfg):
    """min <= expected everywhere; targets at distance zero."""
    targets = cfg.blocks_using("S")
    dmin = min_distance(cfg, targets)
    dexp = expected_distance(cfg, targets)
    for block in cfg.block_ids():
        if math.isinf(dexp[block]):
            continue
        assert dmin[block] <= dexp[block] + 1e-9
    for t in targets:
        assert dmin[t] == 0.0
        assert dexp[t] == 0.0


@settings(max_examples=60, deadline=None)
@given(random_cfg())
def test_min_distance_finite_iff_reachable(cfg):
    targets = cfg.blocks_using("S")
    prob = reach_probability_markov(cfg, targets)
    dmin = min_distance(cfg, targets)
    for block in cfg.block_ids():
        if prob[block] > 0:
            assert math.isfinite(dmin[block])
        # A block with positive min-distance path must have followed real
        # edges; unreachable blocks are infinite.
        if math.isinf(dmin[block]):
            assert prob[block] == 0.0


@settings(max_examples=40, deadline=None)
@given(random_cfg())
def test_max_distance_dominates_min_on_dags(cfg):
    """On acyclic graphs the pessimistic estimate dominates the optimistic."""
    from repro.cfg import condense

    if condense(cfg).loops():
        return  # loop trip-count scaling may undercut worst single paths
    targets = cfg.blocks_using("S")
    dmin = min_distance(cfg, targets)
    dmax = max_distance(cfg, targets)
    for block in cfg.block_ids():
        if math.isfinite(dmax[block]) and math.isfinite(dmin[block]):
            assert dmax[block] >= dmin[block] - 1e-9
