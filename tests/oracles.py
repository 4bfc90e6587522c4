"""Independent references that tests compare the shipped code against.

* :func:`to_networkx` exports a CFG so networkx's dominator and SCC
  algorithms can cross-check :mod:`repro.cfg`.
* The H.264 reference transforms and costs that the Atom-composed SIs
  of :mod:`repro.apps.h264.atoms` must match bit for bit.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.apps.h264.transforms import H4, _as_block
from repro.cfg import ControlFlowGraph

#: 2x2 Hadamard matrix (chroma-DC transform).
H2 = np.array([[1, 1], [1, -1]], dtype=np.int64)


def to_networkx(cfg: ControlFlowGraph) -> nx.DiGraph:
    """The CFG as a ``networkx.DiGraph``.

    Node attributes: ``cycles``, ``exec_count``, ``si_usages``; edge
    attributes: ``count`` and ``probability``.
    """
    g = nx.DiGraph()
    for block in cfg.blocks():
        g.add_node(
            block.block_id,
            cycles=block.cycles,
            exec_count=block.exec_count,
            si_usages=dict(block.si_usages),
        )
    for edge in cfg.edges():
        g.add_edge(
            edge.src,
            edge.dst,
            count=edge.count,
            probability=cfg.edge_probability(edge.src, edge.dst),
        )
    return g


def hadamard_4x4(block) -> np.ndarray:
    """H.264 luma-DC Hadamard transform ``(H . X . H^T) / 2``.

    The division by two (with rounding towards minus infinity, matching
    an arithmetic right shift — the ``>> 1`` elements in the Transform
    Atom's HT mode, Fig. 9) keeps the DC coefficients in 16-bit range.
    """
    x = _as_block(block, 4)
    return (H4 @ x @ H4.T) >> 1


def hadamard_2x2(block) -> np.ndarray:
    """H.264 chroma-DC 2x2 Hadamard transform ``H . X . H^T``."""
    x = _as_block(block, 2)
    return H2 @ x @ H2.T


def sad_4x4(original, prediction) -> int:
    """Sum of Absolute Differences over a 4x4 block (integer-pel ME cost)."""
    return int(np.abs(_as_block(original, 4) - _as_block(prediction, 4)).sum())
