"""Reach probability: will an execution starting at block B reach SI S?

Two implementations of the same quantity:

* :func:`reach_probability_scc` follows the paper's structure — segment
  the BB graph into its tree of strongly connected components, solve each
  SCC "recursively" (a small local linear system per loop), then propagate
  through the resulting DAG in reverse topological order (the Li/Hauck
  configuration-prefetching propagation).
* :func:`reach_probability_markov` is the textbook absorbing-Markov-chain
  solution over the whole graph at once; it serves as the exact reference
  the SCC implementation is validated against.

Both take branch probabilities from the profiled edge counts
(:meth:`~repro.cfg.graph.ControlFlowGraph.edge_probability`).

:func:`solve` is the dense linear solver behind every system in this
package (reach probability, expected distance, expected executions).
"""

from __future__ import annotations

from collections.abc import Iterable

from .graph import ControlFlowGraph
from .scc import condense


def eye(n: int) -> list[list[float]]:
    """The ``n`` x ``n`` identity as row lists, the start of ``I - P``."""
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def solve(a: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve ``a x = rhs`` by Gaussian elimination with partial pivoting.

    The pivot of column ``k`` is the first row with the largest ``abs``
    (LAPACK's ``idamax`` choice); rows below it subtract multiplier
    ``row[k] / pivot[k]`` times the pivot row, then back substitution
    sums each row left to right.  On every ``I - P`` system the AES flow
    solves this gives the same bits as LAPACK's ``dgesv`` (the pinned
    AES digests hold it there); elsewhere the two agree to rounding.
    ``a`` and ``rhs`` are consumed.  An exactly zero pivot means the
    system is singular and raises :class:`ValueError`.
    """
    n = len(rhs)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0.0:
            raise ValueError("singular linear system")
        a[k], a[p] = a[p], a[k]
        rhs[k], rhs[p] = rhs[p], rhs[k]
        pivot = a[k]
        for i in range(k + 1, n):
            row = a[i]
            m = row[k] / pivot[k]
            for j in range(k + 1, n):
                row[j] -= m * pivot[j]
            rhs[i] -= m * rhs[k]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        s = rhs[i]
        for j in range(i + 1, n):
            s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def reach_probability_markov(
    cfg: ControlFlowGraph, targets: Iterable[str]
) -> dict[str, float]:
    """Exact hit probability for every block via one global linear solve.

    ``targets`` are absorbing with probability 1; exit blocks that are not
    targets absorb with probability 0.
    """
    target_set = set(targets)
    for t in sorted(target_set):
        if t not in cfg:
            raise ValueError(f"unknown target block {t!r}")
    ids = cfg.block_ids()
    transient = [
        b for b in ids if b not in target_set and cfg.successors(b)
    ]
    index = {b: i for i, b in enumerate(transient)}
    n = len(transient)
    a = eye(n)
    rhs = [0.0] * n
    for b in transient:
        i = index[b]
        for s in cfg.successors(b):
            p = cfg.edge_probability(b, s)
            if s in target_set:
                rhs[i] += p
            elif s in index:
                a[i][index[s]] -= p
            # else: non-target exit block, contributes 0.
    solution = solve(a, rhs)
    result = {}
    for b in ids:
        if b in target_set:
            result[b] = 1.0
        elif b in index:
            result[b] = min(max(solution[index[b]], 0.0), 1.0)
        else:
            result[b] = 0.0
    return result


def reach_probability_scc(
    cfg: ControlFlowGraph, targets: Iterable[str]
) -> dict[str, float]:
    """Hit probability via SCC segmentation + DAG propagation (paper §4.1)."""
    target_set = set(targets)
    for t in sorted(target_set):
        if t not in cfg:
            raise ValueError(f"unknown target block {t!r}")
    condensation = condense(cfg)
    prob: dict[str, float] = {}

    # Tarjan emits SCCs in reverse topological order: every successor SCC
    # of a component is already solved when the component is reached.
    for node in condensation.nodes:
        members = node.members
        if not node.is_loop:
            (b,) = members
            prob[b] = _trivial_probability(cfg, b, target_set, prob)
        else:
            _solve_loop(cfg, members, target_set, prob)
    return prob


def _trivial_probability(
    cfg: ControlFlowGraph,
    block: str,
    targets: set[str],
    solved: dict[str, float],
) -> float:
    if block in targets:
        return 1.0
    successors = cfg.successors(block)
    if not successors:
        return 0.0
    return sum(
        cfg.edge_probability(block, s) * solved[s] for s in successors
    )


def _solve_loop(
    cfg: ControlFlowGraph,
    members: tuple[str, ...],
    targets: set[str],
    solved: dict[str, float],
) -> None:
    """Solve the probabilities inside one loop SCC (local linear system).

    For member ``m``:  ``p(m) = 1`` if target, else
    ``p(m) = sum_in p(m->s) p(s)  +  sum_out p(m->s) p_solved(s)``
    where *in* edges stay inside the SCC and *out* edges leave it (their
    probabilities are already known from downstream SCCs).
    """
    member_set = set(members)
    unknown = [m for m in members if m not in targets]
    index = {m: i for i, m in enumerate(unknown)}
    n = len(unknown)
    a = eye(n)
    rhs = [0.0] * n
    for m in unknown:
        i = index[m]
        for s in cfg.successors(m):
            p = cfg.edge_probability(m, s)
            if s in targets:
                rhs[i] += p
            elif s in member_set:
                a[i][index[s]] -= p
            else:
                rhs[i] += p * solved[s]
    solution = solve(a, rhs)
    for m in members:
        if m in targets:
            solved[m] = 1.0
        else:
            solved[m] = min(max(solution[index[m]], 0.0), 1.0)
