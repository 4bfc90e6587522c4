"""Resource-constrained dataflow scheduling of Atom operations.

A Molecule fixes *how many instances* of each Atom kind an SI
implementation may use; the latency of the SI then follows from
scheduling the SI's atomic-operation dataflow onto those instances
(spatial vs. temporal execution, paper section 3 / Fig. 2: e.g. one
HT_4x4 needs 4 ``Transform`` and 4 ``Pack`` executions which can run in
parallel, sequentially, or mixed).

This module provides the dataflow description and a classic
list scheduler.  It is used to cross-check the cycle numbers of the
Table 2 molecule catalogue and to derive latencies for *new* molecules
that the published catalogue does not contain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from .molecule import Molecule


@dataclass(frozen=True)
class AtomOp:
    """One atomic operation in an SI's dataflow graph.

    Parameters
    ----------
    op_id:
        Unique identifier within the dataflow.
    kind:
        Atom kind executing this operation.
    deps:
        ``op_id``s whose results this operation consumes.
    latency:
        Execution latency of this operation in cycles.
    """

    op_id: str
    kind: str
    deps: tuple[str, ...] = ()
    latency: int = 1

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ValueError("operation latency must be at least one cycle")


class Dataflow:
    """An acyclic graph of :class:`AtomOp` describing one SI execution."""

    def __init__(self, ops: Iterable[AtomOp]):
        self._ops: dict[str, AtomOp] = {}
        for op in ops:
            if op.op_id in self._ops:
                raise ValueError(f"duplicate op id {op.op_id!r}")
            self._ops[op.op_id] = op
        for op in self._ops.values():
            for dep in op.deps:
                if dep not in self._ops:
                    raise ValueError(f"op {op.op_id!r} depends on unknown {dep!r}")
        self._order = self._topological_order()

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self):
        return iter(self._ops.values())

    @property
    def ops(self) -> dict[str, AtomOp]:
        return dict(self._ops)

    def executions_per_kind(self) -> dict[str, int]:
        """How many operations of each atom kind one SI execution issues."""
        counts: dict[str, int] = {}
        for op in self._ops.values():
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def _topological_order(self) -> list[str]:
        indegree = {op_id: len(op.deps) for op_id, op in self._ops.items()}
        consumers: dict[str, list[str]] = {op_id: [] for op_id in self._ops}
        for op in self._ops.values():
            for dep in op.deps:
                consumers[dep].append(op.op_id)
        ready = sorted(op_id for op_id, deg in indegree.items() if deg == 0)
        order: list[str] = []
        while ready:
            op_id = ready.pop(0)
            order.append(op_id)
            for consumer in consumers[op_id]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
            ready.sort()
        if len(order) != len(self._ops):
            raise ValueError("dataflow contains a cycle")
        return order

    def critical_path_cycles(self) -> int:
        """Latency with unlimited atom instances (the spatial optimum)."""
        finish: dict[str, int] = {}
        for op_id in self._order:
            op = self._ops[op_id]
            start = max((finish[d] for d in op.deps), default=0)
            finish[op_id] = start + op.latency
        return max(finish.values(), default=0)


@dataclass(frozen=True)
class ScheduledOp:
    """Placement of one operation on one atom instance."""

    op_id: str
    kind: str
    instance: int
    start: int
    finish: int


@dataclass
class Schedule:
    """Result of list-scheduling a dataflow onto a molecule's instances."""

    makespan: int
    placements: list[ScheduledOp] = field(default_factory=list)


def list_schedule(
    dataflow: Dataflow,
    molecule: Molecule,
    *,
    unconstrained_kinds: Iterable[str] = (),
    issue_overhead: int = 0,
) -> Schedule:
    """Schedule ``dataflow`` onto the atom instances of ``molecule``.

    Classic longest-path-priority list scheduling: operations become ready
    when their dependencies finished; among ready operations those with the
    longest downstream critical path are placed first on the earliest-free
    instance of their kind.

    Parameters
    ----------
    unconstrained_kinds:
        Atom kinds treated as unlimited (static-fabric helpers such as
        register-file reads).
    issue_overhead:
        Fixed pipeline fill/drain cycles added to the makespan (models the
        SI issue logic of the core).

    Raises ``ValueError`` when the molecule offers zero instances of a
    constrained kind that the dataflow needs.
    """
    unconstrained = set(unconstrained_kinds)
    needed = dataflow.executions_per_kind()
    for kind, _count in needed.items():
        if kind in unconstrained:
            continue
        if molecule.count(kind) < 1:
            raise ValueError(
                f"molecule offers no {kind!r} instance but the dataflow needs one"
            )

    # Downstream critical-path priority per op.
    consumers: dict[str, list[str]] = {op.op_id: [] for op in dataflow}
    for op in dataflow:
        for dep in op.deps:
            consumers[dep].append(op.op_id)
    priority: dict[str, int] = {}

    def downstream(op_id: str) -> int:
        if op_id in priority:
            return priority[op_id]
        op = dataflow.ops[op_id]
        tail = max((downstream(c) for c in consumers[op_id]), default=0)
        priority[op_id] = op.latency + tail
        return priority[op_id]

    for op in dataflow:
        downstream(op.op_id)

    instance_free: dict[str, list[int]] = {}
    for kind in needed:
        slots = needed[kind] if kind in unconstrained else molecule.count(kind)
        instance_free[kind] = [0] * slots

    finish: dict[str, int] = {}
    placements: list[ScheduledOp] = []
    pending = {op.op_id for op in dataflow}
    while pending:
        ready = [
            op_id
            for op_id in sorted(pending)
            if all(dep in finish for dep in dataflow.ops[op_id].deps)
        ]
        ready.sort(key=lambda op_id: (-priority[op_id], op_id))
        placed_any = False
        for op_id in ready:
            op = dataflow.ops[op_id]
            data_ready = max((finish[d] for d in op.deps), default=0)
            lanes = instance_free[op.kind]
            instance = min(range(len(lanes)), key=lambda i: lanes[i])
            start = max(data_ready, lanes[instance])
            end = start + op.latency
            lanes[instance] = end
            finish[op_id] = end
            placements.append(
                ScheduledOp(op_id, op.kind, instance, start, end)
            )
            pending.discard(op_id)
            placed_any = True
        if not placed_any:  # pragma: no cover - guarded by topological check
            raise RuntimeError("scheduler deadlock on an acyclic dataflow")

    makespan = max(finish.values(), default=0) + issue_overhead
    return Schedule(makespan=makespan, placements=placements)


def estimate_cycles(
    dataflow: Dataflow,
    molecule: Molecule,
    *,
    unconstrained_kinds: Iterable[str] = (),
    issue_overhead: int = 0,
) -> int:
    """Shorthand for the makespan of :func:`list_schedule`."""
    return list_schedule(
        dataflow,
        molecule,
        unconstrained_kinds=unconstrained_kinds,
        issue_overhead=issue_overhead,
    ).makespan


def layered_dataflow(
    stages: list[tuple[str, int, int]], *, fan_in: bool = True
) -> Dataflow:
    """Build a layered dataflow: ``stages = [(kind, executions, latency)]``.

    Stage ``k+1`` operations depend on stage ``k``.  With ``fan_in`` each
    next-stage op depends on a balanced slice of the previous stage
    (matching e.g. 4 Transforms feeding 4 Packs feeding 1 SATD reduction);
    otherwise every next-stage op depends on *all* previous-stage ops.
    """
    ops: list[AtomOp] = []
    prev_ids: list[str] = []
    for stage_idx, (kind, executions, latency) in enumerate(stages):
        if executions < 1:
            raise ValueError("each stage needs at least one execution")
        stage_ids = [f"s{stage_idx}_{kind}_{i}" for i in range(executions)]
        for i, op_id in enumerate(stage_ids):
            if not prev_ids:
                deps: tuple[str, ...] = ()
            elif fan_in and len(prev_ids) >= executions:
                per = len(prev_ids) // executions
                lo = i * per
                hi = len(prev_ids) if i == executions - 1 else lo + per
                deps = tuple(prev_ids[lo:hi])
            elif fan_in:
                deps = (prev_ids[i % len(prev_ids)],)
            else:
                deps = tuple(prev_ids)
            ops.append(AtomOp(op_id, kind, deps, latency))
        prev_ids = stage_ids
    return Dataflow(ops)
