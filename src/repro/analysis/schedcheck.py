"""Dataflow schedule feasibility checks (rules SCH001..SCH005).

A list-scheduler result places an SI's atomic operations onto a
molecule's atom instances (§3, the spatial/temporal trade-off).
Feasibility means: no two operations overlap on one instance (SCH001),
no operation uses an instance the molecule does not offer (SCH002),
dependencies are honoured (SCH003), the makespan covers the last finish
plus the issue overhead (SCH004), and the placements cover the dataflow
exactly (SCH005).

Rotation-port schedules (§5) are not linted here: the reference-machine
replay of every verified trace checks them (TRC002/TRC004/TRC008/TRC009).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from .diagnostics import Diagnostic
from .rules import diag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.molecule import Molecule
    from ..core.schedule import Dataflow, Schedule, ScheduledOp


def check_schedule(
    dataflow: "Dataflow",
    molecule: "Molecule",
    schedule: "Schedule",
    *,
    unconstrained_kinds: Iterable[str],
    issue_overhead: int,
    subject: str,
) -> Iterator[Diagnostic]:
    unconstrained = set(unconstrained_kinds)
    ops = dataflow.ops

    finish_by_op: dict[str, int] = {}
    seen_ops: set[str] = set()
    for placed in schedule.placements:
        loc = f"op {placed.op_id}"
        if placed.op_id not in ops:
            yield diag(
                "SCH005",
                f"schedule places operation {placed.op_id!r} that the "
                "dataflow does not contain",
                subject=subject, location=loc, op=placed.op_id,
            )
            continue
        if placed.op_id in seen_ops:
            yield diag(
                "SCH005",
                f"operation {placed.op_id!r} is placed twice",
                subject=subject, location=loc, op=placed.op_id,
            )
        seen_ops.add(placed.op_id)
        op = ops[placed.op_id]
        if placed.kind != op.kind:
            yield diag(
                "SCH005",
                f"operation {placed.op_id!r} runs on atom kind "
                f"{placed.kind!r} but the dataflow declares {op.kind!r}",
                subject=subject, location=loc, op=placed.op_id,
                scheduled_kind=placed.kind, dataflow_kind=op.kind,
            )
        if placed.finish - placed.start != op.latency or placed.start < 0:
            yield diag(
                "SCH003",
                f"operation {placed.op_id!r} occupies "
                f"[{placed.start}, {placed.finish}) but its latency is "
                f"{op.latency}",
                subject=subject, location=loc, op=placed.op_id,
                start=placed.start, finish=placed.finish, latency=op.latency,
            )
        if placed.kind not in unconstrained:
            capacity = (
                molecule.count(placed.kind) if placed.kind in molecule.space else 0
            )
            if placed.instance < 0 or placed.instance >= capacity:
                yield diag(
                    "SCH002",
                    f"operation {placed.op_id!r} is placed on "
                    f"{placed.kind!r} instance {placed.instance} but the "
                    f"molecule offers {capacity} instance(s)",
                    subject=subject, location=loc, op=placed.op_id,
                    kind=placed.kind, instance=placed.instance,
                    capacity=capacity,
                )
        finish_by_op[placed.op_id] = placed.finish

    for op_id in ops:
        if op_id not in seen_ops:
            yield diag(
                "SCH005",
                f"dataflow operation {op_id!r} was never scheduled",
                subject=subject, location=f"op {op_id}", op=op_id,
            )

    for placed in schedule.placements:
        op = ops.get(placed.op_id)
        if op is None:
            continue
        for dep in op.deps:
            dep_finish = finish_by_op.get(dep)
            if dep_finish is not None and placed.start < dep_finish:
                yield diag(
                    "SCH003",
                    f"operation {placed.op_id!r} starts at {placed.start} "
                    f"before its dependency {dep!r} finishes at {dep_finish}",
                    subject=subject, location=f"op {placed.op_id}",
                    op=placed.op_id, dep=dep, start=placed.start,
                    dep_finish=dep_finish,
                )

    lanes: dict[tuple[str, int], list[ScheduledOp]] = {}
    for placed in schedule.placements:
        lanes.setdefault((placed.kind, placed.instance), []).append(placed)
    for (kind, instance), placed_ops in sorted(lanes.items()):
        placed_ops.sort(key=lambda p: (p.start, p.finish))
        for earlier, later in zip(placed_ops, placed_ops[1:]):
            if later.start < earlier.finish:
                yield diag(
                    "SCH001",
                    f"operations {earlier.op_id!r} and {later.op_id!r} "
                    f"overlap on {kind!r} instance {instance} "
                    f"([{earlier.start},{earlier.finish}) vs "
                    f"[{later.start},{later.finish}))",
                    subject=subject, location=f"{kind}[{instance}]",
                    kind=kind, instance=instance,
                    ops=[earlier.op_id, later.op_id],
                )

    last_finish = max((p.finish for p in schedule.placements), default=0)
    required = last_finish + issue_overhead
    if schedule.makespan < required:
        yield diag(
            "SCH004",
            f"makespan {schedule.makespan} is below the latest operation "
            f"finish {last_finish} plus issue overhead "
            f"{issue_overhead}",
            subject=subject, location="makespan",
            makespan=schedule.makespan, last_finish=last_finish,
            issue_overhead=issue_overhead,
        )
