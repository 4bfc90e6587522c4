"""Forecast placement checks (rules FC001..FC007).

:func:`check_forecast` judges placed Forecast points against the CFG
they were placed on, optionally the SI library and the FDFs that
produced them.  The checks verify the §4.2 placement contract:

* FC001 — every point targets an existing block;
* FC002 — every forecasted SI exists in the library (when given);
* FC003 — from the forecast block, at least one block using the SI is
  reachable (otherwise the forecast can never pay off: the run-time
  would rotate atoms for an execution that cannot follow);
* FC004 — the carried initial values are in range: probability in
  (0, 1], distance ≥ 0, expected executions ≥ 0;
* FC005 — expected executions reach the FDF's energy break-even offset
  ``α·E_rot/(T_sw − T_hw)`` (when FDFs are given) — below it the
  rotation burns more energy than the SI saves (§4.1);
* FC006 — the forecast block dominates at least one use of its SI (the
  structural "fires before the use" guarantee; probabilistic placements
  may legitimately trade this off, hence a warning);
* FC007 — no duplicate (block, SI) forecast.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from ..cfg.dominators import immediate_dominators
from ..cfg.graph import ControlFlowGraph
from .diagnostics import Diagnostic
from .rules import TOLERANCE, diag

if TYPE_CHECKING:
    from ..core.library import SILibrary
    from ..forecast.fdf import ForecastDecisionFunction
    from ..forecast.placement import ForecastPoint


def _dominator_chain(
    idom: dict[str, str], entry: str, block: str
) -> set[str]:
    """All dominators of ``block`` (itself included); empty if unreachable."""
    if block not in idom:
        return set()
    chain = {block}
    node = block
    while node != entry:
        node = idom[node]
        chain.add(node)
    return chain


def _reachable_from(cfg: ControlFlowGraph, start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for succ in cfg.successors(stack.pop()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def check_forecast(
    cfg: ControlFlowGraph,
    points: "Sequence[ForecastPoint]",
    *,
    library: "SILibrary | None",
    fdfs: "dict[str, ForecastDecisionFunction] | None",
    subject: str,
) -> Iterator[Diagnostic]:
    idom: dict[str, str] | None = None
    if cfg.entry is not None and cfg.entry in cfg:
        try:
            idom = immediate_dominators(cfg)
        except (KeyError, ValueError):  # malformed graphs: CFG rules report
            idom = None

    seen_pairs: set[tuple[str, str]] = set()
    for point in points:
        loc = f"FC {point.block_id}/{point.si_name}"

        pair = (point.block_id, point.si_name)
        if pair in seen_pairs:
            yield diag(
                "FC007",
                f"duplicate forecast of SI {point.si_name!r} in block "
                f"{point.block_id!r}",
                subject=subject, location=loc,
                block=point.block_id, si=point.si_name,
            )
        seen_pairs.add(pair)

        if point.block_id not in cfg:
            yield diag(
                "FC001",
                f"forecast point targets unknown block {point.block_id!r}",
                subject=subject, location=loc,
                block=point.block_id, si=point.si_name,
            )
            continue

        if library is not None and point.si_name not in library:
            yield diag(
                "FC002",
                f"forecast names SI {point.si_name!r}, absent from the "
                "library",
                subject=subject, location=loc, si=point.si_name,
            )

        if not 0 < point.probability <= 1:
            yield diag(
                "FC004",
                f"forecast probability {point.probability!r} outside (0, 1]",
                subject=subject, location=loc,
                block=point.block_id, si=point.si_name,
                probability=point.probability,
            )
        if point.distance < 0 or math.isnan(point.distance):
            yield diag(
                "FC004",
                f"forecast distance {point.distance!r} is negative",
                subject=subject, location=loc,
                block=point.block_id, si=point.si_name,
                distance=point.distance,
            )
        if point.expected_executions < 0 or math.isnan(point.expected_executions):
            yield diag(
                "FC004",
                f"forecast expected executions {point.expected_executions!r} "
                "is negative",
                subject=subject, location=loc,
                block=point.block_id, si=point.si_name,
                expected_executions=point.expected_executions,
            )

        uses = cfg.blocks_using(point.si_name)
        reachable = _reachable_from(cfg, point.block_id)
        if not any(u in reachable for u in uses):
            yield diag(
                "FC003",
                f"no block using SI {point.si_name!r} is reachable from the "
                f"forecast block {point.block_id!r}",
                subject=subject, location=loc,
                block=point.block_id, si=point.si_name, uses=list(uses),
            )
        elif idom is not None and cfg.entry is not None and not any(
            point.block_id in _dominator_chain(idom, cfg.entry, u)
            for u in uses
        ):
            yield diag(
                "FC006",
                f"forecast block {point.block_id!r} dominates no use of SI "
                f"{point.si_name!r}; some paths reach the SI without this "
                "forecast firing",
                subject=subject, location=loc,
                block=point.block_id, si=point.si_name, uses=list(uses),
            )

        if fdfs is not None and point.si_name in fdfs:
            offset = fdfs[point.si_name].offset
            if point.expected_executions + TOLERANCE < offset:
                yield diag(
                    "FC005",
                    f"forecast expects {point.expected_executions:g} "
                    f"executions of SI {point.si_name!r}, below the FDF "
                    f"break-even offset {offset:g}; the rotation cannot "
                    "amortise its energy",
                    subject=subject, location=loc,
                    block=point.block_id, si=point.si_name,
                    expected_executions=point.expected_executions,
                    offset=offset,
                )
