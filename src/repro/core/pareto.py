"""Pareto analysis of Molecule implementations (paper Fig. 13).

Each hardware molecule of an SI is a point in the (resources, latency)
plane: ``x = |m|`` (Atom instances; optionally only reconfigurable ones)
and ``y = cycles``.  The run-time system moves along the Pareto-optimal
front of this point cloud as Atoms become available — the "dynamic
trade-off" highlighted in Fig. 13, something a design-time-fixed ASIP
cannot do.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import backend
from .si import MoleculeImpl, SpecialInstruction


@dataclass(frozen=True)
class ParetoPoint:
    """One point of an SI's resource/latency trade-off curve."""

    atoms: int
    cycles: int
    impl: MoleculeImpl


def tradeoff_points(
    si: SpecialInstruction, *, reconfigurable_only_kinds: tuple[str, ...] | None = None
) -> list[ParetoPoint]:
    """All (atoms, cycles) points of ``si``, sorted by atoms then cycles.

    When ``reconfigurable_only_kinds`` is given, the x-coordinate counts
    only those atom kinds (Atom-Container occupancy).
    """
    points = []
    for impl in si.implementations:
        molecule = impl.molecule
        if reconfigurable_only_kinds is not None:
            molecule = molecule.restricted_to(reconfigurable_only_kinds)
        points.append(ParetoPoint(abs(molecule), impl.cycles, impl))
    points.sort(key=lambda p: (p.atoms, p.cycles))
    return points


def pareto_front(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """The non-dominated subset, sorted by ``(atoms, cycles)``.

    A point is kept iff no other point has ``atoms <=`` and ``cycles <=``
    with at least one strict inequality — exactly the predicate of
    :func:`is_pareto_optimal`, so membership in the front and
    per-point optimality always agree.  In particular, exact-duplicate
    ``(atoms, cycles)`` points do not dominate each other and therefore
    *all* stay on the front (in their original relative order); callers
    wanting one representative per coordinate must dedupe explicitly.
    The domination scan runs on the shared compute kernels.
    """
    ordered = sorted(points, key=lambda p: (p.atoms, p.cycles))
    if not ordered:
        return []
    mask = backend.kernel().pareto_mask(
        [p.atoms for p in ordered], [p.cycles for p in ordered]
    )
    return [p for p, keep in zip(ordered, mask) if keep]


def pareto_front_of(
    si: SpecialInstruction, *, reconfigurable_only_kinds: tuple[str, ...] | None = None
) -> list[ParetoPoint]:
    """Convenience: Pareto front straight from an SI."""
    return pareto_front(
        tradeoff_points(si, reconfigurable_only_kinds=reconfigurable_only_kinds)
    )


def is_pareto_optimal(point: ParetoPoint, points: list[ParetoPoint]) -> bool:
    """True iff no point in ``points`` dominates ``point``.

    Uses the same domination predicate as :func:`pareto_front`, so the
    two never disagree — including on exact-duplicate points, which are
    mutually non-dominating and hence all optimal.
    """
    for other in points:
        if other is point:
            continue
        if (
            other.atoms <= point.atoms
            and other.cycles <= point.cycles
            and (other.atoms < point.atoms or other.cycles < point.cycles)
        ):
            return False
    return True
