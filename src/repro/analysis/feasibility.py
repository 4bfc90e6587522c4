"""Static worst-case rotation-latency prover (rules FEA001, FEA002, FEA004, FEA005).

From a molecule library, an Atom Container budget and (optionally) a
Forecast placement alone — *no simulation* — the prover derives:

* a **per-SI worst-case rotation latency**: for every loadable hardware
  molecule the atoms beyond the static baseline follow from the lattice
  residual (§3.1, ``restricted(m) ∸ baseline``); writing them through the
  single SelectMap port costs the sum of their bitstream latencies, and
  the serial queue in front of them is bounded by the other containers'
  worst bitstream (pending jobs reserve distinct containers, so at most
  ``C - k`` foreign writes can precede the ``k`` of our molecule);
* **upgrade starvation** (FEA001): a forecast whose hot spot is closer
  than the *cheapest* hardware upgrade — even an idle port cannot write
  the minimal molecule in time, so the FDF's break-even assumption can
  never hold for it;
* **dead molecules** (FEA002): molecules whose container demand exceeds
  the platform or that need an atom kind without a bitstream (named in
  the finding) can never be loaded by any reachable schedule.

FEA004 is informational: it publishes the proven bounds (the verify
drivers cross-check them against observed rotation latencies).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.library import SILibrary
from ..core.si import MoleculeImpl, SpecialInstruction
from ..hardware.atom_specs import SELECTMAP_BYTES_PER_US
from ..hardware.reconfig import ReconfigurationPort
from .diagnostics import DiagnosticReport
from .rules import diag


def rotation_cycle_table(
    library: SILibrary,
    *,
    core_mhz: float = 100.0,
    bytes_per_us: float | None = None,
) -> dict[str, int]:
    """Rotation latency (cycles) per rotatable atom kind of the library.

    Kinds without a bitstream size are omitted — they can never be
    written through the port, which the prover reports as dead.
    """
    port = ReconfigurationPort(
        library.catalogue,
        core_mhz=core_mhz,
        bytes_per_us=(
            bytes_per_us if bytes_per_us is not None else SELECTMAP_BYTES_PER_US
        ),
    )
    table: dict[str, int] = {}
    for kind in library.catalogue.reconfigurable_kinds():
        if kind.bitstream_bytes > 0:
            table[kind.name] = port.rotation_cycles(kind.name)
    return table


@dataclass(frozen=True)
class MoleculeFeasibility:
    """Static verdict on one hardware molecule."""

    si_name: str
    index: int
    cycles: int
    #: Atom instances beyond the static baseline (what rotations must load).
    demand: dict[str, int]
    container_demand: int
    #: Serial port time to write the demand; ``None`` when unwritable.
    write_cycles: int | None
    loadable: bool
    reason: str = ""


@dataclass(frozen=True)
class SIRotationBound:
    """Proven worst-case rotation latency of one SI's hardware upgrade."""

    si_name: str
    loadable: bool
    #: Demand vector of the worst loadable molecule.
    demand: dict[str, int]
    #: Port time writing that molecule's own atoms.
    write_cycles: int
    #: Worst-case wait behind foreign writes ((C - k) * max bitstream).
    queue_cycles: int
    #: Cheapest path to *any* hardware speedup (idle port, minimal
    #: molecule); ``None`` when no molecule is loadable at all.
    min_upgrade_cycles: int | None

    @property
    def bound_cycles(self) -> int:
        return self.write_cycles + self.queue_cycles

    def to_dict(self) -> dict[str, object]:
        return {
            "si": self.si_name,
            "loadable": self.loadable,
            "demand": dict(self.demand),
            "write_cycles": self.write_cycles,
            "queue_cycles": self.queue_cycles,
            "bound_cycles": self.bound_cycles,
            "min_upgrade_cycles": self.min_upgrade_cycles,
        }


@dataclass
class FeasibilityResult:
    """Everything the prover derived for one (library, containers) pair."""

    containers: int
    max_rotation_cycles: int
    port_backlog_cycles: int
    bounds: dict[str, SIRotationBound]
    molecules: list[MoleculeFeasibility]
    report: DiagnosticReport

    def to_dict(self) -> dict[str, object]:
        return {
            "containers": self.containers,
            "max_rotation_cycles": self.max_rotation_cycles,
            "port_backlog_cycles": self.port_backlog_cycles,
            "per_si": {
                name: bound.to_dict() for name, bound in self.bounds.items()
            },
            "dead_molecules": [
                {"si": m.si_name, "molecule": m.index, "reason": m.reason}
                for m in self.molecules
                if not m.loadable
            ],
        }


def _molecule_feasibility(
    library: SILibrary,
    si: SpecialInstruction,
    index: int,
    impl: MoleculeImpl,
    containers: int,
    table: dict[str, int],
) -> MoleculeFeasibility:
    baseline = library.baseline_molecule()
    beyond = library.restricted_to_reconfigurable(impl.molecule) - baseline
    demand = beyond.as_dict()
    container_demand = library.container_demand(impl.molecule)
    unwritable = sorted(k for k in beyond.kinds_used() if k not in table)
    if unwritable:
        return MoleculeFeasibility(
            si_name=si.name, index=index, cycles=impl.cycles, demand=demand,
            container_demand=container_demand, write_cycles=None,
            loadable=False,
            reason=f"atom kind(s) {unwritable} have no bitstream",
        )
    write = sum(count * table[kind] for kind, count in demand.items())
    if container_demand > containers:
        return MoleculeFeasibility(
            si_name=si.name, index=index, cycles=impl.cycles, demand=demand,
            container_demand=container_demand, write_cycles=write,
            loadable=False,
            reason=(
                f"needs {container_demand} containers, platform has "
                f"{containers}"
            ),
        )
    return MoleculeFeasibility(
        si_name=si.name, index=index, cycles=impl.cycles, demand=demand,
        container_demand=container_demand, write_cycles=write, loadable=True,
    )


def prove_feasibility(
    library: SILibrary,
    containers: int,
    *,
    placements: object = (),
    core_mhz: float = 100.0,
    bytes_per_us: float | None = None,
    survivable_failures: int | None = None,
    subject: str = "",
) -> FeasibilityResult:
    """Run the static prover; returns bounds plus a diagnostic report.

    ``placements`` is a sequence of
    :class:`~repro.forecast.placement.ForecastPoint` (anything exposing
    ``si_name``, ``block_id`` and ``distance``); it unlocks the FEA001
    starvation rule.  ``survivable_failures`` (``k``) unlocks the FEA005
    degraded-mode rule: with ``k`` containers lost to faults, the
    remaining ``containers - k`` must still hold every forecast SI's
    largest loadable molecule, or a chaos run silently degrades to
    all-software execution.
    """
    if containers < 0:
        raise ValueError("container count cannot be negative")
    if survivable_failures is not None and survivable_failures < 0:
        raise ValueError("survivable-failure budget cannot be negative")
    table = rotation_cycle_table(
        library, core_mhz=core_mhz, bytes_per_us=bytes_per_us
    )
    max_rot = max(table.values(), default=0)
    report = DiagnosticReport()
    molecules: list[MoleculeFeasibility] = []
    bounds: dict[str, SIRotationBound] = {}

    for si in library:
        per_si: list[MoleculeFeasibility] = []
        for index, impl in enumerate(si.implementations):
            verdict = _molecule_feasibility(
                library, si, index, impl, containers, table
            )
            molecules.append(verdict)
            per_si.append(verdict)
            if not verdict.loadable:
                report.append(diag(
                    "FEA002",
                    f"molecule {index} of SI {si.name!r} "
                    f"({verdict.cycles} cycles) can never be loaded: "
                    f"{verdict.reason}",
                    subject=subject,
                    location=f"SI {si.name} / molecule {index}",
                    si=si.name,
                    molecule=index,
                    reason=verdict.reason,
                ))
        loadable = [
            m for m in per_si if m.loadable and m.write_cycles is not None
        ]
        if loadable:
            worst = max(loadable, key=lambda m: (m.write_cycles or 0))
            write = worst.write_cycles or 0
            jobs = sum(worst.demand.values())
            queue = max(0, containers - jobs) * max_rot
            min_upgrade = min(m.write_cycles or 0 for m in loadable)
            bounds[si.name] = SIRotationBound(
                si_name=si.name, loadable=True, demand=dict(worst.demand),
                write_cycles=write, queue_cycles=queue,
                min_upgrade_cycles=min_upgrade,
            )
        else:
            bounds[si.name] = SIRotationBound(
                si_name=si.name, loadable=False, demand={},
                write_cycles=0, queue_cycles=0, min_upgrade_cycles=None,
            )
        bound = bounds[si.name]
        report.append(diag(
            "FEA004",
            f"SI {si.name!r}: worst-case rotation latency "
            f"{bound.bound_cycles} cycles "
            f"(write {bound.write_cycles} + queue {bound.queue_cycles})"
            if bound.loadable
            else f"SI {si.name!r}: no loadable hardware molecule",
            subject=subject,
            location=f"SI {si.name}",
            **bound.to_dict(),
        ))

    # Upgrade starvation: the FDF assumed the rotation amortises before
    # the hot spot, but even an idle port cannot make it in time.
    for point in placements:  # type: ignore[attr-defined]
        si_name = getattr(point, "si_name", None)
        if si_name is None or si_name not in library:
            continue
        distance = float(getattr(point, "distance", 0.0))
        bound = bounds[si_name]
        if bound.min_upgrade_cycles is None:
            report.append(diag(
                "FEA001",
                f"forecast for SI {si_name!r} at block "
                f"{getattr(point, 'block_id', '?')!r} can never be "
                "satisfied: the SI has no loadable hardware molecule",
                subject=subject,
                location=f"block {getattr(point, 'block_id', '?')}",
                si=si_name,
            ))
        elif distance < bound.min_upgrade_cycles:
            report.append(diag(
                "FEA001",
                f"forecast for SI {si_name!r} at block "
                f"{getattr(point, 'block_id', '?')!r} fires "
                f"{distance:.0f} cycles before its hot spot, but the "
                f"cheapest hardware upgrade needs "
                f"{bound.min_upgrade_cycles} cycles even on an idle port",
                subject=subject,
                location=f"block {getattr(point, 'block_id', '?')}",
                si=si_name,
                distance=distance,
                min_upgrade_cycles=bound.min_upgrade_cycles,
            ))

    # Degraded-mode feasibility: after k container failures the surviving
    # fabric must still hold each (forecast) SI's largest loadable
    # molecule — otherwise a chaos run quietly falls back to software.
    if survivable_failures is not None:
        degraded = containers - survivable_failures
        forecast_sis = sorted(
            {
                name
                for name in (
                    getattr(point, "si_name", None)
                    for point in placements  # type: ignore[attr-defined]
                )
                if name is not None and name in library
            }
        ) or sorted(si.name for si in library)
        loadable_by_si: dict[str, list[MoleculeFeasibility]] = {}
        for verdict in molecules:
            if verdict.loadable:
                loadable_by_si.setdefault(verdict.si_name, []).append(verdict)
        for si_name in forecast_sis:
            best = loadable_by_si.get(si_name)
            if not best:
                continue  # no loadable molecule at all: FEA002/FEA004 cover it
            largest = max(best, key=lambda m: (m.container_demand, -m.cycles))
            if largest.container_demand > degraded:
                report.append(diag(
                    "FEA005",
                    f"SI {si_name!r}: largest loadable molecule needs "
                    f"{largest.container_demand} containers, but surviving "
                    f"{survivable_failures} container failure(s) leaves only "
                    f"{degraded} of {containers} — the fabric degrades below "
                    "the SI's full hardware molecule",
                    subject=subject,
                    location=f"SI {si_name}",
                    si=si_name,
                    container_demand=largest.container_demand,
                    degraded_containers=degraded,
                    survivable_failures=survivable_failures,
                ))

    return FeasibilityResult(
        containers=containers,
        max_rotation_cycles=max_rot,
        port_backlog_cycles=containers * max_rot,
        bounds=bounds,
        molecules=molecules,
        report=report,
    )


def port_backlog_bound(
    library: SILibrary,
    containers: int,
    *,
    core_mhz: float = 100.0,
    bytes_per_us: float | None = None,
) -> int:
    """Sound bound on any single rotation's request-to-finish latency.

    Every pending job reserves a distinct container, so at most
    ``containers`` jobs (this one included) ever sit on the serial port,
    each writing for at most the worst bitstream latency at the port
    rate.  Container failures only *pull jobs forward* (the queue gap
    closes), so the bound survives fault injection.
    """
    table = rotation_cycle_table(
        library, core_mhz=core_mhz, bytes_per_us=bytes_per_us
    )
    return containers * max(table.values(), default=0)
