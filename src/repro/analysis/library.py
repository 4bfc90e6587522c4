"""Library coherence checks (rules LIB001..LIB008).

An :class:`~repro.core.library.SILibrary` is the contract between the
compile-time forecast pipeline and the run-time manager; these checks
verify that contract without running a simulation:

* LIB001 — every SI has a usable software molecule (the plain-ISA
  fallback the gradual SW→HW upgrade path relies on);
* LIB002 — all SIs share the library's :class:`AtomSpace`;
* LIB003 — Pareto-dominated hardware molecules (dead catalogue weight:
  the run-time's ``best_available`` will never pick them);
* LIB004 — the SI's *minimal* molecule must fit the configured Atom
  Container count, else the SI can never leave software;
* LIB005 — individual molecules beyond the container count (reachable
  only on a larger platform);
* LIB006 — hardware molecules not faster than software can never
  amortise a rotation (the FDF's ``T_sw > T_hw`` precondition);
* LIB007 — an SI without hardware molecules (post-construction mutation);
* LIB008 — catalogue atom kinds no SI uses (dead fabric area).

Capacity rules (LIB004/LIB005) only run when the caller passes a
container count — a library is not wrong per se on a smaller
platform, merely unusable there.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..core.library import SILibrary
from ..core.si import SpecialInstruction
from .diagnostics import Diagnostic
from .rules import diag


def _dominating_impl(si: SpecialInstruction, idx: int) -> int | None:
    """Index of a molecule that component-wise dominates molecule ``idx``.

    Molecule ``j`` dominates ``i`` when ``m_j <= m_i`` (it fits whenever
    ``i`` fits) and is not slower, with at least one strict improvement —
    then ``best_available`` can never select ``i``.
    """
    impl = si.implementations[idx]
    for j, other in enumerate(si.implementations):
        if j == idx:
            continue
        if other.molecule.space != impl.molecule.space:
            continue
        if (
            other.molecule <= impl.molecule
            and other.cycles <= impl.cycles
            and (other.molecule != impl.molecule or other.cycles < impl.cycles)
        ):
            return j
    return None


def check_library(
    library: SILibrary, containers: int | None, subject: str
) -> Iterator[Diagnostic]:
    for si in library:
        loc = f"SI {si.name}"
        if si.space != library.space:
            yield diag(
                "LIB002",
                f"SI {si.name!r} was built over atom space {si.space!r}, "
                f"not the library's {library.space!r}",
                subject=subject, location=loc, si=si.name,
            )
            continue  # the remaining checks assume a shared space

        if si.software_cycles < 1:
            yield diag(
                "LIB001",
                f"SI {si.name!r} has software_cycles={si.software_cycles}; "
                "the software molecule must cost at least one cycle",
                subject=subject, location=loc, si=si.name,
                software_cycles=si.software_cycles,
            )

        if not si.implementations:
            yield diag(
                "LIB007",
                f"SI {si.name!r} offers no hardware molecule",
                subject=subject, location=loc, si=si.name,
            )
            continue

        for idx, impl in enumerate(si.implementations):
            impl_loc = f"{loc} / molecule {idx}"
            dominator = _dominating_impl(si, idx)
            if dominator is not None:
                yield diag(
                    "LIB003",
                    f"molecule {idx} of SI {si.name!r} "
                    f"({abs(impl.molecule)} atoms, {impl.cycles} cycles) is "
                    f"dominated by molecule {dominator}: the run-time's "
                    "best_available can never pick it",
                    subject=subject, location=impl_loc, si=si.name,
                    molecule=idx, dominated_by=dominator,
                    atoms=abs(impl.molecule), cycles=impl.cycles,
                )
            if impl.cycles >= si.software_cycles > 0:
                yield diag(
                    "LIB006",
                    f"molecule {idx} of SI {si.name!r} needs {impl.cycles} "
                    f"cycles, not faster than software ({si.software_cycles}); "
                    "a rotation towards it can never amortise",
                    subject=subject, location=impl_loc, si=si.name,
                    molecule=idx, cycles=impl.cycles,
                    software_cycles=si.software_cycles,
                )

        if containers is not None:
            minimal_demand = min(
                library.container_demand(impl.molecule)
                for impl in si.implementations
            )
            if minimal_demand > containers:
                yield diag(
                    "LIB004",
                    f"SI {si.name!r} needs at least {minimal_demand} Atom "
                    f"Containers but the platform offers {containers}; "
                    "the SI can never leave its software molecule",
                    subject=subject, location=loc, si=si.name,
                    minimal_demand=minimal_demand, containers=containers,
                )
            else:
                for idx, impl in enumerate(si.implementations):
                    demand = library.container_demand(impl.molecule)
                    if demand > containers:
                        yield diag(
                            "LIB005",
                            f"molecule {idx} of SI {si.name!r} occupies "
                            f"{demand} containers, beyond the platform's "
                            f"{containers}; it is unreachable here",
                            subject=subject,
                            location=f"{loc} / molecule {idx}",
                            si=si.name, molecule=idx, demand=demand,
                            containers=containers,
                        )

    used_kinds: set[str] = set()
    for si in library:
        if si.space != library.space:
            continue
        for molecule in si.molecules():
            used_kinds.update(molecule.kinds_used())
    for kind in library.space.kinds:
        if kind not in used_kinds:
            yield diag(
                "LIB008",
                f"atom kind {kind!r} is in the catalogue but no SI molecule "
                "uses it",
                subject=subject, location=f"atom {kind}", kind=kind,
            )
