"""Checker registry and artifact dispatch of rispp-lint.

The rule *catalogue* lives in :mod:`.rules` (one declaration per
invariant, shared by lint, verify and explore); this module re-exports it
for backwards compatibility.  Checker functions (one per artifact aspect)
register via the :func:`checker` decorator and are dispatched by artifact
type through :func:`run_checks` — the single driver the CLI, the
integration layer and the tests share.

Artifact types understood by the driver:

* :class:`~repro.core.library.SILibrary` — lattice + library checks;
* :class:`~repro.cfg.graph.ControlFlowGraph` — CFG profile checks;
* :class:`ForecastArtifact` — forecast placements against their CFG;
* :class:`ScheduleArtifact` — a dataflow schedule against its molecule;
* :class:`RotationLog` — reconfiguration-port job sequences;
* :class:`TraceArtifact` — a recorded run-time event trace, replayed
  against the reference state machine (rispp-verify);
* :class:`FeasibilityArtifact` — a library + FC placement + AC count,
  proven feasible without simulation (rispp-verify).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from .diagnostics import Diagnostic, DiagnosticReport
from .rules import (  # noqa: F401 - re-exported for backwards compatibility
    RULES,
    Rule,
    diag,
    expand_selectors,
    rule,
    rules_of_family,
)

if TYPE_CHECKING:  # imported lazily to keep the module import-light
    from ..cfg.graph import ControlFlowGraph
    from ..core.atom import AtomCatalogue
    from ..core.library import SILibrary
    from ..core.molecule import Molecule
    from ..core.schedule import Dataflow, Schedule
    from ..forecast.fdf import ForecastDecisionFunction
    from ..forecast.placement import ForecastPoint
    from ..hardware.energy import EnergyModel
    from ..hardware.reconfig import ReconfigurationPort, RotationJob
    from ..sim.trace import Event, Trace


# ---------------------------------------------------------------------------
# Artifact wrappers
# ---------------------------------------------------------------------------


@dataclass
class ForecastArtifact:
    """Forecast placements to be checked against their CFG.

    ``points`` accepts a raw placement list or anything exposing
    ``all_points()`` (a :class:`~repro.forecast.annotate.ForecastAnnotation`).
    ``fdfs`` and ``library`` unlock the offset and SI-membership rules.
    """

    cfg: "ControlFlowGraph"
    points: Sequence["ForecastPoint"]
    fdfs: "dict[str, ForecastDecisionFunction] | None" = None
    library: "SILibrary | None" = None
    subject: str = ""

    def __post_init__(self) -> None:
        if hasattr(self.points, "all_points"):
            self.points = self.points.all_points()  # type: ignore[union-attr]
        self.points = list(self.points)


@dataclass
class ScheduleArtifact:
    """A list-scheduler result bound to the dataflow and molecule it priced."""

    dataflow: "Dataflow"
    molecule: "Molecule"
    schedule: "Schedule"
    unconstrained_kinds: tuple[str, ...] = ()
    issue_overhead: int = 0
    subject: str = ""


@dataclass
class RotationLog:
    """A sequence of reconfiguration-port jobs (one port, serialised)."""

    jobs: Sequence["RotationJob"]
    catalogue: "AtomCatalogue | None" = None
    #: Expected rotation latency per atom kind (cycles); derived from the
    #: port when built via :meth:`from_port`, else optional.
    rotation_cycles: dict[str, int] | None = None
    subject: str = ""

    @classmethod
    def from_port(cls, port: "ReconfigurationPort", *, subject: str = "") -> "RotationLog":
        cycles: dict[str, int] = {}
        for job in port.jobs:
            if job.atom not in cycles:
                try:
                    cycles[job.atom] = port.rotation_cycles(job.atom)
                except ValueError:
                    pass  # the checker reports static/brandless atoms itself
        return cls(
            jobs=list(port.jobs),
            catalogue=port.catalogue,
            rotation_cycles=cycles,
            subject=subject,
        )


@dataclass
class TraceArtifact:
    """A recorded run-time trace plus the platform that produced it.

    ``events`` accepts a :class:`~repro.sim.trace.Trace` or a plain event
    sequence (e.g. deserialised from a golden-trace file).  ``totals``
    unlocks the TRC007 accounting rules (pass the runtime's
    ``RuntimeStats`` as a dict); ``energy_model`` additionally checks the
    energy totals.
    """

    events: "Sequence[Event] | Trace"
    library: "SILibrary"
    containers: int
    core_mhz: float = 100.0
    bytes_per_us: "float | None" = None
    static_multiplicity: int = 16
    totals: "dict[str, float] | None" = None
    energy_model: "EnergyModel | None" = None
    subject: str = ""

    def __post_init__(self) -> None:
        self.events = list(self.events)


@dataclass
class FeasibilityArtifact:
    """A library + AC budget (+ optional FC placement) to prove feasible.

    The prover needs no simulation: worst-case rotation latencies follow
    from the molecule lattice and the serialised-port model alone.
    """

    library: "SILibrary"
    containers: int
    placements: "Sequence[ForecastPoint]" = ()
    core_mhz: float = 100.0
    bytes_per_us: "float | None" = None
    #: Survivable-failure budget for the FEA005 degraded-mode rule;
    #: ``None`` disables the rule.
    survivable_failures: "int | None" = None
    subject: str = ""

    def __post_init__(self) -> None:
        self.placements = list(self.placements)


# ---------------------------------------------------------------------------
# Checker registry and driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintContext:
    """Cross-checker configuration shared by one :func:`run_checks` run."""

    #: Atom Containers of the target platform; ``None`` skips capacity rules.
    containers: int | None = None
    #: Numeric tolerance for probability sums and float comparisons.
    tolerance: float = 1e-6
    #: Fallback subject label for artifacts that don't carry their own.
    subject: str = ""


CheckFn = Callable[[object, LintContext], Iterable[Diagnostic]]


@dataclass(frozen=True)
class Checker:
    """A registered check: name, rule family, artifact dispatch, function."""

    name: str
    family: str
    applies_to: tuple[type[object], ...]
    fn: CheckFn

    def run(self, artifact: object, context: LintContext) -> list[Diagnostic]:
        return list(self.fn(artifact, context))


_CHECKERS: dict[str, Checker] = {}


def checker(
    name: str, family: str, applies_to: type[object] | tuple[type[object], ...]
) -> Callable[[CheckFn], CheckFn]:
    """Register a checker function under ``name`` for the given artifact types."""
    types = applies_to if isinstance(applies_to, tuple) else (applies_to,)

    def register(fn: CheckFn) -> CheckFn:
        if name in _CHECKERS:
            raise ValueError(f"duplicate checker {name!r}")
        _CHECKERS[name] = Checker(name=name, family=family, applies_to=types, fn=fn)
        return fn

    return register


def checkers(family: str | None = None) -> list[Checker]:
    """All registered checkers, optionally restricted to one rule family."""
    _ensure_loaded()
    found = list(_CHECKERS.values())
    if family is not None:
        found = [c for c in found if c.family == family]
    return found


def checkers_for(artifact: object) -> list[Checker]:
    """The checkers whose dispatch types match ``artifact``."""
    _ensure_loaded()
    return [c for c in _CHECKERS.values() if isinstance(artifact, c.applies_to)]


def _ensure_loaded() -> None:
    """Import the checker modules exactly once (registration side effects)."""
    from . import (  # noqa: F401
        cfgcheck,
        feasibility,
        forecastcheck,
        lattice,
        library,
        schedcheck,
        tracecheck,
    )


def _iter_artifacts(artifacts: object) -> Iterator[object]:
    if isinstance(artifacts, (list, tuple)):
        for artifact in artifacts:
            yield artifact
    else:
        yield artifacts


def run_checks(
    artifacts: object,
    *,
    context: LintContext | None = None,
    families: Iterable[str] | None = None,
) -> DiagnosticReport:
    """Run every applicable registered checker over the given artifact(s).

    ``artifacts`` is one artifact or a list/tuple of them; unknown artifact
    types are ignored (callers may mix domain objects freely).  ``families``
    restricts the run to the named rule families.
    """
    ctx = context if context is not None else LintContext()
    wanted = set(families) if families is not None else None
    report = DiagnosticReport()
    for artifact in _iter_artifacts(artifacts):
        for chk in checkers_for(artifact):
            if wanted is not None and chk.family not in wanted:
                continue
            report.extend(chk.run(artifact, ctx))
    return report
