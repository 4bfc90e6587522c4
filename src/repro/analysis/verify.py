"""rispp-verify drivers: replay traces, prove feasibility, golden files.

Three entry points tie the reference machine (:mod:`.machine`) and the
static prover (:mod:`.feasibility`) to the rest of the repository:

* :func:`verify_runtime` / :func:`verify_trace` — check a live
  :class:`~repro.runtime.manager.RisppRuntime` (``run_chaos_suite``
  calls this on every scenario it runs);
* :func:`run_verify_suite` — run one of the three shipped scenarios
  (``h264``/``aes``/``synthetic``), verify its trace and prove the
  library's feasibility bounds (``python -m repro verify --suite ...``);
* :func:`golden_from_runtime` / :func:`write_golden` /
  :func:`load_golden` — serialise a verified run to a golden-trace JSON
  file that CI archives and re-verifies (``--emit-golden`` /
  ``--trace``).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from functools import partial
from typing import TYPE_CHECKING

from ..core.library import SILibrary
from ..hardware.energy import EnergyModel
from ..sim.trace import EventKind
from .diagnostics import DiagnosticReport
from .feasibility import FeasibilityResult, prove_feasibility
from .machine import ReferenceMachine, Row

if TYPE_CHECKING:
    from ..runtime.manager import RisppRuntime

GOLDEN_SCHEMA_VERSION = 1
GOLDEN_KIND = "rispp-golden-trace"

def build_library(name: str) -> SILibrary:
    """The shipped library behind one suite/golden-trace name."""
    from ..sim.suites import SUITES, suite_library

    if name in SUITES:
        return suite_library(name)
    if name.startswith("explore-"):
        from .explore import build_explore_library

        return build_explore_library(name)
    raise ValueError(
        f"unknown library {name!r}; choose from "
        f"{sorted(SUITES) + ['explore-small', 'explore-tiny']}"
    )


# -- trace verification -------------------------------------------------------


def verify_trace(
    rows: "Iterable[Row]",
    library: SILibrary,
    *,
    containers: int,
    core_mhz: float = 100.0,
    bytes_per_us: float | None = None,
    static_multiplicity: int = 16,
    totals: "dict[str, float] | None" = None,
    energy_model: EnergyModel | None = None,
    subject: str = "trace",
) -> DiagnosticReport:
    """Replay ``(cycle, kind, task, si, detail)`` rows against the
    reference machine; return findings.

    ``totals`` unlocks the TRC007 accounting rules (pass the runtime's
    ``RuntimeStats`` as a dict); ``energy_model`` additionally checks the
    energy totals.
    """
    machine = ReferenceMachine(
        library,
        containers,
        core_mhz=core_mhz,
        bytes_per_us=bytes_per_us,
        static_multiplicity=static_multiplicity,
        totals=totals,
        energy_model=energy_model,
        subject=subject,
    )
    return DiagnosticReport(list(machine.verify(rows)))


def verify_runtime(
    runtime: "RisppRuntime", *, subject: str = "runtime"
) -> DiagnosticReport:
    """Verify a live runtime's trace, totals and energy accounting.

    The trace's rows stream into the replay: no
    :class:`~repro.sim.trace.Event` is built.
    """
    return verify_trace(
        runtime.trace.rows(),
        runtime.library,
        containers=len(runtime.fabric),
        core_mhz=runtime.port.core_mhz,
        bytes_per_us=runtime.port.bytes_per_us,
        static_multiplicity=runtime.fabric.static_multiplicity,
        totals=asdict(runtime.stats),
        energy_model=runtime.energy_model,
        subject=subject,
    )


# -- golden traces ------------------------------------------------------------


@dataclass
class GoldenTrace:
    """A deserialised golden-trace file: its rows plus the replay inputs."""

    suite: str
    library_name: str
    rows: list[Row]
    library: SILibrary
    containers: int
    core_mhz: float
    bytes_per_us: float | None
    static_multiplicity: int
    totals: "dict[str, float] | None"
    energy_model: EnergyModel | None
    subject: str


def golden_from_runtime(
    runtime: "RisppRuntime", *, suite: str, library_name: str | None = None
) -> dict[str, object]:
    """Serialise one finished run to the golden-trace JSON schema."""
    energy = runtime.energy_model
    return {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "kind": GOLDEN_KIND,
        "suite": suite,
        "library": library_name if library_name is not None else suite,
        "containers": len(runtime.fabric),
        "core_mhz": runtime.port.core_mhz,
        "bytes_per_us": runtime.port.bytes_per_us,
        "static_multiplicity": runtime.fabric.static_multiplicity,
        "totals": asdict(runtime.stats),
        "energy_model": asdict(energy) if energy is not None else None,
        "events": [
            {"cycle": cycle, "kind": kind.value, "task": task, "si": si, "detail": detail}
            for cycle, kind, task, si, detail in runtime.trace.rows()
        ],
    }


def write_golden(golden: "dict[str, object]", path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(golden, indent=None, separators=(",", ":")))
        fh.write("\n")


def load_golden(path: str) -> GoldenTrace:
    """Load and validate a golden-trace file; rebuilds its library."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return golden_from_dict(data)


def golden_from_dict(data: "dict[str, object]") -> GoldenTrace:
    if data.get("kind") != GOLDEN_KIND:
        raise ValueError(
            f"not a golden-trace file (kind={data.get('kind')!r})"
        )
    if data.get("schema_version") != GOLDEN_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported golden-trace schema {data.get('schema_version')!r}"
        )
    library_name = str(data["library"])
    library = build_library(library_name)
    raw_energy = data.get("energy_model")
    energy = None
    if isinstance(raw_energy, dict):
        energy = EnergyModel(**raw_energy)
    raw_events = data.get("events")
    if not isinstance(raw_events, list):
        raise ValueError("golden-trace file carries no event list")
    rows = [
        (
            int(e["cycle"]),
            EventKind(e["kind"]),
            str(e.get("task", "")),
            str(e.get("si", "")),
            dict(e["detail"]) if e.get("detail") else {},
        )
        for e in raw_events
    ]
    totals = data.get("totals")
    return GoldenTrace(
        suite=str(data.get("suite", library_name)),
        library_name=library_name,
        rows=rows,
        library=library,
        containers=int(data["containers"]),  # type: ignore[call-overload]
        core_mhz=float(data.get("core_mhz", 100.0)),  # type: ignore[arg-type]
        bytes_per_us=(
            float(data["bytes_per_us"])  # type: ignore[arg-type]
            if data.get("bytes_per_us") is not None
            else None
        ),
        static_multiplicity=int(data.get("static_multiplicity", 16)),  # type: ignore[call-overload]
        totals=dict(totals) if isinstance(totals, dict) else None,
        energy_model=energy,
        subject=f"golden:{data.get('suite', library_name)}",
    )


def verify_golden(golden: GoldenTrace) -> DiagnosticReport:
    return verify_trace(
        golden.rows,
        golden.library,
        containers=golden.containers,
        core_mhz=golden.core_mhz,
        bytes_per_us=golden.bytes_per_us,
        static_multiplicity=golden.static_multiplicity,
        totals=golden.totals,
        energy_model=golden.energy_model,
        subject=golden.subject,
    )


# -- shipped suite scenarios --------------------------------------------------


@dataclass
class VerifyResult:
    """One suite run: trace findings + static feasibility bounds."""

    suite: str
    report: DiagnosticReport
    feasibility: FeasibilityResult
    trace_events: int
    runtime: "RisppRuntime | None" = None

    def exit_code(self) -> int:
        return self.report.exit_code()


def _scenario_synthetic(*, quick: bool) -> "RisppRuntime":
    """Verify's own synthetic scenario, not the shared chaos stream.

    It is the only scenario that fails a container mid-run without a
    fault injector: the port's dropped and resequenced queue and the
    replacement rotations are replayed by the reference machine on every
    ``repro verify --suite synthetic`` run, and ``TestMutatedPort`` in
    ``tests/test_analysis_verify.py`` relies on that.
    """
    from ..commands import Advance, FailContainer, ForecastEnd
    from ..sim.suites import run_si_stream, si_stream, suite_library
    from ..sim.task import Compute

    forecasts = [("SI0", 16.0), ("SI1", 8.0), ("SI2", 4.0), ("SI3", 2.0)]
    blocks = [("SI0", 16), ("SI1", 8), ("SI2", 4), ("SI3", 2)]
    rounds = 6 if quick else 12
    # The inter-round gap is sized so rotations (~58k-87k cycles each on
    # the serial port) land mid-run and the SW -> HW upgrade is exercised.
    stream = partial(si_stream, forecasts, blocks, inter_block_cycles=60_000)
    faulted = rounds // 2 + 1  # rounds up to and including the faulted one
    script = stream(rounds=faulted, warmup_cycles=10_000)
    # Container 1 fails after the middle round's SIs, before its gap: the
    # dropped/resequenced port queue and the replacement rotations must
    # all verify too.
    script[-1:-1] = [FailContainer(1), Compute(1_000)]
    script += stream(rounds=rounds - faulted, warmup_cycles=0)
    script += [ForecastEnd("SI3"), Compute(10_000_000), Advance()]
    return run_si_stream(
        suite_library("synthetic"), script, containers=5,
        energy_model=EnergyModel(),
    )


def run_verify_suite(
    name: str,
    *,
    quick: bool = False,
    survivable_failures: int | None = None,
) -> VerifyResult:
    """Run one shipped scenario, verify its trace, prove feasibility.

    ``aes`` and ``h264`` are the shared suites (:mod:`repro.sim.suites`)
    with energy accounting on; ``synthetic`` is verify's own scenario.
    Each run then idles 10M cycles so every pending rotation lands.
    """
    from ..sim.suites import run_suite

    placements: list[object] = []
    if name == "synthetic":
        runtime = _scenario_synthetic(quick=quick)
    else:
        run = run_suite(name, quick=quick, energy_model=EnergyModel())
        runtime, placements = run.runtime, run.placements
        runtime.advance(runtime.trace.last_cycle + 10_000_000)
    report = verify_runtime(runtime, subject=f"suite:{name}")
    feasibility = prove_feasibility(
        runtime.library,
        len(runtime.fabric),
        placements=placements,
        core_mhz=runtime.port.core_mhz,
        bytes_per_us=runtime.port.bytes_per_us,
        survivable_failures=survivable_failures,
        subject=f"suite:{name}",
    )
    return VerifyResult(
        suite=name,
        report=report,
        feasibility=feasibility,
        trace_events=len(runtime.trace),
        runtime=runtime,
    )


def verify_golden_result(
    golden: GoldenTrace, *, survivable_failures: int | None = None
) -> VerifyResult:
    """Verify a golden trace and prove its library's feasibility.

    ``survivable_failures`` is passed to :func:`prove_feasibility` as on
    the suite path, so ``--trace`` runs prove FEA005 too.
    """
    report = verify_golden(golden)
    feasibility = prove_feasibility(
        golden.library,
        golden.containers,
        core_mhz=golden.core_mhz,
        bytes_per_us=golden.bytes_per_us,
        survivable_failures=survivable_failures,
        subject=golden.subject,
    )
    return VerifyResult(
        suite=golden.suite,
        report=report,
        feasibility=feasibility,
        trace_events=len(golden.rows),
    )
