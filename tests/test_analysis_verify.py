"""rispp-verify: the reference machine replay (rules TRC001..TRC013).

Two halves: clean traces produced by the real runtime must replay with
zero findings (the machine and the manager agree on the hardware
semantics), and seeded corruptions must each trip exactly the intended
rule — a corruption that cascades into unrelated findings would make the
verifier useless as a localisation tool.
"""

import pytest

from repro.analysis import (
    ReferenceMachine,
    run_verify_suite,
    verify_runtime,
    verify_trace,
)
from repro.bench.suites import build_synthetic_library
from repro.core.atom import AtomCatalogue, AtomKind
from repro.core.library import SILibrary
from repro.core.molecule import Molecule
from repro.core.si import MoleculeImpl, SpecialInstruction
from repro.hardware.energy import EnergyModel
from repro.hardware.reconfig import ReconfigurationPort
from repro.runtime import RisppRuntime
from repro.sim import Event, EventKind
from tests.trace_rows import Row, editable_rows


def _drive_runtime(*, containers=5, energy=True):
    """A small multi-phase scenario: forecasts, gradual upgrade, a fault."""
    library = build_synthetic_library()
    rt = RisppRuntime(
        library, containers, core_mhz=100.0,
        energy_model=EnergyModel() if energy else None,
    )
    now = 10_000
    for round_no in range(10):
        for si_name, expected in (("SI0", 16.0), ("SI1", 8.0), ("SI2", 4.0)):
            rt.forecast(si_name, now, expected=expected)
        for si_name, calls in (("SI0", 16), ("SI1", 8), ("SI2", 4)):
            for _ in range(calls):
                now += rt.execute_si(si_name, now)
        if round_no == 4:
            rt.fail_container(1, now)
            now += 1_000
        # Rotations take ~58k-87k cycles through the serial port; the
        # inter-round gap lets them land so later rounds upgrade to HW.
        now += 60_000
    rt.forecast_end("SI2", now)
    rt.advance(now + 10_000_000)
    return rt


@pytest.fixture(scope="module")
def verified_runtime():
    return _drive_runtime()


@pytest.fixture(scope="module")
def clean_events(verified_runtime):
    return editable_rows(verified_runtime.trace.rows())


def _verify_events(rt, events, *, totals=True):
    import dataclasses

    return verify_trace(
        events,
        rt.library,
        containers=len(rt.fabric),
        core_mhz=rt.port.core_mhz,
        bytes_per_us=rt.port.bytes_per_us,
        static_multiplicity=rt.fabric.static_multiplicity,
        totals=dataclasses.asdict(rt.stats) if totals else None,
        energy_model=rt.energy_model,
    )


class TestCleanTraces:
    def test_runtime_trace_replays_clean(self, verified_runtime):
        report = verify_runtime(verified_runtime)
        assert report.clean(), report.render_text()

    def test_clean_trace_with_totals_and_energy(
        self, verified_runtime, clean_events
    ):
        report = _verify_events(verified_runtime, clean_events)
        assert report.clean(), report.render_text()

    def test_runtime_without_energy_model_replays_clean(self):
        rt = _drive_runtime(energy=False)
        report = verify_runtime(rt)
        assert report.clean(), report.render_text()

    @pytest.mark.parametrize("suite", ["synthetic", "h264", "aes"])
    def test_shipped_suites_replay_clean(self, suite):
        result = run_verify_suite(suite, quick=True)
        assert result.report.clean(), result.report.render_text()
        assert result.exit_code() == 0
        assert result.trace_events > 0

    def test_machine_accounting_matches_runtime_stats(self, verified_runtime):
        machine = ReferenceMachine(
            verified_runtime.library,
            len(verified_runtime.fabric),
            energy_model=verified_runtime.energy_model,
        )
        machine.replay(verified_runtime.trace.rows())
        acc = machine.accounting()
        stats = verified_runtime.stats
        assert acc["si_executions"] == stats.si_executions
        assert acc["si_cycles"] == stats.si_cycles
        assert acc["rotations_requested"] == stats.rotations_requested
        assert acc["rotation_energy_nj"] == pytest.approx(
            stats.rotation_energy_nj
        )
        assert acc["execution_energy_nj"] == pytest.approx(
            stats.execution_energy_nj
        )


def _port_ignoring_busy_until(request):
    """The port starts every write at its request, even while busy."""

    def mutated(self, *args, **kwargs):
        self.busy_until = 0
        return request(self, *args, **kwargs)

    return mutated


def _port_lengthening_writes(request):
    """The port spends 7 cycles more on every write than its bitstream."""

    def mutated(self, *args, **kwargs):
        cycles = ReconfigurationPort.rotation_cycles
        self.rotation_cycles = lambda atom: cycles(self, atom) + 7
        try:
            return request(self, *args, **kwargs)
        finally:
            del self.rotation_cycles

    return mutated


class TestMutatedPort:
    """A buggy ReconfigurationPort is caught by replaying its trace."""

    @pytest.mark.parametrize(
        "mutate, rule_id",
        [(_port_ignoring_busy_until, "TRC002"), (_port_lengthening_writes, "TRC008")],
        ids=["ignore-busy-until", "lengthen-write"],
    )
    def test_port_bug_fails_verification(self, monkeypatch, mutate, rule_id):
        monkeypatch.setattr(
            ReconfigurationPort, "request", mutate(ReconfigurationPort.request)
        )
        result = run_verify_suite("synthetic", quick=True)
        assert rule_id in {d.rule_id for d in result.report.errors()}, (
            result.report.render_text()
        )


def _only_rule(report, rule_id):
    ids = [d.rule_id for d in report]
    assert ids, f"expected a {rule_id} finding, got a clean report"
    assert set(ids) == {rule_id}, (
        f"expected only {rule_id}, got: " + report.render_text()
    )


class TestSeededCorruptions:
    """Each hand mutation trips exactly the intended rule."""

    def test_negative_cycle_trips_trc001(self, verified_runtime, clean_events):
        events = editable_rows(clean_events)
        events[3] = events[3]._replace(cycle=-5)
        _only_rule(_verify_events(verified_runtime, events), "TRC001")

    def test_swapped_events_trip_trc001(self, verified_runtime, clean_events):
        events = editable_rows(clean_events)
        # Swap two adjacent same-shaped executions with different cycles:
        # the event *content* stays legal, only the ordering breaks.
        idx = next(
            i
            for i in range(len(events) - 1)
            if events[i].kind is EventKind.SI_EXECUTED
            and events[i + 1].kind is EventKind.SI_EXECUTED
            and events[i].cycle < events[i + 1].cycle
            and events[i].detail == events[i + 1].detail
            and events[i].si == events[i + 1].si
        )
        events[idx], events[idx + 1] = events[idx + 1], events[idx]
        _only_rule(_verify_events(verified_runtime, events), "TRC001")

    def test_overlapping_rotation_trips_trc002(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        # A rotation queued behind the port (starts > request cycle) moved
        # earlier overlaps the previous write's busy window.
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.ROTATION_REQUESTED
            and e.detail["starts"] > e.cycle
        )
        events[idx].detail["starts"] -= 10
        report = _verify_events(verified_runtime, events)
        assert "TRC002" in {d.rule_id for d in report}, report.render_text()

    def test_bad_container_id_trips_trc003(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.ROTATION_REQUESTED
        )
        events[idx].detail["container"] = 99
        report = _verify_events(verified_runtime, events)
        assert "TRC003" in {d.rule_id for d in report}, report.render_text()

    def test_duplicate_rotation_request_trips_trc004_only(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.ROTATION_REQUESTED
        )
        dup = events[idx]
        events.insert(idx + 1, dup._replace(detail=dict(dup.detail)))
        _only_rule(_verify_events(verified_runtime, events), "TRC004")

    def test_unresident_molecule_trips_trc005(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        # Rewrite an early SW execution (no rotation has landed yet) as a
        # hardware one: the claimed molecule's atoms are not resident.
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.SI_EXECUTED and e.detail["mode"] == "SW"
        )
        si = verified_runtime.library.get(events[idx].si)
        impl = si.implementations[0]
        events[idx].detail["mode"] = impl.label or "HW"
        events[idx].detail["cycles"] = impl.cycles
        _only_rule(_verify_events(verified_runtime, events), "TRC005")

    def test_impossible_latency_trips_trc006(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.SI_EXECUTED
        )
        events[idx].detail["cycles"] = 999_999
        _only_rule(_verify_events(verified_runtime, events), "TRC006")

    def test_negative_energy_total_trips_trc007_only(
        self, verified_runtime, clean_events
    ):
        import dataclasses

        totals = dataclasses.asdict(verified_runtime.stats)
        totals["rotation_energy_nj"] = -totals["rotation_energy_nj"] - 1.0
        report = verify_trace(
            clean_events,
            verified_runtime.library,
            containers=len(verified_runtime.fabric),
            static_multiplicity=verified_runtime.fabric.static_multiplicity,
            totals=totals,
            energy_model=verified_runtime.energy_model,
        )
        _only_rule(report, "TRC007")

    def test_wrong_total_count_trips_trc007(
        self, verified_runtime, clean_events
    ):
        import dataclasses

        totals = dataclasses.asdict(verified_runtime.stats)
        totals["si_executions"] += 7
        report = verify_trace(
            clean_events,
            verified_runtime.library,
            containers=len(verified_runtime.fabric),
            static_multiplicity=verified_runtime.fabric.static_multiplicity,
            totals=totals,
            energy_model=verified_runtime.energy_model,
        )
        _only_rule(report, "TRC007")

    def test_wrong_rotation_duration_trips_trc008(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.ROTATION_REQUESTED
        )
        events[idx].detail["finishes"] += 123
        report = _verify_events(verified_runtime, events)
        assert "TRC008" in {d.rule_id for d in report}, report.render_text()

    def test_unknown_atom_kind_trips_trc009(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.ROTATION_REQUESTED
        )
        events[idx].detail["detail_atom"] = "NoSuchAtom"
        report = _verify_events(verified_runtime, events)
        assert "TRC009" in {d.rule_id for d in report}, report.render_text()

    def test_unknown_si_trips_trc010(self, verified_runtime, clean_events):
        events = editable_rows(clean_events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.SI_EXECUTED
        )
        events[idx] = events[idx]._replace(si="GHOST")
        report = _verify_events(verified_runtime, events)
        assert "TRC010" in {d.rule_id for d in report}, report.render_text()

    def test_dropped_mode_switch_trips_trc011(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.SI_MODE_SWITCH
        )
        del events[idx]
        report = _verify_events(verified_runtime, events)
        assert "TRC011" in {d.rule_id for d in report}, report.render_text()

    def test_negative_forecast_expectation_trips_trc012(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.FORECAST
        )
        events[idx].detail["expected"] = -3.0
        _only_rule(_verify_events(verified_runtime, events), "TRC012")

    def test_slower_than_best_molecule_trips_trc013(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        # A late execution claiming SW mode while faster hardware molecules
        # are resident violates the best-available rule (§5) — SW *is* a
        # valid mode, so this is TRC013, not TRC006/TRC005.
        idx = next(
            i
            for i in range(len(events) - 1, -1, -1)
            if events[i].kind is EventKind.SI_EXECUTED
            and events[i].detail["mode"] != "SW"
        )
        si = verified_runtime.library.get(events[idx].si)
        events[idx].detail["mode"] = "SW"
        events[idx].detail["cycles"] = si.software_cycles
        report = _verify_events(verified_runtime, events)
        assert "TRC013" in {d.rule_id for d in report}, report.render_text()

    def test_container_failure_claiming_wrong_atom_trips_trc004(
        self, verified_runtime, clean_events
    ):
        events = editable_rows(clean_events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.CONTAINER_FAILED
        )
        events[idx].detail["lost_atom"] = "NoSuchAtom"
        report = _verify_events(verified_runtime, events)
        assert "TRC004" in {d.rule_id for d in report}, report.render_text()


class TestReplayMemo:
    """The machine derives each (SI, available molecule) best pair once,
    and never serves a pair derived on another fabric state."""

    def test_rotation_between_equal_runs_still_trips_trc013(self):
        catalogue = AtomCatalogue.of([AtomKind("A", bitstream_bytes=4_000)])
        space = catalogue.space
        library = SILibrary(
            catalogue,
            [
                SpecialInstruction(
                    "S",
                    space,
                    software_cycles=100,
                    implementations=[MoleculeImpl(space.molecule({"A": 1}), 10)],
                )
            ],
        )
        finishes = ReconfigurationPort(catalogue, core_mhz=100.0).rotation_cycles("A")
        sw_run = {"mode": "SW", "cycles": 100}
        events = [
            Row(0, EventKind.ROTATION_REQUESTED, "", "", {
                "atom": "A", "container": 0, "starts": 0,
                "finishes": finishes, "evicts": None,
            }),
            Row(1, EventKind.SI_EXECUTED, "", "S", dict(sw_run)),
            Row(finishes, EventKind.ROTATION_COMPLETED, "", "",
                {"atom": "A", "container": 0}),
            # The same SI, the same claimed cycles: only the fabric moved.
            Row(finishes, EventKind.SI_EXECUTED, "", "S", dict(sw_run)),
        ]
        report = verify_trace(events, library, containers=1)
        assert [(d.rule_id, d.location) for d in report] == [("TRC013", "event 3")]

    def test_each_si_and_available_pair_is_derived_once(
        self, verified_runtime, monkeypatch
    ):
        derived = []
        best_available = SpecialInstruction.best_available

        def counted(si, available):
            derived.append((si.name, available))
            return best_available(si, available)

        monkeypatch.setattr(SpecialInstruction, "best_available", counted)
        assert verify_runtime(verified_runtime).ok()
        executions = verified_runtime.stats.si_executions
        # The energy path asks again for every HW run: the memo answers.
        assert executions > 2 * len(derived) > 0
        assert len(derived) == len(set(derived))

    def test_replay_builds_no_event_and_compares_each_pair_once(
        self, verified_runtime, monkeypatch
    ):
        built = []
        init = Event.__init__

        def counted_init(event, *args, **kwargs):
            built.append(args)
            init(event, *args, **kwargs)

        compared = []
        le = Molecule.__le__

        def counted_le(molecule, other):
            compared.append((id(molecule), other))
            return le(molecule, other)

        monkeypatch.setattr(Event, "__init__", counted_init)
        monkeypatch.setattr(Molecule, "__le__", counted_le)
        assert verify_runtime(verified_runtime).ok()
        # The trace's rows stream into the replay: no Event is built.
        assert built == []
        # Each library molecule meets each replayed fabric state at most
        # once, however often its SI runs there.
        assert len(compared) == len(set(compared)) > 0
        assert verified_runtime.stats.hw_executions > 2 * len(compared)
