"""rispp-verify rules for the fault lifecycle: TRC014/TRC015 and FEA005.

A chaos trace produced by the real injector must replay clean; hand
mutations of the fault/quarantine/repair events must trip the lifecycle
rule (TRC014), and work landing on a quarantined container must trip
TRC015.  The static prover's degraded-mode rule (FEA005) fires exactly
when ``containers - k`` can no longer hold the largest loadable
molecule of a forecast SI.
"""

import pytest

from repro.analysis import verify_runtime, verify_trace
from repro.analysis.feasibility import prove_feasibility
from repro.bench.suites import build_synthetic_library
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.runtime import RisppRuntime
from repro.sim import EventKind
from tests.trace_rows import Row, editable_rows


@pytest.fixture(scope="module")
def library():
    return build_synthetic_library()


def _chaos_runtime(library):
    """Deterministic full lifecycle: inject, detect, quarantine, repair."""
    injector = FaultInjector(
        FaultSchedule([FaultEvent(300_000, FaultKind.TRANSIENT, container=0)]),
        scrub_period=10_000,
    )
    rt = RisppRuntime(library, 5, core_mhz=100.0, faults=injector)
    rt.forecast("SI0", 0, expected=64.0)
    now = max(j.finish_at for j in rt.port.jobs) + 1
    for _ in range(8):
        now += rt.execute_si("SI0", now)
        now += 10_000
    rt.forecast_end("SI0", 500_000)
    rt.advance(2_000_000)
    injector.finalize(2_000_000)
    assert injector.stats.containers_repaired == 1
    return rt


@pytest.fixture(scope="module")
def chaos_runtime(library):
    return _chaos_runtime(library)


@pytest.fixture(scope="module")
def chaos_events(chaos_runtime):
    return editable_rows(chaos_runtime.trace.rows())


def _verify(rt, events):
    # No totals: mutations would otherwise also unbalance the TRC007
    # accounting cross-check and blur which rule the mutation trips.
    return verify_trace(
        events,
        rt.library,
        containers=len(rt.fabric),
        core_mhz=rt.port.core_mhz,
        bytes_per_us=rt.port.bytes_per_us,
        static_multiplicity=rt.fabric.static_multiplicity,
    )


def _index_of(events, kind):
    return next(i for i, e in enumerate(events) if e.kind is kind)


class TestCleanChaosTrace:
    def test_full_lifecycle_replays_clean(self, chaos_runtime):
        report = verify_runtime(chaos_runtime, subject="chaos-lifecycle")
        assert report.clean(), report.render_text()

    def test_lifecycle_events_present(self, chaos_events):
        kinds = {e.kind for e in chaos_events}
        assert EventKind.FAULT_INJECTED in kinds
        assert EventKind.FAULT_DETECTED in kinds
        assert EventKind.CONTAINER_QUARANTINED in kinds
        assert EventKind.CONTAINER_REPAIRED in kinds


class TestLifecycleCorruptions:
    def test_missing_repair_trips_trc014(self, chaos_runtime, chaos_events):
        events = [
            e
            for e in editable_rows(chaos_events)
            if e.kind is not EventKind.CONTAINER_REPAIRED
        ]
        report = _verify(chaos_runtime, events)
        ids = {d.rule_id for d in report}
        assert "TRC014" in ids, report.render_text()
        dangling = [
            d for d in report.by_rule("TRC014") if "never repaired" in d.message
        ]
        assert dangling, report.render_text()

    def test_non_repair_rotation_into_quarantine_trips_trc015(
        self, chaos_runtime, chaos_events
    ):
        events = editable_rows(chaos_events)
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.ROTATION_REQUESTED
            and e.detail.get("repair")
        )
        del events[idx].detail["repair"]
        report = _verify(chaos_runtime, events)
        assert "TRC015" in {d.rule_id for d in report}, report.render_text()

    def test_quarantine_without_detection_trips_trc014(
        self, chaos_runtime, chaos_events
    ):
        events = editable_rows(chaos_events)
        idx = _index_of(events, EventKind.CONTAINER_QUARANTINED)
        # Redirect the quarantine at a healthy container: no detection
        # ever happened there.
        events[idx].detail["container"] = 4
        report = _verify(chaos_runtime, events)
        messages = [d.message for d in report.by_rule("TRC014")]
        assert any("without a preceding fault detection" in m for m in messages)

    def test_detection_without_corruption_trips_trc014(
        self, chaos_runtime, chaos_events
    ):
        events = editable_rows(chaos_events)
        idx = _index_of(events, EventKind.FAULT_DETECTED)
        events[idx].detail["container"] = 1
        report = _verify(chaos_runtime, events)
        messages = [d.message for d in report.by_rule("TRC014")]
        assert any("no silent corruption is open" in m for m in messages)

    def test_wrong_claimed_atom_trips_trc014(
        self, chaos_runtime, chaos_events
    ):
        events = editable_rows(chaos_events)
        idx = _index_of(events, EventKind.FAULT_INJECTED)
        events[idx].detail["atom"] = "Syn5"
        report = _verify(chaos_runtime, events)
        messages = [d.message for d in report.by_rule("TRC014")]
        assert any("claims atom" in m for m in messages)

    def test_unknown_effect_trips_trc014(self, chaos_runtime, chaos_events):
        events = editable_rows(chaos_events)
        idx = _index_of(events, EventKind.FAULT_INJECTED)
        events[idx].detail["effect"] = "melted"
        report = _verify(chaos_runtime, events)
        messages = [d.message for d in report.by_rule("TRC014")]
        assert any("unknown effect" in m for m in messages)

    def test_malformed_retry_trips_trc014(self, chaos_runtime, chaos_events):
        events = editable_rows(chaos_events)
        last = events[-1].cycle
        events.append(Row(
            last + 1,
            EventKind.ROTATION_RETRIED,
            "main",
            "",
            {"container": 0, "atom": "Syn0", "attempt": 0, "retry_at": last + 2},
        ))
        report = _verify(chaos_runtime, events)
        messages = [d.message for d in report.by_rule("TRC014")]
        assert any("malformed attempt" in m for m in messages)

    def test_retry_due_in_the_past_trips_trc014(
        self, chaos_runtime, chaos_events
    ):
        events = editable_rows(chaos_events)
        last = events[-1].cycle
        events.append(Row(
            last + 10,
            EventKind.ROTATION_RETRIED,
            "main",
            "",
            {"container": 0, "atom": "Syn0", "attempt": 1, "retry_at": last},
        ))
        report = _verify(chaos_runtime, events)
        messages = [d.message for d in report.by_rule("TRC014")]
        assert any("strictly in the future" in m for m in messages)


class TestDegradedFeasibility:
    """FEA005: the largest molecule must survive k container failures."""

    def test_no_budget_no_rule(self, library):
        result = prove_feasibility(library, 5, subject="fea")
        assert not result.report.by_rule("FEA005")

    def test_sufficient_margin_is_silent(self, library):
        # The largest synthetic molecule needs 4 containers; 5 - 1 = 4
        # still holds it.
        result = prove_feasibility(
            library, 5, survivable_failures=1, subject="fea"
        )
        assert not result.report.by_rule("FEA005")

    def test_insufficient_margin_warns_per_si(self, library):
        # 5 - 2 = 3 containers cannot hold any SI's 4-atom molecule.
        result = prove_feasibility(
            library, 5, survivable_failures=2, subject="fea"
        )
        findings = result.report.by_rule("FEA005")
        assert len(findings) == 4  # every synthetic SI has a 4-atom peak
        assert all(d.severity.name == "WARNING" for d in findings)
        assert findings[0].context["degraded_containers"] == 3

    def test_forecast_restriction(self, library):
        class Point:
            si_name = "SI0"
            block_id = "b0"
            distance = 1e9

        result = prove_feasibility(
            library, 5, placements=[Point()], survivable_failures=2,
            subject="fea",
        )
        findings = result.report.by_rule("FEA005")
        assert [d.context["si"] for d in findings] == ["SI0"]

    def test_negative_budget_rejected(self, library):
        with pytest.raises(ValueError):
            prove_feasibility(library, 5, survivable_failures=-1)
