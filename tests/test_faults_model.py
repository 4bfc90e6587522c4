"""The fault model: events, schedules, stats and the static MTTR bound."""

import pytest

from repro.analysis.feasibility import port_backlog_bound
from repro.bench.suites import build_synthetic_library
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    ResilienceStats,
    static_repair_bound,
)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1, FaultKind.TRANSIENT)
        with pytest.raises(ValueError):
            FaultEvent(0, FaultKind.TRANSIENT, container=-2)

    def test_ordering_is_chronological(self):
        early = FaultEvent(10, FaultKind.PERMANENT, 1)
        late = FaultEvent(20, FaultKind.TRANSIENT, 0)
        assert early < late


class TestFaultSchedule:
    def test_events_sorted_on_construction(self):
        schedule = FaultSchedule([
            FaultEvent(500, FaultKind.TRANSIENT, 1),
            FaultEvent(100, FaultKind.PERMANENT, 0),
        ])
        assert [e.cycle for e in schedule] == [100, 500]
        assert len(schedule) == 2

    def test_generate_deterministic(self):
        a = FaultSchedule.generate(seed=42, horizon=1_000_000, containers=6)
        b = FaultSchedule.generate(seed=42, horizon=1_000_000, containers=6)
        assert list(a) == list(b)
        assert len(a) == 2  # rate 2.0 faults/Mcycle over 1M cycles

    def test_generate_seed_changes_schedule(self):
        a = FaultSchedule.generate(seed=1, horizon=2_000_000, containers=6)
        b = FaultSchedule.generate(seed=2, horizon=2_000_000, containers=6)
        assert list(a) != list(b)

    def test_generate_respects_bounds(self):
        schedule = FaultSchedule.generate(
            seed=3, horizon=500_000, containers=4, rate=40.0
        )
        assert len(schedule) == 20
        for event in schedule:
            assert 0 <= event.cycle < 500_000
            assert 0 <= event.container < 4

    def test_generate_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule.generate(seed=0, horizon=-1, containers=1)
        with pytest.raises(ValueError):
            FaultSchedule.generate(seed=0, horizon=10, containers=0)
        with pytest.raises(ValueError):
            FaultSchedule.generate(seed=0, horizon=10, containers=1, rate=-1)

    def test_counts_by_kind(self):
        schedule = FaultSchedule([
            FaultEvent(1, FaultKind.TRANSIENT),
            FaultEvent(2, FaultKind.TRANSIENT),
            FaultEvent(3, FaultKind.WRITE_ERROR),
        ])
        assert schedule.counts() == {
            "transient": 2, "write_error": 1, "permanent": 0,
        }


class TestResilienceStats:
    def test_mttr_zero_without_repairs(self):
        assert ResilienceStats().mttr_cycles() == 0.0

    def test_mttr_mean(self):
        stats = ResilienceStats(
            containers_repaired=2, mttr_cycles_total=300, mttr_cycles_max=200
        )
        assert stats.mttr_cycles() == 150.0
        assert stats.to_dict()["mttr_cycles"] == 150.0
        assert stats.to_dict()["mttr_cycles_max"] == 200


class TestStaticRepairBound:
    def test_composition(self):
        library = build_synthetic_library()
        backlog = port_backlog_bound(library, 5)
        bound = static_repair_bound(
            library, 5, scrub_period=10_000, max_retries=3,
            backoff_cycles=1_000,
        )
        # scrub + (1 + retries) port passes + geometric backoff ladder.
        assert bound == 10_000 + 4 * backlog + (1_000 + 2_000 + 4_000)

    def test_no_retries_collapses_to_scrub_plus_one_pass(self):
        library = build_synthetic_library()
        backlog = port_backlog_bound(library, 5)
        bound = static_repair_bound(
            library, 5, scrub_period=500, max_retries=0, backoff_cycles=1_000
        )
        assert bound == 500 + backlog

    def test_port_rate_scales_the_backlog(self):
        # The explorer's 1 MHz scopes pass their port rate through.
        library = build_synthetic_library()
        rate = {"core_mhz": 1.0, "bytes_per_us": 10.0}
        backlog = port_backlog_bound(library, 5, **rate)
        assert backlog != port_backlog_bound(library, 5)
        bound = static_repair_bound(
            library, 5, scrub_period=500, max_retries=0, backoff_cycles=1_000,
            **rate,
        )
        assert bound == 500 + backlog
