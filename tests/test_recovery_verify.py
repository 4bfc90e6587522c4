"""TRC016: resume-boundary coherence findings from ``verify_resume``.

A clean store (interrupted or not) yields no findings; each kind of
boundary incoherence — rewritten prefix events, lost events, mutated
rotation jobs, duplicated quarantine episodes, an unreadable journal —
must be reported, not crash the verifier.
"""

import json

import pytest

from repro.analysis.rules import RULES, rules_of_family
from repro.bench.suites import build_synthetic_library
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.recovery import (
    JOURNAL_NAME,
    RecoverableRuntime,
    list_snapshots,
    verify_resume,
)
from repro.runtime import RisppRuntime
from repro.sim import EventKind


@pytest.fixture(scope="module")
def library():
    return build_synthetic_library()


def run_store(library, store, *, injector=None, checkpoint_every=5):
    rt = RisppRuntime(
        library, 5, core_mhz=100.0, faults=injector
    )
    rec = RecoverableRuntime(rt, store, checkpoint_every=checkpoint_every)
    now = 1_000
    rec.forecast("SI0", now, expected=16.0)
    for _ in range(40):
        now += rec.execute_si("SI0", now)
    rec.advance(now + 60_000)
    rec.close()
    return rec


def edit_snapshot(path, mutate):
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data) + "\n")


class TestRegistration:
    def test_trc016_is_a_registered_trace_rule(self):
        rule = RULES["TRC016"]
        assert rule.family == "trace"
        assert "resume boundary" in rule.title
        assert rule in rules_of_family("trace")


class TestCleanStores:
    def test_uninterrupted_run_is_coherent(self, library, tmp_path):
        rec = run_store(library, tmp_path)
        report = verify_resume(rec, tmp_path)
        assert report.clean(), report.render_text()

    def test_faulted_run_is_coherent(self, library, tmp_path):
        # Transient + permanent faults: quarantine episodes and dropped
        # rotation jobs must all stitch cleanly across every snapshot.
        # Both fire inside the run, which ends near cycle 59,000.
        injector = FaultInjector(
            FaultSchedule(
                [
                    FaultEvent(20_000, FaultKind.TRANSIENT, container=0),
                    FaultEvent(30_000, FaultKind.PERMANENT, container=2),
                ]
            ),
            scrub_period=10_000,
        )
        rec = run_store(library, tmp_path, injector=injector)
        assert len(rec.trace.of_kind(EventKind.FAULT_INJECTED)) == 2
        assert rec.trace.of_kind(EventKind.CONTAINER_FAILED)
        report = verify_resume(rec, tmp_path)
        assert report.clean(), report.render_text()


class TestIncoherentStores:
    def test_rewritten_prefix_event_is_flagged(self, library, tmp_path):
        rec = run_store(library, tmp_path)
        _seq, path = list_snapshots(tmp_path)[0]

        def mutate(data):
            data["state"]["trace"]["events"][0][0] += 1  # shift a cycle

        edit_snapshot(path, mutate)
        report = verify_resume(rec, tmp_path)
        assert [d.rule_id for d in report.errors()] == ["TRC016"]
        assert "duplicated or rewrote" in report.errors()[0].message

    def test_lost_events_are_flagged(self, library, tmp_path):
        rec = run_store(library, tmp_path)
        _seq, path = list_snapshots(tmp_path)[-1]

        def mutate(data):
            events = data["state"]["trace"]["events"]
            events.extend([events[-1]] * 200)

        edit_snapshot(path, mutate)
        report = verify_resume(rec, tmp_path)
        assert any(
            "lost" in d.message and d.rule_id == "TRC016"
            for d in report.errors()
        )

    def test_mutated_rotation_job_is_flagged(self, library, tmp_path):
        rec = run_store(library, tmp_path)
        flagged = False
        for _seq, path in list_snapshots(tmp_path):
            data = json.loads(path.read_text())
            if not data["state"]["runtime"]["port"]["pending"]:
                continue
            index = data["state"]["runtime"]["port"]["pending"][0]
            data["state"]["runtime"]["port"]["jobs"][index]["requested_at"] += 7
            path.write_text(json.dumps(data) + "\n")
            flagged = True
            break
        assert flagged, "scenario produced no snapshot with a pending job"
        report = verify_resume(rec, tmp_path)
        assert any(
            "changed across the boundary" in d.message
            for d in report.errors()
        )

    def test_unusable_snapshot_is_a_finding_not_a_crash(self, library, tmp_path):
        rec = run_store(library, tmp_path)
        _seq, path = list_snapshots(tmp_path)[0]
        path.write_text("{broken")
        report = verify_resume(rec, tmp_path)
        assert any("unusable" in d.message for d in report.errors())

    def test_corrupt_journal_interior_is_a_finding(self, library, tmp_path):
        rec = run_store(library, tmp_path)
        journal = tmp_path / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        lines[0] = "garbage"
        journal.write_text("\n".join(lines) + "\n")
        report = verify_resume(rec, tmp_path)
        assert any("journal unusable" in d.message for d in report.errors())


def run_open_quarantine(library, store):
    """A store whose later snapshots hold container 0's open quarantine
    episode (injected at cycle 150,000); the run ends before the repair."""
    injector = FaultInjector(
        FaultSchedule([FaultEvent(150_000, FaultKind.TRANSIENT, container=0)]),
        scrub_period=1_000,
    )
    rt = RisppRuntime(library, 5, core_mhz=100.0, faults=injector)
    rec = RecoverableRuntime(rt, store, checkpoint_every=2)
    rec.forecast("SI0", 1_000, expected=16.0)
    rec.advance(140_000)
    now = 145_000
    for _ in range(12):
        now += rec.execute_si("SI0", now) + 2_000
        rec.advance(now)
    rec.close()
    assert rt.fabric.container(0).quarantined
    return rec


class TestQuarantineStitch:
    """Suffix events of each episode kind, appended after the run: the
    stitch must read all three kinds."""

    def _verify_with(self, library, store, *appended):
        rec = run_open_quarantine(library, store)
        cycle = rec.trace.last_cycle
        for kind, detail in appended:
            rec.trace.record(cycle, kind, **detail)
        return verify_resume(rec, store)

    def test_open_episode_is_coherent(self, library, tmp_path):
        report = self._verify_with(library, tmp_path)
        assert report.clean(), report.render_text()

    def test_duplicated_episode_is_flagged(self, library, tmp_path):
        report = self._verify_with(
            library,
            tmp_path,
            (EventKind.CONTAINER_QUARANTINED, {"container": 0, "atom": "Syn0"}),
        )
        assert report.errors()
        assert all("re-quarantined" in d.message for d in report.errors())

    def test_repair_of_another_episode_is_flagged(self, library, tmp_path):
        report = self._verify_with(
            library,
            tmp_path,
            (EventKind.CONTAINER_REPAIRED, {"container": 0, "injected_at": 7}),
        )
        assert report.errors()
        assert all("do not stitch" in d.message for d in report.errors())

    def test_permanent_failure_closes_the_episode(self, library, tmp_path):
        report = self._verify_with(
            library,
            tmp_path,
            (EventKind.CONTAINER_FAILED, {"container": 0}),
            (EventKind.CONTAINER_QUARANTINED, {"container": 0, "atom": "Syn0"}),
        )
        assert report.clean(), report.render_text()
