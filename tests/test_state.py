"""The runtime's state declarations (``repro.state``).

Random interleavings of the §5 operations, with a fault injector attached
and telemetry on, check two things: every attribute of every live
stateful object is declared (so a new attribute fails here until it gets
a role), and the three derived views agree — a clone and a dump/load
restore fingerprint like the original after every step, and driving
either with the same suffix records the original's trace.
"""

import json

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.obs import MetricRegistry
from repro.recovery import restore_runtime, snapshot_runtime
from repro.runtime import RisppRuntime
from repro.runtime.events import ReplanRequested
from repro.sim import EventKind
from repro.state import clone, dump, fingerprint, load, roles
from tests.test_analysis_verify_fuzz import _OPS, _fuzz_library

LIBRARY = _fuzz_library()

#: Faults struck right after an op: (op index, kind, container); the
#: index wraps around the op list.
_FAULTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=24),
        st.sampled_from(list(FaultKind)),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=6,
)


def build():
    injector = FaultInjector(
        FaultSchedule(), scrub_period=20_000, max_retries=1, backoff_cycles=5_000
    )
    return RisppRuntime(
        LIBRARY,
        3,
        core_mhz=100.0,
        faults=injector,
        metrics=MetricRegistry(enabled=True),
    )


def step(rt, op, si, now, scale):
    if op == "forecast":
        rt.forecast(si, now, expected=float(scale * 50))
    elif op == "execute":
        rt.execute_si(si, now)
    elif op == "advance":
        rt.advance(now)
    else:
        rt.fail_container(scale, now)


def run(rt, ops, faults, start, now, total, *, check=False):
    """Apply ``ops`` (indices from ``start`` of ``total``) from cycle
    ``now``, each followed by its faults; with ``check``, assert after
    every step that a clone and a dump/load restore fingerprint like
    ``rt``."""
    for index, (op, si, delta, scale) in enumerate(ops, start):
        now += delta
        step(rt, op, si, now, scale)
        for at, kind, container in faults:
            if at % total == index:
                rt._faults.schedule_fault(FaultEvent(now, kind, container))
                rt.advance(now)
        if check:
            key = fingerprint(rt)
            assert fingerprint(clone(rt)) == key
            restored = build()
            load(restored, json.loads(json.dumps(dump(rt))))
            assert fingerprint(restored) == key
    return now


def restored_copy(rt, now):
    """A freshly built runtime restored from a JSON snapshot of ``rt``."""
    snap = snapshot_runtime(rt, seq=0, cycle=now, results=[])
    restored = build()
    restore_runtime(restored, json.loads(json.dumps(snap)))
    return restored


TAIL = 2_000_000

#: Random ops rarely keep a container loaded long enough to corrupt it;
#: this run quarantines AC0, repairs it, retries an aborted write and
#: executes in hardware, so the repair job's identity crosses the forks.
REPAIR_OPS = [
    ("forecast", "HT", 0, 2),
    ("advance", "HT", 200_000, 0),
    ("advance", "SATD", 30_000, 0),
    ("execute", "HT", 1_000, 0),
    ("forecast", "SATD", 5_000, 1),
    ("advance", "HT", 200_000, 0),
    ("execute", "HT", 1_000, 0),
]
REPAIR_FAULTS = [(1, FaultKind.TRANSIENT, 0), (3, FaultKind.WRITE_ERROR, 0)]


def stateful_objects(rt):
    return [rt, rt.fabric, rt.port, rt.monitor, rt._faults, *rt.fabric.containers]


def events(rt):
    return [(e.cycle, e.kind, e.task, e.si, dict(e.detail)) for e in rt.trace.events]


@settings(max_examples=25, deadline=None)
@given(ops=_OPS, faults=_FAULTS)
@example(ops=REPAIR_OPS, faults=REPAIR_FAULTS)
def test_every_live_attribute_is_declared(ops, faults):
    rt = build()
    rt.advance(run(rt, ops, faults, 0, 0, len(ops)) + TAIL)
    for obj in stateful_objects(rt):
        assert set(vars(obj)) == set(roles(type(obj))), type(obj).__name__


def test_interleavings_reach_loaded_and_quarantined_fabrics():
    # The properties here and in test_analysis_verify_fuzz are only as
    # strong as the fabrics their interleavings reach: a fixed-seed draw
    # must load a container during the ops in a real share of runs, and
    # quarantine a corrupted one (by the end of the tail) in some.
    reached = {"runs": 0, "loaded": 0, "quarantined": 0}

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(ops=_OPS, faults=_FAULTS)
    def drive(ops, faults):
        rt = build()
        end = run(rt, ops, faults, 0, 0, len(ops))
        reached["runs"] += 1
        if rt.trace.first(EventKind.ROTATION_COMPLETED) is not None:
            event("loaded a container")
            reached["loaded"] += 1
        rt.advance(end + TAIL)
        if rt.trace.first(EventKind.CONTAINER_QUARANTINED) is not None:
            event("quarantined a container")
            reached["quarantined"] += 1

    drive()
    assert reached["loaded"] * 5 >= reached["runs"], reached
    assert reached["quarantined"] >= 3, reached


def test_wiring_is_shared_and_back_references_follow_the_clone():
    rt = build()
    rt.forecast("HT", 0, expected=100.0)
    twin = clone(rt)
    assert twin.library is rt.library and twin.metrics is rt.metrics
    assert twin.port._runtime is twin and twin._faults._runtime is twin
    assert twin.fabric is not rt.fabric
    # The trace is a section of its own: the clone appends to its copy.
    before = events(rt)
    twin.execute_si("HT", 1_000)
    assert len(twin.trace) == len(before) + 1
    assert events(rt) == before


def test_pending_unplaced_replan_is_state(monkeypatch):
    # ``_unplaced_for`` alone decides whether the next rotation
    # completion replans, so two runtimes that differ only there are two
    # states: they fingerprint apart and their futures diverge.
    published = []
    publish = RisppRuntime.publish

    def spy(rt, event):
        published.append((rt, event))
        publish(rt, event)

    monkeypatch.setattr(RisppRuntime, "publish", spy)
    rt = build()
    rt.forecast("HT", 0, expected=100.0)
    assert rt._active and rt.port.pending_jobs() and rt._unplaced_for is None
    twin = clone(rt)
    twin._unplaced_for = "main"
    assert fingerprint(twin) != fingerprint(rt)

    first_completion = min(job.finish_at for job in rt.port.pending_jobs())
    del published[:]
    for runtime in (rt, twin):
        runtime.advance(first_completion)

    def replans(runtime):
        return [
            event.reason
            for who, event in published
            if who is runtime and isinstance(event, ReplanRequested)
        ]

    assert replans(rt) == []
    assert replans(twin) == ["unplaced"]
    assert twin._unplaced_for is None


@settings(max_examples=15, deadline=None)
@given(ops=_OPS, faults=_FAULTS, split=st.integers(min_value=0))
@example(ops=REPAIR_OPS, faults=REPAIR_FAULTS, split=3)
@example(ops=REPAIR_OPS, faults=REPAIR_FAULTS, split=4)
def test_clone_and_restore_agree_with_the_original(ops, faults, split):
    split %= len(ops) + 1
    rt = build()
    now = run(rt, ops[:split], faults, 0, 0, len(ops), check=True)
    twins = [clone(rt), restored_copy(rt, now)]
    rt.advance(run(rt, ops[split:], faults, split, now, len(ops), check=True) + TAIL)
    for twin in twins:
        twin.advance(run(twin, ops[split:], faults, split, now, len(ops)) + TAIL)
        assert events(twin) == events(rt)
        assert dump(twin) == dump(rt)
