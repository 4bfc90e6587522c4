"""The trace time-ordering contract and its detail storage.

The trace is the ground truth every benchmark and figure reads, so its
invariants are enforced at append time: cycles are non-negative and
non-decreasing.  Events are stored column-wise (a cycle and the id of
an interned shape, so equal details share one table entry) or with a
lazy detail; both must read back exactly what was recorded, an edit of
an event read back must never reach the trace, and the columns must
keep a recorded h264 event small.  The last part fuzzes the run-time
manager with arbitrary interleavings of ``forecast`` / ``execute_si`` /
``fail_container`` and asserts the recorded trace always honours the
contract — and that the runtime's cached fabric views and dispatch
memo still equal a fresh recomputation afterwards.
"""

import copy
import gc
import pickle
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.h264 import build_h264_library
from repro.bench.harness import trace_signature
from repro.bench.suites import H264_MACROBLOCK_CALLS, build_synthetic_library
from repro.obs import MetricRegistry
from repro.recovery import (
    load_snapshot,
    restore_runtime,
    snapshot_runtime,
    write_snapshot,
)
from repro.runtime import RisppRuntime
from repro.sim import Event, EventKind, Trace
from tests.test_analysis_verify_fuzz import _OPS, _fuzz_library


class TestTraceContract:
    def test_negative_cycle_rejected(self):
        trace = Trace()
        with pytest.raises(ValueError, match="negative"):
            trace.record(-1, EventKind.FORECAST)
        # The failed append must not corrupt the log.
        assert len(trace) == 0
        assert trace.last_cycle == 0

    def test_negative_cycle_rejected_even_as_first_event(self):
        # Regression: the old guard only fired when the trace already had
        # events, so a leading negative timestamp slipped through.
        trace = Trace()
        with pytest.raises(ValueError):
            trace.record(-7, EventKind.SI_EXECUTED, si="HT")

    def test_out_of_order_append_rejected(self):
        trace = Trace()
        trace.record(100, EventKind.FORECAST, si="HT")
        with pytest.raises(ValueError, match="out-of-order"):
            trace.record(99, EventKind.SI_EXECUTED, si="HT")
        assert len(trace) == 1
        assert trace.last_cycle == 100

    def test_equal_cycles_allowed(self):
        trace = Trace()
        trace.record(10, EventKind.FORECAST, si="HT")
        trace.record(10, EventKind.ROTATION_REQUESTED)
        trace.record(10, EventKind.SI_EXECUTED, si="HT")
        assert [e.cycle for e in trace] == [10, 10, 10]

    def test_record_lazy_defers_and_caches(self):
        trace = Trace()
        calls = []

        def factory():
            calls.append(1)
            return {"mode": "HW", "cycles": 12}

        trace.record_lazy(5, EventKind.SI_EXECUTED, factory, si="HT")
        event = trace.events[-1]
        assert calls == []  # nothing resolved yet
        assert event.detail == {"mode": "HW", "cycles": 12}
        assert event.detail is event.detail  # cached, not rebuilt
        assert calls == [1]
        # The trace keeps the resolved detail: a second read of the
        # event does not run the factory again.
        assert trace.events[-1].detail == {"mode": "HW", "cycles": 12}
        assert calls == [1]

    def test_rows_read_back_what_the_events_read(self):
        trace = Trace()
        calls = []

        def factory():
            calls.append(1)
            return {"atoms": ["Pack"]}

        trace.record(1, EventKind.SI_EXECUTED, task="t", si="HT", mode="HW")
        trace.record(2, EventKind.FORECAST, si="HT", expected=2.5)
        trace.record_lazy(3, EventKind.TASK_STEP, factory, task="t")
        rows = list(trace.rows())
        assert rows == [(e.cycle, e.kind, e.task, e.si, e.detail) for e in trace]
        assert calls == [1]  # resolved once, for rows and events alike
        rows[0][4]["mode"] = "SW"  # a row's detail is a fresh dict
        assert trace.events[0].detail == {"mode": "HW"}

    def test_lazy_event_equals_eager_event(self):
        eager = Event(5, EventKind.SI_EXECUTED, "t", "HT", {"cycles": 12})
        lazy = Event(5, EventKind.SI_EXECUTED, "t", "HT", lambda: {"cycles": 12})
        assert lazy == eager
        assert eager == lazy

    def test_lazy_contract_still_enforced(self):
        trace = Trace()
        trace.record(50, EventKind.FORECAST)
        with pytest.raises(ValueError, match="out-of-order"):
            trace.record_lazy(49, EventKind.SI_EXECUTED, dict)

    def test_trace_signature_resolves_lazy_details(self):
        eager, lazy = Trace(), Trace()
        eager.record(5, EventKind.SI_EXECUTED, si="S", mode="HW", cycles=12)
        lazy.record_lazy(
            5, EventKind.SI_EXECUTED, lambda: {"mode": "HW", "cycles": 12},
            si="S",
        )
        assert trace_signature(eager) == trace_signature(lazy)
        assert trace_signature(eager) != trace_signature(Trace())

    def test_queries_without_detail_filter_never_materialize(self):
        # Regression: accessor scans must stay on the slot attributes so
        # PR 2's lazy-detail win survives analysis workloads — a kind- or
        # si-keyed query has no business resolving detail factories.
        trace = Trace()
        constructions = []

        def factory(i):
            def build():
                constructions.append(i)
                return {"mode": "HW", "cycles": 12, "container": i % 3}

            return build

        for i in range(20):
            trace.record_lazy(
                i, EventKind.SI_EXECUTED, factory(i), task="t", si="HT"
            )
            trace.record_lazy(
                i, EventKind.ROTATION_REQUESTED, factory(100 + i), task="t"
            )
        assert len(trace.of_kind(EventKind.SI_EXECUTED)) == 20
        found = trace.first(EventKind.ROTATION_REQUESTED)
        assert found is not None and found.cycle == 0
        assert trace.first(EventKind.CONTAINER_FAILED) is None
        assert constructions == []  # nothing materialized
        # A detail filter materializes only same-kind events up to the
        # first match — never the other kind's details.
        match = trace.first(EventKind.ROTATION_REQUESTED, container=2)
        assert match is not None and match.cycle == 1  # 101 % 3 == 2
        assert constructions == [100, 101]

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=30))
    def test_monotone_sequences_always_accepted(self, deltas):
        trace = Trace()
        now = 0
        for delta in deltas:
            now += delta
            trace.record(now, EventKind.TASK_STEP, task="fuzz")
        assert [e.cycle for e in trace] == sorted(e.cycle for e in trace)
        assert trace.last_cycle == now


_ORIGINAL = {"mode": "HW", "cycles": 12}

#: Every way to change a detail dict in place, each applied to the event
#: read and, for the expected value, to a plain dict.
_EDITS = {
    "setitem": lambda d: d.__setitem__("mode", "SW"),
    "delitem": lambda d: d.__delitem__("cycles"),
    "update": lambda d: d.update(cycles=30, extra=1),
    "pop": lambda d: d.pop("mode"),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("extra", "new"),
    "clear": lambda d: d.clear(),
    "ior": lambda d: d.__ior__({"mode": "SW"}),
}


def _shared_pair() -> tuple[Trace, Event, Event]:
    trace = Trace()
    trace.record(1, EventKind.SI_EXECUTED, si="HT", **_ORIGINAL)
    trace.record(2, EventKind.SI_EXECUTED, si="HT", **_ORIGINAL)
    first, second = trace.events
    return trace, first, second


class TestCompactDetails:
    def test_equal_details_share_storage(self):
        trace, first, second = _shared_pair()
        assert first._detail is second._detail
        assert trace._shapes[0] == trace._shapes[1]
        assert len(trace._table) == 1
        assert first.detail == second.detail == _ORIGINAL
        # Each read of the trace is a fresh dict, never the shared
        # storage itself; an event read keeps its own.
        assert trace.events[0].detail is not trace.events[0].detail
        assert first.detail is first.detail

    def test_different_details_do_not_share(self):
        trace = Trace()
        trace.record(1, EventKind.SI_EXECUTED, mode="HW", cycles=12)
        trace.record(2, EventKind.SI_EXECUTED, mode="SW", cycles=12)
        hw, sw = trace.events
        assert hw._detail is not sw._detail
        assert trace._shapes[0] != trace._shapes[1]
        assert hw.detail == {"mode": "HW", "cycles": 12}
        assert sw.detail == {"mode": "SW", "cycles": 12}

    @pytest.mark.parametrize("name", sorted(_EDITS))
    def test_edit_persists_on_the_edited_event_only(self, name):
        edit = _EDITS[name]
        trace, first, second = _shared_pair()
        expected = dict(_ORIGINAL)
        edit(expected)

        edit(first.detail)
        assert first.detail == expected
        # The edited detail is now the event's own: later reads see it,
        # and a second edit lands on the same dict.
        assert first.detail is first.detail
        first.detail["later"] = True
        assert first.detail == {**expected, "later": True}
        # The edit is detached from the trace: the sibling and a fresh
        # read of the edited event still see (and share) the original.
        assert second.detail == _ORIGINAL
        assert trace.events[0].detail == _ORIGINAL
        trace.record(3, EventKind.SI_EXECUTED, si="HT", **_ORIGINAL)
        assert trace._shapes[2] == trace._shapes[0]
        assert trace.events[2]._detail is trace.events[0]._detail

    def test_edit_of_an_empty_detail_sticks(self):
        trace = Trace()
        trace.record(1, EventKind.FORECAST_END, si="HT")
        trace.record(2, EventKind.FORECAST_END, si="HT")
        first, second = trace.events
        first.detail["note"] = "x"
        assert first.detail == {"note": "x"}
        assert second.detail == {}
        assert trace.events[0].detail == {}

    def test_copies_are_plain_detached_dicts(self):
        _trace, first, _second = _shared_pair()
        view = first.detail
        for clone in (
            copy.copy(view),
            copy.deepcopy(view),
            pickle.loads(pickle.dumps(view)),
        ):
            assert type(clone) is dict
            assert clone == _ORIGINAL
            clone["mode"] = "SW"
        assert first.detail == _ORIGINAL

    @pytest.mark.parametrize(
        "order", [(1, True, 1.0, 0.0, -0.0), (-0.0, 0.0, 1.0, True, 1)]
    )
    def test_equal_values_keep_their_own_repr(self, order):
        # 1 == True == 1.0 and 0.0 == -0.0 hash alike; sharing must
        # never hand one event another's value.
        trace = Trace()
        for i, value in enumerate(order):
            trace.record(i, EventKind.TASK_STEP, x=value)
        events = list(trace)
        signature = trace_signature(trace)
        for value, event, row in zip(order, events, signature):
            assert repr(event.detail["x"]) == repr(value)
            assert type(event.detail["x"]) is type(value)
            assert repr(row[4]["x"]) == repr(value)

    def test_unhashable_detail_records_and_reads_back(self):
        trace = Trace()
        atoms = ["Load", "Pack"]
        trace.record(3, EventKind.TASK_STEP, atoms=atoms, nested=(1, []))
        event = trace.events[0]
        assert event.detail == {"atoms": ["Load", "Pack"], "nested": (1, [])}
        assert event.detail["atoms"] is atoms
        event.detail["atoms"].append("SATD")
        assert event.detail["atoms"] == ["Load", "Pack", "SATD"]
        assert trace_signature(trace)[0][4] == event.detail


def _mixed_trace() -> Trace:
    """Shared, own, lazy and float details, with own ones mid-trace."""
    trace = Trace()
    trace.record(1, EventKind.SI_EXECUTED, task="t", si="HT", mode="HW", cycles=12)
    trace.record(2, EventKind.TASK_STEP, atoms=["Load", "Pack"])
    trace.record(2, EventKind.FORECAST, si="HT", expected=2.5, priority=1)
    trace.record_lazy(3, EventKind.TASK_STEP, lambda: {"lazy": True}, task="t")
    trace.record(4, EventKind.SI_EXECUTED, task="t", si="HT", mode="HW", cycles=12)
    trace.record(5, EventKind.TASK_STEP, nested=(1, []))
    trace.record(6, EventKind.FORECAST, si="HT", expected=-0.0, priority=1)
    trace.record(9, EventKind.FORECAST_END, si="HT")
    return trace


class TestSlices:
    @pytest.mark.parametrize(
        "index",
        [slice(None), slice(2, 6), slice(1, -1), slice(-3, None), slice(0, 8, 2),
         slice(1, None, 2), slice(5, 2), slice(100, 200)],
    )
    def test_slice_is_a_trace_of_the_same_rows(self, index):
        trace = _mixed_trace()
        part = trace[index]
        assert type(part) is Trace
        rows = list(part.rows())
        expected = list(trace.rows())[index]
        assert rows == expected
        assert [repr(row[4]) for row in rows] == [repr(row[4]) for row in expected]
        assert list(part) == list(trace)[index]
        assert len(part) == len(expected)
        assert part.last_cycle == (expected[-1][0] if expected else 0)

    def test_slice_builds_no_event_and_shares_the_table(self, monkeypatch):
        trace = _mixed_trace()
        monkeypatch.setattr(
            Trace, "_event", lambda self, index: pytest.fail("built an Event")
        )
        part = trace[2:7]
        assert part._table is trace._table
        assert sorted(part._own) == [1, 3]  # the lazy and nested, re-indexed
        assert trace_signature(part) == trace_signature(trace)[2:7]

    def test_slice_is_detached_from_its_trace(self):
        trace = _mixed_trace()
        part = trace[:3]
        part.record(7, EventKind.TASK_STEP, x=1)
        trace.record(10, EventKind.TASK_STEP, x=2)
        assert [e.cycle for e in part] == [1, 2, 2, 7]
        assert len(trace) == 9
        with pytest.raises(ValueError, match="out-of-order"):
            part.record(6, EventKind.TASK_STEP)

    def test_reversed_slice_is_refused(self):
        with pytest.raises(ValueError, match="time order"):
            _mixed_trace()[::-1]


class TestTally:
    @pytest.mark.parametrize("start", range(10))
    def test_tally_counts_the_rows_from_start(self, start):
        """Shared shapes are counted by id, own details one by one, and
        only the events from ``start`` on."""
        from collections import Counter

        trace = _mixed_trace()
        expected = Counter(
            (kind, repr(tuple(detail.items())))
            for _cycle, kind, _task, _si, detail in list(trace.rows())[start:]
        )
        tallied = Counter()
        for kind, items, count in trace.tally(start):
            tallied[kind, repr(items)] += count
        assert tallied == expected

    def test_tally_builds_no_event(self, monkeypatch):
        trace = _mixed_trace()
        monkeypatch.setattr(
            Trace, "_event", lambda self, index: pytest.fail("built an Event")
        )
        assert sum(count for _kind, _items, count in trace.tally()) == len(trace)


def _exact(value):
    """A value's identity for "unchanged": its type, and a float's bits."""
    if type(value) is float:
        return (float, struct.pack("<d", value))
    return (type(value), value)


#: Values that compare or hash alike but must never merge.
_LOOKALIKES = (0.0, -0.0, 1, 1.0, True, 0, False, float("nan"), -float("nan"))


class TestFloatInterning:
    def _trace(self) -> Trace:
        trace = Trace()
        for cycle, value in enumerate(_LOOKALIKES * 2):
            trace.record(cycle, EventKind.TASK_STEP, x=value)
        return trace

    def test_lookalikes_stay_distinct_and_share_per_bits(self):
        trace = self._trace()
        assert not trace._own
        read = [_exact(e.detail["x"]) for e in trace]
        assert read == [_exact(v) for v in _LOOKALIKES * 2]
        # One entry per distinct value: a repeat (a NaN too) adds none.
        assert len(trace._table) == len(_LOOKALIKES)
        assert trace._shapes[: len(_LOOKALIKES)] == trace._shapes[len(_LOOKALIKES):]

    def test_lookalikes_survive_rows_and_load(self):
        trace = self._trace()
        again = Trace()
        again.load(trace.rows(), trace.last_cycle)
        assert [_exact(row[4]["x"]) for row in again.rows()] == [
            _exact(v) for v in _LOOKALIKES * 2
        ]
        assert again._shapes == trace._shapes

    def test_lookalikes_survive_a_snapshot(self, tmp_path):
        library = build_synthetic_library()
        original = RisppRuntime(library, 3, core_mhz=100.0)
        # JSON writes every NaN as ``NaN``, so a NaN's sign bit is the
        # one thing a snapshot cannot carry; -NaN is left out here.
        values = _LOOKALIKES[:-1]
        for cycle, value in enumerate(values):
            original.trace.record(cycle, EventKind.TASK_STEP, x=value)
        snap = snapshot_runtime(original, seq=0, cycle=0, results=[])
        restored = RisppRuntime(library, 3, core_mhz=100.0)
        restore_runtime(restored, load_snapshot(write_snapshot(tmp_path, snap)))
        assert [_exact(e.detail["x"]) for e in restored.trace] == [
            _exact(v) for v in values
        ]
        assert restored.trace._shapes == original.trace._shapes


def _h264_runtime_stream(runtime: RisppRuntime, macroblocks: int, now: int) -> int:
    """The Fig. 7 encoder loop: loop-head forecasts, then every SI call."""
    forecasts = [(si, float(calls)) for si, calls in H264_MACROBLOCK_CALLS]
    for _ in range(macroblocks):
        for si, expected in forecasts:
            runtime.forecast(si, now, expected=expected)
        for si, calls in H264_MACROBLOCK_CALLS:
            for _ in range(calls):
                now += runtime.execute_si(si, now)
        now += 5_000
    return now


def _warm_h264_runtime() -> tuple[RisppRuntime, int]:
    """An h264 runtime after 4 macroblocks, so one-off allocations
    (caches, metric series, rotation plans) are not charged to the
    measured events."""
    runtime = RisppRuntime(
        build_h264_library(), 6, core_mhz=100.0, metrics=MetricRegistry()
    )
    return runtime, _h264_runtime_stream(runtime, 4, 700_000)


class TestTraceMemory:
    #: Measured ~13.4 bytes per event on 64-bit CPython 3.11: an 8-byte
    #: cycle and a 4-byte shape id plus the arrays' over-allocation (the
    #: loop-head forecasts' float details are interned too; kept as own
    #: dicts they cost ~17).  Keeping an ``Event`` per recorded event
    #: costs ~115; a per-event dict or detail factory ~310.
    MAX_BYTES_PER_EVENT = 20

    #: Peak bytes per event of signing a slice, measured ~317 on 64-bit
    #: CPython 3.11: the slice's columns, one tuple and one dict per
    #: event.  A slice that builds an ``Event`` (and its cached detail
    #: dict) per event peaks at ~570.
    MAX_SIGNATURE_BYTES_PER_EVENT = 400

    def test_h264_stream_events_stay_compact(self):
        runtime, now = _warm_h264_runtime()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            recorded_before = len(runtime.trace)
            _h264_runtime_stream(runtime, 80, now)
            recorded = len(runtime.trace) - recorded_before
            # trace_signature reads every detail; reads must not stay
            # behind in memory.
            trace_signature(runtime.trace)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert recorded >= 20_000
        assert grown / recorded <= self.MAX_BYTES_PER_EVENT, (
            f"{grown / recorded:.0f} bytes per recorded event"
        )

    def test_signing_a_slice_builds_no_events(self):
        runtime, now = _warm_h264_runtime()
        start = len(runtime.trace)
        _h264_runtime_stream(runtime, 80, now)
        end = len(runtime.trace)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            signature = trace_signature(runtime.trace[start:end])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(signature) == end - start >= 20_000
        assert peak / len(signature) <= self.MAX_SIGNATURE_BYTES_PER_EVENT, (
            f"{peak / len(signature):.0f} peak bytes per signed event"
        )


class TestRuntimeInterleavings:
    """Any interleaving yields a monotone, non-negative trace and leaves
    the hot-path caches equal to a fresh recomputation."""

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_interleavings_keep_trace_monotone_and_caches_sound(self, ops):
        library = _fuzz_library()
        rt = RisppRuntime(library, 3, core_mhz=100.0)
        now = 0
        for op, si, delta, scale in ops:
            now += delta
            if op == "forecast":
                rt.forecast(si, now, expected=float(scale * 50))
            elif op == "execute":
                rt.execute_si(si, now)
            elif op == "advance":
                rt.advance(now)
            else:  # fail one of the three containers (idempotent)
                rt.fail_container(scale, now)

        cycles = [e.cycle for e in rt.trace]
        assert all(c >= 0 for c in cycles)
        assert cycles == sorted(cycles)
        # The hot-path caches must agree with an uncached recomputation.
        fabric = rt.fabric
        assert fabric.available_atoms() == fabric._compute_available()
        for si in library:
            assert rt._best_available(si) == si.best_available(
                fabric._compute_available()
            )
        # The runtime stays functional whatever happened to the fabric.
        assert rt.execute_si("HT", now + 1) > 0
