"""Fuzzing the verifier against the real runtime.

Property: *any* interleaving of ``forecast`` / ``execute_si`` /
``fail_container`` / ``advance`` yields a trace the reference machine
replays with zero findings — the machine and the manager implement the
same §3/§5 semantics, independently — and after every step the
runtime's cached fabric views and dispatch memo equal a fresh
recomputation.  The deterministic half then mutates verified
traces by hand and asserts each mutation trips exactly the intended
rule (no cascades: one corruption, one finding family).
"""

import dataclasses

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.analysis import verify_runtime, verify_trace
from repro.core import (
    AtomCatalogue,
    AtomKind,
    MoleculeImpl,
    SILibrary,
    SpecialInstruction,
)
from repro.runtime import RisppRuntime
from repro.sim import Event, EventKind


def _fuzz_library() -> SILibrary:
    """Two-SI library with overlapping atom demand (competition included)."""
    catalogue = AtomCatalogue.of(
        [
            AtomKind("Load", reconfigurable=False),
            AtomKind("Pack", bitstream_bytes=65_713),
            AtomKind("Transform", bitstream_bytes=59_353),
            AtomKind("SATD", bitstream_bytes=58_141),
        ]
    )
    space = catalogue.space
    ht = SpecialInstruction(
        "HT",
        space,
        298,
        [
            MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 1}), 22),
            MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 2}), 17),
        ],
    )
    satd = SpecialInstruction(
        "SATD",
        space,
        544,
        [
            MoleculeImpl(
                space.molecule({"Load": 1, "Pack": 1, "Transform": 1, "SATD": 1}), 24
            ),
        ],
    )
    return SILibrary(catalogue, [ht, satd])


#: Weighted so that a real share of interleavings reach a loaded fabric:
#: two ops in seven forecast and only one fails a container (failures
#: are permanent), and half the time deltas are long enough for a
#: rotation (~95k cycles here) to land.  ``tests/test_state.py`` asserts
#: the reach: loaded containers, and corrupted ones quarantined.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["forecast", "advance", "execute", "forecast", "advance", "execute", "fail"]
        ),
        st.sampled_from(["HT", "SATD"]),
        st.integers(min_value=0, max_value=200_000)  # time delta
        | st.integers(min_value=100_000, max_value=200_000),
        st.integers(min_value=0, max_value=2),  # container / expected scale
    ),
    min_size=1,
    max_size=25,
)


class TestFuzzedInterleavings:
    """The machine accepts every trace the real runtime can produce."""

    @settings(max_examples=40, deadline=None)
    @given(ops=_OPS)
    def test_verifies_clean_with_coherent_caches(self, ops):
        library = _fuzz_library()
        rt = RisppRuntime(library, 3, core_mhz=100.0)
        fabric = rt.fabric
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
            # Every cached view equals an uncached recomputation.
            available = fabric._compute_available()
            assert fabric.available_atoms() == available
            for each in library:
                assert rt._best_available(each) == each.best_available(
                    available
                )
        if rt.trace.first(EventKind.ROTATION_COMPLETED) is not None:
            event("loaded a container")
        report = verify_runtime(rt, subject="fuzz")
        assert report.clean(), report.render_text()


def _verified_scenario():
    """A deterministic runtime whose trace replays clean (precondition)."""
    library = _fuzz_library()
    rt = RisppRuntime(library, 3, core_mhz=100.0)
    now = 1_000
    for _ in range(6):
        rt.forecast("HT", now, expected=40.0)
        rt.forecast("SATD", now, expected=10.0)
        for _ in range(8):
            now += rt.execute_si("HT", now)
        for _ in range(3):
            now += rt.execute_si("SATD", now)
        now += 70_000  # let rotations land between rounds
    rt.advance(now + 5_000_000)
    report = verify_runtime(rt)
    assert report.clean(), report.render_text()
    events = [
        Event(e.cycle, e.kind, e.task, e.si, dict(e.detail))
        for e in rt.trace.events
    ]
    return rt, events


def _verify(rt, events, totals=None):
    return verify_trace(
        events,
        rt.library,
        containers=len(rt.fabric),
        static_multiplicity=rt.fabric.static_multiplicity,
        totals=totals,
    )


class TestHandMutations:
    """Each mutation trips exactly its intended rule — no cascades."""

    def test_swapped_events_trip_only_trc001(self):
        rt, events = _verified_scenario()
        idx = next(
            i
            for i in range(len(events) - 1)
            if events[i].kind is EventKind.SI_EXECUTED
            and events[i + 1].kind is EventKind.SI_EXECUTED
            and events[i].cycle < events[i + 1].cycle
            and events[i].si == events[i + 1].si
            and events[i].detail == events[i + 1].detail
        )
        events[idx], events[idx + 1] = events[idx + 1], events[idx]
        report = _verify(rt, events)
        assert {d.rule_id for d in report} == {"TRC001"}, report.render_text()

    def test_double_occupied_container_trips_only_trc004(self):
        rt, events = _verified_scenario()
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.ROTATION_REQUESTED
        )
        e = events[idx]
        events.insert(
            idx + 1, Event(e.cycle, e.kind, e.task, e.si, dict(e.detail))
        )
        report = _verify(rt, events)
        assert {d.rule_id for d in report} == {"TRC004"}, report.render_text()

    def test_negative_energy_delta_trips_only_trc007(self):
        rt, events = _verified_scenario()
        totals = dataclasses.asdict(rt.stats)
        totals["si_cycles"] = -totals["si_cycles"]
        report = _verify(rt, events, totals=totals)
        assert {d.rule_id for d in report} == {"TRC007"}, report.render_text()
