"""The fixed handler table of the §5 runtime loop.

:data:`repro.runtime.events.HANDLERS` is the one place the loop's
reactions and their order are written down.  These tests hold it to the
taxonomy and to the trace-first rule; trace correctness itself is
covered by the reference-machine replay (``test_analysis_verify_fuzz``),
the trace contract (``test_trace_contract``) and the golden traces.
"""

import pytest

from repro.runtime.events import (
    BUS,
    EVENT_TYPES,
    HANDLERS,
    ForecastEnded,
    ReplanRequested,
)

#: Control events: they trigger reactions but never record a trace row.
CONTROL_EVENTS = (ReplanRequested,)


def _is_trace_recorder(handler) -> bool:
    return handler.__name__.startswith("_trace_")


class TestHandlerTable:
    def test_keys_are_the_taxonomy_in_order(self):
        assert tuple(HANDLERS) == EVENT_TYPES

    def test_every_event_has_a_reaction(self):
        assert all(HANDLERS[event_type] for event_type in EVENT_TYPES)

    @pytest.mark.parametrize("event_type", EVENT_TYPES, ids=lambda t: t.__name__)
    def test_trace_recorder_runs_first(self, event_type):
        row = HANDLERS[event_type]
        recorders = [h for h in row if _is_trace_recorder(h)]
        if event_type in CONTROL_EVENTS:
            assert recorders == []
        else:
            assert recorders == [row[0]]


class TestEventBusContract:
    def test_publish_runs_the_row_in_table_order(self, monkeypatch):
        calls = []
        row = tuple(
            (lambda rt, ev, tag=tag: calls.append((tag, rt, ev)))
            for tag in ("first", "second", "third")
        )
        monkeypatch.setitem(HANDLERS, ForecastEnded, row)
        event = ForecastEnded(0, task="A", si="HT")
        BUS.publish("runtime", event)
        assert calls == [
            ("first", "runtime", event),
            ("second", "runtime", event),
            ("third", "runtime", event),
        ]

    def test_unknown_event_type_is_rejected(self):
        class NotAnEvent:
            pass

        with pytest.raises(KeyError):
            BUS.publish(None, NotAnEvent())
