"""repro.obs core: the catalogue contract, instruments, the NULL path."""

import math

import pytest

from repro.obs import (
    CYCLE_BUCKETS,
    DISABLED,
    METRICS,
    NULL,
    MetricRegistry,
)
from repro.obs.catalogue import COUNTER, HISTOGRAM, spec_of


class TestCatalogue:
    def test_names_follow_prometheus_conventions(self):
        for spec in METRICS.values():
            assert spec.full_name == f"rispp_{spec.name}"
            if spec.type == COUNTER:
                assert spec.name.endswith("_total"), spec.name
            else:
                assert not spec.name.endswith("_total"), spec.name

    def test_buckets_iff_histogram(self):
        for spec in METRICS.values():
            assert (spec.buckets is not None) == (spec.type == HISTOGRAM)

    def test_every_spec_names_source_and_paper(self):
        for spec in METRICS.values():
            assert spec.source.startswith("src/repro/")
            assert spec.paper
            assert spec.unit
            assert spec.help

    def test_label_values_cover_declared_labels(self):
        for spec in METRICS.values():
            for label in spec.label_values:
                assert label in spec.labels

    def test_cycle_buckets_are_increasing_powers_of_four(self):
        assert list(CYCLE_BUCKETS) == sorted(CYCLE_BUCKETS)
        assert CYCLE_BUCKETS[0] == 1.0
        assert CYCLE_BUCKETS[-1] == 4.0**10

    def test_spec_of_rejects_undeclared_names(self):
        with pytest.raises(ValueError, match="unknown metric"):
            spec_of("made_up_series_total")


class TestRegistry:
    def test_undeclared_metric_is_refused(self):
        with pytest.raises(ValueError, match="unknown metric"):
            MetricRegistry().counter("made_up_series_total")

    def test_type_mismatch_is_refused(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError, match="declared as a gauge"):
            reg.counter("port_queue_depth")
        with pytest.raises(ValueError, match="declared as a counter"):
            reg.histogram("si_executions_total")

    def test_same_name_returns_same_instrument(self):
        reg = MetricRegistry()
        assert reg.counter("mode_switches_total") is reg.counter(
            "mode_switches_total"
        )

    def test_instruments_come_back_in_catalogue_order(self):
        reg = MetricRegistry()
        reg.gauge("quarantine_depth")
        reg.counter("si_executions_total")
        names = [m.spec.name for m in reg.instruments()]
        assert names == ["si_executions_total", "quarantine_depth"]

    def test_disabled_registry_hands_out_null(self):
        reg = MetricRegistry(enabled=False)
        assert reg.counter("si_executions_total") is NULL
        assert reg.gauge("port_queue_depth") is NULL
        assert reg.histogram("si_latency_cycles") is NULL
        assert DISABLED.counter("mode_switches_total") is NULL


class TestLabels:
    def test_declared_children_are_preregistered(self):
        family = MetricRegistry().counter("si_executions_total")
        keys = [key for key, _ in family.children()]
        assert keys == [("hw",), ("sw",)]
        assert all(child.current() == 0 for _, child in family.children())

    def test_wrong_label_names_raise(self):
        family = MetricRegistry().counter("si_executions_total")
        with pytest.raises(ValueError, match="declares labels"):
            family.labels(kind="hw")

    def test_undeclared_label_value_raises(self):
        family = MetricRegistry().counter("si_executions_total")
        with pytest.raises(ValueError, match="declares values"):
            family.labels(mode="fpga")
        assert [key for key, _ in family.children()] == [("hw",), ("sw",)]

    def test_unbound_parent_refuses_samples(self):
        family = MetricRegistry().counter("si_executions_total")
        with pytest.raises(ValueError, match="bind a child"):
            family.inc()

    def test_child_refuses_further_labels(self):
        child = MetricRegistry().counter("si_executions_total").labels(
            mode="hw"
        )
        with pytest.raises(ValueError, match="already-bound"):
            child.labels(mode="sw")

    def test_child_is_cached(self):
        family = MetricRegistry().counter("replans_total")
        assert family.labels(outcome="planned") is family.labels(
            outcome="planned"
        )


class TestInstruments:
    def test_counter_counts_and_rejects_negatives(self):
        c = MetricRegistry().counter("mode_switches_total")
        c.inc()
        c.inc(2.0)
        assert c.current() == 3.0
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_counter_callback_wins_over_value(self):
        c = MetricRegistry().counter("container_churn_total")
        c.set_callback(lambda: 17.0)
        assert c.current() == 17.0

    def test_gauge_moves_both_ways(self):
        g = MetricRegistry().gauge("port_queue_depth")
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.current() == 3.0

    def test_gauge_callback_resolves_at_collection(self):
        state = {"v": 0.0}
        g = MetricRegistry().gauge("fabric_utilisation_ratio")
        g.set_callback(lambda: state["v"])
        state["v"] = 0.75
        assert g.current() == 0.75

    def test_histogram_buckets_by_bisect_left(self):
        h = MetricRegistry().histogram("si_latency_cycles")
        h.observe(1.0)   # exactly the first bound
        h.observe(5.0)   # between 4 and 16
        h.observe(1e9)   # beyond the ladder: +Inf overflow
        assert h.count == 3
        assert h.sum == pytest.approx(1.0 + 5.0 + 1e9)
        cumulative = dict(h.cumulative())
        assert cumulative[1.0] == 1
        assert cumulative[4.0] == 1
        assert cumulative[16.0] == 2
        assert cumulative[math.inf] == 3

    def test_histogram_callback_matches_observing_the_same_values(self):
        """A callback histogram maps each value to its multiplicity; it
        exports exactly what observing every value once would."""
        observed = MetricRegistry().histogram("si_latency_cycles")
        for value in (1, 5, 5, 5, 10**9):
            observed.observe(value)
        values = {1: 1, 5: 3}
        computed = MetricRegistry().histogram("si_latency_cycles")
        computed.observe(7)  # a callback overrides observations
        computed.set_callback(lambda: values)
        values[10**9] = 1  # resolved at collection, not at binding
        assert computed.cumulative() == observed.cumulative()
        assert computed.count == observed.count == 5
        assert computed.sum == observed.sum
        assert type(computed.sum) is float

    def test_histogram_cumulative_is_monotone(self):
        h = MetricRegistry().histogram("rotation_latency_cycles")
        for v in (3, 3000, 300000, 10**8):
            h.observe(v)
        counts = [c for _, c in h.cumulative()]
        assert counts == sorted(counts)
        assert counts[-1] == h.count

    def test_span_timer_records_seconds(self):
        h = MetricRegistry().histogram("replan_duration_seconds")
        with h.time():
            pass
        assert h.count == 1
        assert h.sum >= 0


class TestNull:
    def test_null_swallows_everything(self):
        assert NULL.enabled is False
        assert NULL.labels(mode="hw") is NULL
        NULL.inc()
        NULL.dec()
        NULL.set(3.0)
        NULL.observe(42.0)
        with NULL.time():
            pass
